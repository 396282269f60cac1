import cmath
import importlib
import math

import numpy as np
import pytest
from scipy.integrate import OdeSolution, quad, solve_ivp

from dense_references import assert_close, dense_assemble_U, dressed_levels
from twomode import magnus
from twomode.evolution import (CoherentStateSpec, assemble_U, c_coefficients,
                               coherent_evolution_closed, coherent_spec,
                               ladder_eigenvalue_checks)
from twomode.fock import (annihilator, coherent_state, interior_mask,
                          make_space)
from twomode.oracle import brute_force_propagator, state_fidelities
from twomode.riccati import factors_on_grid, solve_riccati_numeric
from twomode.scenario import (AllConstantScenario, ConstantDrive,
                              ConstantPhaseScenario, CosineDrive,
                              FresnelNormScenario, IsotropicConstantScenario,
                              LinearPhaseScenario, LogRhoScenario,
                              QuadraticPhaseScenario, RhoConstantScenario,
                              RotatingDrive, TabulatedScenario)
from twomode.smatrix import smatrix_closed, smatrix_numeric_grid


ROOT_HALF = math.sqrt(0.5)


def test_spec_validation_and_initial_amplitudes():
    spec = CoherentStateSpec(z0=0.8, alpha0=ROOT_HALF, beta0=ROOT_HALF * 1j)
    c1, c2 = spec.c_initial
    assert abs(c1 - 0.8 * ROOT_HALF) < 1e-14
    assert abs(c2 + 0.8j * ROOT_HALF) < 1e-14
    with pytest.raises(ValueError):
        CoherentStateSpec(z0=1.0, alpha0=1.0, beta0=0.5)


def test_coherent_spec_extraction():
    iso = IsotropicConstantScenario(alpha=0.6, beta=0.8j, z0=0.3)
    spec = coherent_spec(iso)
    assert spec.z0 == 0.3 and spec.alpha0 == 0.6

    rho = RhoConstantScenario(rho0=math.pi / 4.0, eta0=0.5, w0=1.0,
                              theta_alpha0=0.2, theta_beta0=-0.1, z0=1j)
    spec = coherent_spec(rho)
    assert abs(abs(spec.alpha0) - math.cos(math.pi / 4.0)) < 1e-10

    with pytest.raises(ValueError):
        coherent_spec(ConstantPhaseScenario(eta0=1.0))


def test_undriven_amplitudes_follow_smatrix():
    scenario = AllConstantScenario(w11=0.5, w22=0.5, w12=0.5)
    amps = c_coefficients(scenario, (1.0, 0.0), math.pi)
    assert abs(amps.c1) < 1e-9
    assert abs(amps.c2 + 1.0) < 1e-9
    assert abs(amps.global_phase - 1.0) < 1e-12

    t = 1.3
    amps = c_coefficients(scenario, (0.4, -0.2j), t)
    want = smatrix_closed(scenario, t).mat @ np.array([0.4, -0.2j])
    assert abs(amps.c1 - want[0]) < 1e-9
    assert abs(amps.c2 - want[1]) < 1e-9
    assert abs(amps.norm2 - 0.2) < 1e-9


def test_scalar_term_only_phases():
    scenario = AllConstantScenario(w11=0.3, w22=0.1, w12=0.2,
                                   b=ConstantDrive(0.4))
    amps = c_coefficients(scenario, (0.0, 0.0), 1.5)
    assert abs(amps.global_phase - cmath.exp(-0.6j)) < 1e-10
    assert amps.norm2 < 1e-20


def test_driven_amplitudes_match_fock_expectations():
    space = make_space(6)
    scenario = AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j,
                                   f1=RotatingDrive(0.1, 1.0, 0.0))
    t = 1.2
    amps = c_coefficients(scenario, (0.0, 0.0), t)
    u = brute_force_propagator(space, scenario, t, 1024)
    psi = u[:, space.index(0, 0)]
    a1 = np.vdot(psi, annihilator(space, 1) @ psi)
    a2 = np.vdot(psi, annihilator(space, 2) @ psi)
    assert abs(a1 - amps.c1) < 1e-5
    assert abs(a2 - amps.c2) < 1e-5


def test_driven_vacuum_overlap_phase():
    # U|0> = phase * |coherent(c1, c2)>, so the vacuum matrix element pins
    # the scalar phase including the drive work term
    space = make_space(6)
    scenario = AllConstantScenario(w11=0.4, w22=0.2, w12=0.15,
                                   f1=RotatingDrive(0.1, 1.0, 0.0),
                                   b=ConstantDrive(0.2))
    t = 1.0
    amps = c_coefficients(scenario, (0.0, 0.0), t)
    u = brute_force_propagator(space, scenario, t, 2048)
    got = u[space.index(0, 0), space.index(0, 0)]
    want = amps.global_phase * math.exp(-0.5 * amps.norm2)
    assert abs(got - want) < 1e-5


def test_isotropic_closed_law():
    iso = IsotropicConstantScenario(alpha=0.6, beta=0.8j, z0=0.5)
    spec = coherent_spec(iso)
    for t in (0.5, 2.0):
        closed = coherent_evolution_closed(iso, spec, t)
        generic = c_coefficients(iso, spec.c_initial, t)
        assert abs(closed.c1 - generic.c1) < 1e-9
        assert abs(closed.c2 - generic.c2) < 1e-9
        assert abs(closed.c1 - 0.5 * 0.6 * cmath.exp(-1j * t)) < 1e-12
        assert abs(closed.norm2 - 0.25) < 1e-12


@pytest.mark.parametrize("scenario", [
    RhoConstantScenario(rho0=math.pi / 6.0, eta0=math.sqrt(3.0) / 2.0, w0=1.0,
                        theta_alpha0=0.3, theta_beta0=-0.2, z0=0.4),
    LogRhoScenario(t0=1.0, eta0=0.9, w0=0.7, z0=0.4),
], ids=["RhoConstant", "LogRho"])
def test_mixing_family_closed_law(scenario):
    spec = coherent_spec(scenario)
    for t in (0.4, 1.1, 1.9):
        closed = coherent_evolution_closed(scenario, spec, t)
        generic = c_coefficients(scenario, spec.c_initial, t, tol=1e-12)
        assert abs(closed.c1 - generic.c1) < 1e-9
        assert abs(closed.c2 - generic.c2) < 1e-9
        # norm conservation of the dressed eigenvalue
        assert abs(closed.norm2 - 0.16) < 1e-9


@pytest.mark.parametrize("scenario", [
    IsotropicConstantScenario.from_polar(0.5, 0.3, -0.4, z0=0.4 - 0.2j),
    RhoConstantScenario(rho0=0.6, eta0=0.8, w0=1.1, theta_alpha0=0.7,
                        theta_beta0=-0.3, z0=-0.3 + 0.5j),
], ids=["IsotropicConstant", "RhoConstant"])
def test_closed_law_starts_at_c_initial(scenario):
    # one formula for c(0): the closed law at t = 0 is c_initial, bit for bit
    spec = coherent_spec(scenario)
    at0 = coherent_evolution_closed(scenario, spec, 0.0)
    assert np.array([at0.c1, at0.c2]).tobytes() == spec.c_initial.tobytes()


def test_closed_law_follows_the_given_state():
    # c(0) comes from the state passed in, not from the case's dressed mode
    scenario = IsotropicConstantScenario.from_polar(0.4, 0.3, -0.2, z0=0.8)
    spec = CoherentStateSpec(z0=0.8, alpha0=1.0, beta0=0.0)
    for t in (0.4, 1.1, 2.3):
        closed = coherent_evolution_closed(scenario, spec, t)
        generic = c_coefficients(scenario, spec.c_initial, t, tol=1e-12)
        assert abs(closed.c1 - generic.c1) < 1e-9
        assert abs(closed.c2 - generic.c2) < 1e-9


def test_closed_law_on_a_constant_phase_state():
    scenario = ConstantPhaseScenario(eta0=1.0, phi0=0.3, w11=0.2, w22=0.05)
    spec = CoherentStateSpec(z0=0.5 + 0.2j, alpha0=0.6, beta0=0.8j)
    for t in (0.4, 1.1, 2.3):
        closed = coherent_evolution_closed(scenario, spec, t)
        generic = c_coefficients(scenario, spec.c_initial, t, tol=1e-12)
        assert abs(closed.c1 - generic.c1) < 1e-9
        assert abs(closed.c2 - generic.c2) < 1e-9
    with pytest.raises(ValueError, match="no printed closed S block"):
        coherent_evolution_closed(QuadraticPhaseScenario(eta0=1.0, theta0=0.5),
                                  spec, 1.0)


def test_closed_law_refuses_drives():
    iso = IsotropicConstantScenario(alpha=0.6, beta=0.8, z0=0.2,
                                    f1=ConstantDrive(0.1))
    with pytest.raises(ValueError):
        coherent_evolution_closed(iso, coherent_spec(iso), 1.0)


def test_ladder_eigenvalue():
    space = make_space(10)
    scenario = RhoConstantScenario(rho0=math.pi / 6.0,
                                   eta0=math.sqrt(3.0) / 2.0, w0=1.0, z0=0.4)
    spec = coherent_spec(scenario)
    amps = coherent_evolution_closed(scenario, spec, 1.3)
    (eigenvalue,), (residual,) = ladder_eigenvalue_checks(space, spec,
                                                          amps.c1, amps.c2)
    assert abs(eigenvalue - spec.z0) < 1e-8
    assert residual < 1e-7
    # at t = 0 the coefficients are the dressed mode: the same eigenvalue
    at0 = coherent_evolution_closed(scenario, spec, 0.0)
    (fixed,), _ = ladder_eigenvalue_checks(space, spec, at0.c1, at0.c2)
    assert abs(fixed - spec.z0) < 1e-8


def test_dressed_number_spectrum():
    space = make_space(2)
    levels, counts = dressed_levels(space, ROOT_HALF, ROOT_HALF)
    assert np.array_equal(counts, [3, 2, 1])
    assert np.max(np.abs(levels - np.arange(3))) < 1e-12


def test_assemble_matches_brute_force():
    space = make_space(6)
    scenario = AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j,
                                   f1=RotatingDrive(0.1, 1.0, 0.0))
    t = 1.0
    u = assemble_U(space, scenario, t)
    ref = brute_force_propagator(space, scenario, t, 2048)
    keep = interior_mask(space, 2)
    states = np.stack([coherent_state(space, c1, c2) * keep
                       for c1, c2 in ((0.0, 0.0), (0.3, 0.0), (0.2, -0.25j))],
                      axis=1)
    assert np.min(state_fidelities(u @ states, ref @ states)) > 1.0 - 1e-6


def test_assemble_survives_chart_singularity():
    # past the factor pole the lift needs no chart
    space = make_space(6)
    scenario = ConstantPhaseScenario(eta0=1.0, phi0=0.0)
    t = math.pi / 2.0 + 0.2
    u = assemble_U(space, scenario, t)
    # the lift is unitary on the complete shells and, on every entry, the
    # compression of the untruncated operator
    complete = interior_mask(space, 0)
    block = u[np.ix_(complete, complete)]
    assert np.max(np.abs(block.conj().T @ block
                         - np.eye(block.shape[0]))) < 1e-8
    assert_close(u, dense_assemble_U(space, scenario, t))
    ref = brute_force_propagator(space, scenario, t, 2048)
    keep = interior_mask(space, 2)
    psi = coherent_state(space, 0.3, 0.2j) * keep
    assert state_fidelities(u @ psi, ref @ psi) > 1.0 - 1e-6


@pytest.mark.parametrize("n_max", [6, 8])
@pytest.mark.parametrize("d", [1e-2, 1e-3, 1e-4])
def test_assemble_near_a_chart_pole(n_max, d):
    # |Lambda| ~ 1/d on a chart that still reads valid: U0 is the lift
    space = make_space(n_max)
    scenario = ConstantPhaseScenario(eta0=1.0, phi0=0.2)
    t = math.pi / 2.0 - d
    u = assemble_U(space, scenario, t)
    complete = interior_mask(space, 0)
    block = np.ix_(complete, complete)
    assert_close(u[block], dense_assemble_U(space, scenario, t)[block])
    keep = interior_mask(space, 2)
    states = np.stack([coherent_state(space, c1, c2) * keep
                       for c1, c2 in ((0.3, 0.0), (0.25 + 0.2j, -0.3j))],
                      axis=1)
    ref = brute_force_propagator(space, scenario, t, 2048, states)
    assert np.min(state_fidelities(u @ states, ref)) >= 1.0 - 1e-6


def test_empty_time_arrays_give_empty_results():
    driven = AllConstantScenario(w11=0.4, w22=0.2, w12=0.15,
                                 f1=RotatingDrive(0.1, 1.0, 0.0))
    closed = ConstantPhaseScenario(eta0=1.0, phi0=0.0)
    empty = np.array([])
    amps = c_coefficients(driven, (0.3, -0.1j), empty)
    for field in (amps.t, amps.c1, amps.c2, amps.global_phase):
        assert field.shape == (0,)
    for smat in (smatrix_numeric_grid(driven, empty),
                 smatrix_closed(closed, empty)):
        assert smat.mat.shape == (0, 2, 2)
    for factors in (solve_riccati_numeric(driven, 1.0, grid=empty),
                    factors_on_grid(closed, empty)):
        assert factors.lam.shape == factors.valid.shape == (0,)


def test_c_coefficients_on_a_time_array():
    scenario = AllConstantScenario(w11=0.4, w22=0.2, w12=0.15,
                                   f1=RotatingDrive(0.1, 1.0, 0.0),
                                   b=ConstantDrive(0.2))
    c0 = (0.3, -0.1j)
    times = np.linspace(0.0, 1.5, 7)
    batch = c_coefficients(scenario, c0, times)
    assert np.array_equal(batch.t, times)
    for t, c1, c2, phase in zip(times, batch.c1, batch.c2,
                                batch.global_phase):
        single = c_coefficients(scenario, c0, float(t))
        assert single.t == t
        assert abs(c1 - single.c1) < 1e-9
        assert abs(c2 - single.c2) < 1e-9
        assert abs(phase - single.global_phase) < 1e-9
    with pytest.raises(ValueError):
        c_coefficients(scenario, c0, np.array([0.0, 1.0, 0.5]))
    # the closed law on an array is its per-time calls; a scalar time gives
    # scalar fields
    for case in COHERENT_CASES:
        spec = coherent_spec(case)
        closed = coherent_evolution_closed(case, spec, times)
        for t, c1, c2, phase in zip(times, closed.c1, closed.c2,
                                    closed.global_phase):
            single = coherent_evolution_closed(case, spec, float(t))
            assert all(np.ndim(v) == 0 for v in (single.t, single.c1,
                                                 single.c2,
                                                 single.global_phase))
            assert abs(c1 - single.c1) <= 1e-15
            assert abs(c2 - single.c2) <= 1e-15
            assert phase == single.global_phase == 1.0


def _count_flows(monkeypatch):
    """The drives flag of every Magnus flow taken while the patch holds."""
    calls = []

    def counted(*args, _flow=magnus.flow, **kwargs):
        calls.append(kwargs.get("drives", False))
        return _flow(*args, **kwargs)
    monkeypatch.setattr(magnus, "flow", counted)
    return calls


def test_assemble_makes_one_s_and_one_drive_solve(monkeypatch):
    # S, the amplitudes and the phase all come from one drive flow
    calls = _count_flows(monkeypatch)
    scenario = AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j,
                                   f1=RotatingDrive(0.1, 1.0, 0.0))
    assemble_U(make_space(4), scenario, 1.0)
    assert calls == [True]


# The two printed coherent laws, isotropic and mixing-angle, kept as the
# reference for the single law.

def _reference_coherent(scenario, z0, t):
    if isinstance(scenario, IsotropicConstantScenario):
        ph = cmath.exp(-1j * t)
        return (z0 * np.conj(scenario.alpha) * ph,
                z0 * np.conj(scenario.beta) * ph)
    delta, w0, eta0 = (scenario.phase_family().delta, scenario.w0,
                       scenario.eta0)
    r0 = scenario.mixing_angle0()
    if isinstance(scenario, RhoConstantScenario):
        big_phi = (delta / (4.0 * eta0)) * math.sin(2.0 * r0) * t
        theta_ba = scenario.theta_drift * t
    else:
        log_term = math.log((1.0 + (t + scenario.t0) ** 2)
                            / (1.0 + scenario.t0 ** 2))
        big_phi = (delta / (4.0 * eta0)) * log_term
        theta_ba = ((w0 / (2.0 * eta0)) * log_term + t
                    + 2.0 * math.atan(scenario.t0)
                    - 2.0 * math.atan(t + scenario.t0))
    c, s = math.cos(big_phi), math.sin(big_phi)
    pre = cmath.exp(-0.5j * t)
    eb = cmath.exp(0.5j * theta_ba)
    ratio = 2.0 * eta0 / w0
    c1 = (pre * eb * z0 * math.cos(r0)
          * cmath.exp(-1j * scenario.theta_alpha0)
          * (c - 1j * (w0 / delta) * (1.0 + ratio * math.tan(r0)) * s))
    c2 = (pre * np.conj(eb) * z0 * math.sin(r0)
          * cmath.exp(-1j * scenario.theta_beta0)
          * (c + 1j * (w0 / delta) * (1.0 - ratio / math.tan(r0)) * s))
    return c1, c2


COHERENT_CASES = [
    IsotropicConstantScenario(alpha=0.6, beta=0.8j, z0=0.5),
    IsotropicConstantScenario.from_polar(math.pi / 4.0, 0.3, -0.5, z0=0.7j),
    IsotropicConstantScenario.from_polar(1.2, -0.7, 0.4, z0=0.3 - 0.4j),
    IsotropicConstantScenario(alpha=1.0, beta=0.0, z0=0.6),
    RhoConstantScenario(rho0=math.pi / 6.0, eta0=math.sqrt(3.0) / 2.0, w0=1.0,
                        theta_alpha0=0.3, theta_beta0=-0.2, z0=0.4),
    RhoConstantScenario(rho0=math.pi / 4.0, eta0=0.8, w0=1.1, z0=0.5 + 0.1j),
    RhoConstantScenario(rho0=1.2, eta0=0.5, w0=1.4, theta_alpha0=-0.6,
                        theta_beta0=0.9, z0=-0.3j),
    LogRhoScenario(t0=1.0, eta0=0.9, w0=0.7, z0=0.4),
    LogRhoScenario(t0=0.3, eta0=1.4, w0=0.5, theta_alpha0=0.8,
                   theta_beta0=-0.1, z0=0.2 + 0.5j),
]


@pytest.mark.parametrize("scenario", COHERENT_CASES,
                         ids=[s.case for s in COHERENT_CASES])
def test_coherent_law_matches_reference_laws(scenario):
    spec = coherent_spec(scenario)
    for t in (0.0, 0.4, 1.3, 2.9):
        amps = coherent_evolution_closed(scenario, spec, t)
        c1, c2 = _reference_coherent(scenario, spec.z0, t)
        assert abs(amps.c1 - c1) <= 1e-14
        assert abs(amps.c2 - c2) <= 1e-14


# The drive-integral route the linear amplitude flow replaced, kept as its
# reference: c(t) = S(t) (c0 - i int_0^t S^dag F) from a dense S, and P(t)
# summed with one adaptive quadrature per interval.  S and the drive
# integral come from one DOP853 solve per piece between the scenario's
# breakpoints, stitched into one dense solution, so the reference shares
# no code with the Magnus route it checks.

def _knot_by_knot(scenario, rhs, y0, t_end, tol):
    """Dense solution of dy/ds = rhs(s, y) on [0, t_end], one DOP853 solve
    per piece between the scenario's breakpoints."""
    edges = [0.0, *sorted(b for b in scenario.breakpoints(t_end)
                          if 0 < b < t_end), t_end]
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sol = solve_ivp(rhs, (lo, hi), y0, method="DOP853", rtol=tol,
                        atol=tol, dense_output=True)
        assert sol.status == 0
        pieces.append(sol.sol)
        y0 = sol.y[:, -1]
    ts = np.concatenate([pieces[0].ts] + [p.ts[1:] for p in pieces[1:]])
    return OdeSolution(ts, [f for p in pieces for f in p.interpolants])


def _reference_amplitudes(scenario, c0, times, tol):
    c0 = np.asarray(c0, dtype=complex)
    f_at = lambda s: np.array([complex(scenario.f1(s)),
                               complex(scenario.f2(s))])

    def rhs(s, y):
        # y = (S row-major, g) with dS/ds = -i W S and dg/ds = S^dag F
        w11, w22, w12 = scenario.coupling(s)
        w = np.array([[w11, w12], [np.conj(w12), w22]], dtype=complex)
        smat = y[:4].reshape(2, 2)
        return np.concatenate([(-1j * w @ smat).ravel(),
                               smat.conj().T @ f_at(s)])

    y0 = np.concatenate([np.eye(2).ravel(), np.zeros(2)]).astype(complex)
    dense = _knot_by_knot(scenario, rhs, y0, float(times[-1]), tol)

    def c_at(s):
        y = dense(s)
        return y[:4].reshape(2, 2) @ (c0 - 1j * y[4:])

    def p_integrand(s):
        return (np.vdot(f_at(s), c_at(s)).real
                + float(complex(scenario.b(s)).real))

    out, p, prev = [], 0.0, 0.0
    for t in times:
        if t > prev:
            p += quad(p_integrand, prev, t, epsabs=tol, epsrel=1e-11,
                      limit=400)[0]
        prev = t
        out.append((*c_at(t), cmath.exp(-1j * p)))
    return out


def _driven_table():
    """Smooth driven samples, 41 on [0, 3], as the benchmark draws them."""
    ts = np.linspace(0.0, 3.0, 41)
    return TabulatedScenario.from_samples(
        ts, w11=0.8 + 0.05 * np.sin(1.3 * ts + 0.4),
        w22=0.05 + 0.03 * np.cos(0.9 * ts - 1.1),
        w12=(0.14 + 0.03 * np.sin(1.7 * ts)) * np.exp(1j * (0.6 - 0.4 * ts)),
        f1=0.07 * np.exp(1j * (1.1 * ts + 0.3)),
        f2=np.full(ts.size, 0.03 - 0.02j), b=0.2 * np.cos(0.8 * ts))


AMPLITUDE_CASES = [
    (AllConstantScenario(w11=0.4, w22=0.2, w12=0.15,
                         f1=RotatingDrive(0.1, 1.0, 0.0),
                         b=ConstantDrive(0.2)), 2.0),
    (LinearPhaseScenario(eta0=1.1, w0=-0.6, phi0=0.2, w22=0.4,
                         f1=RotatingDrive(0.1 - 0.05j, 1.3, 0.2),
                         f2=ConstantDrive(0.02), b=CosineDrive(0.3, 0.9)), 2.0),
    (AllConstantScenario(w11=0.3, w22=0.1, w12=0.2 - 0.1j,
                         b=CosineDrive(0.4, 1.2, 0.3)), 2.0),
    (ConstantPhaseScenario(eta0=1.0, phi0=0.3, f2=ConstantDrive(0.1 + 0.05j)),
     math.pi / 2.0 + 0.4),
    (_driven_table(), 3.0),
]


@pytest.mark.parametrize("scenario,t_end", AMPLITUDE_CASES,
                         ids=["AllConstant", "LinearPhase", "B-only",
                              "ConstantPhase-past-pole", "Tabulated"])
def test_amplitudes_match_drive_integral_route(scenario, t_end):
    c0 = (0.3 - 0.1j, 0.2j)
    times = np.linspace(0.0, t_end, 7)
    got = c_coefficients(scenario, c0, times, tol=1e-12)
    want = _reference_amplitudes(scenario, c0, times, 1e-12)
    for c1, c2, phase, (want1, want2, want_phase) in zip(
            got.c1, got.c2, got.global_phase, want):
        assert abs(c1 - want1) <= 1e-9
        assert abs(c2 - want2) <= 1e-9
        assert abs(phase - want_phase) <= 1e-9


def test_tabulated_flows_match_knot_by_knot_reference():
    # the splines' third derivatives jump at every sample; an integration
    # that steps across samples without restarting is off by about 1e-8
    tab = _driven_table()
    c0 = np.array([0.3, -0.2j])

    def rhs(s, y):
        w11, w22, w12 = tab.coupling(s)
        w = np.array([[w11, w12], [np.conj(w12), w22]])
        c = y[4:6]
        f = np.array([tab.f1(s), tab.f2(s)])
        return np.concatenate([(-1j * w @ y[:4].reshape(2, 2)).ravel(),
                               -1j * (w @ c + f),
                               [np.vdot(f, c).real + tab.b(s).real]])

    y = np.concatenate([np.eye(2).ravel(), c0, [0.0]]).astype(complex)
    ref = [y]
    for lo, hi in zip(tab.grid[:-1], tab.grid[1:]):
        y = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-13,
                      atol=1e-13).y[:, -1]
        ref.append(y)
    ref = np.array(ref)
    mats = smatrix_numeric_grid(tab, tab.grid, tol=1e-10).mat
    amps = c_coefficients(tab, c0, tab.grid, tol=1e-10)
    for m, c1, c2, phase, want in zip(mats, amps.c1, amps.c2,
                                      amps.global_phase, ref):
        assert np.max(np.abs(m.ravel() - want[:4])) <= 1e-12
        assert abs(c1 - want[4]) <= 1e-12
        assert abs(c2 - want[5]) <= 1e-12
        assert abs(phase - cmath.exp(-1j * want[6].real)) <= 1e-12


@pytest.mark.parametrize("nu,t_end", [(3.0, 1.3), (2.0, 1.6)], ids=str)
def test_fresnel_norm_s_matches_kink_by_kink_reference(nu, t_end):
    # |cos(nu s^2)| has a kink wherever nu s^2 = (k + 1/2) pi; stepping
    # across them without restarting put S 7e-8 off at tol 1e-10
    scenario = FresnelNormScenario(w12_0=1.0, nu=nu)

    def rhs(s, y):
        w11, w22, w12 = scenario.coupling(s)
        w = np.array([[w11, w12], [np.conj(w12), w22]])
        return (-1j * w @ y.reshape(2, 2)).ravel()

    grid = np.linspace(0.0, t_end, 27)
    ref = np.empty((grid.size, 4), dtype=complex)
    y = np.eye(2, dtype=complex).ravel()
    kinks = [math.sqrt((k + 0.5) * math.pi / nu) for k in range(2)]
    assert kinks[-1] < t_end
    for lo, hi in zip([0.0, *kinks], [*kinks, t_end]):
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-13,
                        atol=1e-13, dense_output=True)
        inside = (grid >= lo) & (grid <= hi)
        ref[inside] = sol.sol(grid[inside]).T
        y = sol.y[:, -1]
    mats = smatrix_numeric_grid(scenario, grid, tol=1e-10).mat
    for m, want in zip(mats, ref):
        assert np.max(np.abs(m.ravel() - want)) <= 5e-10


def test_smooth_amplitudes_make_one_solve_and_no_quadrature(monkeypatch):
    flows = _count_flows(monkeypatch)
    quads = []
    for name in ("cli", "evolution", "fock", "magnus", "oracle", "riccati",
                 "scenario", "smatrix"):
        module = importlib.import_module(f"twomode.{name}")
        if hasattr(module, "quad"):
            def counted(*args, _orig=module.quad, **kwargs):
                quads.append(args)
                return _orig(*args, **kwargs)
            monkeypatch.setattr(module, "quad", counted)
    scenario, _ = AMPLITUDE_CASES[1]
    c_coefficients(scenario, (0.1, 0.0), np.linspace(0.0, 2.0, 11))
    assert flows == [True] and quads == []


def test_amplitudes_at_time_zero_are_the_initial_ones():
    scenario, _ = AMPLITUDE_CASES[0]
    c0 = (0.3 - 0.1j, 0.2j)
    only = c_coefficients(scenario, c0, np.array([0.0]))
    three = c_coefficients(scenario, c0, np.array([0.0, 0.0, 1.0]))
    for amps, k in ((only, 0), (three, 0), (three, 1)):
        assert (amps.t[k], amps.c1[k], amps.c2[k]) == (0.0, c0[0], c0[1])
        assert amps.global_phase[k] == 1.0
    last = c_coefficients(scenario, c0, 1.0)
    assert ((three.t[2], three.c1[2], three.c2[2], three.global_phase[2])
            == (last.t, last.c1, last.c2, last.global_phase))
