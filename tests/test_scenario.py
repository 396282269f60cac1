import inspect
import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import twomode.scenario
from dense_references import phase_model
from twomode.scenario import (CASES, AllConstantScenario, ConstantDrive,
                              ConstantPhaseScenario, CosineDrive,
                              FresnelNormScenario, GeneralPhaseScenario,
                              IsotropicConstantScenario, LinearPhaseScenario,
                              LogRhoScenario, QuadraticPhaseScenario,
                              RhoConstantScenario, RotatingDrive,
                              TabulatedScenario)

ALL_CASES = [
    ConstantPhaseScenario(eta0=1.0, phi0=0.3, w11=0.2, w22=0.05),
    LinearPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3, w11=0.15, w22=0.05),
    GeneralPhaseScenario(eta0=0.8, w0=1.2, phi0=0.2, theta0=1.0, nu=0.2),
    AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j),
    IsotropicConstantScenario(alpha=0.6, beta=0.8j),
    RhoConstantScenario(rho0=0.5, eta0=0.8, w0=1.0, theta_alpha0=0.3,
                        theta_beta0=-0.2),
    LogRhoScenario(t0=1.0, eta0=0.9, w0=0.7),
    QuadraticPhaseScenario(eta0=1.0, theta0=0.5),
    FresnelNormScenario(w12_0=1.0, nu=0.4, theta_v0=0.1, theta_u0=-0.2),
]


def test_case_table_lists_every_case():
    module = twomode.scenario
    cases = {obj for obj in vars(module).values()
             if inspect.isclass(obj) and issubclass(obj, module.Scenario)
             and obj is not module.Scenario}
    assert set(CASES.values()) == cases
    assert all(cls.case == tag for tag, cls in CASES.items())


def test_eta_relation():
    # eta(s) = -i w12(s) e^{i rho(s)} for every case
    for sc in ALL_CASES:
        for t in (0.2, 0.9):
            _, _, w12 = sc.coupling(t)
            _, rho = sc.diag_integrals(t)
            want = -1j * w12 * np.exp(1j * rho)
            assert abs(sc.eta(t) - want) < 1e-12


def test_diag_integrals_match_quadrature():
    from scipy.integrate import quad
    for sc in ALL_CASES:
        t_end = 1.3
        alpha, rho = sc.diag_integrals(t_end)
        alpha_q, _ = quad(lambda s: sc.coupling(s)[0] + sc.coupling(s)[1],
                          0.0, t_end, limit=200)
        rho_q, _ = quad(lambda s: sc.coupling(s)[0] - sc.coupling(s)[1],
                        0.0, t_end, limit=200)
        assert abs(alpha - alpha_q) < 1e-9
        assert abs(rho - rho_q) < 1e-9


def test_all_constant_frozen_integrals():
    sc = AllConstantScenario(w11=0.7, w22=0.3, w12=0.1)
    alpha, rho = sc.diag_integrals(2.0)
    assert abs(alpha - 2.0) < 1e-12
    assert abs(rho - 0.8) < 1e-12


def test_log_rho_initial_coefficients():
    sc = LogRhoScenario(t0=1.0, eta0=0.9, w0=0.7)
    w11, w22, w12 = sc.coupling(0.0)
    assert abs(w11 - 0.5) < 1e-12
    assert abs(w22 - 0.5) < 1e-12
    assert abs(abs(w12) - 0.5) < 1e-12
    assert abs(sc.mixing_angle0() - math.pi / 4.0) < 1e-12


def phase_residual(scenario, grid, phi):
    """theta12 - (phi + pi/2 - rho) on a grid array, for the model phase
    phi on the grid (or a constant), wrapped to [-pi, pi); 0 where w12
    vanishes, which carries no phase."""
    _, _, w12 = scenario.coupling(grid)
    _, rho = scenario.diag_integrals(grid)
    w12 = np.broadcast_to(w12, grid.shape)
    diff = np.angle(w12) - (phi + math.pi / 2.0 - rho)
    return np.where(np.abs(w12) < 1e-300, 0.0,
                    (diff + math.pi) % (2.0 * math.pi) - math.pi)


def test_phase_condition_holds_for_every_case_model():
    grid = np.linspace(0.0, 2.0, 41)
    for sc in ALL_CASES:
        residual = phase_residual(sc, grid, phase_model(sc, grid))
        assert np.max(np.abs(residual)) < 1e-9, sc.case


def test_phase_condition_negative_control():
    # constant coefficients with unequal diagonals fail the constant-phase
    # chart condition: theta12 is frozen but rho(t) advances linearly
    grid = np.linspace(0.0, 2.0, 21)
    bad = AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j)
    phi0 = float(np.angle(-1j * bad.w12))
    worst = np.max(np.abs(phase_residual(bad, grid, phi0)))
    assert abs(worst - 0.8) < 1e-9  # (w11 - w22) * t_end

    good = AllConstantScenario(w11=0.4, w22=0.4, w12=0.25 + 0.1j)
    phi0 = float(np.angle(-1j * good.w12))
    assert np.max(np.abs(phase_residual(good, grid, phi0))) <= 1e-9


def test_phase_condition_explicit_reference():
    sc = LinearPhaseScenario(eta0=1.0, w0=0.7, phi0=0.2)
    grid = np.linspace(0.0, 1.5, 16)
    assert np.max(np.abs(phase_residual(sc, grid, 0.2 + 0.7 * grid))) <= 1e-9
    assert np.max(np.abs(phase_residual(sc, grid, 0.2))) > 1e-9


# The same residual one time at a time, the reference for the coefficients
# on arrays, with a scalar FresnelNorm phase model.

def _scalar_fresnel_reference(sc):
    def phi(t):
        q = sc.tilt_angle(t)
        return 3.0 * q - math.tan(q) + sc.theta_v0 - sc.theta_u0 - math.pi
    return phi


def _loop_phase_residual(scenario, grid):
    if isinstance(scenario, FresnelNormScenario):
        phi = _scalar_fresnel_reference(scenario)
    else:
        def phi(t):
            return phase_model(scenario, t)
    residual = np.zeros_like(grid)
    for i, t in enumerate(grid):
        _, _, w12 = scenario.coupling(t)
        if abs(w12) < 1e-300:
            continue
        _, rho = scenario.diag_integrals(t)
        diff = np.angle(w12) - (phi(t) + math.pi / 2.0 - rho)
        residual[i] = (diff + math.pi) % (2.0 * math.pi) - math.pi
    return residual


def _drifting_tabulated():
    ts = np.linspace(0.0, 2.5, 26)
    w12 = (0.6 + 0.1 * ts) * np.exp(1j * (0.3 + 0.9 * ts))
    return TabulatedScenario.from_samples(ts, 0.4 + 0.1 * ts, 0.2 + 0 * ts,
                                          w12)


@pytest.mark.parametrize("scenario", ALL_CASES + [
    _drifting_tabulated(),
    AllConstantScenario(w11=0.3, w22=0.1, w12=0.0),
], ids=lambda s: s.case)
def test_phase_condition_on_arrays_matches_per_point_loop(scenario):
    grid = np.linspace(0.0, 2.5, 51)
    got = phase_residual(scenario, grid, phase_model(scenario, grid))
    want = _loop_phase_residual(scenario, grid)
    assert np.max(np.abs(got - want)) <= 1e-15


def test_phase_condition_on_an_empty_grid():
    empty = np.array([])
    for sc in ALL_CASES + [_drifting_tabulated()]:
        assert phase_residual(sc, empty, phase_model(sc, empty)).shape == (0,)


def test_general_phase_validation():
    with pytest.raises(ValueError):
        GeneralPhaseScenario(eta0=1.0, w0=1.0, theta0=0.0)
    with pytest.raises(ValueError):
        GeneralPhaseScenario(eta0=1.0, w0=1.0, theta0=1.0, nu=-0.3)
    with pytest.raises(ValueError):
        GeneralPhaseScenario(eta0=-1.0, w0=1.0)
    # same signs are fine, including the all-negative branch
    GeneralPhaseScenario(eta0=1.0, w0=1.0, theta0=-1.0, nu=-0.2)


def test_general_phase_reduces_to_linear():
    gp = GeneralPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3, theta0=1.0, nu=0.0)
    lp = LinearPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3)
    for t in np.linspace(0.0, 1.2, 7):
        assert abs(gp.eta(t) - lp.eta(t)) < 1e-12


def test_general_phase_norm_tracks_phase_speed():
    sc = GeneralPhaseScenario(eta0=0.8, w0=1.2, theta0=1.0, nu=0.2)
    for t in (0.0, 0.5, 1.1):
        _, _, w12 = sc.coupling(t)
        dphi = sc.theta0 + 2.0 * sc.nu * t
        assert abs(abs(w12) - (sc.eta0 / sc.w0) * dphi) < 1e-12


def test_isotropic_constructors():
    sc = IsotropicConstantScenario.from_polar(0.7, theta_alpha0=0.3,
                                              theta_beta0=-0.2)
    assert abs(abs(sc.alpha) ** 2 + abs(sc.beta) ** 2 - 1.0) < 1e-12
    assert abs(np.angle(sc.alpha) - 0.3) < 1e-12
    with pytest.raises(ValueError):
        IsotropicConstantScenario(alpha=1.0, beta=1.0)


def test_isotropic_coupling_and_integrals():
    sc = IsotropicConstantScenario(alpha=1 / math.sqrt(2),
                                   beta=1 / math.sqrt(2))
    _, _, w12 = sc.coupling(0.7)
    assert abs(w12 - 0.5) < 1e-12
    assert abs(sc.eta(0.7) + 0.5j) < 1e-12
    alpha, rho = sc.diag_integrals(1.7)
    assert abs(alpha - 1.7) < 1e-12
    assert abs(rho) < 1e-12


def test_rho_constant_structure():
    sc = RhoConstantScenario(rho0=math.pi / 6.0, eta0=0.8, w0=1.0)
    w11, w22, w12 = sc.coupling(0.9)
    assert abs(w11 - math.cos(math.pi / 6) ** 2) < 1e-12
    assert abs(w22 - math.sin(math.pi / 6) ** 2) < 1e-12
    assert abs(abs(w12)
               - math.sin(math.pi / 6) * math.cos(math.pi / 6)) < 1e-12
    assert abs(sc.delta - math.hypot(1.6, 1.0)) < 1e-12
    with pytest.raises(ValueError):
        RhoConstantScenario(rho0=0.0, eta0=1.0, w0=1.0)
    with pytest.raises(ValueError):
        RhoConstantScenario(rho0=0.5, eta0=-1.0, w0=1.0)


def test_rho_constant_zero_drift_ratio():
    # 2 eta0 / w0 = tan(2 rho0) freezes the coupling phase entirely
    rho0 = math.pi / 6.0
    sc = RhoConstantScenario(rho0=rho0, eta0=math.sqrt(3) / 2.0, w0=1.0)
    assert abs(sc.theta_drift) < 1e-12
    _, _, w12_0 = sc.coupling(0.0)
    _, _, w12_1 = sc.coupling(1.7)
    assert abs(np.angle(w12_1) - np.angle(w12_0)) < 1e-12


def test_log_rho_validation_and_rho_formula():
    with pytest.raises(ValueError):
        LogRhoScenario(t0=0.0, eta0=1.0, w0=1.0)
    sc = LogRhoScenario(t0=1.0, eta0=0.9, w0=0.7)
    for t in (0.3, 1.4):
        _, rho = sc.diag_integrals(t)
        want = 2 * math.atan(t + 1.0) - 2 * math.atan(1.0) - t
        assert abs(rho - want) < 1e-12


def test_quadratic_phase_eta():
    sc = QuadraticPhaseScenario(eta0=1.3, theta0=0.5)
    for t in (0.0, 0.6, 1.1):
        want = 1.3 * np.exp(-1j * 0.5 * t * t)
        assert abs(sc.eta(t) - want) < 1e-12
    with pytest.raises(ValueError):
        QuadraticPhaseScenario(eta0=1.0, theta0=0.0)


def test_fresnel_norm_profile():
    sc = FresnelNormScenario(w12_0=0.8, nu=0.6)
    for t in (0.0, 0.5, 1.2):
        _, _, w12 = sc.coupling(t)
        assert abs(abs(w12) - 0.8 * abs(math.cos(0.6 * t * t))) < 1e-12
    assert abs(sc.norm_integral(0.0)) == 0.0
    # psi is increasing and below the unconstrained-norm line
    psis = [sc.norm_integral(t) for t in (0.3, 0.6, 0.9)]
    assert psis[0] < psis[1] < psis[2]
    assert psis[2] <= 0.8 * 0.9 + 1e-12
    with pytest.raises(ValueError):
        FresnelNormScenario(w12_0=0.0, nu=0.5)


def test_drives_evaluate():
    const = ConstantDrive(0.2 + 0.1j)
    rot = RotatingDrive(0.1, 1.0, 0.4)
    cos = CosineDrive(0.3, 2.0, 0.1)
    assert const(1.7) == 0.2 + 0.1j
    assert abs(rot(0.7) - 0.1 * np.exp(1j * (0.7 + 0.4))) < 1e-15
    assert abs(cos(0.7) - 0.3 * math.cos(2.0 * 0.7 + 0.1)) < 1e-15


def test_scalar_drive_must_be_real():
    with pytest.raises(ValueError):
        AllConstantScenario(w11=0.1, w22=0.1, w12=0.1,
                            b=ConstantDrive(0.1 + 0.2j))
    AllConstantScenario(w11=0.1, w22=0.1, w12=0.1, b=ConstantDrive(0.1))


def test_drives_enter_samples():
    sc = AllConstantScenario(w11=0.1, w22=0.1, w12=0.1,
                             f1=RotatingDrive(0.1, 1.0, 0.0),
                             f2=ConstantDrive(0.2j),
                             b=CosineDrive(0.5, 1.0, 0.0))
    assert abs(sc.f1(0.9) - 0.1 * np.exp(0.9j)) < 1e-15
    assert sc.f2(0.9) == 0.2j
    assert abs(sc.b(0.9) - 0.5 * math.cos(0.9)) < 1e-15


def test_tabulated_roundtrip_against_closed_case():
    base = LinearPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3, w11=0.15, w22=0.05)
    ts = np.linspace(0.0, 2.0, 81)
    w11, w22, w12 = (np.broadcast_to(v, ts.shape) for v in base.coupling(ts))
    tab = TabulatedScenario.from_samples(ts, w11=w11, w22=w22, w12=w12)
    for t in (0.37, 1.12, 1.91):
        a, b = base.coupling(t), tab.coupling(t)
        assert abs(a[0] - b[0]) < 1e-6
        assert abs(a[2] - b[2]) < 1e-6
    alpha_a, rho_a = base.diag_integrals(1.7)
    alpha_b, rho_b = tab.diag_integrals(1.7)
    assert abs(alpha_a - alpha_b) < 1e-6
    assert abs(rho_a - rho_b) < 1e-6


def test_tabulated_validation():
    ts = np.array([0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        TabulatedScenario.from_samples(ts, w11=[0, 0, 0], w22=[0, 0, 0],
                                       w12=[0, 0, 0])
    ts = np.array([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(ValueError):
        TabulatedScenario.from_samples(ts, w11=np.zeros(4), w22=np.zeros(4),
                                       w12=np.zeros(4))
    tab = TabulatedScenario.from_samples(
        np.linspace(0, 1, 5), w11=np.zeros(5), w22=np.zeros(5),
        w12=np.full(5, 0.5))
    with pytest.raises(ValueError):
        tab.coupling(1.5)


def test_tabulated_csv(tmp_path):
    path = tmp_path / "coeffs.csv"
    rows = ["t,w11,w22,re_w12,im_w12,re_F1,im_F1,re_F2,im_F2,B"]
    for t in np.linspace(0.0, 1.0, 9):
        rows.append(f"{t},0.3,0.3,0.2,0.1,0.05,0.0,0.0,0.0,0.1")
    path.write_text("\n".join(rows) + "\n")
    tab = TabulatedScenario.from_csv(path)
    _, _, w12 = tab.coupling(0.5)
    assert abs(w12 - (0.2 + 0.1j)) < 1e-9
    assert abs(tab.f1(0.5) - 0.05) < 1e-9
    assert abs(tab.b(0.5) - 0.1) < 1e-9

    bad = tmp_path / "missing.csv"
    bad.write_text("t,w11\n0,0\n1,0\n2,0\n3,0\n")
    with pytest.raises(ValueError):
        TabulatedScenario.from_csv(bad)


def _tabulated_with_drives():
    ts = np.linspace(0.0, 2.0, 41)
    return TabulatedScenario.from_samples(
        ts, w11=0.3 + 0.1 * np.sin(ts), w22=0.2 * np.cos(ts),
        w12=(0.4 + 0.1 * ts) * np.exp(0.7j * ts),
        f1=0.1 * np.exp(1j * ts), f2=0.05 - 0.02j * ts, b=0.3 * np.cos(2 * ts))


ARRAY_CASES = ALL_CASES + [
    _tabulated_with_drives(),
    AllConstantScenario(w11=0.1, w22=0.2, w12=0.3,
                        f1=ConstantDrive(0.2 + 0.1j),
                        f2=RotatingDrive(0.1, 1.0, 0.4),
                        b=CosineDrive(0.3, 2.0, 0.1)),
]


def _assert_stacked(array_value, scalar_values):
    want = np.array(scalar_values)
    got = np.broadcast_to(array_value, want.shape)
    assert np.all(np.abs(got - want) <= 1e-15 * np.max(np.abs(want)))


@pytest.mark.parametrize("sc", ARRAY_CASES, ids=lambda sc: sc.case)
def test_array_times_match_scalar_calls(sc):
    ts = np.linspace(0.0, 1.9, 23)
    singles = [sc.coupling(float(t)) for t in ts]
    for got, want in zip(sc.coupling(ts), zip(*singles)):
        _assert_stacked(got, want)
    chart = sc.alt_chart(0.7)
    for value in (*singles[3], *sc.diag_integrals(0.7), *(chart or ())):
        assert np.isscalar(value)
    for drive in (sc.f1, sc.f2, sc.b):
        _assert_stacked(drive(ts), [drive(float(t)) for t in ts])
        assert np.isscalar(drive(0.7))


# The per-column splines that the one vector-valued Tabulated spline
# replaced, kept as its reference.

def _per_column_reference(ts, w11, w22, w12, drives):
    s11, s22 = CubicSpline(ts, w11), CubicSpline(ts, w22)
    s12re, s12im = CubicSpline(ts, w12.real), CubicSpline(ts, w12.imag)
    sum_int = CubicSpline(ts, w11 + w22).antiderivative()
    diff_int = CubicSpline(ts, w11 - w22).antiderivative()

    def coupling(t):
        return s11(t), s22(t), s12re(t) + 1j * s12im(t)

    def diag_integrals(t):
        # alpha and rho vanish at t = 0, where every flow starts
        return (sum_int(t) - sum_int(0.0), diff_int(t) - diff_int(0.0))

    def spline_drive(values):
        re, im = CubicSpline(ts, values.real), CubicSpline(ts, values.imag)
        return lambda t: re(t) + 1j * im(t)

    return coupling, diag_integrals, [spline_drive(v) for v in drives]


def test_tabulated_matches_per_column_splines():
    ts = np.linspace(-0.5, 2.0, 31)
    w11, w22 = 0.3 + 0.1 * np.sin(ts), 0.2 * np.cos(ts)
    w12 = (0.4 + 0.1 * ts) * np.exp(0.7j * ts)
    drives = (0.1 * np.exp(1j * ts), 0.05 - 0.02j * ts,
              (0.3 * np.cos(2 * ts)).astype(complex))
    tab = TabulatedScenario.from_samples(ts, w11, w22, w12, f1=drives[0],
                                         f2=drives[1], b=drives[2])
    coupling, diag_integrals, ref_drives = _per_column_reference(
        ts, w11, w22, w12, drives)
    probes = np.linspace(-0.5, 2.0, 53)
    for t in [*probes, probes]:
        pairs = [*zip(tab.coupling(t), coupling(t)),
                 *zip(tab.diag_integrals(t), diag_integrals(t)),
                 *zip((tab.f1(t), tab.f2(t), tab.b(t)),
                      (f(t) for f in ref_drives))]
        for got, want in pairs:
            assert np.shape(got) == np.shape(want)
            assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("sc", ARRAY_CASES, ids=lambda sc: sc.case)
def test_diag_integrals_on_arrays_match_scalar_calls(sc):
    ts = np.linspace(0.0, 1.9, 23)
    singles = [sc.diag_integrals(float(t)) for t in ts]
    for got, want in zip(sc.diag_integrals(ts), zip(*singles)):
        _assert_stacked(got, want)


def test_tabulated_integrals_start_at_time_zero():
    # samples before t = 0 must not shift alpha and rho: every flow starts
    # at 0 with S = I
    ts = np.linspace(-0.5, 2.0, 26)
    tab = TabulatedScenario.from_samples(ts, np.full(ts.size, 0.8),
                                         np.full(ts.size, 0.1),
                                         np.full(ts.size, 0.3 + 0.2j))
    assert tab.diag_integrals(0.0) == (0.0, 0.0)
    alpha, rho = tab.diag_integrals(np.array([-0.5, 1.0, 2.0]))
    assert np.max(np.abs(alpha - [-0.45, 0.9, 1.8])) < 1e-14
    assert np.max(np.abs(rho - [-0.35, 0.7, 1.4])) < 1e-14
    from twomode.riccati import solve_riccati_numeric
    factors = solve_riccati_numeric(tab, 1.0, grid=np.array([0.0, 1.0]))
    assert (factors.lam[0], factors.omega[0], factors.gamma[0]) == (0, 0, 0)
    assert factors.alpha[0] == factors.rho[0] == 0.0


def test_fresnel_norm_declares_its_kinks():
    sc = FresnelNormScenario(w12_0=1.0, nu=2.0)
    assert len(sc.breakpoints(0.5)) == 0
    kinks = sc.breakpoints(1.6)
    assert np.allclose(2.0 * kinks ** 2, [0.5 * math.pi, 1.5 * math.pi],
                       rtol=1e-15)
    exact = math.sqrt(math.pi / 4.0)
    assert len(sc.breakpoints(exact)) == 0
    assert len(sc.breakpoints(np.nextafter(exact, 2.0))) == 1


def test_fresnel_norm_integral_across_kinks():
    # an adaptive quad over [0, t] that is not told the kinks of
    # |cos(nu s^2)| misses them by up to 1e-5 just past one, and by 0.05
    # past some hundred (t = 18.5 has 218)
    from scipy.integrate import quad
    sc = FresnelNormScenario(w12_0=1.0, nu=2.0)

    def piecewise(t):
        edges = [0.0, *sc.breakpoints(t), t]
        return sum(quad(lambda s: abs(math.cos(2.0 * s * s)), lo, hi,
                        epsabs=1e-14, epsrel=1e-14)[0]
                   for lo, hi in zip(edges[:-1], edges[1:]))

    for t in [*np.linspace(0.8, 1.6, 41), 18.5]:
        assert abs(sc.norm_integral(t) - piecewise(t)) < 1e-12


def _quad_norm_integral(sc, t):
    # the adaptive quadrature that the closed psi replaced, told the kinks
    from scipy.integrate import quad
    if t == 0.0:
        return 0.0
    kinks = sc.breakpoints(t)
    val, _ = quad(lambda s: sc.w12_0 * abs(math.cos(sc.nu * s * s)),
                  0.0, t, epsabs=1e-12, epsrel=1e-12,
                  limit=200 + len(kinks),
                  points=kinks if len(kinks) else None)
    return val


@pytest.mark.parametrize("nu", [0.3, 1.0, 2.0])
def test_fresnel_norm_integral_matches_quadrature(nu):
    sc = FresnelNormScenario(w12_0=0.9, nu=nu)
    first_kink = math.sqrt(0.5 * math.pi / nu)
    # before the first kink, across the first few, and far past them
    times = np.concatenate([np.linspace(0.0, 4.0 * first_kink, 41),
                            [first_kink, np.nextafter(first_kink, 9.0), 18.5]])
    along = sc.norm_integral(times)
    for t, psi in zip(times, along):
        want = _quad_norm_integral(sc, float(t))
        assert abs(sc.norm_integral(float(t)) - want) <= 1e-12
        assert abs(psi - want) <= 1e-12


def test_fresnel_norm_coupling_on_an_array_matches_scalar_calls():
    sc = FresnelNormScenario(w12_0=1.0, nu=0.4, theta_v0=0.1, theta_u0=-0.2)
    times = np.linspace(0.0, 6.0, 61)
    _, _, w12 = sc.coupling(times)
    for t, w in zip(times, w12):
        assert abs(w - sc.coupling(float(t))[2]) <= 1e-12


def test_fresnel_norm_tilt_angle_on_an_array_matches_scalar_calls():
    sc = FresnelNormScenario(w12_0=1.0, nu=0.4, theta_v0=0.1, theta_u0=-0.2)
    times = np.linspace(0.0, 6.0, 61)
    q = sc.tilt_angle(times)
    assert q.shape == times.shape
    for t, want in zip(times, q):
        assert abs(sc.tilt_angle(float(t)) - want) <= 1e-15


@pytest.mark.parametrize("psi_target", [0.01, 5.0, 10.0, 18.0])
def test_fresnel_norm_chart_keeps_relative_accuracy(psi_target):
    # tan q = sinh psi and ln|cos q| = -ln cosh psi against mpmath at the
    # float psi the scenario reads; through q = gd(psi) tan q was 5e-10
    # off at psi = 18
    mpmath = pytest.importorskip("mpmath")
    from scipy.optimize import brentq

    sc = FresnelNormScenario(w12_0=1.0, nu=0.4, theta_v0=0.1, theta_u0=-0.2)
    t = brentq(lambda s: sc.norm_integral(s) - psi_target, 0.0, 40.0)
    with mpmath.workdps(40):
        psi = mpmath.mpf(float(sc.norm_integral(t)))
        q = 2 * mpmath.atan(mpmath.tanh(psi / 2))
        tanq = mpmath.sinh(psi)
        lam, omega, gamma = sc.alt_chart(t)
        checks = [(abs(lam), tanq), (abs(gamma), tanq),
                  (omega.real, 2 * mpmath.log(mpmath.cosh(psi)))]
        if psi_target >= 5.0:
            # sinh(psi) - gd(psi) cancels near t = 0, so only here
            checks += [(omega.imag, -2 * (tanq - q)),
                       (phase_model(sc, t),
                        3 * q - tanq + sc.theta_v0 - sc.theta_u0 - mpmath.pi)]
        for got, want in checks:
            assert abs(float(got) - want) <= 1e-14 * abs(want)


def test_only_fresnel_norm_declares_kinks():
    # |cos(nu s^2)| has corners, while a cubic spline stays C2 at its knots
    fresnel = FresnelNormScenario(w12_0=1.0, nu=2.0)
    assert np.array_equal(fresnel.kinks(3.0), fresnel.breakpoints(3.0))
    ts = np.linspace(0.0, 2.0, 9)
    tab = TabulatedScenario.from_samples(ts, 0.5 + 0.1 * ts, 0.2 + 0 * ts,
                                         0.3 * ts + 0.1j)
    assert len(tab.breakpoints(2.0)) == 7
    assert len(tab.kinks(2.0)) == 0


def test_tabulated_breakpoints_lie_in_the_span():
    # the knots in (0, t) only, as the base class declares: not those at
    # or past t, nor the knots of a table that starts before 0
    ts = np.linspace(0.0, 2.0, 9)
    tab = TabulatedScenario.from_samples(ts, 0.5 + 0.1 * ts, 0.2 + 0 * ts,
                                         0.3 * ts + 0.1j)
    assert np.array_equal(tab.breakpoints(1.0), [0.25, 0.5, 0.75])
    assert len(tab.breakpoints(0.25)) == 0
    assert len(tab.breakpoints(2.0)) == 7
    early = np.linspace(-0.5, 2.0, 11)
    tab = TabulatedScenario.from_samples(early, 0.5 + 0.1 * early,
                                         0.2 + 0 * early, 0.3 * early + 0.1j)
    assert np.array_equal(tab.breakpoints(1.0), [0.25, 0.5, 0.75])
