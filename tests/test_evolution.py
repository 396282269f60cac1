import cmath
import importlib
import math

import numpy as np
import pytest

from twomode.evolution import (CoherentStateSpec, assemble_U, c_coefficients,
                               coherent_evolution_closed, coherent_spec,
                               habeta_spectrum_check, ladder_eigenvalue_check)
from twomode.fock import (annihilator, coherent_state, expectation,
                          interior_mask, make_space)
from twomode.oracle import brute_force_propagator, compare_operators
from twomode.scenario import (AllConstantScenario, ConstantDrive,
                              ConstantPhaseScenario,
                              IsotropicConstantScenario, LogRhoScenario,
                              RhoConstantScenario, RotatingDrive)
from twomode.smatrix import smatrix_closed


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
    a1 = expectation(annihilator(space, 1), psi)
    a2 = expectation(annihilator(space, 2), psi)
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
    check = ladder_eigenvalue_check(space, spec, amps)
    assert abs(check.eigenvalue - spec.z0) < 1e-8
    assert check.residual < 1e-7
    # a fixed dressed mode at t = 0 gives the same eigenvalue
    at0 = coherent_evolution_closed(scenario, spec, 0.0)
    fixed = ladder_eigenvalue_check(
        space, spec, at0,
        coefficients=(np.conj(spec.alpha0), np.conj(spec.beta0)))
    assert abs(fixed.eigenvalue - spec.z0) < 1e-8


def test_dressed_number_spectrum():
    space = make_space(2)
    spec = CoherentStateSpec(z0=0.0, alpha0=ROOT_HALF, beta0=ROOT_HALF)
    check = habeta_spectrum_check(space, spec)
    assert np.array_equal(np.round(check.levels[:3]), [0, 1, 2])
    assert np.array_equal(check.counts[:3], [3, 2, 1])
    assert check.max_deviation < 1e-12


def test_assemble_matches_brute_force():
    space = make_space(6)
    scenario = AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j,
                                   f1=RotatingDrive(0.1, 1.0, 0.0))
    t = 1.0
    u = assemble_U(space, scenario, t)
    ref = brute_force_propagator(space, scenario, t, 2048)
    keep = interior_mask(space, 2)
    states = []
    for c1, c2 in ((0.0, 0.0), (0.3, 0.0), (0.2, -0.25j)):
        psi = coherent_state(space, c1, c2) * keep
        states.append(psi / np.linalg.norm(psi))
    report = compare_operators(u, ref, states, space=space)
    assert np.min(report.fidelities) > 1.0 - 1e-6


def test_assemble_survives_chart_singularity():
    # past the factor pole the assembly switches to the regular lift
    space = make_space(6)
    scenario = ConstantPhaseScenario(eta0=1.0, phi0=0.0)
    t = math.pi / 2.0 + 0.2
    u = assemble_U(space, scenario, t)
    assert np.max(np.abs(u.conj().T @ u - np.eye(space.dim))) < 1e-8
    ref = brute_force_propagator(space, scenario, t, 2048)
    keep = interior_mask(space, 2)
    psi = coherent_state(space, 0.3, 0.2j) * keep
    psi /= np.linalg.norm(psi)
    report = compare_operators(u, ref, [psi], space=space)
    assert np.min(report.fidelities) > 1.0 - 1e-6


def test_c_coefficients_on_a_time_array():
    scenario = AllConstantScenario(w11=0.4, w22=0.2, w12=0.15,
                                   f1=RotatingDrive(0.1, 1.0, 0.0),
                                   b=ConstantDrive(0.2))
    c0 = (0.3, -0.1j)
    times = np.linspace(0.0, 1.5, 7)
    batch = c_coefficients(scenario, c0, times)
    assert len(batch) == times.size
    for amps, t in zip(batch, times):
        single = c_coefficients(scenario, c0, float(t))
        assert amps.t == single.t
        assert abs(amps.c1 - single.c1) < 1e-9
        assert abs(amps.c2 - single.c2) < 1e-9
        assert abs(amps.global_phase - single.global_phase) < 1e-9
    with pytest.raises(ValueError):
        c_coefficients(scenario, c0, np.array([0.0, 1.0, 0.5]))


def test_assemble_makes_one_s_and_one_drive_solve(monkeypatch):
    calls = []
    for name in ("cli", "evolution", "fock", "oracle", "riccati",
                 "scenario", "smatrix"):
        module = importlib.import_module(f"twomode.{name}")
        if hasattr(module, "solve_ivp"):
            def counted(*args, _solve=module.solve_ivp, **kwargs):
                calls.append(args[1])
                return _solve(*args, **kwargs)
            monkeypatch.setattr(module, "solve_ivp", counted)
    scenario = AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j,
                                   f1=RotatingDrive(0.1, 1.0, 0.0))
    assemble_U(make_space(4), scenario, 1.0)
    assert len(calls) <= 2
