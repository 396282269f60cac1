"""Acceptance gate: ten end-to-end checks of the factorized evolution
pipeline against independent oracles, each printing one pass/fail line.

Run with `pytest -v -rA tests/test_acceptance.py` to see the lines.
"""

import cmath
import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from dense_references import dressed_levels
from twomode.evolution import (assemble_U, c_coefficients,
                               coherent_evolution_closed, coherent_spec,
                               ladder_eigenvalue_checks)
from twomode.fock import (annihilator, coherent_state, interior_mask,
                          make_space, schwinger_lift)
from twomode.oracle import (brute_force_propagator, brute_force_smatrix,
                            state_fidelities)
from twomode.riccati import (closed_factors, factors_on_grid,
                             solve_riccati_numeric)
from twomode.scenario import (AllConstantScenario, ConstantPhaseScenario,
                              FresnelNormScenario, GeneralPhaseScenario,
                              IsotropicConstantScenario, LinearPhaseScenario,
                              LogRhoScenario, QuadraticPhaseScenario,
                              RhoConstantScenario, RotatingDrive,
                              TabulatedScenario)
from twomode.smatrix import (smatrix_closed, smatrix_from_factors,
                             smatrix_numeric_grid)
from twomode.special import fresnel_c, kummer_1f1

ROOT_HALF = math.sqrt(0.5)


def report(num, ok, detail):
    status = "pass" if ok else "FAIL"
    print(f"criterion {num}: {status}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def first_pole(scenario):
    """First time the rotated tan argument of the closed phase-family
    forms reaches pi/2.  Only the ConstantPhase chart actually blows up
    there; for the others it is where the printed formulas need the most
    care, which is what the comparison should stress."""
    w0 = getattr(scenario, "w0", 0.0)
    delta = math.hypot(2.0 * scenario.eta0, w0)

    def x_of(t):
        if w0 == 0.0:
            return scenario.eta0 * t
        return delta * scenario.phi_tilde(t) / (2.0 * w0)

    return brentq(lambda t: x_of(t) - math.pi / 2.0, 1e-9, 20.0)


def test_criterion_01_closed_riccati_matches_numeric():
    cases = [
        ConstantPhaseScenario(eta0=1.0, phi0=0.0),
        LinearPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3),
        GeneralPhaseScenario(eta0=1.0, w0=1.0, phi0=0.0, theta0=1.0, nu=0.2),
    ]
    worst = 0.0
    slowest = 0.0
    for scenario in cases:
        start = time.perf_counter()
        grid = np.linspace(0.0, 0.8 * first_pole(scenario), 101)
        numeric = solve_riccati_numeric(scenario, float(grid[-1]),
                                        tol=1e-12, grid=grid)
        lam, _, _ = closed_factors(scenario, grid)
        worst = max(worst, float(np.max(np.abs(lam - numeric.lam))))
        slowest = max(slowest, time.perf_counter() - start)
    report(1, worst < 1e-8 and slowest < 5.0,
           f"max |Lambda_closed - Lambda_numeric| = {worst:.3e} (tol 1e-8), "
           f"slowest case {slowest:.2f}s (limit 5s)")


def test_criterion_02_constant_phase_identities():
    scenario = ConstantPhaseScenario(eta0=1.0, phi0=0.0)
    grid = np.linspace(0.0, 0.8 * first_pole(scenario), 101)
    factors = solve_riccati_numeric(scenario, float(grid[-1]),
                                    tol=1e-12, grid=grid)
    m = factors.valid
    im_omega = float(np.max(np.abs(factors.omega[m].imag)))
    conj_res = float(np.max(np.abs(factors.gamma[m] + np.conj(factors.lam[m]))))
    report(2, im_omega < 1e-9 and conj_res < 1e-9,
           f"max Im Omega = {im_omega:.3e}, "
           f"max |Gamma + conj(Lambda)| = {conj_res:.3e} "
           "(tol 1e-9 each)")


def test_criterion_03_printed_smatrix_blocks():
    cases = [
        ConstantPhaseScenario(eta0=1.0, phi0=0.3, w11=0.2, w22=0.05),
        LinearPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3, w11=0.15, w22=0.05),
        GeneralPhaseScenario(eta0=0.8, w0=1.2, phi0=0.2, theta0=1.0, nu=0.2),
        AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j),
        RhoConstantScenario(rho0=math.pi / 6.0, eta0=0.8, w0=1.0,
                            theta_alpha0=0.3, theta_beta0=-0.2),
    ]
    times = np.linspace(0.1, 2.0, 20)
    worst_block = 0.0
    worst_unitarity = 0.0
    worst_det = 0.0
    for scenario in cases:
        for t in times:
            closed = smatrix_closed(scenario, float(t))
            oracle = brute_force_smatrix(scenario, float(t), 4096)
            worst_block = max(worst_block,
                              float(np.max(np.abs(closed.mat - oracle))))
            worst_unitarity = max(worst_unitarity, closed.unitarity_defect)
            alpha, _ = scenario.diag_integrals(float(t))
            worst_det = max(worst_det,
                            abs(np.linalg.det(closed.mat)
                                - cmath.exp(-1j * alpha)))
    ok = worst_block < 1e-6 and worst_unitarity < 1e-9 and worst_det < 1e-9
    report(3, ok,
           f"five printed blocks vs 4096-step oracle at 20 times: "
           f"max dev {worst_block:.3e} (tol 1e-6), "
           f"unitarity {worst_unitarity:.3e} (tol 1e-9), "
           f"det drift {worst_det:.3e} (tol 1e-9)")


def test_criterion_04_factor_reconstruction():
    cases = [
        (ConstantPhaseScenario(eta0=1.0, phi0=0.3, w11=0.2, w22=0.05), 1.2),
        (LinearPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3, w11=0.15,
                             w22=0.05), 0.9),
        (GeneralPhaseScenario(eta0=0.8, w0=1.2, phi0=0.2, theta0=1.0,
                              nu=0.2), 0.9),
        (AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j), 2.0),
        (IsotropicConstantScenario(alpha=ROOT_HALF, beta=ROOT_HALF), 2.0),
        (RhoConstantScenario(rho0=math.pi / 6.0, eta0=0.8, w0=1.0,
                             theta_alpha0=0.3, theta_beta0=-0.2), 1.5),
        (LogRhoScenario(t0=1.0, eta0=0.9, w0=0.7), 1.5),
        (QuadraticPhaseScenario(eta0=1.0, theta0=0.5), 1.0),
        (FresnelNormScenario(w12_0=1.0, nu=0.4, theta_v0=0.1,
                             theta_u0=-0.2), 1.0),
    ]
    base = LinearPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3)
    ts = np.linspace(0.0, 1.5, 81)
    samples = np.array([base.coupling(t) for t in ts])
    cases.append((TabulatedScenario.from_samples(
        ts, samples[:, 0].real, samples[:, 1].real, samples[:, 2]), 1.5))

    worst = 0.0
    for scenario, t_max in cases:
        factors = solve_riccati_numeric(scenario, t_max, tol=1e-12)
        times = np.linspace(0.2, t_max, 5)
        direct = smatrix_numeric_grid(scenario, times, tol=1e-12)
        for t, want in zip(times, direct.mat):
            rebuilt = smatrix_from_factors(factors, float(t))
            worst = max(worst, float(np.max(np.abs(rebuilt.mat - want))))

    # alternative ordering for the quadratic-phase showcase on [0, 1]
    qp = QuadraticPhaseScenario(eta0=1.0, theta0=0.5)
    alt = factors_on_grid(qp, np.linspace(0.0, 1.0, 6),
                          ordering="alternative")
    times = np.linspace(0.2, 1.0, 5)
    direct = smatrix_numeric_grid(qp, times, tol=1e-12)
    for t, want in zip(times, direct.mat):
        rebuilt = smatrix_from_factors(alt, float(t))
        worst = max(worst, float(np.max(np.abs(rebuilt.mat - want))))
    report(4, worst < 1e-7,
           f"factor route vs direct integration over all scenario cases "
           f"plus the alternative quadratic-phase chart: "
           f"max dev {worst:.3e} (tol 1e-7)")


def test_criterion_05_full_operator_oracle():
    start = time.perf_counter()
    space = make_space(8)
    scenario = AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j,
                                   f1=RotatingDrive(0.1, 1.0, 0.0))
    t = 1.0
    u = assemble_U(space, scenario, t)
    ref = brute_force_propagator(space, scenario, t, 4096)
    states = np.stack([coherent_state(space, c1, c2)
                       for c1, c2 in ((0.3, 0.0), (0.0, 0.4),
                                      (0.25 + 0.2j, -0.3j), (0.5, 0.0),
                                      (-0.2, 0.35j))], axis=1)
    fid = float(np.min(state_fidelities(u @ states, ref @ states)))
    elapsed = time.perf_counter() - start
    report(5, fid >= 1.0 - 1e-6 and elapsed < 60.0,
           f"min fidelity over 5 coherent states = {fid:.12f} "
           f"(need >= 1 - 1e-6), runtime {elapsed:.1f}s (limit 60s)")


def test_criterion_06_isotropic_coherent_law():
    scenario = IsotropicConstantScenario(alpha=ROOT_HALF, beta=ROOT_HALF,
                                         z0=1.0)
    spec = coherent_spec(scenario)
    times = np.linspace(0.1, 2.0, 20)
    amps = c_coefficients(scenario, spec.c_initial, times, tol=1e-12)
    want = ROOT_HALF * np.exp(-1j * times)
    worst = float(max(np.max(np.abs(amps.c1 - want)),
                      np.max(np.abs(amps.c2 - want))))
    report(6, worst < 1e-9,
           f"c_sigma(t) = Z conj(alpha) e^(-it) from the generic pipeline "
           f"at 20 times: max dev {worst:.3e} (tol 1e-9)")


def test_criterion_07_conservation_and_eigenvalue():
    space = make_space(10)
    cases = [
        RhoConstantScenario(rho0=math.pi / 6.0, eta0=0.5 * math.sqrt(3.0),
                            w0=1.0, z0=0.5),
        LogRhoScenario(t0=1.0, eta0=0.9, w0=0.7, z0=0.5),
    ]
    worst_norm = 0.0
    worst_eig = 0.0
    worst_res = 0.0
    for scenario in cases:
        spec = coherent_spec(scenario)
        amps = coherent_evolution_closed(scenario, spec,
                                         np.linspace(0.0, 2.0, 9))
        eigenvalues, residuals = ladder_eigenvalue_checks(space, spec,
                                                          amps.c1, amps.c2)
        worst_norm = max(worst_norm, np.max(np.abs(amps.norm2 - 0.25)))
        worst_eig = max(worst_eig, np.max(np.abs(eigenvalues - spec.z0)))
        worst_res = max(worst_res, np.max(residuals))
    ok = worst_norm < 1e-9 and worst_eig < 1e-7 and worst_res < 1e-7
    report(7, ok,
           f"|c1|^2 + |c2|^2 drift {worst_norm:.3e} (tol 1e-9); lowering "
           f"eigenvalue dev {worst_eig:.3e} and residual {worst_res:.3e} "
           "(tol 1e-7, n_max = 10)")


def test_criterion_08_dressed_spectrum_and_conjugation():
    space = make_space(8)
    levels, _ = dressed_levels(space, ROOT_HALF, ROOT_HALF)
    spectrum_dev = float(np.max(np.abs(levels[:6] - np.arange(6))))
    a_op = ROOT_HALF * annihilator(space, 1) + ROOT_HALF * annihilator(space, 2)
    h = a_op.conj().T @ a_op
    # the quarter rotation taking the dressed mode onto mode 1
    t1 = schwinger_lift(space, [[ROOT_HALF, -ROOT_HALF],
                                [ROOT_HALF, ROOT_HALF]])
    n1 = np.diag(np.diag(annihilator(space, 1).conj().T
                         @ annihilator(space, 1)))
    conj = t1.conj().T @ h @ t1
    inner = interior_mask(space, 1)
    dev = float(np.max(np.abs((conj - n1)[np.ix_(inner, inner)])))
    ok = spectrum_dev < 1e-8 and dev < 1e-8
    report(8, ok,
           f"lowest six dressed-number levels off 0..5 by "
           f"{spectrum_dev:.3e} (tol 1e-8); conjugated Hamiltonian "
           f"vs n1 entrywise {dev:.3e} on the interior (tol 1e-8)")


def test_criterion_09_special_functions():
    k = kummer_1f1(1.0, 1.0, 1j).value
    kummer_dev = abs(k - cmath.exp(1j))

    frozen = abs(fresnel_c(1.0).value - 0.7798934)
    quad_ref, _ = quad(lambda u: math.cos(math.pi * u * u / 2.0), 0.0, 1.0,
                       epsabs=1e-13, epsrel=1e-13)
    quad_dev = abs(fresnel_c(1.0).value - quad_ref)

    eta0, theta0 = 1.0, 0.5
    a = 1j * eta0 ** 2 / (4.0 * theta0)
    ts = np.linspace(0.0, 1.0, 8001)
    u_vals = np.empty((ts.size, 2), dtype=complex)
    for i, s in enumerate(ts):
        z = 1j * theta0 * s * s
        u_vals[i, 0] = kummer_1f1(a, 0.5, z).value
        u_vals[i, 1] = -eta0 ** 2 * s * kummer_1f1(a + 1.0, 1.5, z).value
    # centred differences against u' = w, w' = 2i theta0 s w - eta0^2 u
    u, w, s = u_vals[1:-1, 0], u_vals[1:-1, 1], ts[1:-1]
    residual = float(np.max(np.abs(
        (u_vals[2:] - u_vals[:-2]) / (ts[2:] - ts[:-2])[:, None]
        - np.stack([w, 2j * theta0 * s * w - eta0 ** 2 * u], axis=1))))
    ok = kummer_dev < 1e-12 and frozen < 1e-6 and quad_dev < 1e-6 \
        and residual < 1e-8
    report(9, ok,
           f"1F1(1,1,i) off e^i by {kummer_dev:.3e} (tol 1e-12); C(1) off "
           f"0.7798934 by {frozen:.3e} and quadrature by {quad_dev:.3e} "
           f"(tol 1e-6); u(s) equation residual {residual:.3e} (tol 1e-8)")


def test_criterion_10_oracle_self_consistency():
    scenario = LinearPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3)
    t = 1.0
    ref = brute_force_smatrix(scenario, t, 4096)
    d1 = float(np.max(np.abs(brute_force_smatrix(scenario, t, 256) - ref)))
    d2 = float(np.max(np.abs(brute_force_smatrix(scenario, t, 512) - ref)))
    ratio = d1 / d2
    defect = float(np.max(np.abs(ref.conj().T @ ref - np.eye(2))))
    ok = 3.5 <= ratio <= 4.5 and defect < 1e-9
    report(10, ok,
           f"step-doubling deviation ratio {ratio:.3f} (window [3.5, 4.5]), "
           f"unitarity defect {defect:.3e} (tol 1e-9)")
