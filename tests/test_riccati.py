import cmath
import math

import numpy as np
import pytest

from twomode.riccati import (
    ChartSingularity,
    ConditionViolated,
    alt_factors,
    alt_factors_fresnel,
    alt_factors_quadratic_phase,
    alt_factors_theta_u_zero,
    alternative_from_standard,
    closed_factors,
    factors_on_grid,
    gamma_conjugacy_check,
    solve_riccati_numeric,
)
from twomode.scenario import (
    AllConstantScenario,
    ConstantPhaseScenario,
    FresnelNormScenario,
    GeneralPhaseScenario,
    IsotropicConstantScenario,
    LinearPhaseScenario,
    LogRhoScenario,
    QuadraticPhaseScenario,
    RhoConstantScenario,
    TabulatedScenario,
)

PHASE_CASES = [
    (ConstantPhaseScenario(eta0=1.0, phi0=0.3, w11=0.2, w22=0.05), 1.2),
    (LinearPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3, w11=0.15, w22=0.05), 0.9),
    (GeneralPhaseScenario(eta0=0.8, w0=1.2, phi0=0.2, theta0=1.0, nu=0.2), 0.9),
    (AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j), 2.0),
    (RhoConstantScenario(rho0=0.5, eta0=0.8, w0=1.0,
                         theta_alpha0=0.3, theta_beta0=-0.2), 1.5),
    (LogRhoScenario(t0=1.0, eta0=0.9, w0=0.7), 1.5),
]


def test_closed_factors_start_at_zero():
    for scenario, _ in PHASE_CASES:
        lam, omega, gamma = closed_factors(scenario, 0.0)
        assert abs(lam) < 1e-14
        assert abs(omega) < 1e-14
        assert abs(gamma) < 1e-14


def test_constant_phase_frozen_values():
    cp = ConstantPhaseScenario(eta0=1.0, phi0=0.0)
    lam, omega, gamma = closed_factors(cp, math.pi / 4.0)
    assert abs(lam - 1.0) < 1e-12
    assert abs(omega - math.log(2.0)) < 1e-12
    assert abs(gamma + 1.0) < 1e-12


def test_zero_coupling_gives_trivial_factors():
    flat = AllConstantScenario(w11=0.2, w22=0.1, w12=0.0)
    got = solve_riccati_numeric(flat, 1.5)
    assert np.all(got.valid)
    assert np.max(np.abs(got.lam)) < 1e-12
    assert np.max(np.abs(got.omega)) < 1e-12
    assert np.max(np.abs(got.gamma)) < 1e-12
    # the diagonal integrals still accumulate
    assert abs(got.alpha[-1] - 0.45) < 1e-12


def test_linear_phase_zero_slope_collapses():
    lin = LinearPhaseScenario(eta0=1.0, w0=0.0, phi0=0.3)
    base = ConstantPhaseScenario(eta0=1.0, phi0=0.3)
    for t in (0.2, 0.7, 1.2):
        got = closed_factors(lin, t)
        want = closed_factors(base, t)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12


def test_general_phase_zero_curvature_collapses():
    # with the initial phase speed equal to w0 the slaved norm is eta0 again
    gen = GeneralPhaseScenario(eta0=0.8, w0=1.2, phi0=0.2, theta0=1.2, nu=0.0)
    base = LinearPhaseScenario(eta0=0.8, w0=1.2, phi0=0.2)
    for t in (0.3, 0.8, 1.4):
        got = closed_factors(gen, t)
        want = closed_factors(base, t)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12


@pytest.mark.parametrize("scenario,t_end", PHASE_CASES,
                         ids=[s.case for s, _ in PHASE_CASES])
def test_closed_matches_numeric(scenario, t_end):
    grid = np.linspace(0.0, t_end, 21)
    numeric = solve_riccati_numeric(scenario, t_end, tol=1e-12, grid=grid)
    assert np.all(numeric.valid)
    lam, omega, gamma = closed_factors(scenario, grid)
    assert np.max(np.abs(lam - numeric.lam)) < 1e-8
    assert np.max(np.abs(omega - numeric.omega)) < 1e-8
    assert np.max(np.abs(gamma - numeric.gamma)) < 1e-8


def test_closed_lambda_satisfies_riccati_equation():
    # centered differences of the closed solution against the defining
    # equation dLambda/ds = eta + conj(eta) Lambda^2
    scenario = ConstantPhaseScenario(eta0=1.0, phi0=0.3, w11=0.2, w22=0.05)
    grid = np.linspace(0.0, 0.8, 40001)
    lam, _, _ = closed_factors(scenario, grid)
    h = grid[1] - grid[0]
    d = (lam[2:] - lam[:-2]) / (2.0 * h)
    eta = np.array([scenario.eta(t) for t in grid[1:-1]])
    residual = np.max(np.abs(d - (eta + np.conj(eta) * lam[1:-1] ** 2)))
    assert residual < 5e-9


def test_conjugacy_holds_for_constant_phase():
    scenario = ConstantPhaseScenario(eta0=1.0, phi0=0.4)
    factors = factors_on_grid(scenario, np.linspace(0.0, 1.2, 61))
    report = gamma_conjugacy_check(factors)
    assert report.max_conj_residual < 1e-9
    assert report.max_im_omega < 1e-9


def test_conjugacy_trivial_for_zero_coupling():
    flat = AllConstantScenario(w11=0.1, w22=0.3, w12=0.0)
    report = gamma_conjugacy_check(solve_riccati_numeric(flat, 1.0))
    assert report.max_conj_residual < 1e-12
    assert report.max_im_omega < 1e-12


def test_conjugacy_breaks_when_phase_drifts():
    scenario = LinearPhaseScenario(eta0=1.0, w0=1.0)
    factors = factors_on_grid(scenario, np.linspace(0.0, 1.2, 61))
    report = gamma_conjugacy_check(factors)
    assert report.max_im_omega > 1e-3


def test_alternative_chart_relations():
    scenario = AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j)
    for t in (0.4, 1.1, 1.8):
        lam, omega, gamma = closed_factors(scenario, t)
        _, rho = scenario.diag_integrals(t)
        alt_lam, alt_omega, alt_gamma = alt_factors(scenario, t)
        assert abs(alt_lam - lam * cmath.exp(-1j * rho)) < 1e-12
        assert abs(alt_omega - (omega - 1j * rho)) < 1e-12
        assert abs(alt_gamma - gamma) < 1e-12
        # and the relations undo exactly
        back = alternative_from_standard(lam, omega, gamma, rho)
        assert abs(back[0] - alt_lam) < 1e-15


def test_frozen_phase_alternative_frozen_values():
    # phi0 = pi puts theta_v0 at 3 pi / 2, flipping the signs relative to
    # the phi0 = 0 standard-chart triple
    cp = ConstantPhaseScenario(eta0=1.0, phi0=math.pi)
    lam, omega, gamma = alt_factors_theta_u_zero(cp, math.pi / 4.0)
    assert abs(lam + 1.0) < 1e-10
    assert abs(omega - math.log(2.0)) < 1e-10
    assert abs(gamma - 1.0) < 1e-10


def test_frozen_phase_alternative_matches_chart_relations():
    # constant eta phase with drifting rho exercises the e^{-i rho} factor
    cp = ConstantPhaseScenario(eta0=1.0, phi0=0.3, w11=0.2, w22=0.05)
    for t in (0.0, 0.4, 0.9):
        want = alt_factors(cp, t)
        got = alt_factors_theta_u_zero(cp, t)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-9


def test_frozen_phase_alternative_rejects_drift():
    with pytest.raises(ConditionViolated):
        alt_factors_theta_u_zero(LinearPhaseScenario(eta0=1.0, w0=1.0), 1.0)


def test_quadratic_phase_alternative():
    lam, omega, gamma = alt_factors_quadratic_phase(1.0, 0.5, 0.0)
    assert abs(lam) < 1e-13 and abs(omega) < 1e-13 and abs(gamma) < 1e-13

    scenario = QuadraticPhaseScenario(eta0=1.0, theta0=0.5)
    grid = np.array([0.0, 0.3, 0.7, 1.0])
    numeric = solve_riccati_numeric(scenario, 1.0, tol=1e-12, grid=grid)
    for t in grid[1:]:
        sample = numeric.at(float(t))
        want = alternative_from_standard(sample.lam, sample.omega,
                                         sample.gamma, sample.rho)
        got = alt_factors_quadratic_phase(1.0, 0.5, float(t),
                                          scenario=scenario)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-8


def test_quadratic_phase_small_curvature_limit():
    # theta0 -> 0 approaches the constant-phase solution
    scenario = QuadraticPhaseScenario(eta0=1.0, theta0=1e-3)
    numeric = solve_riccati_numeric(scenario, 1.0, tol=1e-12)
    sample = numeric.at(1.0)
    want = alternative_from_standard(sample.lam, sample.omega,
                                     sample.gamma, sample.rho)
    got = alt_factors_quadratic_phase(1.0, 1e-3, 1.0, scenario=scenario)
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-6


def test_fresnel_alternative():
    assert max(map(abs, alt_factors_fresnel(1.0, 0.4, (0.1, -0.2), 0.0))) == 0.0

    scenario = FresnelNormScenario(w12_0=1.0, nu=0.4,
                                   theta_v0=0.1, theta_u0=-0.2)
    numeric = solve_riccati_numeric(scenario, 0.8, tol=1e-12)
    sample = numeric.at(0.8)
    want = alternative_from_standard(sample.lam, sample.omega,
                                     sample.gamma, sample.rho)
    got = alt_factors_fresnel(1.0, 0.4, (0.1, -0.2), 0.8)
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-8


def test_fresnel_small_time_slope():
    lam, _, _ = alt_factors_fresnel(1.0, 1.0, (0.0, 0.0), 1e-3)
    assert abs(abs(lam) - 1e-3) / 1e-3 < 1e-4


def test_fresnel_domain_guards():
    with pytest.raises(ValueError):
        alt_factors_fresnel(1.0, 1.0, (0.0, 0.0), 1.3)
    with pytest.raises(ValueError):
        alt_factors_fresnel(-1.0, 1.0, (0.0, 0.0), 0.5)


def test_numeric_route_flags_singularity():
    cp = ConstantPhaseScenario(eta0=1.0, phi0=0.0)
    got = solve_riccati_numeric(cp, 2.0)
    assert got.singular_time is not None
    assert abs(got.singular_time - math.pi / 2.0) < 1e-4
    past = got.t > got.singular_time
    assert np.any(past)
    assert not np.any(got.valid[past])
    assert np.all(np.isnan(got.lam[past].real))
    with pytest.raises(ChartSingularity):
        got.at(1.8)
    # before the pole the dense evaluator still works
    assert got.at(1.0).valid


def test_factor_sample_lookup():
    scenario = ConstantPhaseScenario(eta0=1.0, phi0=0.3)
    grid = np.linspace(0.0, 1.0, 11)
    factors = factors_on_grid(scenario, grid)
    sample = factors.at(0.55)
    want = closed_factors(scenario, 0.55)
    assert abs(sample.lam - want[0]) < 1e-14
    assert abs(sample.omega - want[1]) < 1e-14
    assert sample.valid

    bare = factors_on_grid(scenario, grid)
    object.__setattr__(bare, "_eval", None)
    assert abs(bare.at(0.5).lam - closed_factors(scenario, 0.5)[0]) < 1e-14
    with pytest.raises(ValueError):
        bare.at(0.55)


def test_factors_on_grid_rejects_unknown_ordering():
    scenario = ConstantPhaseScenario(eta0=1.0)
    with pytest.raises(ValueError):
        factors_on_grid(scenario, np.linspace(0.0, 1.0, 5), ordering="sideways")


def test_closed_factors_need_catalog_scenario():
    with pytest.raises(ValueError):
        closed_factors(QuadraticPhaseScenario(eta0=1.0, theta0=0.5), 0.5)


def _rel_err(numeric, closed):
    """|x_num - x_closed| / (1 + |x_closed|)^2: absolute error where the
    coefficient is small, relative to |x|^2 where it grows near a pole."""
    return float(np.max(np.abs(numeric - closed)
                        / (1.0 + np.abs(closed)) ** 2))


def test_numeric_route_through_near_miss():
    # S22 passes within 5e-6 of zero at t = pi/2, so |Lambda| peaks near
    # 2e5 without a chart pole; the factors must stay accurate past it
    scenario = LinearPhaseScenario(eta0=1.0, w0=1e-5, phi0=0.3)
    grid = np.linspace(0.0, 3.0, 201)
    numeric = solve_riccati_numeric(scenario, 3.0, tol=1e-10, grid=grid)
    assert numeric.singular_time is None
    assert np.all(numeric.valid)
    closed = closed_factors(scenario, grid)
    for got, want in zip((numeric.lam, numeric.omega, numeric.gamma), closed):
        assert _rel_err(got, want) <= 1e-8

    peak = numeric.at(math.pi / 2.0)
    lam, omega, gamma = closed_factors(scenario, math.pi / 2.0)
    assert 1e5 < abs(peak.lam) < 1e6
    assert _rel_err(peak.lam, lam) <= 1e-8
    assert _rel_err(peak.gamma, gamma) <= 1e-8
    # Im Omega turns by 2 pi across the near-miss; at its middle the
    # branch must still be the closed one (a wrong one is off by 4 pi)
    assert abs(peak.omega - omega) < 1e-3


def test_numeric_route_locates_narrow_pole():
    # the same family with S22 reaching 5e-10: |Lambda| passes LAM_LIMIT
    scenario = LinearPhaseScenario(eta0=1.0, w0=1e-9, phi0=0.3)
    numeric = solve_riccati_numeric(scenario, 3.0, tol=1e-10)
    assert numeric.singular_time is not None
    assert abs(numeric.singular_time - math.pi / 2.0) < 1e-6
    past = numeric.t >= numeric.singular_time
    assert not np.any(numeric.valid[past])
    assert np.all(np.isnan(numeric.lam[past].real))
    assert np.all(numeric.valid[~past])


def test_numeric_omega_follows_its_winding():
    scenario = LinearPhaseScenario(eta0=0.8, w0=-1.2, phi0=0.3,
                                   w11=0.15, w22=0.05)
    grid = np.linspace(0.0, 6.0, 121)
    numeric = solve_riccati_numeric(scenario, 6.0, tol=1e-12, grid=grid)
    closed = closed_factors(scenario, grid)
    assert np.ptp(closed[1].imag) > 4.0
    for got, want in zip((numeric.lam, numeric.omega, numeric.gamma), closed):
        assert _rel_err(got, want) <= 1e-8
    for t in (2.345, 5.678):
        sample = numeric.at(t)
        _, omega, _ = closed_factors(scenario, t)
        assert _rel_err(sample.omega, omega) <= 1e-8


def _smooth_tabulated():
    ts = np.linspace(0.0, 1.2, 61)
    w12 = (0.7 + 0.2 * np.cos(3.0 * ts)) * np.exp(1j * (0.5 + 0.8 * ts ** 2))
    return TabulatedScenario.from_samples(
        ts, 0.3 + 0.2 * np.sin(2.0 * ts), 0.1 * np.cos(ts), w12)


@pytest.mark.parametrize("scenario", [
    QuadraticPhaseScenario(eta0=1.0, theta0=0.5),
    _smooth_tabulated(),
], ids=["QuadraticPhase", "Tabulated"])
def test_numeric_lambda_satisfies_riccati_equation(scenario):
    # nothing integrates the Riccati equation itself any more, so check
    # the numeric Lambda against it by fourth-order centered differences
    grid = np.linspace(0.0, 1.0, 1001)
    lam = solve_riccati_numeric(scenario, 1.0, tol=1e-12, grid=grid).lam
    h = grid[1] - grid[0]
    d = (lam[:-4] - 8.0 * lam[1:-3] + 8.0 * lam[3:-1] - lam[4:]) / (12.0 * h)
    eta = np.array([scenario.eta(t) for t in grid[2:-2]])
    residual = np.max(np.abs(d - (eta + np.conj(eta) * lam[2:-2] ** 2)))
    assert residual < 1e-6


def test_numeric_route_locates_isotropic_pole():
    # |S22| = |cos(t/2)| here; the chart must end at its zero t = pi, far
    # closer than the 1e-8 offset at which |Lambda| reaches LAM_LIMIT
    scenario = IsotropicConstantScenario.from_polar(
        rho0=math.pi / 4.0, theta_alpha0=1.765, theta_beta0=-1.838)
    numeric = solve_riccati_numeric(scenario, 3.978)
    assert numeric.singular_time is not None
    assert abs(numeric.singular_time - math.pi) < 1e-9
    past = numeric.t >= numeric.singular_time
    assert np.any(past) and not np.any(numeric.valid[past])
    assert np.all(numeric.valid[~past])
