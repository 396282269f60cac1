import ast
import cmath
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import twomode
import twomode.scenario
from twomode.riccati import (
    ChartSingularity,
    alt_factors,
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
    Scenario,
    TabulatedScenario,
)
from twomode.smatrix import smatrix_from_factors, smatrix_numeric_grid
from twomode.special import fresnel_c, kummer_1f1

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


# The frozen-phase alternative chart by quadrature, a reference for
# alt_factors on couplings whose eta phase is frozen (theta12 + rho
# constant): with q(t) = int_0^t |w12| and the phase offset
# theta_v0 = angle(eta(0)) + pi,
#
#     Lambda~ = -tan(q) e^{i theta_v0} e^{-i rho(t)}
#     Omega~  = 2 ln|sec q| - i (2 pi floor(q/pi + 1/2) + rho(t))
#     Gamma~  =  tan(q) e^{-i theta_v0},
#
# and a ValueError when the eta phase drifts.

def alt_factors_theta_u_zero(scenario, t, drift_tol=1e-8):
    probes = np.linspace(0.0, t, 17) if t > 0 else np.array([0.0])
    phi0 = None
    for s in probes:
        e = scenario.eta(s)
        if abs(e) < 1e-300:
            continue
        ang = float(np.angle(e))
        if phi0 is None:
            phi0 = ang
            continue
        drift = (ang - phi0 + math.pi) % (2.0 * math.pi) - math.pi
        if abs(drift) > drift_tol:
            raise ValueError(f"eta phase drifts by {drift:.3e} at s = {s:.6g}")
    if phi0 is None:
        return 0j, 0j, 0j
    theta_v0 = phi0 + math.pi
    q, _ = quad(lambda s: abs(scenario.coupling(s)[2]), 0.0, t,
                epsabs=1e-12, epsrel=1e-12, limit=200)
    _, rho = scenario.diag_integrals(t)
    k = math.floor(q / math.pi + 0.5)
    tanq = math.tan(q)
    lam = -tanq * cmath.exp(1j * (theta_v0 - rho))
    omega = (-2.0 * math.log(abs(math.cos(q)))
             - 1j * (2.0 * math.pi * k + rho))
    gam = tanq * cmath.exp(-1j * theta_v0)
    return lam, omega, gam


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
    with pytest.raises(ValueError):
        alt_factors_theta_u_zero(LinearPhaseScenario(eta0=1.0, w0=1.0), 1.0)


def test_quadratic_phase_alternative():
    lam, omega, gamma = alt_factors(QuadraticPhaseScenario(eta0=1.0,
                                                           theta0=0.5), 0.0)
    assert abs(lam) < 1e-13 and abs(omega) < 1e-13 and abs(gamma) < 1e-13

    scenario = QuadraticPhaseScenario(eta0=1.0, theta0=0.5)
    grid = np.array([0.0, 0.3, 0.7, 1.0])
    numeric = solve_riccati_numeric(scenario, 1.0, tol=1e-12, grid=grid)
    for t in grid[1:]:
        sample = numeric.at(float(t))
        want = alternative_from_standard(sample.lam, sample.omega,
                                         sample.gamma, sample.rho)
        got = alt_factors(scenario, float(t))
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-8


def test_quadratic_phase_small_curvature_limit():
    # theta0 -> 0 approaches the constant-phase solution
    scenario = QuadraticPhaseScenario(eta0=1.0, theta0=1e-3)
    numeric = solve_riccati_numeric(scenario, 1.0, tol=1e-12)
    sample = numeric.at(1.0)
    want = alternative_from_standard(sample.lam, sample.omega,
                                     sample.gamma, sample.rho)
    got = alt_factors(scenario, 1.0)
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-6


def test_fresnel_alternative():
    scenario = FresnelNormScenario(w12_0=1.0, nu=0.4,
                                   theta_v0=0.1, theta_u0=-0.2)
    assert max(map(abs, alt_factors(scenario, 0.0))) == 0.0

    numeric = solve_riccati_numeric(scenario, 0.8, tol=1e-12)
    sample = numeric.at(0.8)
    want = alternative_from_standard(sample.lam, sample.omega,
                                     sample.gamma, sample.rho)
    got = alt_factors(scenario, 0.8)
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-8


def test_fresnel_small_time_slope():
    lam, _, _ = alt_factors(FresnelNormScenario(w12_0=1.0, nu=1.0), 1e-3)
    assert abs(abs(lam) - 1e-3) / 1e-3 < 1e-4


def test_fresnel_domain_guards():
    with pytest.raises(ValueError):
        FresnelNormScenario(w12_0=-1.0, nu=1.0)


@pytest.mark.parametrize("w12_0,nu,t_end", [
    (1.0, 2.0, 2.5), (0.6, 0.8, 4.0), (1.4, 3.0, 2.2)])
def test_fresnel_alt_chart_past_the_kinks(w12_0, nu, t_end):
    # the closed chart reads psi across every kink of |cos(nu s^2)|, so the
    # S it rebuilds follows the numeric flow far past the first stretch
    scenario = FresnelNormScenario(w12_0=w12_0, nu=nu, theta_v0=0.1,
                                   theta_u0=-0.2)
    assert len(scenario.kinks(t_end)) >= 4
    grid = np.linspace(0.0, t_end, 61)
    factors = factors_on_grid(scenario, grid, ordering="alternative")
    assert factors.valid.all() and factors.singular_time is None
    numeric = smatrix_numeric_grid(scenario, grid, tol=1e-12)
    for t, want in zip(grid, numeric.mat):
        rebuilt = smatrix_from_factors(factors, float(t))
        assert np.max(np.abs(rebuilt.mat - want)) <= 1e-12


def _series_psi_chart(scenario, t):
    # the first-stretch chart that the closed psi replaced, kept as its
    # reference: psi from one Fresnel C series per point, valid while
    # nu t^2 <= pi/2; tan(q) = sinh(psi) and ln|cos q| = -ln cosh(psi)
    # straight from psi, whose relative accuracy near t = 0 a detour
    # through q would not keep
    scale = math.sqrt(math.pi / (2.0 * scenario.nu))
    series = np.vectorize(lambda x: fresnel_c(x).value, otypes=[complex])
    psi = scenario.w12_0 * scale * series(t / scale).real
    q = 2.0 * np.arctan(np.tanh(0.5 * psi))
    tanq = np.sinh(psi)
    offset = scenario.theta_v0 - scenario.theta_u0
    return (-tanq * np.exp(1j * (2.0 * q - tanq + offset)),
            2.0 * (np.log1p(2.0 * np.sinh(0.5 * psi) ** 2) - 1j * (tanq - q)),
            tanq * np.exp(-1j * (tanq + offset)))


@pytest.mark.parametrize("w12_0,nu", [(1.0, 0.4), (0.5, 2.0), (2.5, 1.0)])
def test_fresnel_alt_chart_matches_series_on_first_stretch(w12_0, nu):
    scenario = FresnelNormScenario(w12_0=w12_0, nu=nu, theta_v0=0.1,
                                   theta_u0=-0.2)
    times = np.linspace(0.0, math.sqrt(0.5 * math.pi / nu), 41)
    want = _series_psi_chart(scenario, times)
    along = scenario.alt_chart(times)
    singles = zip(*(scenario.alt_chart(float(t)) for t in times))
    for got in (along, singles):
        for g, w in zip(got, want):
            assert np.all(np.abs(np.array(g) - w) <= 1e-13 * np.abs(w))


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


def _smooth_tabulated(driven=False):
    ts = np.linspace(0.0, 1.2, 61)
    w12 = (0.7 + 0.2 * np.cos(3.0 * ts)) * np.exp(1j * (0.5 + 0.8 * ts ** 2))
    drives = dict(f1=0.1 * np.exp(1j * ts), f2=0.05 + 0.02j + 0.0 * ts,
                  b=0.2 * np.cos(ts)) if driven else {}
    return TabulatedScenario.from_samples(
        ts, 0.3 + 0.2 * np.sin(2.0 * ts), 0.1 * np.cos(ts), w12, **drives)


@pytest.mark.parametrize("factors", [
    factors_on_grid(ConstantPhaseScenario(eta0=1.0, phi0=0.3, w11=0.2,
                                          w22=0.05),
                    np.array([0.0, 0.4, 1.1, math.pi / 2.0, 1.8, 2.0])),
    factors_on_grid(LinearPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3, w11=0.15,
                                        w22=0.05), np.linspace(0.0, 2.0, 41)),
    factors_on_grid(QuadraticPhaseScenario(eta0=0.7, theta0=-0.45),
                    np.linspace(0.0, 1.2, 41), "alternative"),
    factors_on_grid(FresnelNormScenario(w12_0=0.9, nu=0.4, theta_v0=1.0,
                                        theta_u0=-2.0),
                    np.linspace(0.0, 1.5, 41), "alternative"),
    factors_on_grid(AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j),
                    np.linspace(0.0, 2.0, 41), "alternative"),
    solve_riccati_numeric(_smooth_tabulated(driven=True), 1.2,
                          grid=np.linspace(0.0, 1.2, 25)),
    solve_riccati_numeric(ConstantPhaseScenario(eta0=1.0, phi0=0.3), 2.0,
                          grid=np.linspace(0.0, 2.0, 41)),
], ids=["ConstantPhase", "LinearPhase", "QuadraticPhase-alt",
        "FresnelNorm-alt", "AllConstant-alt", "Tabulated-numeric",
        "ConstantPhase-numeric"])
def test_grid_times_read_the_stored_samples(factors):
    def refuse(t):
        raise AssertionError(f"evaluator called at grid time {t}")

    # a grid time on the chart never reaches the evaluator
    stored_only = replace(factors, _eval=refuse)
    read = 0
    for i, t in enumerate(factors.t.tolist()):
        if not factors.valid[i] or (factors.singular_time is not None
                                    and t >= factors.singular_time):
            continue
        sample = stored_only.at(t)
        assert sample.valid and sample.t == t
        assert (sample.alpha, sample.rho) == (factors.alpha[i], factors.rho[i])
        stored = (factors.lam[i], factors.omega[i], factors.gamma[i])
        assert (sample.lam, sample.omega, sample.gamma) == stored
        # the grid read agrees with the evaluator route at that time
        for got, want in zip(stored, factors._eval(t)):
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want))
        for got, want in zip((sample.alpha, sample.rho),
                             factors.scenario.diag_integrals(t)):
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want))
        read += 1
    assert read >= 3


def test_numeric_factors_past_their_span_are_refused():
    # no pole on [0, 1]: a later time is outside the flow, not a chart end
    factors = solve_riccati_numeric(LinearPhaseScenario(eta0=0.5, w0=1.0),
                                    1.0)
    assert factors.singular_time is None
    for read in (factors.at, lambda t: smatrix_from_factors(factors, t)):
        with pytest.raises(ValueError, match=r"span \[0, 1.0\]"):
            read(1.5)


def test_numeric_grid_time_past_the_pole_still_raises():
    cp = ConstantPhaseScenario(eta0=1.0, phi0=0.0)
    got = solve_riccati_numeric(cp, 2.0, grid=np.array([0.0, 1.0, 1.8, 2.0]))
    assert got.singular_time < 1.8
    with pytest.raises(ChartSingularity):
        got.at(1.8)
    assert got.at(1.0).valid


def test_closed_grid_time_past_first_invalid_sample_reads_invalid():
    # the closed Lambda = tan(t) e^{i phi0} is regular again at 1.8, but
    # the chart ended at the invalid sample pi/2
    cp = ConstantPhaseScenario(eta0=1.0, phi0=0.0)
    factors = factors_on_grid(cp, np.array([0.0, 1.0, math.pi / 2.0, 1.8]))
    assert list(factors.valid) == [True, True, False, True]
    assert factors.singular_time == math.pi / 2.0
    assert not factors.at(1.8).valid
    with pytest.raises(ChartSingularity):
        smatrix_from_factors(factors, 1.8)


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


def _call_sites(path, name):
    """(module, function) for each call of name in a source file."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = where or node.name
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == name:
                sites.append((path.stem, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), None)
    return sites


def test_flow_is_the_only_integrator_call_site():
    # every flow along a scenario is one Magnus flow with the breakpoints
    # as step edges: the package calls solve_ivp nowhere, imports nothing
    # from scipy.integrate, and takes flows only where S or the amplitudes
    # are wanted
    package = Path(twomode.__file__).parent
    paths = sorted(package.glob("*.py"))
    assert [site for path in paths
            for site in _call_sites(path, "solve_ivp")] == []
    for path in paths:
        tree = ast.parse(path.read_text())
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        imported |= {alias.name for node in ast.walk(tree)
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     for alias in node.names}
        assert not imported & {"quad", "solve_ivp", "scipy.integrate"}, path
    flows = sorted(site for path in paths
                   for site in _call_sites(path, "flow"))
    assert flows == [("evolution", "assemble_U"),
                     ("evolution", "c_coefficients"),
                     ("riccati", "solve_riccati_numeric"),
                     ("smatrix", "smatrix_numeric_grid")]


# The quadrature route that the closed Gamma~ of QuadraticPhase replaced,
# kept as its reference: Gamma~ = -int_0^t conj(eta)/u^2 by two adaptive
# quad calls, a Kummer series in each integrand evaluation.

def _quad_gamma_reference(eta0, theta0, t):
    a = 1j * eta0 ** 2 / (4.0 * theta0)

    def integrand(s):
        u = kummer_1f1(a, 0.5, 1j * theta0 * s * s, 1e-13).value
        return eta0 * cmath.exp(1j * theta0 * s * s) / u ** 2

    re, _ = quad(lambda s: integrand(s).real, 0.0, t, epsabs=1e-12,
                 epsrel=1e-12, limit=200)
    im, _ = quad(lambda s: integrand(s).imag, 0.0, t, epsabs=1e-12,
                 epsrel=1e-12, limit=200)
    return -complex(re, im)


@pytest.mark.parametrize("eta0,theta0", [
    (0.7, 0.45), (0.7, -0.45), (1.0, 0.5), (1.3, -0.9), (0.5, 1.2),
], ids=str)
def test_quadratic_phase_gamma_from_wronskian_matches_quadrature(eta0,
                                                                 theta0):
    scenario = QuadraticPhaseScenario(eta0=eta0, theta0=theta0)
    times = np.array([0.0, 0.3, 0.8, 1.2])
    _, _, gammas = scenario.alt_chart(times)
    for t, gamma in zip(times, gammas):
        want = _quad_gamma_reference(eta0, theta0, float(t))
        assert abs(gamma - want) <= 1e-12 * max(1.0, abs(want))
        assert scenario.alt_chart(float(t))[2] == gamma


# The per-point loop that factors_on_grid replaced by one array call, kept
# as its reference.

def _per_point_alternative(scenario, grid):
    lam = np.empty(grid.size, dtype=complex)
    omega = np.empty(grid.size, dtype=complex)
    gamma = np.empty(grid.size, dtype=complex)
    for i, t in enumerate(grid):
        lam[i], omega[i], gamma[i] = alt_factors(scenario, float(t))
    return lam, omega, gamma


@pytest.mark.parametrize("scenario,t_end", [
    (LinearPhaseScenario(eta0=0.8, w0=-1.1, phi0=0.4, w11=0.3, w22=0.1),
     2.0),
    (AllConstantScenario(w11=0.7, w22=0.1, w12=0.2 - 0.3j), 2.0),
    (LogRhoScenario(t0=0.8, eta0=0.7, w0=1.2, theta_alpha0=0.5,
                    theta_beta0=-1.0), 2.0),
    (QuadraticPhaseScenario(eta0=0.7, theta0=-0.45), 1.2),
    (FresnelNormScenario(w12_0=0.9, nu=0.4, theta_v0=1.0, theta_u0=-2.0),
     1.5),
], ids=lambda v: getattr(v, "case", str(v)))
def test_alternative_grid_equals_per_point_evaluation(scenario, t_end):
    grid = np.linspace(0.0, t_end, 101)
    factors = factors_on_grid(scenario, grid, "alternative")
    want = _per_point_alternative(scenario, grid)
    for got, ref in zip((factors.lam, factors.omega, factors.gamma), want):
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0,
                                                        np.max(np.abs(ref)))
    assert np.all(factors.valid)
    assert np.array_equal(factors.rho, [scenario.diag_integrals(float(t))[1]
                                        for t in grid])


def test_quadratic_phase_chart_at_vanishing_u_is_flagged_not_raised():
    # theta0 -> 0 puts a near-zero of u at eta0 t = pi/2, where the closed
    # chart's Lambda~ passes LAM_LIMIT
    scenario = QuadraticPhaseScenario(eta0=1.0, theta0=1e-9)
    grid = np.array([0.0, 1.0, math.pi / 2.0])
    lam, _, _ = scenario.alt_chart(grid)
    assert abs(lam[-1]) > 1e8
    factors = factors_on_grid(scenario, grid, "alternative")
    assert list(factors.valid) == [True, True, False]
    assert factors.singular_time == math.pi / 2.0
    assert not factors.at(math.pi / 2.0).valid
    with pytest.raises(ChartSingularity):
        smatrix_from_factors(factors, math.pi / 2.0)


def test_no_case_test_outside_the_case_table():
    # a case's behaviour is declared by its class in scenario.py; no other
    # module branches on the class of a scenario
    cases = {name for name, obj in vars(twomode.scenario).items()
             if isinstance(obj, type) and issubclass(obj, Scenario)}
    package = Path(twomode.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "scenario.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2):
                named = {getattr(n, "id", getattr(n, "attr", None))
                         for n in ast.walk(node.args[1])}
                found += [(path.name, name) for name in named & cases]
    assert not found


# The closed factors as two branches of explicit formulas, as they were
# written before the closed Gauss block and its read-off replaced them;
# kept as the reference for closed_factors.

def _reference_branch_index(x):
    return np.floor(x / math.pi + 0.5)


def _reference_family_values(fam, t):
    eta0, w0, eps, phi0 = fam.eta0, fam.w0, fam.eps, fam.phi0
    t = np.asarray(t, dtype=float)
    phi_tilde = np.asarray(fam.phi_tilde(t), dtype=float)
    phi_t = phi0 + phi_tilde
    delta = fam.delta
    if delta < 1e-150:
        z = np.zeros_like(t, dtype=complex)
        return z, z.copy(), z.copy()
    x = fam.angle(t)
    k = _reference_branch_index(x)
    if w0 == 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            tanx = np.tan(x)
            lam = eps * tanx * np.exp(1j * phi_t)
            re_om = -2.0 * np.log(np.abs(np.cos(x)))
            gam = -eps * tanx * np.exp(-1j * phi0)
        im_om = phi_tilde - 2.0 * math.pi * k
        return lam, re_om + 1j * im_om, gam
    a_unwrapped = (np.arctan((w0 / delta) * np.tan(x))
                   + math.copysign(math.pi, w0) * k)
    a_unwrapped = np.where(np.isfinite(a_unwrapped), a_unwrapped,
                           math.copysign(math.pi / 2, w0)
                           + math.copysign(math.pi, w0) * k)
    sinx, cosx = np.sin(x), np.cos(x)
    den = np.sqrt((delta * cosx) ** 2 + (w0 * sinx) ** 2)
    rot = np.exp(-1j * a_unwrapped)
    lam = 2.0 * eps * eta0 * np.exp(1j * phi_t) * sinx * rot / den
    omega = np.log(delta ** 2 / den ** 2) + 1j * (phi_tilde - 2.0 * a_unwrapped)
    gam = -2.0 * eps * eta0 * np.exp(-1j * phi0) * sinx * rot / den
    return lam, omega, gam


def _family_draw(rng, case):
    u = rng.uniform
    if case == "ConstantPhase":
        return ConstantPhaseScenario(eta0=u(0.0, 2.0), phi0=u(-3.0, 3.0),
                                     w11=u(-1.0, 1.0), w22=u(-1.0, 1.0))
    if case == "LinearPhase":
        return LinearPhaseScenario(eta0=u(0.0, 2.0), w0=u(-3.0, 3.0),
                                   phi0=u(-3.0, 3.0), w11=u(-1.0, 1.0),
                                   w22=u(-1.0, 1.0))
    if case == "GeneralPhase":
        sign = rng.choice([-1.0, 1.0])
        return GeneralPhaseScenario(eta0=u(0.1, 2.0), w0=u(0.1, 3.0),
                                    phi0=u(-3.0, 3.0),
                                    theta0=sign * u(0.1, 2.0),
                                    nu=sign * u(0.0, 0.3), w11=u(-1.0, 1.0))
    if case == "AllConstant":
        return AllConstantScenario(w11=u(-1.0, 1.0), w22=u(-1.0, 1.0),
                                   w12=complex(u(-1.0, 1.0), u(-1.0, 1.0)))
    if case == "IsotropicConstant":
        return IsotropicConstantScenario.from_polar(
            u(0.05, 1.5), u(-3.0, 3.0), u(-3.0, 3.0))
    if case == "RhoConstant":
        return RhoConstantScenario(rho0=u(0.05, 1.5), eta0=u(0.1, 2.0),
                                   w0=u(0.1, 3.0), theta_alpha0=u(-3.0, 3.0),
                                   theta_beta0=u(-3.0, 3.0))
    return LogRhoScenario(t0=u(0.1, 2.0), eta0=u(0.1, 2.0), w0=u(0.1, 3.0),
                          theta_alpha0=u(-3.0, 3.0), theta_beta0=u(-3.0, 3.0))


FAMILY_CASES = ("ConstantPhase", "LinearPhase", "GeneralPhase", "AllConstant",
                "IsotropicConstant", "RhoConstant", "LogRho")
SIGNED_ZERO_W0 = [LinearPhaseScenario(eta0=0.8, w0=-0.0, phi0=0.4),
                  AllConstantScenario(w11=-0.0, w22=0.0, w12=0.6 - 0.3j)]
FAMILY_EDGES = SIGNED_ZERO_W0 + [
    ConstantPhaseScenario(eta0=0.0, phi0=-1.1, w11=0.4),
    LinearPhaseScenario(eta0=0.0, w0=1.3, phi0=0.2),
    ConstantPhaseScenario(eta0=1e-170, phi0=0.7),
    LinearPhaseScenario(eta0=3e-171, w0=1e-170, phi0=0.7),
    AllConstantScenario(w11=0.3, w22=0.3, w12=1e-170j),
    LinearPhaseScenario(eta0=1.0, w0=1e-5, phi0=0.3),
    IsotropicConstantScenario.from_polar(math.pi / 4.0, 0.3, -0.5),
]


def _family_scenarios():
    rng = np.random.default_rng(20261018)
    draws = [_family_draw(rng, case) for case in FAMILY_CASES
             for _ in range(12)]
    return draws + FAMILY_EDGES


@pytest.mark.parametrize("scenario", _family_scenarios(),
                         ids=lambda s: s.case)
def test_closed_factors_match_reference_formulas(scenario):
    # [0, 20] crosses many chart poles of every family
    grid = np.linspace(0.0, 20.0, 4001)
    want = _reference_family_values(scenario.phase_family(), grid)
    got = closed_factors(scenario, grid)
    for g, w in zip(got, want):
        assert _rel_err(g, w) <= 1e-12
    ok = (np.isfinite(want[0]) & np.isfinite(want[1]) & np.isfinite(want[2])
          & (np.abs(want[0]) <= 1e8))
    factors = factors_on_grid(scenario, grid)
    assert np.array_equal(factors.valid, ok)
    bad = np.nonzero(~ok)[0]
    assert factors.singular_time == (float(grid[bad[0]]) if bad.size else None)


@pytest.mark.parametrize("scenario", SIGNED_ZERO_W0, ids=lambda s: s.case)
def test_signed_zero_w0_keeps_the_positive_branch(scenario):
    # w0 = -0.0 winds Im Omega like w0 = 0: down by 2 pi at each pole
    fam = scenario.phase_family()
    first_pole = math.pi / (2.0 * fam.eta0)
    grid = np.linspace(first_pole + 0.1, 3.0 * first_pole - 0.1, 50)
    _, omega, _ = closed_factors(scenario, grid)
    assert np.max(np.abs(omega.imag + 2.0 * math.pi)) < 1e-12
