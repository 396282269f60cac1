import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm

from twomode.oracle import brute_force_smatrix
from twomode.riccati import (ChartSingularity, closed_factors,
                             factors_on_grid, solve_riccati_numeric)
from twomode.scenario import (
    AllConstantScenario,
    ConstantPhaseScenario,
    GeneralPhaseScenario,
    IsotropicConstantScenario,
    LinearPhaseScenario,
    LogRhoScenario,
    QuadraticPhaseScenario,
    RhoConstantScenario,
)
from twomode.smatrix import (SMatrix2, _sampled, smatrix_closed,
                             smatrix_from_factors, smatrix_numeric_grid,
                             unitarity_defects)

PRINTED_CASES = [
    ConstantPhaseScenario(eta0=1.0, phi0=0.3, w11=0.2, w22=0.05),
    LinearPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3, w11=0.15, w22=0.05),
    GeneralPhaseScenario(eta0=0.8, w0=1.2, phi0=0.2, theta0=1.0, nu=0.2),
    AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j),
    RhoConstantScenario(rho0=0.5, eta0=0.8, w0=1.0,
                        theta_alpha0=0.3, theta_beta0=-0.2),
]


def test_identity_at_time_zero():
    got = smatrix_numeric_grid(PRINTED_CASES[0], [0.0])
    assert np.array_equal(got.mat[0], np.eye(2))
    assert not got.projected[0]


@pytest.mark.parametrize("scenario", PRINTED_CASES,
                         ids=[s.case for s in PRINTED_CASES])
def test_printed_blocks_match_numeric(scenario):
    times = np.array([0.3, 0.9, 1.7])
    closed = smatrix_closed(scenario, times)
    numeric = smatrix_numeric_grid(scenario, times, tol=1e-12)
    assert np.max(np.abs(closed.mat - numeric.mat)) < 1e-8
    assert np.all(closed.unitarity_defect < 1e-9)


def test_printed_blocks_match_brute_force():
    for scenario in (PRINTED_CASES[0], PRINTED_CASES[3]):
        closed = smatrix_closed(scenario, 0.8)
        oracle = brute_force_smatrix(scenario, 0.8, 4096)
        assert np.max(np.abs(closed.mat - oracle)) < 1e-6


def test_determinant_tracks_diagonal_integral():
    for scenario in PRINTED_CASES:
        for t in (0.6, 1.4):
            alpha, _ = scenario.diag_integrals(t)
            got = smatrix_closed(scenario, t)
            assert abs(np.linalg.det(got.mat) - cmath.exp(-1j * alpha)) < 1e-9


def test_constant_coupling_is_matrix_exponential():
    scenario = AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j)
    w = np.array([[0.7, 0.25 + 0.1j], [0.25 - 0.1j, 0.3]])
    for t in (0.5, 2.0, math.pi):
        got = smatrix_closed(scenario, t)
        assert np.max(np.abs(got.mat - expm(-1j * w * t))) < 1e-12


def test_isotropic_frozen_swap():
    # balanced coupling 1/2 swaps the modes at t = pi up to the driftphase
    scenario = IsotropicConstantScenario(alpha=math.sqrt(0.5),
                                         beta=math.sqrt(0.5))
    got = smatrix_closed(scenario, math.pi)
    want = np.array([[0.0, -1.0], [-1.0, 0.0]])
    assert np.max(np.abs(got.mat - want)) < 1e-12
    half = smatrix_closed(scenario, math.pi / 2.0)
    want_half = 0.5 * np.array([[1.0 - 1j, -1.0 - 1j], [-1.0 - 1j, 1.0 - 1j]])
    assert np.max(np.abs(half.mat - want_half)) < 1e-12


def test_reconstruction_from_factors():
    for scenario in PRINTED_CASES:
        factors = factors_on_grid(scenario, np.linspace(0.0, 1.5, 16))
        times = np.array([0.0, 0.5, 1.3])
        direct = smatrix_numeric_grid(scenario, times, tol=1e-12)
        for t, want in zip(times, direct.mat):
            rebuilt = smatrix_from_factors(factors, float(t))
            assert np.max(np.abs(rebuilt.mat - want)) < 1e-7


def test_both_orderings_rebuild_the_same_matrix():
    scenario = AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j)
    grid = np.linspace(0.0, 1.5, 16)
    std = factors_on_grid(scenario, grid, ordering="standard")
    alt = factors_on_grid(scenario, grid, ordering="alternative")
    for t in (0.4, 1.0, 1.5):
        a = smatrix_from_factors(std, t)
        b = smatrix_from_factors(alt, t)
        assert np.max(np.abs(a.mat - b.mat)) < 1e-10


def test_reconstruction_from_numeric_factors():
    scenario = QuadraticPhaseScenario(eta0=1.0, theta0=0.5)
    factors = solve_riccati_numeric(scenario, 1.0, tol=1e-12)
    rebuilt = smatrix_from_factors(factors, 1.0)
    direct = smatrix_numeric_grid(scenario, [1.0], tol=1e-12)
    assert np.max(np.abs(rebuilt.mat - direct.mat[0])) < 1e-8


def test_reconstruction_raises_past_singularity():
    cp = ConstantPhaseScenario(eta0=1.0, phi0=0.0)
    factors = solve_riccati_numeric(cp, 2.0)
    with pytest.raises(ChartSingularity):
        smatrix_from_factors(factors, 1.9)


def test_grid_evaluation_matches_single_shots():
    scenario = PRINTED_CASES[1]
    grid = np.array([0.0, 0.25, 0.8, 1.6])
    batch = smatrix_numeric_grid(scenario, grid, tol=1e-12)
    assert np.array_equal(batch.t, grid)
    assert np.array_equal(batch.mat[0], np.eye(2))
    for t, mat, projected in zip(grid[1:], batch.mat[1:],
                                 batch.projected[1:]):
        single = smatrix_numeric_grid(scenario, [t], tol=1e-12)
        assert np.max(np.abs(mat - single.mat[0])) < 1e-9
        assert not projected
    # the closed block on an array is its per-time calls stacked; a scalar
    # time keeps a 2x2 mat
    for scenario in PRINTED_CASES:
        closed = smatrix_closed(scenario, grid)
        assert closed.mat.shape == (grid.size, 2, 2)
        for t, mat in zip(grid, closed.mat):
            single = smatrix_closed(scenario, float(t))
            assert single.mat.shape == (2, 2)
            assert np.max(np.abs(mat - single.mat)) <= 1e-15


def test_unitarity_defect_property():
    tilted = SMatrix2(t=0.0, mat=np.eye(2, dtype=complex) * (1.0 + 1e-6))
    assert abs(tilted.unitarity_defect - 2e-6) < 1e-9


def _drifting(s):
    # rotations by each s, scaled by 1 + 1e-6 from s = 0.7 on, so those
    # samples drift off unitarity by about 2e-6
    c, n = np.cos(s), np.sin(s)
    scale = np.where(s >= 0.7, 1.0 + 1e-6, 1.0)
    return (scale * np.array([c, -n, n, c], dtype=complex)).T.reshape(-1, 2, 2)


def test_sampled_projects_only_drifted_samples():
    grid = np.array([0.0, 0.5, 1.0])
    strict = _sampled(_drifting(grid), grid, 1e-10)
    assert strict.projected.tolist() == [False, False, True]
    assert strict.t.tolist() == grid.tolist()
    assert np.array_equal(strict.mat[1], _drifting(np.array([0.5]))[0])
    # the reported defect is the projected matrix's
    assert strict.unitarity_defect[2] <= 1e-12
    rotation = np.array([[np.cos(1.0), -np.sin(1.0)],
                         [np.sin(1.0), np.cos(1.0)]])
    assert np.max(np.abs(strict.mat[2] - rotation)) < 1e-12

    loose = _sampled(_drifting(grid), grid, 1e-3)
    assert not loose.projected.any()
    assert np.array_equal(loose.mat[2], _drifting(np.array([1.0]))[0])
    assert abs(loose.unitarity_defect[2] - 2e-6) < 1e-9


def test_batched_defects_match_per_matrix_defects():
    mats = _drifting(np.linspace(0.0, 1.4, 15))
    mats = mats * np.exp(0.3j * np.arange(15))[:, None, None]
    batched = unitarity_defects(mats)
    assert batched.shape == (15,)
    assert batched.tolist() == [SMatrix2(t=0.0, mat=m).unitarity_defect
                                for m in mats]


def test_no_printed_block_outside_catalog():
    with pytest.raises(ValueError):
        smatrix_closed(QuadraticPhaseScenario(eta0=1.0, theta0=0.5), 0.5)


# The printed blocks as four separate formulas, one per family of cases, kept
# as the reference for the single phase-family block.

def _reference_rabi_block(wbar, w0, coupling, t):
    b = math.hypot(w0, 2.0 * abs(coupling))
    pre = cmath.exp(-1j * wbar * t)
    if b == 0.0:
        return pre * np.eye(2, dtype=complex)
    c = math.cos(0.5 * b * t)
    s = math.sin(0.5 * b * t)
    return pre * np.array(
        [[c - 1j * (w0 / b) * s, -2j * (coupling / b) * s],
         [-2j * (np.conj(coupling) / b) * s, c + 1j * (w0 / b) * s]],
        dtype=complex)


def _reference_smatrix(sc, t):
    if isinstance(sc, ConstantPhaseScenario):
        c, s = math.cos(sc.eta0 * t), math.sin(sc.eta0 * t)
        e1 = cmath.exp(-1j * sc.w11 * t)
        e2 = cmath.exp(-1j * sc.w22 * t)
        ep = cmath.exp(1j * sc.phi0)
        return np.array([[e1 * c, e1 * ep * s],
                         [-e2 * np.conj(ep) * s, e2 * c]], dtype=complex)
    if isinstance(sc, (LinearPhaseScenario, GeneralPhaseScenario)):
        if isinstance(sc, LinearPhaseScenario):
            eps, phi_tilde = 1, sc.w0 * t
        else:
            eps, phi_tilde = sc.eps, sc.theta0 * t + sc.nu * t * t
        eta0, w0 = sc.eta0, sc.w0
        delta = math.hypot(2.0 * eta0, w0)
        x = delta * phi_tilde / (2.0 * w0) if w0 != 0 else eta0 * t
        c, s = math.cos(x), math.sin(x)
        e1 = cmath.exp(-1j * sc.w11 * t)
        e2 = cmath.exp(-1j * sc.w22 * t)
        half_sum = sc.phi0 + 0.5 * phi_tilde
        amp = 2.0 * eps * eta0 / delta
        return np.array(
            [[e1 * cmath.exp(0.5j * phi_tilde) * (c - 1j * (w0 / delta) * s),
              amp * e1 * cmath.exp(1j * half_sum) * s],
             [-amp * e2 * cmath.exp(-1j * half_sum) * s,
              e2 * cmath.exp(-0.5j * phi_tilde) * (c + 1j * (w0 / delta) * s)]],
            dtype=complex)
    if isinstance(sc, (AllConstantScenario, IsotropicConstantScenario)):
        w11, w22, w12 = sc.coupling(0.0)
        return _reference_rabi_block(0.5 * (w11 + w22), w11 - w22, w12, t)
    delta, w0, eta0 = sc.delta, sc.w0, sc.eta0
    if isinstance(sc, RhoConstantScenario):
        big_phi = (delta / (4.0 * eta0)) * math.sin(2.0 * sc.rho0) * t
        theta_ba = sc.theta_drift * t
    else:
        log_term = math.log((1.0 + (t + sc.t0) ** 2) / (1.0 + sc.t0 ** 2))
        big_phi = (delta / (4.0 * eta0)) * log_term
        theta_ba = ((w0 / (2.0 * eta0)) * log_term + t
                    + 2.0 * math.atan(sc.t0) - 2.0 * math.atan(t + sc.t0))
    phi0 = sc.theta_beta0 - sc.theta_alpha0 - math.pi / 2.0
    c, s = math.cos(big_phi), math.sin(big_phi)
    pre = cmath.exp(-0.5j * t)
    amp = 2.0 * eta0 / delta
    eb = cmath.exp(0.5j * theta_ba)
    return np.array(
        [[pre * eb * (c - 1j * (w0 / delta) * s),
          amp * pre * eb * cmath.exp(1j * phi0) * s],
         [-amp * pre * np.conj(eb) * cmath.exp(-1j * phi0) * s,
          pre * np.conj(eb) * (c + 1j * (w0 / delta) * s)]],
        dtype=complex)


CLOSED_CASES = PRINTED_CASES + [
    ConstantPhaseScenario(eta0=0.0, phi0=-1.1, w11=0.4),
    LinearPhaseScenario(eta0=0.7, w0=-0.9, phi0=1.2, w11=-0.3, w22=0.2),
    LinearPhaseScenario(eta0=0.7, w0=0.0, phi0=0.4, w22=0.25),
    GeneralPhaseScenario(eta0=0.6, w0=0.9, phi0=-0.4, theta0=-1.3, nu=-0.3,
                         w11=0.1),
    AllConstantScenario(w11=0.2, w22=0.9, w12=-0.3 + 0.4j),
    AllConstantScenario(w11=0.5, w22=0.5, w12=0.35j),
    AllConstantScenario(w11=0.6, w22=0.2, w12=0.0),
    AllConstantScenario(w11=0.45, w22=0.45, w12=0.0),
    IsotropicConstantScenario.from_polar(math.pi / 4.0, 0.3, -0.5),
    IsotropicConstantScenario.from_polar(1.2, -0.7, 0.4),
    IsotropicConstantScenario(alpha=0.6, beta=0.8j),
    IsotropicConstantScenario(alpha=1.0, beta=0.0),
    RhoConstantScenario(rho0=1.2, eta0=0.5, w0=1.4, theta_alpha0=-0.6,
                        theta_beta0=0.9),
    LogRhoScenario(t0=1.0, eta0=0.9, w0=0.7),
    LogRhoScenario(t0=0.3, eta0=1.4, w0=0.5, theta_alpha0=0.8,
                   theta_beta0=-0.1),
]


@pytest.mark.parametrize("scenario", CLOSED_CASES,
                         ids=[s.case for s in CLOSED_CASES])
def test_phase_family_block_matches_reference_blocks(scenario):
    for t in (0.0, 0.37, 1.3, 2.9):
        got = smatrix_closed(scenario, t).mat
        assert np.max(np.abs(got - _reference_smatrix(scenario, t))) <= 1e-14


def test_isotropic_quarter_angle_matches_numeric_route():
    # at rho0 = pi/4, w0 = cos^2 - sin^2 is 2.2e-16, not 0; the rotation
    # angle must keep w0 t / w0, and the chart pole is at t = pi
    scenario = IsotropicConstantScenario.from_polar(math.pi / 4.0, 0.3, -0.5)
    assert scenario.phase_family().w0 != 0.0
    grid = np.linspace(0.0, 2.8, 15)
    numeric = solve_riccati_numeric(scenario, 2.8, 1e-12, grid)
    closed = closed_factors(scenario, grid)
    assert numeric.valid.all()
    for got, want in zip(closed, (numeric.lam, numeric.omega, numeric.gamma)):
        assert np.max(np.abs(got - want)) < 1e-8
    mats = smatrix_numeric_grid(scenario, grid, 1e-12).mat
    assert np.max(np.abs(smatrix_closed(scenario, grid).mat - mats)) < 1e-8
