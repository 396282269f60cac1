"""Closed, shell-block and Kronecker assembly against dense references:
each operator must match its construction by one `expm` on the full
truncated space, partial shells included."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import twomode.evolution
from twomode.evolution import (CoherentStateSpec, _gauss_product, _su2_lift,
                               assemble_U, c_coefficients,
                               ladder_eigenvalue_checks)
from twomode.fock import (TruncationError, annihilator, chain_exponential,
                          coherent_state, displacement_operator, make_space,
                          mixing_operator, number_diagonals, shell_expm,
                          su2_generator, vacuum_state)
from twomode.riccati import solve_riccati_numeric
from twomode.scenario import (AllConstantScenario, ConstantDrive,
                              ConstantPhaseScenario, RotatingDrive)

N_MAX = [1, 2, 8, 12]


# ---------------------------------------------------------------------------
# dense references: one expm on the full space per factor

def dense_jpm(space):
    a1 = annihilator(space, 1)
    a2 = annihilator(space, 2)
    return a1.conj().T @ a2, a1 @ a2.conj().T


def dense_displacement(space, c1, c2):
    a1 = annihilator(space, 1)
    a2 = annihilator(space, 2)
    gen = (c1 * a1.conj().T - np.conj(c1) * a1
           + c2 * a2.conj().T - np.conj(c2) * a2)
    return expm(gen)


def dense_mixing(space, gamma3, theta_diff, eps=1):
    s = eps * gamma3
    if s == 1.0:
        return np.eye(space.dim, dtype=complex)
    if s == -1.0:
        chi = eps * (math.pi / 2.0)
    else:
        chi = math.atan2(eps * math.sqrt((1.0 - s) / (1.0 + s)), 1.0)
    jp, jm = dense_jpm(space)
    gen = -chi * (np.exp(-1j * theta_diff) * jp - np.exp(1j * theta_diff) * jm)
    return expm(gen)


def dense_gauss_product(space, alpha, rho, lam, omega, gamma):
    n1, n2 = number_diagonals(space)
    jp, jm = dense_jpm(space)
    d_n = np.exp(-0.5j * alpha * (n1 + n2))
    d_rho = np.exp(-0.5j * rho * (n1 - n2))
    d_om = np.exp(0.5 * omega * (n1 - n2))
    u = expm(lam * jp) * d_n[:, None] * d_rho[:, None]
    u = u * d_om[None, :]
    return u @ expm(gamma * jm)


def dense_su2_lift(space, smat, alpha):
    su = cmath.exp(0.5j * alpha) * smat
    cos_t = 0.5 * (su[0, 0] + su[1, 1]).real
    m = (su - cos_t * np.eye(2)) / (-1j)
    v = np.array([m[0, 1].real, -m[0, 1].imag, m[0, 0].real])
    sin_t = float(np.linalg.norm(v))
    n1d, n2d = number_diagonals(space)
    dn = np.diag(np.exp(-0.5j * alpha * (n1d + n2d)))
    if sin_t < 1e-12:
        if cos_t > 0:
            return dn
        return dn @ np.diag(np.exp(-1j * math.pi * (n1d - n2d)))
    theta = math.atan2(sin_t, min(1.0, max(-1.0, cos_t)))
    n_hat = v / sin_t
    jp, jm = dense_jpm(space)
    j3 = np.diag(0.5 * (n1d - n2d)).astype(complex)
    gen = (n_hat[0] * (jp + jm) - 1j * n_hat[1] * (jp - jm)
           + 2.0 * n_hat[2] * j3)
    return dn @ expm(-1j * theta * gen)


def dense_assemble_U(space, scenario, t, tol=1e-10):
    factors = solve_riccati_numeric(scenario, t, tol, grid=np.array([t]))
    amps = c_coefficients(scenario, (0j, 0j), t, tol)
    alpha, rho = factors.alpha[0], factors.rho[0]
    if factors.valid[0]:
        u0 = dense_gauss_product(space, alpha, rho, factors.lam[0],
                                 factors.omega[0], factors.gamma[0])
    else:
        u0 = dense_su2_lift(space, factors.s_dense(t), alpha)
    disp = dense_displacement(space, amps.c1, amps.c2)
    return amps.global_phase * (disp @ u0)


def assert_close(got, ref, bound=1e-12):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# fock

@pytest.mark.parametrize("n_max", N_MAX)
def test_displacement_is_the_dense_exponential(n_max):
    space = make_space(n_max)
    for c1, c2 in ((0.7 + 0.4j, -0.3j), (0.0, 1.1), (-0.05, 0.02 + 0.01j)):
        got = displacement_operator(space, c1, c2, tail_tol=1.0)
        assert_close(got, dense_displacement(space, c1, c2))
        psi = coherent_state(space, c1, c2, tail_tol=1.0)
        assert_close(psi, dense_displacement(space, c1, c2) @ vacuum_state(space))


amplitudes = st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                allow_infinity=False)


@seed(3)
@settings(max_examples=60, deadline=None)
@given(n_max=st.integers(min_value=1, max_value=12), z=amplitudes)
def test_chain_exponentials_are_the_dense_expm(n_max, z):
    space = make_space(n_max)
    for which, gen in zip(("J+", "J-"), dense_jpm(space)):
        assert_close(chain_exponential(space, z, which), expm(z * gen))


@seed(4)
@settings(max_examples=60, deadline=None)
@given(n_max=st.integers(min_value=1, max_value=12), c1=amplitudes,
       c2=amplitudes)
def test_spectral_displacement_is_the_dense_expm(n_max, c1, c2):
    space = make_space(n_max)
    dense = dense_displacement(space, c1, c2)
    assert_close(displacement_operator(space, c1, c2, tail_tol=1.0), dense)
    assert_close(coherent_state(space, c1, c2, tail_tol=1.0), dense[:, 0])


def test_coherent_states_on_arrays_are_the_one_pair_states():
    space = make_space(8)
    c1 = np.array([0.4 - 0.1j, 0.0, -0.7j, 0.5])
    c2 = np.array([0.2j, 0.7, 0.3 + 0.3j, 0.0])
    states = coherent_state(space, c1, c2)
    assert states.shape == (4, space.dim)
    for psi, a, b in zip(states, c1, c2):
        assert np.max(np.abs(psi - coherent_state(space, a, b))) <= 1e-15


def test_every_amplitude_of_an_array_passes_the_guard():
    # |c| = 3 leaks 0.13 of the weight past n_max = 8, wherever it sits
    space = make_space(8)
    with pytest.raises(TruncationError, match="tail weight 1.3"):
        coherent_state(space, [0.1, 0.2, 0.3], [0.0, 3.0, 0.1])


@pytest.mark.parametrize("n_max", N_MAX)
def test_su2_generators_are_the_annihilator_products(n_max):
    space = make_space(n_max)
    jp, jm = dense_jpm(space)
    assert np.array_equal(su2_generator(space, "J+"), jp)
    assert np.array_equal(su2_generator(space, "J-"), jm)


@pytest.mark.parametrize("n_max", N_MAX)
def test_mixing_operator_is_the_dense_exponential(n_max):
    space = make_space(n_max)
    for gamma3, theta, eps in ((0.3, 0.7, 1), (-0.4, 1.2, 1), (0.3, 0.7, -1),
                               (-1.0, 0.2, 1), (0.999, -2.0, -1)):
        assert_close(mixing_operator(space, gamma3, theta, eps),
                     dense_mixing(space, gamma3, theta, eps))


def test_shell_expm_rejects_a_generator_that_mixes_shells():
    space = make_space(3)
    with pytest.raises(ValueError, match="shells"):
        shell_expm(space, annihilator(space, 1))


@seed(2)
@settings(max_examples=60, deadline=None)
@given(
    n_max=st.integers(min_value=1, max_value=9),
    coefficients=st.lists(
        st.complex_numbers(max_magnitude=1.5, allow_nan=False,
                           allow_infinity=False),
        min_size=4, max_size=4),
)
def test_shell_expm_is_the_dense_expm(n_max, coefficients):
    space = make_space(n_max)
    gen = sum(c * su2_generator(space, which)
              for c, which in zip(coefficients, ("J+", "J-", "J3", "N")))
    assert_close(shell_expm(space, gen), expm(gen))


# ---------------------------------------------------------------------------
# evolution

@pytest.mark.parametrize("n_max", N_MAX)
def test_gauss_product_is_the_dense_product(n_max):
    space = make_space(n_max)
    for args in ((0.3, 0.2, 0.3 + 0.1j, 0.2 - 0.1j, -0.4 + 0.2j),
                 (-1.1, 2.5, 1.4 - 0.9j, 1.2 + 0.3j, -1.4 - 0.9j)):
        assert_close(_gauss_product(space, *args),
                     dense_gauss_product(space, *args))


def _rotation(theta, axis, phase=0.0):
    axis = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    sigma = (axis[0] * np.array([[0, 1], [1, 0]])
             + axis[1] * np.array([[0, -1j], [1j, 0]])
             + axis[2] * np.array([[1, 0], [0, -1]]))
    return cmath.exp(1j * phase) * (math.cos(theta) * np.eye(2)
                                    - 1j * math.sin(theta) * sigma)


@pytest.mark.parametrize("n_max", N_MAX)
def test_su2_lift_is_the_dense_lift(n_max):
    space = make_space(n_max)
    for smat, alpha in ((_rotation(0.8, (0.3, -0.5, 0.8), 0.2), 0.4),
                        (_rotation(2.9, (1.0, 1.0, 0.0), -0.7), -1.4),
                        (_rotation(0.0, (0.0, 0.0, 1.0), 0.3), -0.6),
                        (_rotation(math.pi / 2, (0.0, 0.0, 1.0)), 0.0),
                        (-np.eye(2), 0.0)):
        assert_close(_su2_lift(space, smat, alpha),
                     dense_su2_lift(space, smat, alpha))


# the drive amplitude grows with the cutoff so that the truncation guard
# passes at every n_max and the displacement stays far from the identity
DRIVE_AT = {1: 4e-4, 2: 0.01, 8: 0.1, 12: 0.1}


def test_assemble_rejects_a_strong_drive_before_any_gauss_product(
        monkeypatch):
    # the displacement's guard runs first, so U0 is never formed
    def forbidden(*args):
        raise AssertionError("Gauss product formed for a rejected drive")

    monkeypatch.setattr(twomode.evolution, "_gauss_product", forbidden)
    scenario = AllConstantScenario(w11=0.4, w22=0.2, w12=0.05,
                                   f1=ConstantDrive(3.0 + 0j))
    with pytest.raises(TruncationError):
        assemble_U(make_space(8), scenario, 1.0)


@pytest.mark.parametrize("n_max", N_MAX)
@pytest.mark.parametrize("case", ["driven", "ConstantPhase-past-pole"])
def test_assemble_U_is_the_dense_assembly(n_max, case):
    space = make_space(n_max)
    if case == "driven":
        scenario = AllConstantScenario(
            w11=0.7, w22=0.3, w12=0.25 + 0.1j,
            f1=RotatingDrive(DRIVE_AT[n_max], 1.0, 0.0),
            f2=RotatingDrive(-0.5j * DRIVE_AT[n_max], 0.4, 0.3))
        t = 1.0
    else:
        scenario = ConstantPhaseScenario(eta0=1.0, phi0=0.0)
        t = math.pi / 2.0 + 0.2
        factors = solve_riccati_numeric(scenario, t, grid=np.array([t]))
        assert not factors.valid[0]
    assert_close(assemble_U(space, scenario, t),
                 dense_assemble_U(space, scenario, t))


def test_ladder_check_matches_dense_annihilators():
    # the array pass, its one-row calls and the dense annihilators agree
    space = make_space(8)
    c1 = np.array([0.4 - 0.1j, 0.0, -0.5j, 0.6, 0.1 + 0.2j])
    c2 = np.array([0.2j, 0.5, 0.3 + 0.3j, 0.0, -0.7])
    a1, a2 = annihilator(space, 1), annihilator(space, 2)
    for spec in (CoherentStateSpec(z0=0.6, alpha0=math.sqrt(0.3),
                                   beta0=math.sqrt(0.7) * 1j),
                 CoherentStateSpec(z0=0j, alpha0=0.8, beta0=-0.6j)):
        for coefficients in (None, (0.8, 0.6j)):
            lams, residuals = ladder_eigenvalue_checks(space, spec, c1, c2,
                                                       coefficients)
            for a, b, lam, res in zip(c1, c2, lams, residuals):
                (row_lam,), (row_res,) = ladder_eigenvalue_checks(
                    space, spec, a, b, coefficients)
                assert abs(row_lam - lam) <= 1e-14
                assert abs(row_res - res) <= 1e-14
                if coefficients is not None:
                    u1, u2 = coefficients
                elif spec.z0 == 0:
                    u1, u2 = np.conj(spec.alpha0), np.conj(spec.beta0)
                else:
                    u1, u2 = np.conj((a, b)) / np.conj(spec.z0)
                op = u1 * a1 + u2 * a2
                psi = dense_displacement(space, a, b) @ vacuum_state(space)
                want = np.vdot(psi, op @ psi) / np.vdot(psi, psi)
                assert abs(lam - want) <= 1e-14
                want_res = (np.linalg.norm(op @ psi - want * psi)
                            / np.linalg.norm(psi))
                assert abs(res - want_res) <= 1e-14
