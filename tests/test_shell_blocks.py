"""Closed, shell-block and Kronecker assembly against dense references:
each operator must match its construction by one `expm` on a full
truncated space, partial shells included; a Schwinger lift matches the
compression of the untruncated operator (see dense_references)."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import twomode.evolution
from dense_references import (assert_close, compression, dense_assemble_U,
                              dense_displacement, dense_gauss_product,
                              dense_jpm, dense_mixing, dense_su2_lift)
from twomode.evolution import (CoherentStateSpec, _su2_lift, assemble_U,
                               ladder_eigenvalue_checks)
from twomode.fock import (TruncationError, annihilator, coherent_state,
                          displacement_operator, interior_mask, make_space,
                          mixing_operator, number_diagonals, schwinger_lift,
                          vacuum_state)
from twomode.riccati import solve_riccati_numeric
from twomode.scenario import (AllConstantScenario, ConstantDrive,
                              ConstantPhaseScenario, RotatingDrive)

N_MAX = [1, 2, 8, 12]


def haar_unitary(rng):
    """A Haar-random 2x2 unitary: QR of a complex Gaussian matrix, with the
    phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
def test_schwinger_lift_is_the_dense_compression(n_max):
    # every entry, partial shells included
    space = make_space(n_max)
    rng = np.random.default_rng(n_max)
    for _ in range(4):
        smat = haar_unitary(rng)
        assert_close(schwinger_lift(space, smat), dense_su2_lift(space, smat))


@pytest.mark.parametrize("n_max", N_MAX)
def test_mixing_operator_is_the_dense_exponential(n_max):
    space = make_space(n_max)
    for gamma3, theta, eps in ((0.3, 0.7, 1), (-0.4, 1.2, 1), (0.3, 0.7, -1),
                               (-1.0, 0.2, 1), (0.999, -2.0, -1)):
        assert_close(mixing_operator(space, gamma3, theta, eps),
                     dense_mixing(space, gamma3, theta, eps))


def test_schwinger_lift_takes_one_2x2():
    space = make_space(3)
    for bad in (np.eye(3), np.stack([np.eye(2)] * 3)):
        with pytest.raises(ValueError, match="2x2"):
            schwinger_lift(space, bad)


@seed(2)
@settings(max_examples=60, deadline=None)
@given(
    n_max=st.integers(min_value=1, max_value=9),
    coefficients=st.lists(
        st.complex_numbers(max_magnitude=1.5, allow_nan=False,
                           allow_infinity=False),
        min_size=4, max_size=4),
)
def test_schwinger_lift_is_the_dense_expm(n_max, coefficients):
    # a general, not anti-Hermitian, combination of J+, J-, J3 and N/2: the
    # lift of its 2x2 exponential is the compression of its exponential
    cp, cm, c3, cn = coefficients
    small = np.array([[0.5 * (c3 + cn), cp], [cm, 0.5 * (cn - c3)]])

    def build(big):
        jp, jm = dense_jpm(big)
        n1, n2 = number_diagonals(big)
        return expm(cp * jp + cm * jm
                    + np.diag(0.5 * c3 * (n1 - n2) + 0.5 * cn * (n1 + n2)))

    space = make_space(n_max)
    assert_close(schwinger_lift(space, expm(small)), compression(space, build))


# ---------------------------------------------------------------------------
# evolution

def gauss_2x2(alpha, rho, lam, omega, gamma):
    """The disentangled product on the j=1/2 carrier:
    e^{-i alpha/2} diag(e^{-i rho/2}, e^{i rho/2}) [[1, lam], [0, 1]]
    diag(e^{omega/2}, e^{-omega/2}) [[1, 0], [gamma, 1]]."""
    frame = cmath.exp(-0.5j * alpha) * np.diag(
        [cmath.exp(-0.5j * rho), cmath.exp(0.5j * rho)])
    return (frame @ np.array([[1.0, lam], [0.0, 1.0]])
            @ np.diag([cmath.exp(0.5 * omega), cmath.exp(-0.5 * omega)])
            @ np.array([[1.0, 0.0], [gamma, 1.0]]))


@pytest.mark.parametrize("n_max", N_MAX)
def test_gauss_product_is_the_dense_product(n_max):
    # the paper's Fock-level identity: Sym^N is a homomorphism, so the lift
    # of the 2x2 Gauss product is the product of the Fock exponentials on
    # every complete shell; the truncated exponentials differ above n_max
    space = make_space(n_max)
    keep = interior_mask(space, 0)
    complete = np.ix_(keep, keep)
    for args in ((0.3, 0.2, 0.3 + 0.1j, 0.2 - 0.1j, -0.4 + 0.2j),
                 (-1.1, 2.5, 1.4 - 0.9j, 1.2 + 0.3j, -1.4 - 0.9j)):
        assert_close(schwinger_lift(space, gauss_2x2(*args))[complete],
                     dense_gauss_product(space, *args)[complete])


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
    for smat in (_rotation(0.8, (0.3, -0.5, 0.8), 0.2),
                 _rotation(2.9, (1.0, 1.0, 0.0), -0.7),
                 _rotation(0.0, (0.0, 0.0, 1.0), 0.3),
                 _rotation(math.pi / 2, (0.0, 0.0, 1.0)),
                 -np.eye(2)):
        assert_close(_su2_lift(space, smat), dense_su2_lift(space, smat))


# the drive amplitude grows with the cutoff so that the truncation guard
# passes at every n_max and the displacement stays far from the identity
DRIVE_AT = {1: 4e-4, 2: 0.01, 8: 0.1, 12: 0.1}


def test_assemble_rejects_a_strong_drive_before_any_lift(monkeypatch):
    # the displacement's guard runs first, so U0 is never formed
    def forbidden(*args):
        raise AssertionError("U0 lifted for a rejected drive")

    monkeypatch.setattr(twomode.evolution, "_su2_lift", forbidden)
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
