import math

import numpy as np
import pytest

from dense_references import (assert_close, basis_state, dense_mixing,
                              mixing_rotation)
from twomode.fock import (FockSpace, TruncationError, annihilator,
                          coherent_state, displacement_operator,
                          interior_mask, make_space, number_diagonals,
                          schwinger_lift)


def test_space_layout():
    space = make_space(4)
    assert space.side == 5
    assert space.dim == 25
    for idx in range(space.dim):
        assert space.index(*divmod(idx, space.side)) == idx


def test_space_validation():
    with pytest.raises(ValueError):
        make_space(0)
    # a float cutoff would give a float dim, which no array shape takes
    for n_max in (3.0, 2.5, "3"):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            make_space(n_max)
    assert make_space(np.int64(3)).dim == 16
    assert FockSpace(2).dim == 9
    space = make_space(3)
    with pytest.raises(ValueError):
        space.index(4, 0)
    with pytest.raises(ValueError):
        space.index(0, -1)


def test_annihilator_ladder_action():
    space = make_space(5)
    a1 = annihilator(space, 1)
    a2 = annihilator(space, 2)
    for n in range(1, 6):
        out = a1 @ basis_state(space, n, 2)
        assert abs(out[space.index(n - 1, 2)] - np.sqrt(n)) < 1e-12
        out = a2 @ basis_state(space, 2, n)
        assert abs(out[space.index(2, n - 1)] - np.sqrt(n)) < 1e-12
    assert np.linalg.norm(a1 @ basis_state(space, 0, 3)) == 0.0
    with pytest.raises(ValueError):
        annihilator(space, 3)


def test_commutators_on_interior():
    # [a_s, a_l^dag] = delta_sl entrywise wherever both occupations stay
    # below the cutoff
    space = make_space(5)
    ops = {1: annihilator(space, 1), 2: annihilator(space, 2)}
    n1, n2 = number_diagonals(space)
    keep = (n1 < space.n_max) & (n2 < space.n_max)
    sub = np.ix_(keep, keep)
    for s in (1, 2):
        for l in (1, 2):
            comm = ops[s] @ ops[l].conj().T - ops[l].conj().T @ ops[s]
            want = np.eye(space.dim)[sub] if s == l else 0.0
            assert np.max(np.abs(comm[sub] - want)) < 1e-12


def test_schwinger_lift_is_a_representation():
    # Sym^N(A) Sym^N(B) = Sym^N(AB) on the complete shells, where the lift
    # is the whole shell block; diagonal and swap matrices lift to phases
    # e^{i (a n1 + b n2)} and to the mode swap
    space = make_space(6)
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    complete = interior_mask(space, 0)
    sub = np.ix_(complete, complete)
    product = schwinger_lift(space, a) @ schwinger_lift(space, b)
    want = schwinger_lift(space, a @ b)
    bound = 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs((product - want)[sub])) < bound
    n1, n2 = number_diagonals(space)
    phases = schwinger_lift(space, np.diag(np.exp([0.3j, -1.1j])))
    want = np.diag(np.exp(0.3j * n1 - 1.1j * n2))
    assert np.max(np.abs(phases - want)) < 1e-14
    swap = schwinger_lift(space, [[0, 1], [1, 0]])
    for n in range(space.side):
        for m in range(space.side):
            assert swap[space.index(m, n), space.index(n, m)] == 1.0


def test_schwinger_lift_preserves_total_occupation():
    # block-diagonal by shell on the full space, partial shells included
    space = make_space(5)
    n1, n2 = number_diagonals(space)
    total = n1 + n2
    lift = schwinger_lift(space, [[0.6, 0.8j], [0.8j, 0.6]])
    rows, cols = np.nonzero(lift)
    assert np.all(total[rows] == total[cols])
    assert np.all(lift[total[:, None] == total[None, :]] != 0)


def test_interior_mask_is_total_occupation():
    space = make_space(6)
    n1, n2 = number_diagonals(space)
    mask = interior_mask(space, margin=2)
    assert np.array_equal(mask, n1 + n2 <= 4)
    assert mask.sum() == 15  # 1 + 2 + 3 + 4 + 5 complete shells


def test_displacement_unitary_and_vacuum_amplitude():
    space = make_space(10)
    d = displacement_operator(space, 1.0, 0.0)
    assert np.max(np.abs(d @ d.conj().T - np.eye(space.dim))) < 1e-9
    psi = coherent_state(space, 1.0, 0.0)
    # <0,0|D(1)|0,0> = exp(-1/2)
    assert abs(psi[space.index(0, 0)] - np.exp(-0.5)) < 1e-9
    # Poisson occupation profile in mode 1
    for n in range(4):
        want = np.exp(-0.5) / np.sqrt(float(math.factorial(n)))
        assert abs(psi[space.index(n, 0)] - want) < 1e-9


def test_displacement_tail_guard():
    space = make_space(6)
    with pytest.raises(TruncationError):
        displacement_operator(space, 3.0, 0.0)
    with pytest.raises(TruncationError):
        displacement_operator(space, 0.0, 2.5 + 1.0j)
    # |c| = 1 at n_max = 10 passes the default 1e-6 budget
    displacement_operator(make_space(10), 1.0, 0.0)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf,
                                       complex(0.1, -math.inf)])
def test_displacement_refuses_a_non_finite_amplitude(amplitude):
    # the tail guard reads no tail weight off such an amplitude
    space = make_space(4)
    message = "displacement amplitude .* is not finite"
    with pytest.raises(ValueError, match=message):
        displacement_operator(space, 0.1, amplitude)
    with pytest.raises(ValueError, match=message):
        coherent_state(space, amplitude, 0.0)
    with pytest.raises(ValueError, match=message):
        coherent_state(space, np.array([0.1, amplitude]), np.zeros(2))


def test_coherent_state_mean_occupation():
    space = make_space(10)
    psi = coherent_state(space, 0.6, -0.3j)
    a1 = annihilator(space, 1)
    a2 = annihilator(space, 2)
    assert abs(np.vdot(psi, a1 @ psi) - 0.6) < 1e-8
    assert abs(np.vdot(psi, a2 @ psi) + 0.3j) < 1e-8
    n1 = a1.conj().T @ a1
    assert abs(np.vdot(psi, n1 @ psi) - 0.36) < 1e-7


def test_mixing_operator_unitary_and_endpoints():
    space = make_space(5)
    t = schwinger_lift(space, mixing_rotation(0.3, 0.7))
    # unitary on the complete shells; on every entry the compression of the
    # untruncated rotation
    complete = interior_mask(space, 0)
    block = t[np.ix_(complete, complete)]
    assert np.max(np.abs(block @ block.conj().T
                         - np.eye(block.shape[0]))) < 1e-10
    assert_close(t, dense_mixing(space, 0.3, 0.7))
    assert np.array_equal(schwinger_lift(space, mixing_rotation(1.0, 0.4)),
                          np.eye(space.dim))
    assert np.array_equal(
        schwinger_lift(space, mixing_rotation(-1.0, 0.4, eps=-1)),
        np.eye(space.dim))
    swap = schwinger_lift(space, mixing_rotation(-1.0, 0.0))
    psi = swap @ basis_state(space, 1, 0)
    # quarter rotation moves the quantum to the other mode (up to phase)
    assert abs(abs(psi[space.index(0, 1)]) - 1.0) < 1e-12


def test_mixing_transformation_laws():
    # T_eps^dag a1 T_eps = sqrt((1+eps g)/2) a1 - eps e^{-i th} sqrt((1-eps g)/2) a2
    # T_eps^dag a2 T_eps = sqrt((1+eps g)/2) a2 + eps e^{+i th} sqrt((1-eps g)/2) a1
    space = make_space(7)
    a1 = annihilator(space, 1)
    a2 = annihilator(space, 2)
    mask = interior_mask(space, margin=1)
    sub = np.ix_(mask, mask)
    for gamma3, theta, eps in ((0.0, 0.0, 1), (0.3, 0.7, 1), (-0.4, 1.2, 1),
                               (0.3, 0.7, -1)):
        cp = np.sqrt((1 + eps * gamma3) / 2)
        cm = np.sqrt((1 - eps * gamma3) / 2)
        e = eps * np.exp(1j * theta)
        t = schwinger_lift(space, [[cp, -cm * np.conj(e)], [cm * e, cp]])
        law1 = cp * a1 - eps * np.exp(-1j * theta) * cm * a2
        law2 = cp * a2 + eps * np.exp(1j * theta) * cm * a1
        got1 = t.conj().T @ a1 @ t
        got2 = t.conj().T @ a2 @ t
        assert np.max(np.abs((got1 - law1)[sub])) < 1e-8
        assert np.max(np.abs((got2 - law2)[sub])) < 1e-8


def test_mixing_diagonalizes_dressed_number():
    space = make_space(8)
    alpha, beta = np.sqrt(0.65), np.sqrt(0.35) * np.exp(0.4j)
    a1 = annihilator(space, 1)
    a2 = annihilator(space, 2)
    big_a = alpha * a1 + beta * a2
    h = big_a.conj().T @ big_a
    gamma3 = abs(alpha) ** 2 - abs(beta) ** 2
    theta = np.angle(alpha) - np.angle(beta)
    mask = interior_mask(space, margin=1)
    sub = np.ix_(mask, mask)

    t1 = schwinger_lift(space, mixing_rotation(gamma3, theta, eps=1))
    dev1 = t1.conj().T @ h @ t1 - a1.conj().T @ a1
    assert np.max(np.abs(dev1[sub])) < 1e-10

    tm = schwinger_lift(space, mixing_rotation(gamma3, theta, eps=-1))
    dev2 = tm.conj().T @ h @ tm - a2.conj().T @ a2
    assert np.max(np.abs(dev2[sub])) < 1e-10
