import ast
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import twomode.oracle
from twomode.fock import (annihilator, coherent_state, interior_mask,
                          make_space, number_diagonals)
from twomode.oracle import (brute_force_propagator, brute_force_smatrix,
                            hamiltonian_matrix, hamiltonian_ops)
from twomode.scenario import (AllConstantScenario, ConstantDrive,
                              ConstantPhaseScenario, CosineDrive,
                              FresnelNormScenario, GeneralPhaseScenario,
                              LinearPhaseScenario,
                              RhoConstantScenario, RotatingDrive,
                              TabulatedScenario)
from twomode.smatrix import smatrix_closed


# Sequential midpoint products, one coefficient sample and one
# eigendecomposition per step: the loops the batched oracles replaced, kept
# as their reference.

def _loop_step_unitary(h, dt):
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * dt)) @ vecs.conj().T


def _loop_hamiltonian(space, scenario, t):
    a1 = annihilator(space, 1)
    a2 = annihilator(space, 2)
    n1, n2 = number_diagonals(space)
    k12 = a1.conj().T @ a2
    w11, w22, w12 = scenario.coupling(t)
    f1, f2, b = scenario.f1(t), scenario.f2(t), np.real(scenario.b(t))
    h = (w11 * np.diag(n1) + w22 * np.diag(n2)
         + w12 * k12 + np.conj(w12) * k12.conj().T)
    if f1 != 0:
        h = h + f1 * a1.conj().T + np.conj(f1) * a1
    if f2 != 0:
        h = h + f2 * a2.conj().T + np.conj(f2) * a2
    if b != 0:
        h = h + b * np.eye(space.dim)
    return h


def loop_propagator(space, scenario, t, n_steps):
    dt = t / n_steps
    u = np.eye(space.dim, dtype=complex)
    for k in range(n_steps):
        h = _loop_hamiltonian(space, scenario, (k + 0.5) * dt)
        u = _loop_step_unitary(h, dt) @ u
    return u


def csr_loop_propagator(space, scenario, t, n_steps, states):
    # the same steps and Taylor degrees, with a scipy.sparse.csr_array whose
    # values each step overwrites and w = out + (a @ w) / j per term
    oracle = twomode.oracle
    ts, h = oracle._midpoints(scenario, t, n_steps)
    coef = oracle._coefficients(scenario, ts)
    ops = hamiltonian_ops(space)
    norms = np.array([np.abs(ops[name]).sum(axis=0).max()
                      for name in oracle._TERMS])
    theta = h * (np.abs(coef) @ norms)
    substeps = np.maximum(np.ceil(theta), 1).astype(int)
    degrees = oracle._taylor_degrees(theta / substeps)
    basis = oracle._basis(ops)
    support = oracle._support(basis)
    rows, cols = np.divmod(support, space.dim)
    a = scipy.sparse.csr_array(
        (np.zeros(support.size, dtype=complex), cols,
         np.searchsorted(rows, np.arange(space.dim + 1))),
        shape=(space.dim, space.dim))
    basis = basis[:, support]
    out = np.asarray(states, dtype=complex)
    for row, hk, s, m in zip(coef, h, substeps, degrees):
        a.data[:] = (row * (-1j * hk / s)) @ basis
        for _ in range(s):
            w = out
            for j in range(m, 0, -1):
                w = out + (a @ w) / j
            out = w
    return out


def loop_smatrix(scenario, t, n_steps):
    dt = t / n_steps
    s = np.eye(2, dtype=complex)
    for k in range(n_steps):
        w11, w22, w12 = scenario.coupling((k + 0.5) * dt)
        w = np.array([[w11, w12], [np.conj(w12), w22]], dtype=complex)
        s = _loop_step_unitary(w, dt) @ s
    return s


def midpoint_loop_smatrix(scenario, t, n_steps):
    # loop_smatrix over the steps of _midpoints, split at the kinks
    ts, h = twomode.oracle._midpoints(scenario, t, n_steps)
    s = np.eye(2, dtype=complex)
    for tk, hk in zip(ts, h):
        w11, w22, w12 = scenario.coupling(tk)
        w = np.array([[w11, w12], [np.conj(w12), w22]], dtype=complex)
        s = _loop_step_unitary(w, hk) @ s
    return s


DRIVEN = AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j,
                             f1=RotatingDrive(0.1, 1.0, 0.0),
                             f2=ConstantDrive(-0.05 + 0.08j),
                             b=CosineDrive(0.2, 1.5, 0.3))


def test_hamiltonian_is_hermitian():
    space = make_space(4)
    scenario = AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j,
                                   f1=ConstantDrive(0.1 + 0.05j),
                                   b=ConstantDrive(0.2))
    h = hamiltonian_matrix(space, scenario, 0.4)
    assert np.max(np.abs(h - h.conj().T)) < 1e-14


def test_hamiltonian_entries():
    space = make_space(3)
    scenario = AllConstantScenario(w11=0.5, w22=0.25, w12=0.3j)
    h = hamiltonian_matrix(space, scenario, 0.0)
    i20 = space.index(2, 0)
    i11 = space.index(1, 1)
    assert abs(h[i20, i20] - 1.0) < 1e-14              # 2 w11
    assert abs(h[i11, i11] - 0.75) < 1e-14             # w11 + w22
    # w12 a1+ a2 moves (1,1) -> (2,0) with sqrt(2) ladder weight
    assert abs(h[i20, i11] - 0.3j * math.sqrt(2.0)) < 1e-14
    assert abs(h[i11, i20] + 0.3j * math.sqrt(2.0)) < 1e-14


def test_propagator_is_unitary():
    space = make_space(5)
    scenario = ConstantPhaseScenario(eta0=1.0, phi0=0.3, w11=0.2, w22=0.05)
    u = brute_force_propagator(space, scenario, 1.0, 64)
    assert np.max(np.abs(u.conj().T @ u - np.eye(space.dim))) < 1e-12


def test_propagator_step_doubling_converges():
    # midpoint stepping is second order: halving the step cuts the
    # deviation from a fine reference by about four
    scenario = LinearPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3)
    ref = brute_force_smatrix(scenario, 1.0, 4096)
    d1 = np.max(np.abs(brute_force_smatrix(scenario, 1.0, 64) - ref))
    d2 = np.max(np.abs(brute_force_smatrix(scenario, 1.0, 128) - ref))
    assert 3.5 < d1 / d2 < 4.5


def test_smatrix_oracle_exact_for_constant_coupling():
    scenario = AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j)
    closed = smatrix_closed(scenario, 1.5).mat
    # each midpoint step is the exact exponential, so the count is moot
    for n in (3, 50):
        got = brute_force_smatrix(scenario, 1.5, n)
        assert np.max(np.abs(got - closed)) < 1e-12


def test_smatrix_oracle_matches_closed_block():
    scenario = ConstantPhaseScenario(eta0=1.0, phi0=0.3, w11=0.2, w22=0.05)
    closed = smatrix_closed(scenario, 0.8).mat
    got = brute_force_smatrix(scenario, 0.8, 4096)
    assert np.max(np.abs(got - closed)) < 1e-6


def test_oracle_rejects_empty_stepping():
    scenario = AllConstantScenario(w11=0.1, w22=0.1, w12=0.0)
    with pytest.raises(ValueError, match="n_steps"):
        brute_force_smatrix(scenario, 1.0, 0)
    with pytest.raises(ValueError, match="n_steps"):
        brute_force_propagator(make_space(2), scenario, 1.0, 0)


def test_smatrix_oracle_matches_sequential_loop():
    scenario = LinearPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3, w11=0.15,
                                   w22=0.05)
    got = brute_force_smatrix(scenario, 1.3, 4096)
    assert np.max(np.abs(got - loop_smatrix(scenario, 1.3, 4096))) <= 1e-12


def test_propagator_matches_sequential_loop():
    space = make_space(4)
    got = brute_force_propagator(space, DRIVEN, 0.9, 64)
    ref = loop_propagator(space, DRIVEN, 0.9, 64)
    assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.parametrize("n_steps", [4095, 4096, 4097, 9000])
def test_smatrix_oracle_matches_sequential_loop_across_blocks(n_steps):
    # the steps are multiplied _BLOCK at a time, and the blocks in order;
    # the loop's roundoff grows with its steps (1.3e-12 at 9000, as much
    # with blocks of 1024), so the bound is 2.5e-16 per step
    scenario = LinearPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3, w11=0.15,
                                   w22=0.05)
    got = brute_force_smatrix(scenario, 1.3, n_steps)
    ref = loop_smatrix(scenario, 1.3, n_steps)
    assert np.max(np.abs(got - ref)) <= 2.5e-16 * n_steps


def test_smatrix_oracle_matches_sequential_loop_across_kinks_and_blocks():
    # steps split at the kinks of |cos(nu s^2)| shift the block edges off
    # the uniform grid; the run spans more than two blocks
    scenario = FresnelNormScenario(w12_0=0.7, nu=2.0)
    ts, _ = twomode.oracle._midpoints(scenario, 3.0, 9000)
    assert ts.size > 2 * twomode.oracle._BLOCK
    assert ts.size > 9000
    got = brute_force_smatrix(scenario, 3.0, 9000)
    ref = midpoint_loop_smatrix(scenario, 3.0, 9000)
    assert np.max(np.abs(got - ref)) <= 2.5e-16 * ts.size


@pytest.mark.parametrize("n_steps", [1, 2, 3, 5])
def test_oracles_match_loops_for_few_steps(n_steps):
    # odd tree sizes of the pairwise 2x2 product
    space = make_space(3)
    scenario = LinearPhaseScenario(eta0=0.8, w0=0.6, phi0=-0.4, w11=0.3,
                                   w22=-0.1, f1=RotatingDrive(0.2, 0.7, 0.1))
    got = brute_force_smatrix(scenario, 0.7, n_steps)
    assert np.max(np.abs(got - loop_smatrix(scenario, 0.7, n_steps))) <= 1e-12
    got = brute_force_propagator(space, scenario, 0.7, n_steps)
    ref = loop_propagator(space, scenario, 0.7, n_steps)
    assert np.max(np.abs(got - ref)) <= 1e-12


@st.composite
def driven_scenarios(draw):
    def x(lo, hi):
        return draw(st.floats(min_value=lo, max_value=hi))

    drives = {"f1": RotatingDrive(complex(x(-0.3, 0.3), x(-0.3, 0.3)),
                                  x(-2.0, 2.0), x(-3.0, 3.0)),
              "f2": ConstantDrive(complex(x(-0.3, 0.3), x(-0.3, 0.3))),
              "b": CosineDrive(x(-0.5, 0.5), x(0.0, 2.0), x(-3.0, 3.0))}
    family = draw(st.sampled_from(["AllConstant", "ConstantPhase",
                                   "LinearPhase", "RhoConstant"]))
    if family == "AllConstant":
        return AllConstantScenario(w11=x(-1.0, 1.0), w22=x(-1.0, 1.0),
                                   w12=complex(x(-0.5, 0.5), x(-0.5, 0.5)),
                                   **drives)
    if family == "ConstantPhase":
        return ConstantPhaseScenario(eta0=x(0.2, 1.0), phi0=x(-3.0, 3.0),
                                     w11=x(-0.5, 0.5), w22=x(-0.5, 0.5),
                                     **drives)
    if family == "LinearPhase":
        return LinearPhaseScenario(eta0=x(0.2, 1.0), w0=x(-1.0, 1.0),
                                   phi0=x(-3.0, 3.0), w11=x(-0.5, 0.5),
                                   w22=x(-0.5, 0.5), **drives)
    return RhoConstantScenario(rho0=x(0.1, 1.2), eta0=x(0.2, 1.0),
                               w0=x(0.2, 1.5), theta_alpha0=x(-3.0, 3.0),
                               theta_beta0=x(-3.0, 3.0), **drives)


@seed(1)
@settings(max_examples=30, deadline=None)
# a single step at t = 3 on n_max 8 has |A|_1 far above 1, so every step
# of the Taylor action is split into substeps
@example(scenario=DRIVEN, n_max=8, t=3.0, n_steps=1)
@given(scenario=driven_scenarios(), n_max=st.integers(min_value=1, max_value=5),
       t=st.floats(min_value=0.0, max_value=3.0),
       n_steps=st.sampled_from([1, 2, 3, 5, 64]))
def test_taylor_action_matches_eigendecomposition_loop(scenario, n_max, t,
                                                       n_steps):
    space = make_space(n_max)
    u = brute_force_propagator(space, scenario, t, n_steps)
    assert np.max(np.abs(u - loop_propagator(space, scenario, t,
                                             n_steps))) <= 1e-12
    assert np.max(np.abs(u.conj().T @ u - np.eye(space.dim))) <= 1e-12
    rng = np.random.default_rng(5)
    psi = rng.normal(size=(space.dim, 2)) + 1j * rng.normal(size=(space.dim, 2))
    got = brute_force_propagator(space, scenario, t, n_steps, states=psi)
    assert got.shape == psi.shape
    assert np.max(np.abs(got - u @ psi)) <= 1e-12
    one = brute_force_propagator(space, scenario, t, n_steps, states=psi[:, 1])
    assert one.shape == (space.dim,)
    assert np.max(np.abs(one - u @ psi[:, 1])) <= 1e-12


def _verify_states(space):
    # verify's three coherent test states, masked to the interior shells
    keep = interior_mask(space, 2)
    states = []
    for c1, c2 in ((0.3, 0.0), (0.0, 0.4), (0.25 + 0.2j, -0.3j)):
        psi = coherent_state(space, c1, c2) * keep
        states.append(psi / np.linalg.norm(psi))
    return np.stack(states, axis=1)


def test_taylor_action_matches_eigendecomposition_loop_at_verify_size():
    # verify runs the Fock oracle at n_max 8 on three coherent states
    space = make_space(8)
    u = brute_force_propagator(space, DRIVEN, 0.9, 64)
    ref = loop_propagator(space, DRIVEN, 0.9, 64)
    assert np.max(np.abs(u - ref)) <= 1e-12
    states = _verify_states(space)
    got = brute_force_propagator(space, DRIVEN, 0.9, 64, states)
    assert np.max(np.abs(got - ref @ states)) <= 1e-12


PRINTED_FAMILIES = [
    ConstantPhaseScenario(eta0=1.0, phi0=0.3, w11=0.2, w22=0.05),
    LinearPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3, w11=0.15, w22=0.05),
    GeneralPhaseScenario(eta0=0.8, w0=1.2, phi0=0.2, theta0=1.0, nu=0.2),
    AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j),
    RhoConstantScenario(rho0=math.pi / 6.0, eta0=0.8, w0=1.0,
                        theta_alpha0=0.3, theta_beta0=-0.2),
]


@pytest.mark.parametrize("driven", [False, True])
@pytest.mark.parametrize("family", PRINTED_FAMILIES,
                         ids=lambda scenario: scenario.case)
def test_kernel_oracle_matches_csr_container_loop(family, driven):
    # each Taylor term as one compiled kernel call on values already
    # divided by j gives the numbers of the csr_array loop it replaced
    if driven:
        family = dataclasses.replace(family, f1=DRIVEN.f1, f2=DRIVEN.f2,
                                     b=DRIVEN.b)
    space = make_space(8)
    states = _verify_states(space)
    got = brute_force_propagator(space, family, 1.1, 256, states)
    ref = csr_loop_propagator(space, family, 1.1, 256, states)
    assert np.max(np.abs(got - ref)) <= 1e-14


@pytest.mark.parametrize("n_steps", [63, 64, 65, 200])
def test_kernel_oracle_values_across_step_blocks(n_steps):
    # the CSR values are formed for a block of steps at once; steps on
    # both sides of a block edge get the numbers of the per-step loop
    space = make_space(8)
    states = _verify_states(space)
    got = brute_force_propagator(space, DRIVEN, 0.9, n_steps, states)
    ref = csr_loop_propagator(space, DRIVEN, 0.9, n_steps, states)
    assert np.max(np.abs(got - ref)) <= 1e-14


def test_kernel_oracle_values_across_step_blocks_with_kinks():
    # the kinks of |cos(nu s^2)| add steps, so the step edges leave the
    # uniform grid and the blocks hold steps of different lengths
    scenario = dataclasses.replace(FresnelNormScenario(w12_0=0.7, nu=2.0),
                                   f1=DRIVEN.f1, f2=DRIVEN.f2, b=DRIVEN.b)
    space = make_space(8)
    ts, _ = twomode.oracle._midpoints(scenario, 3.0, 128)
    assert ts.size > 128 + 4
    states = _verify_states(space)
    got = brute_force_propagator(space, scenario, 3.0, 128, states)
    ref = csr_loop_propagator(space, scenario, 3.0, 128, states)
    assert np.max(np.abs(got - ref)) <= 1e-14


def test_kernel_oracle_substeps_in_a_later_value_block():
    # long steps at n_max 8 have |A|_1 above 1, and a strong B moves it,
    # so the steps of the second block of values are split into different
    # numbers of substeps, each dividing its own values by its own count
    scenario = dataclasses.replace(DRIVEN, b=CosineDrive(8.0, 0.5, 0.3))
    space = make_space(8)
    oracle = twomode.oracle
    ts, h = oracle._midpoints(scenario, 20.0, 70)
    norms = oracle._csr_pattern(space)[0]
    theta = h * (np.abs(oracle._coefficients(scenario, ts)) @ norms)
    later = np.ceil(theta[oracle._VALUE_BLOCK:])
    assert 1 < later.min() < later.max()
    states = _verify_states(space)
    got = brute_force_propagator(space, scenario, 20.0, 70, states)
    ref = csr_loop_propagator(space, scenario, 20.0, 70, states)
    assert np.max(np.abs(got - ref)) <= 1e-14


@pytest.mark.parametrize("n_max", [1, 3, 8])
def test_csr_pattern_is_cached_read_only_and_fresh(n_max):
    # built once per space: the norms, the operators' values on the shared
    # pattern and its int32 indices and indptr, as a fresh build gives them
    oracle = twomode.oracle
    space = make_space(n_max)
    pattern = oracle._csr_pattern(space)
    assert oracle._csr_pattern(make_space(n_max)) is pattern
    ops = hamiltonian_ops(space)
    basis = oracle._basis(ops)
    support = oracle._support(basis)
    rows, cols = np.divmod(support, space.dim)
    fresh = (np.array([np.abs(ops[name]).sum(axis=0).max()
                       for name in oracle._TERMS]),
             basis[:, support], cols,
             np.searchsorted(rows, np.arange(space.dim + 1)))
    for arr, want in zip(pattern, fresh):
        assert not arr.flags.writeable
        assert np.array_equal(arr, want)
    assert pattern[2].dtype == pattern[3].dtype == np.int32
    with pytest.raises(ValueError, match="read-only"):
        pattern[1][0, 0] = 1.0


@pytest.mark.parametrize("n_max", [3, 8])
@pytest.mark.parametrize("k", [1, 3, 81])
def test_csr_kernel_adds_product_to_output(n_max, k):
    # the private SciPy kernel the Fock oracle calls: y += A @ X for a
    # row-major X of k columns, in the oracle's own cached pattern
    from scipy.sparse._sparsetools import csr_matvecs
    space = make_space(n_max)
    n = space.dim
    _, _, indices, indptr = twomode.oracle._csr_pattern(space)
    rng = np.random.default_rng(100 * n_max + k)

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    data, x, y0 = draw(indices.size), draw(n, k), draw(n, k)
    y = y0.copy()
    csr_matvecs(n, n, k, indptr, indices, data, x.ravel(), y.ravel())
    a = scipy.sparse.csr_array((data, indices, indptr), shape=(n, n))
    assert np.max(np.abs(y - (y0 + a @ x))) <= 1e-13


@pytest.mark.parametrize("n_max", [1, 3, 8])
def test_sparse_pattern_covers_hamiltonian(n_max):
    # the diagonal, four ladders and two hoppings, and nothing else
    space = make_space(n_max)
    support = twomode.oracle._support(
        twomode.oracle._basis(hamiltonian_ops(space)))
    n = n_max
    assert support.size == (n + 1) ** 2 + 4 * n * (n + 1) + 2 * n * n
    assert np.all(np.diff(support) > 0)
    off = np.ones(space.dim * space.dim, dtype=bool)
    off[support] = False
    for t in (0.0, 0.37, 1.2, 2.9):
        h = hamiltonian_matrix(space, DRIVEN, t)
        assert not h.ravel()[off].any()


@dataclass(frozen=True)
class _BlowUp(AllConstantScenario):
    """w11 becomes value after t = 0.5."""

    value: float = np.inf

    def coupling(self, t):
        w11 = np.where(np.asarray(t) > 0.5, self.value, self.w11)
        return w11, self.w22, self.w12


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_propagator_refuses_nonfinite_coefficients(value):
    # a step with no finite substep count must stop the product, not be
    # dropped from it
    scenario = _BlowUp(w11=0.7, w22=0.3, w12=0.25 + 0.1j, value=value)
    space = make_space(2)
    # the first midpoint past 0.5 of eight steps over [0, 1]
    with pytest.raises(ValueError, match=r"t = 0\.5625"):
        brute_force_propagator(space, scenario, 1.0, 8)
    u = brute_force_propagator(space, scenario, 0.5, 8)
    assert np.all(np.isfinite(u))


@pytest.mark.parametrize("t", [-1.0, -1e-300, np.inf, -np.inf, np.nan])
def test_oracles_refuse_negative_or_nonfinite_time(t):
    # the steps run forward over [0, t]; at t < 0 the Fock oracle's Taylor
    # degree was 0 and it returned the states unchanged
    scenario = AllConstantScenario(w11=0.7, w22=0.1, w12=0.3 + 0.1j)
    with pytest.raises(ValueError, match="t must be finite and non-negative"):
        brute_force_propagator(make_space(3), scenario, t, 64)
    with pytest.raises(ValueError, match="t must be finite and non-negative"):
        brute_force_smatrix(scenario, t, 64)


def test_oracles_at_time_zero_return_states_unchanged():
    scenario = AllConstantScenario(w11=0.7, w22=0.1, w12=0.3 + 0.1j,
                                   f1=ConstantDrive(0.2))
    space = make_space(3)
    psi = np.arange(2 * space.dim).reshape(space.dim, 2) * (1 + 0.5j)
    assert np.array_equal(
        brute_force_propagator(space, scenario, 0.0, 64, psi), psi)
    assert np.array_equal(brute_force_propagator(space, scenario, 0.0, 64),
                          np.eye(space.dim))
    assert np.array_equal(brute_force_smatrix(scenario, 0.0, 64), np.eye(2))


@pytest.mark.parametrize("shape", [(27, 9), (82,), (3, 81), (81, 3, 1)])
def test_propagator_refuses_states_of_another_size(shape):
    # the kernel checks no sizes: 27 x 9 holds the 243 entries of 81 x 3
    with pytest.raises(ValueError, match="81 rows"):
        brute_force_propagator(make_space(8), DRIVEN, 0.9, 4,
                               np.ones(shape, dtype=complex))


def test_propagator_takes_states_in_any_layout_and_keeps_them():
    space = make_space(8)
    u = brute_force_propagator(space, DRIVEN, 0.9, 64)
    rng = np.random.default_rng(3)
    block = rng.normal(size=(space.dim, 6)) + 1j * rng.normal(size=(space.dim, 6))
    block /= np.linalg.norm(block, axis=0)
    for states in (block[:, 0], np.asfortranarray(block), block[:, ::2]):
        before = states.copy()
        got = brute_force_propagator(space, DRIVEN, 0.9, 64, states)
        assert got.shape == states.shape
        assert np.max(np.abs(got - u @ states)) <= 1e-14
        assert np.array_equal(states, before)


def test_propagator_converges_across_kinks():
    # the FresnelNorm case of the CLI tests: steps across the kinks of
    # |cos(nu s^2)| are split there, so the Fock oracle keeps second order
    # (the ratio read 0.88 with uniform steps straddling them)
    space = make_space(3)
    scenario = FresnelNormScenario(w12_0=0.7, nu=2.0)
    ref = brute_force_propagator(space, scenario, 3.0, 16 * 64)
    d1 = np.max(np.abs(brute_force_propagator(space, scenario, 3.0, 64) - ref))
    d2 = np.max(np.abs(brute_force_propagator(space, scenario, 3.0, 128)
                       - ref))
    assert 3.5 <= d1 / d2 <= 4.5


# The single uniform stepping over [0, t] that piecewise stepping between
# breakpoints generalizes, kept as its reference for scenarios without them.

def _uniform_smatrix(scenario, t, n_steps):
    dt = t / n_steps
    s = np.eye(2, dtype=complex)
    for start in range(0, n_steps, twomode.oracle._BLOCK):
        ts = (np.arange(start, min(start + twomode.oracle._BLOCK, n_steps))
              + 0.5) * dt
        w11, w22, w12 = scenario.coupling(ts)
        s = twomode.oracle._ordered_product(
            twomode.oracle._su2_steps(w11, w22, w12, ts.size, dt)) @ s
    return s


@pytest.mark.parametrize("t,n_steps", [(0.0, 7), (0.7, 1), (1.3, 1000),
                                       (2.1, 3000)])
def test_smatrix_oracle_without_breakpoints_steps_uniformly(t, n_steps):
    scenario = LinearPhaseScenario(eta0=0.8, w0=0.6, phi0=-0.4, w11=0.3,
                                   w22=-0.1)
    assert len(scenario.breakpoints(t)) == 0
    got = brute_force_smatrix(scenario, t, n_steps)
    assert np.array_equal(got, _uniform_smatrix(scenario, t, n_steps))


@pytest.mark.parametrize("n_steps", [16, 1000, 3000])
def test_smatrix_oracle_steps_straight_across_smooth_knots(n_steps):
    # a cubic spline stays C2 at its knots, where a midpoint step keeps
    # second order, so a table is stepped uniformly however dense it is
    ts = np.linspace(0.0, 2.0, 401)
    scenario = TabulatedScenario.from_samples(
        ts, 0.8 + 0.05 * np.sin(1.3 * ts), 0.05 + 0.03 * np.cos(0.9 * ts),
        (0.14 + 0.03 * np.sin(1.1 * ts)) * np.exp(1j * (0.3 + 0.5 * ts)))
    assert len(scenario.breakpoints(1.6)) > 300
    got = brute_force_smatrix(scenario, 1.6, n_steps)
    assert np.array_equal(got, _uniform_smatrix(scenario, 1.6, n_steps))


def test_smatrix_oracle_converges_across_kinks():
    # |cos(nu s^2)| has kinks before t = 3; stepping between them keeps the
    # midpoint product second order, so halving the step quarters the error
    scenario = FresnelNormScenario(w12_0=0.7, nu=2.0)
    assert len(scenario.breakpoints(3.0)) > 3
    ref = brute_force_smatrix(scenario, 3.0, 16384)
    d1 = np.max(np.abs(brute_force_smatrix(scenario, 3.0, 1024) - ref))
    d2 = np.max(np.abs(brute_force_smatrix(scenario, 3.0, 2048) - ref))
    assert 3.5 <= d1 / d2 <= 4.5


def test_oracle_imports_no_factorization_code():
    # the oracles stay independent: from the package, oracle.py may use
    # only the Fock space and the scenario coefficients
    tree = ast.parse(Path(twomode.oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = "twomode" if node.level else ""
            base = ".".join(filter(None, [package, node.module]))
            names.update(f"{base}.{alias.name}" for alias in node.names)
    used = {(name.split(".") + ["<package>"])[1] for name in names
            if name.split(".")[0] == "twomode"}
    assert used <= {"fock", "scenario"}, sorted(used)
    # drives mix occupation shells, so the Fock oracle stays a full-space
    # product: of fock it may take only the space and its plain operators
    from_fock = {name.split(".", 2)[2] for name in names
                 if name.startswith("twomode.fock.")}
    assert from_fock <= {"FockSpace", "annihilator",
                         "number_diagonals"}, sorted(from_fock)
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # nor the closed exponentials the assembly is built from
    closed = {"shell_expm", "chain_exponential", "_chain_table",
              "schwinger_lift", "_schwinger_table", "_chain_entries",
              "_quadrature_spectrum", "_mode_displacements"}
    assert not read & closed, sorted(read & closed)


def test_oracle_reads_no_closed_form_data():
    # scenario.py also holds each case's closed phase model, which oracle.py
    # may import but must never read
    tree = ast.parse(Path(twomode.oracle.__file__).read_text())
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    closed = {"phase_family", "phi", "phi_tilde", "phi0"}
    assert not read & closed, sorted(read & closed)
