"""Brute-force reference propagators and the state fidelity they are
compared by.

These deliberately avoid the factorization machinery: the only ingredients
are midpoint sampling of the Hamiltonian and exponentials of frozen
Hermitian matrices exact to roundoff, so every step is unitary to
roundoff.  Both oracles take their steps from _midpoints: n_steps uniform
steps, save that a step across one of the scenario's kinks (where a
midpoint step is only first order) is split there.  Both sample the
midpoint coefficients as arrays, in the calling thread.

* 2x2: each step is the closed-form exponential of a Hermitian 2x2 matrix.
  The steps are formed in blocks of fixed size, and each block is
  multiplied by an order-preserving pairwise tree.
* Fock space: the steps act on a block of states (by default the
  identity, which gives the full propagator), never forming a step
  unitary.  With H_k = sum_j c_kj B_j over nine fixed operators B_j, the
  bound theta_k = h_k sum_j |c_kj| |B_j|_1 >= |h_k H_k|_1 comes from the
  coefficients alone.  A step is taken as ceil(theta_k) equal substeps of
  the same frozen H_k, each the Horner sum of the Taylor series of the
  exponential to the least degree whose remainder bound is 2^-53 (Al-Mohy
  and Higham, SIAM J. Sci. Comput. 33, 488 (2011)).  H_k is never formed
  dense: the B_j share one fixed CSR pattern, the union of their nonzeros
  ((n+1)^2 + 4n(n+1) + 2n^2 of (n+1)^4 entries at cutoff n), built once
  per space with the B_j's values on it and their norms.  The values of
  -i h_k H_k / s_k are formed for a block of consecutive steps in one
  product, and each step divides its own row by j for the Horner term
  out + (A/j) w.  Each term is one call of SciPy's compiled CSR kernel
  scipy.sparse._sparsetools.csr_matvecs, which adds A w to a copy of out;
  no sparse container is used in the loop, since the Python dispatch of
  csr_array @ costs several times the product itself at this size.  The
  kernel is imported once per call of brute_force_propagator, not at
  module level, so importing twomode does not load scipy.sparse.  It is
  private and checks no sizes, so the states must have dim rows
  (tests/test_oracle.py pins its contract).  A step whose coefficients are
  not finite is refused, not skipped, and so is a negative or non-finite
  t: both oracles step forward over [0, t].

Agreement between this route and the closed forms is the main evidence the
factorization is right; the two routes must stay independent.
"""

from __future__ import annotations

import functools

import numpy as np

from .fock import FockSpace, annihilator, number_diagonals
from .scenario import Scenario

# midpoints the 2x2 oracle samples and multiplies at once; bounds its memory
_BLOCK = 4096

# steps whose CSR values the Fock oracle forms in one product
_VALUE_BLOCK = 64

# truncation bound of each Taylor sum in the Fock oracle, relative to the
# vector it acts on: the unit roundoff of a double
_TAYLOR_TOL = 2.0 ** -53

# operators whose coefficients make up H, in the column order of
# _coefficients: w11 n1 + w22 n2 + w12 a1+ a2 + conj(w12) a2+ a1
# + F1 a1+ + conj(F1) a1 + F2 a2+ + conj(F2) a2 + B
_TERMS = ("n1", "n2", "k12", "k21", "a1+", "a1", "a2+", "a2", "1")


def hamiltonian_ops(space: FockSpace) -> dict:
    """Dense number, hopping, ladder and identity operators that H is
    built from, keyed by name."""
    a1 = annihilator(space, 1)
    a2 = annihilator(space, 2)
    n1, n2 = number_diagonals(space)
    k12 = a1.conj().T @ a2
    return {"n1": np.diag(n1).astype(complex), "n2": np.diag(n2).astype(complex),
            "k12": k12, "k21": k12.conj().T, "a1+": a1.conj().T, "a1": a1,
            "a2+": a2.conj().T, "a2": a2, "1": np.eye(space.dim, dtype=complex)}


def _basis(ops: dict) -> np.ndarray:
    # (len(_TERMS), dim * dim): H at one time is coefficient row @ basis
    return np.stack([ops[name].ravel() for name in _TERMS])


def _support(basis: np.ndarray) -> np.ndarray:
    """Row-major flat indices of the entries where any operator of basis
    is nonzero: the pattern of every H, in CSR order."""
    return np.flatnonzero(basis.any(axis=0))


@functools.cache
def _csr_pattern(space: FockSpace) -> tuple[np.ndarray, ...]:
    """The 1-norms of the operators of _TERMS, their values on the shared
    CSR pattern (one row each) and the pattern's int32 indices and indptr;
    cached per space, so read-only."""
    ops = hamiltonian_ops(space)
    norms = np.array([np.abs(ops[name]).sum(axis=0).max() for name in _TERMS])
    basis = _basis(ops)
    support = _support(basis)
    rows, cols = np.divmod(support, space.dim)
    indptr = np.searchsorted(rows, np.arange(space.dim + 1))
    pattern = (norms, basis[:, support], cols.astype(np.int32),
               indptr.astype(np.int32))
    for arr in pattern:
        arr.flags.writeable = False
    return pattern


def _coefficients(scenario: Scenario, ts: np.ndarray) -> np.ndarray:
    """(len(ts), len(_TERMS)) coefficients of H at the times ts."""
    w11, w22, w12 = scenario.coupling(ts)
    f1, f2 = scenario.f1(ts), scenario.f2(ts)
    b = np.real(scenario.b(ts))
    cols = (w11, w22, w12, np.conj(w12), f1, np.conj(f1), f2, np.conj(f2), b)
    return np.stack([np.broadcast_to(c, ts.shape) for c in cols],
                    axis=-1).astype(complex)


def hamiltonian_matrix(space: FockSpace, scenario: Scenario, t: float,
                       ops: dict | None = None) -> np.ndarray:
    """Dense H(t) on the truncated space, drives and scalar term included."""
    if ops is None:
        ops = hamiltonian_ops(space)
    coef = _coefficients(scenario, np.array([t], dtype=float))
    return (coef[0] @ _basis(ops)).reshape(space.dim, space.dim)


def _midpoints(scenario: Scenario, t: float,
               n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and lengths of the oracle steps over [0, t]: n_steps
    uniform steps, save that a step across one of scenario.kinks(t), where
    a midpoint step is only first order, is split there (the steps then
    run between the uniform edges and the kinks).  The steps for 2 n_steps
    still nest in those for n_steps.  t must be finite and non-negative:
    the steps run forward from 0."""
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and non-negative, not {t!r}")
    dt = t / n_steps
    kinks = np.asarray(scenario.kinks(t), dtype=float)
    if kinks.size == 0:
        return (np.arange(n_steps) + 0.5) * dt, np.full(n_steps, dt)
    edges = np.union1d(np.arange(n_steps + 1) * dt, kinks)
    return 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)


def _taylor_degrees(tau: np.ndarray) -> np.ndarray:
    """Smallest m with tau^(m+1)/(m+1)! e^tau <= 2^-53 for each tau in
    [0, 1]: a bound on the remainder of the degree-m Taylor sum of
    e^A v relative to |v| when |A|_1 <= tau."""
    m = np.zeros(tau.shape, dtype=int)
    bound = tau * np.exp(tau)                  # the bound for m = 0
    k = 0
    while np.any(bound > _TAYLOR_TOL):
        k += 1
        m[bound > _TAYLOR_TOL] = k
        bound = bound * tau / (k + 1)
    return m


def brute_force_propagator(space: FockSpace, scenario: Scenario, t: float,
                           n_steps: int, states=None) -> np.ndarray:
    """U @ states, U the time-ordered product of the midpoint-frozen step
    exponentials on the truncated Fock space over [0, t].  states is a
    vector or a dim x k block; by default the identity, so that U itself
    is returned.  Second order accurate in t/n_steps."""
    from scipy.sparse._sparsetools import csr_matvecs

    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    n = space.dim
    out = np.eye(n, dtype=complex) if states is None else \
        np.array(states, dtype=complex, order="C")
    if out.ndim not in (1, 2) or out.shape[0] != n:
        raise ValueError(f"states must have {n} rows, not shape {out.shape}")
    ts, h = _midpoints(scenario, t, n_steps)
    coef = _coefficients(scenario, ts)
    bad = ~np.isfinite(coef).all(axis=1)
    if bad.any():
        raise ValueError("H has a coefficient that is not finite at the "
                         f"midpoint t = {float(ts[np.argmax(bad)])!r}")
    # every H_k shares this CSR pattern, so a step forms only its values
    norms, basis, indices, indptr = _csr_pattern(space)
    theta = h * (np.abs(coef) @ norms)        # >= |h_k H_k|_1
    substeps = np.maximum(np.ceil(theta), 1).astype(int)
    degrees = _taylor_degrees(theta / substeps)
    inverses = 1.0 / np.arange(1, degrees.max() + 1)
    shape, k = out.shape, out.size // n
    out = out.ravel()
    for start in range(0, ts.size, _VALUE_BLOCK):
        blk = slice(start, start + _VALUE_BLOCK)
        # row i holds the values of -i h_k H_k / s_k for step k = start + i
        values = (coef[blk] * (-1j * h[blk] / substeps[blk])[:, None]) @ basis
        for val, s, m in zip(values, substeps[blk], degrees[blk]):
            # row j - 1 holds those values divided by j
            scaled = inverses[:m, None] * val
            for _ in range(s):
                w = out
                for j in range(m, 0, -1):
                    y = out.copy()
                    csr_matvecs(n, n, k, indptr, indices, scaled[j - 1], w, y)
                    w = y
                out = w
    return out.reshape(shape)


def _su2_steps(w11, w22, w12, n: int, dt) -> np.ndarray:
    """(n, 2, 2) stack of exp(-i W dt), W = [[w11, w12], [conj(w12), w22]],
    with one dt for all steps or an array of n step lengths:
    e^{-i mu dt} [cos(Omega dt) I - i dt sinc(Omega dt) (W - mu I)] with
    mu = (w11 + w22)/2 and Omega = sqrt(((w11 - w22)/2)^2 + |w12|^2)."""
    mu = 0.5 * (w11 + w22)
    delta = 0.5 * (w11 - w22)
    x = np.hypot(delta, np.abs(w12)) * dt
    cos = np.cos(x)
    sin_term = -1j * dt * np.sinc(x / np.pi)     # np.sinc(y) = sin(pi y)/(pi y)
    phase = np.exp(-1j * mu * dt)
    steps = np.empty((n, 2, 2), dtype=complex)
    steps[:, 0, 0] = phase * (cos + sin_term * delta)
    steps[:, 0, 1] = phase * sin_term * w12
    steps[:, 1, 0] = phase * sin_term * np.conj(w12)
    steps[:, 1, 1] = phase * (cos - sin_term * delta)
    return steps


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """steps[-1] @ ... @ steps[0] for an (n, 2, 2) stack, by multiplying
    neighbouring pairs level by level."""
    while steps.shape[0] > 1:
        even = steps.shape[0] // 2 * 2
        a, b = steps[1:even:2], steps[0:even:2]   # later @ earlier
        pairs = np.empty_like(a)
        pairs[:, 0, 0] = a[:, 0, 0] * b[:, 0, 0] + a[:, 0, 1] * b[:, 1, 0]
        pairs[:, 0, 1] = a[:, 0, 0] * b[:, 0, 1] + a[:, 0, 1] * b[:, 1, 1]
        pairs[:, 1, 0] = a[:, 1, 0] * b[:, 0, 0] + a[:, 1, 1] * b[:, 1, 0]
        pairs[:, 1, 1] = a[:, 1, 0] * b[:, 0, 1] + a[:, 1, 1] * b[:, 1, 1]
        steps = np.concatenate([pairs, steps[even:]])
    return steps[0]


def brute_force_smatrix(scenario: Scenario, t: float, n_steps: int) -> np.ndarray:
    """Same midpoint product for the 2x2 coefficient matrix W(s) over the
    steps of _midpoints on [0, t], taken _BLOCK steps at a time."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    ts, h = _midpoints(scenario, t, n_steps)
    s = np.eye(2, dtype=complex)
    for start in range(0, ts.size, _BLOCK):
        tb, hb = ts[start:start + _BLOCK], h[start:start + _BLOCK]
        w11, w22, w12 = scenario.coupling(tb)
        s = _ordered_product(_su2_steps(w11, w22, w12, tb.size, hb)) @ s
    return s


def state_fidelities(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|<x | y>|^2 / (|x|^2 |y|^2) for each pair of columns of x and y,
    0 where either column vanishes."""
    nx = np.linalg.norm(x, axis=0)
    ny = np.linalg.norm(y, axis=0)
    overlap = np.abs(np.sum(x.conj() * y, axis=0)) ** 2
    denom = nx * nx * ny * ny
    return np.divide(overlap, denom, out=np.zeros_like(overlap),
                     where=(nx != 0.0) & (ny != 0.0))
