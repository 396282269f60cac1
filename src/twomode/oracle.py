"""Brute-force reference propagators and comparison helpers.

These deliberately avoid the factorization machinery: the only ingredients
are midpoint sampling of the Hamiltonian and exact exponentials of frozen
Hermitian matrices, so every step is unitary to roundoff.  Both oracles
sample the midpoint coefficients as arrays, in the calling thread.

* 2x2: each step is the closed-form exponential of a Hermitian 2x2 matrix.
  The steps are uniform, save that a step across a kink of W is split
  there; they are formed in blocks of fixed size, and each block is
  multiplied by an order-preserving pairwise tree.
* Fock space: each step is exponentiated by eigendecomposition.  The steps
  are split into contiguous chunks, one per CPU the process may run on.
  Worker threads form each chunk's time-ordered product from arrays alone,
  each with one BLAS thread, and the chunk products are combined in time
  order.

Agreement between this route and the closed forms is the main evidence the
factorization is right; the two routes must stay independent.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, annihilator, interior_mask, number_diagonals
from .scenario import Scenario

# midpoints the 2x2 oracle samples and multiplies at once; bounds its memory
_BLOCK = 1024

# operators whose coefficients make up H, in the column order of
# _coefficients: w11 n1 + w22 n2 + w12 a1+ a2 + conj(w12) a2+ a1
# + F1 a1+ + conj(F1) a1 + F2 a2+ + conj(F2) a2 + B
_TERMS = ("n1", "n2", "k12", "k21", "a1+", "a1", "a2+", "a2", "1")


class InsufficientSamples(Exception):
    """Too few samples for the requested finite-difference stencil."""


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


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # platforms without CPU affinity
        return os.cpu_count() or 1


@functools.cache
def _openblas_local_threads():
    """OpenBLAS's per-thread thread-count setter, or None.

    NumPy's bundled OpenBLAS spreads each large enough call over its own
    thread pool, whichever thread makes the call.  Chunk workers that all
    do so contend for the same CPUs: on 2 CPUs with 2 OpenBLAS threads, 128
    eigendecompositions of 81x81 matrices split between two workers took
    3.8 ms each, against 2.1 ms when one thread made them all.  Each worker
    therefore restricts its own calls to one OpenBLAS thread; other threads
    keep the process-wide setting.  Without such a library (another BLAS, or an
    OpenBLAS older than 0.3.27) workers use the BLAS as configured.
    """
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        return setter
    return None


def _chunk_product(basis: np.ndarray, coef: np.ndarray,
                   dt: float) -> np.ndarray:
    """Time-ordered product of exp(-i H_k dt), H_k = coef[k] @ basis, first
    row applied first.  Reads arrays only, so it runs in a worker thread."""
    set_blas_threads = _openblas_local_threads()
    if set_blas_threads is not None:
        set_blas_threads(1)
    dim = math.isqrt(basis.shape[1])
    u = np.eye(dim, dtype=complex)
    for row in coef:
        vals, vecs = np.linalg.eigh((row @ basis).reshape(dim, dim))
        u = (vecs * np.exp(-1j * vals * dt)) @ (vecs.conj().T @ u)
    return u


def brute_force_propagator(space: FockSpace, scenario: Scenario, t: float,
                           n_steps: int) -> np.ndarray:
    """Time-ordered product of midpoint-frozen step unitaries on the
    truncated Fock space.  Second order accurate in t/n_steps."""
    if n_steps < 1:
        raise InsufficientSamples("n_steps must be at least 1")
    dt = t / n_steps
    coef = _coefficients(scenario, (np.arange(n_steps) + 0.5) * dt)
    basis = _basis(hamiltonian_ops(space))
    chunks = np.array_split(coef, min(_cpu_count(), n_steps))
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(_chunk_product, basis, chunk, dt)
                   for chunk in chunks]
        products = [future.result() for future in futures]
    u = products[0]
    for later in products[1:]:
        u = later @ u
    return u


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
    """Same midpoint product for the 2x2 coefficient matrix W(s) on n_steps
    uniform steps, save that a step across one of scenario.kinks(t), where
    a midpoint step is only first order, is split there into midpoint
    sub-steps.  The steps for 2 n_steps still nest in those for n_steps."""
    if n_steps < 1:
        raise InsufficientSamples("n_steps must be at least 1")
    dt = t / n_steps
    kinks = np.asarray(scenario.kinks(t), dtype=float)
    s = np.eye(2, dtype=complex)
    for start in range(0, n_steps, _BLOCK):
        k = np.arange(start, min(start + _BLOCK, n_steps))
        ts, h = (k + 0.5) * dt, dt
        inner = kinks[(kinks > k[0] * dt) & (kinks < (k[-1] + 1) * dt)]
        if inner.size:
            edges = np.union1d(np.append(k, k[-1] + 1) * dt, inner)
            ts, h = 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)
        w11, w22, w12 = scenario.coupling(ts)
        s = _ordered_product(_su2_steps(w11, w22, w12, ts.size, h)) @ s
    return s


def ode_residual(ts, values, rhs) -> float:
    """Max deviation of centered differences from rhs(t, y) on a uniform
    grid.  values may be scalar samples (shape (n,)) or a system (n, m)."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=complex)
    if ts.size < 3:
        raise InsufficientSamples("need at least 3 samples for a centered stencil")
    h = np.diff(ts)
    if np.max(np.abs(h - h[0])) > 1e-9 * max(abs(h[0]), 1e-300):
        raise ValueError("ode_residual expects a uniform grid")
    worst = 0.0
    for i in range(1, ts.size - 1):
        deriv = (values[i + 1] - values[i - 1]) / (ts[i + 1] - ts[i - 1])
        dev = np.max(np.abs(deriv - np.asarray(rhs(ts[i], values[i]))))
        worst = max(worst, float(dev))
    return worst


@dataclass(frozen=True)
class ComparisonReport:
    max_entry_deviation: float
    fidelities: np.ndarray
    det_ratio: complex
    det_deviation: float
    notes: str = ""


def compare_operators(a: np.ndarray, b: np.ndarray, test_states,
                      space: FockSpace | None = None,
                      margin: int = 2) -> ComparisonReport:
    """Entrywise deviation on the interior block, per-state fidelities
    |<a psi | b psi>|^2, and the determinant ratio det(a)/det(b).

    A pure global phase between a and b shows up only in det_ratio; the
    fidelities and (generally) the entry deviation expose real mismatches.
    Rows and columns within `margin` quanta of the cutoff are excluded
    from the entry deviation when a space is given.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if space is not None:
        mask = interior_mask(space, margin)
        diff = np.abs(a - b)[np.ix_(mask, mask)]
    else:
        diff = np.abs(a - b)
    max_entry = float(diff.max()) if diff.size else 0.0

    fids = []
    for psi in test_states:
        x = a @ psi
        y = b @ psi
        nx = np.linalg.norm(x)
        ny = np.linalg.norm(y)
        if nx == 0.0 or ny == 0.0:
            fids.append(0.0)
            continue
        fids.append(float(abs(np.vdot(x, y)) ** 2 / (nx * nx * ny * ny)))
    fids = np.asarray(fids)

    sign_a, logdet_a = np.linalg.slogdet(a)
    sign_b, logdet_b = np.linalg.slogdet(b)
    if sign_b == 0:
        det_ratio = complex(np.inf)
        det_dev = float("inf")
        notes = "det(b) vanishes"
    else:
        det_ratio = complex(sign_a / sign_b * np.exp(logdet_a - logdet_b))
        det_dev = abs(det_ratio - 1.0)
        notes = ""
    return ComparisonReport(max_entry_deviation=max_entry, fidelities=fids,
                            det_ratio=det_ratio, det_deviation=det_dev,
                            notes=notes)
