"""Truncated two-mode Fock space and the operator algebra built on it.

States live on the product basis |n1, n2> with 0 <= n1, n2 <= n_max, stored
as flat vectors of length (n_max + 1)**2 with index n1 * (n_max + 1) + n2.
Operators are dense complex matrices on that space.  Truncation makes ladder
products inexact on the outermost shells, so algebraic identities are only
asserted on interior states (see interior_mask).

The u(2) part of a propagator conserves the total occupation N = n1 + n2
and maps a_j^dag to sum_i S_ij a_i^dag for a 2x2 matrix S, so on shell N
it is the N-th symmetric power Sym^N(S): schwinger_lift writes it entry by
entry from one cached table of closed terms.  Sym^N is a homomorphism, so
the lift of a product of 2x2 factors is the product of their lifts, and
the lift of S is the Fock image of any factorization of S.  On the partial
shells N > n_max the lift is the compression P U P of the untruncated
operator, which is not unitary there.  The two modes' displacement
generators commute, so a displacement is the Kronecker product of two
single-mode ones, each D(c) = P V e^{-i |c| mu} V^dag P^dag from one
cached eigendecomposition V diag(mu) V^dag of the quadrature
i(a^dag - a), with P = diag(e^{i n arg c}), exact for the truncated
operators.  Nothing here forms a general matrix exponential.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class TruncationError(Exception):
    """Requested amplitude leaks too much weight past the Fock cutoff."""


@dataclass(frozen=True)
class FockSpace:
    """Two-mode Fock space truncated at n_max quanta per mode."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")

    @property
    def side(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return self.side ** 2

    def index(self, n1: int, n2: int) -> int:
        if not (0 <= n1 <= self.n_max and 0 <= n2 <= self.n_max):
            raise ValueError(f"occupation ({n1}, {n2}) outside cutoff {self.n_max}")
        return n1 * self.side + n2

    def occupations(self, idx: int) -> tuple[int, int]:
        return divmod(idx, self.side)


def make_space(n_max: int) -> FockSpace:
    return FockSpace(n_max)


def basis_state(space: FockSpace, n1: int, n2: int) -> np.ndarray:
    state = np.zeros(space.dim, dtype=complex)
    state[space.index(n1, n2)] = 1.0
    return state


def vacuum_state(space: FockSpace) -> np.ndarray:
    return basis_state(space, 0, 0)


def _lowering(space: FockSpace) -> np.ndarray:
    """Single-mode lowering matrix on 0..n_max quanta."""
    return np.diag(np.sqrt(np.arange(1, space.side, dtype=float)), k=1)


def annihilator(space: FockSpace, mode: int) -> np.ndarray:
    """Annihilation operator for mode 1 or 2 as a dense matrix."""
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    lower = _lowering(space)
    eye = np.eye(space.side)
    if mode == 1:
        return np.kron(lower, eye).astype(complex)
    return np.kron(eye, lower).astype(complex)


def number_diagonals(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Occupation numbers (n1, n2) along the flat basis, as float arrays."""
    n1 = np.repeat(np.arange(space.side, dtype=float), space.side)
    n2 = np.tile(np.arange(space.side, dtype=float), space.side)
    return n1, n2


@functools.cache
def _schwinger_table(space: FockSpace) -> tuple[np.ndarray, ...]:
    # every term of <m1,m2|Sym^N(S)|n1,n2> for m and n of one shell (see
    # schwinger_lift): the flat index row * dim + col, the powers of S11,
    # S21, S12 and S22 as four rows, and the coefficient
    # sqrt(m1! m2! / (n1! n2!)) C(n1, j) C(n2, k); cached, so read-only
    n = space.n_max
    flat, powers, coefs = [], [], []
    for total in range(2 * n + 1):
        shell = range(max(0, total - n), min(total, n) + 1)
        for m1, n1 in itertools.product(shell, shell):
            m2, n2 = total - m1, total - n1
            at = space.index(m1, m2) * space.dim + space.index(n1, n2)
            scale = math.sqrt(Fraction(
                math.factorial(m1) * math.factorial(m2),
                math.factorial(n1) * math.factorial(n2)))
            for j in range(max(0, m1 - n2), min(n1, m1) + 1):
                k = m1 - j
                flat.append(at)
                powers.append((j, n1 - j, k, n2 - k))
                coefs.append(math.comb(n1, j) * math.comb(n2, k) * scale)
    table = (np.array(flat), np.array(powers).T.copy(), np.array(coefs))
    for arr in table:
        arr.flags.writeable = False
    return table


def schwinger_lift(space: FockSpace, s) -> np.ndarray:
    """Sym^N(S) on every shell N: the operator that maps a_j^dag to
    sum_i S_ij a_i^dag, for a 2x2 matrix S,

        <m1,m2|U|n1,n2> = sqrt(m1! m2! / (n1! n2!))
            sum_{j+k=m1} C(n1,j) C(n2,k) S11^j S21^(n1-j) S12^k S22^(n2-k),

    the Wigner D-matrix in the Schwinger representation.  On the partial
    shells N > n_max it is the compression P U P of the untruncated
    operator, entry by entry, which is not unitary there."""
    s = np.asarray(s, dtype=complex)
    if s.shape != (2, 2):
        raise ValueError(f"schwinger_lift takes one 2x2 matrix, not {s.shape}")
    flat, powers, coefs = _schwinger_table(space)
    # row r of pw holds the powers 0..n_max of S11, S21, S12, S22
    pw = np.ones((4, space.side), dtype=complex)
    pw[:, 1:] = s.T.reshape(4, 1)
    pw = np.cumprod(pw, axis=1)
    terms = coefs * math.prod(row[p] for row, p in zip(pw, powers))
    size = space.dim ** 2
    out = (np.bincount(flat, terms.real, size)
           + 1j * np.bincount(flat, terms.imag, size))
    return out.reshape(space.dim, space.dim)


def _tail_weight(amplitude: complex, n_max: int) -> float:
    # Poisson weight of the first discarded level, exp(-|c|^2) |c|^(2 n_max) / n_max!
    p = abs(amplitude) ** 2
    if p == 0.0:
        return 0.0
    return math.exp(-p + n_max * math.log(p) - math.lgamma(n_max + 1))


@functools.cache
def _quadrature_spectrum(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    # single-mode i(a^dag - a) = V diag(mu) V^dag; cached, so read-only
    lower = _lowering(space)
    mu, vecs = np.linalg.eigh(1j * (lower.T - lower))
    mu.flags.writeable = False
    vecs.flags.writeable = False
    return mu, vecs


def _mode_displacements(space: FockSpace, c,
                        tail_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """P V and e^{-i |c| mu} at each single-mode amplitude of the array c,
    so that D(c) = exp(c a^dag - c* a) = (P V) diag(e^{-i |c| mu}) (P V)^dag
    with P = diag(e^{i n arg c}), which turns c a^dag - c* a into
    |c| (a^dag - a) = -i |c| V diag(mu) V^dag.  Raises ValueError when an
    amplitude is not finite, and TruncationError when any amplitude's
    discarded Poisson tail exceeds tail_tol."""
    c = np.asarray(c, dtype=complex)
    bad = c[~np.isfinite(c)]
    if bad.size:
        raise ValueError(f"displacement amplitude {bad[0]} is not finite")
    tail = max((_tail_weight(x, space.n_max) for x in c.ravel().tolist()),
               default=0.0)
    if tail > tail_tol:
        raise TruncationError(
            f"displacement tail weight {tail:.3e} exceeds {tail_tol:.1e} "
            f"at n_max={space.n_max}")
    mu, vecs = _quadrature_spectrum(space)
    phases = np.exp(1j * np.angle(c)[..., None] * np.arange(space.side))
    return phases[..., :, None] * vecs, np.exp(-1j * np.abs(c)[..., None] * mu)


def displacement_operator(space: FockSpace, c1: complex, c2: complex,
                          tail_tol: float = 1e-6) -> np.ndarray:
    """Two-mode displacement exp(c1 a1^dag - c1* a1 + c2 a2^dag - c2* a2),
    the Kronecker product of the two commuting single-mode displacements.

    Raises TruncationError when either mode's discarded Poisson tail exceeds
    tail_tol, i.e. when the displaced vacuum would press against the cutoff.
    """
    pv, spectral = _mode_displacements(space, (c1, c2), tail_tol)
    d1, d2 = (pv * spectral[:, None, :]) @ pv.conj().swapaxes(-1, -2)
    return np.kron(d1, d2)


def coherent_state(space: FockSpace, c1, c2,
                   tail_tol: float = 1e-6) -> np.ndarray:
    """The displaced vacuum D(c1, c2)|0, 0>, through the same guard, for
    amplitudes c1 and c2 or, stacked along the first axis, for each pair
    of two 1-D arrays of them; every amplitude must pass the guard."""
    pv, spectral = _mode_displacements(
        space, np.broadcast_arrays(c1, c2), tail_tol)
    # column 0 of D(c); P V and V share row 0
    weights = spectral * pv[..., 0, :].conj()
    first, second = np.sum(pv * weights[..., None, :], axis=-1)
    psi = first[..., :, None] * second[..., None, :]
    return psi.reshape(*psi.shape[:-2], space.dim)


def interior_mask(space: FockSpace, margin: int = 2) -> np.ndarray:
    """Boolean mask of basis states whose total occupation sits at least
    `margin` quanta below the cutoff, n1 + n2 <= n_max - margin.  The coupling
    generators preserve total occupation, so shells above n_max are the ones
    mutilated by per-mode truncation; this quarantines them."""
    n1, n2 = number_diagonals(space)
    return n1 + n2 <= space.n_max - margin
