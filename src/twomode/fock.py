"""Truncated two-mode Fock space and the operator algebra built on it.

States live on the product basis |n1, n2> with 0 <= n1, n2 <= n_max, stored
as flat vectors of length (n_max + 1)**2 with index n1 * (n_max + 1) + n2.
Operators are dense complex matrices on that space.  Truncation makes ladder
products inexact on the outermost shells, so algebraic identities are only
asserted on interior states (see interior_mask).

The u(2) part of a propagator conserves the total occupation N = n1 + n2
and maps a_j^dag to sum_i S_ij a_i^dag for a 2x2 matrix S, so on shell N
it is the N-th symmetric power Sym^N(S): schwinger_lift writes it entry by
entry from one cached table of closed terms, and chain_exponential reads
e^{z J+} and e^{z J-} off that table's terms without a power of S21.  On
the partial shells N > n_max the lift is the compression P U P of the
untruncated operator; for the nilpotent chains that is also the exponential
of the truncated generator, for a general S it is not, and it is not
unitary there.  The two modes' displacement generators commute, so a
displacement is the Kronecker product of two single-mode ones, each
D(c) = P V e^{-i |c| mu} V^dag P^dag from one cached eigendecomposition
V diag(mu) V^dag of the quadrature i(a^dag - a), with P = diag(e^{i n arg c}),
exact for the truncated operators.  Nothing here forms a general matrix
exponential.
"""

from __future__ import annotations

import cmath
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


@functools.cache
def _chain_entries(space: FockSpace) -> tuple[np.ndarray, ...]:
    # the terms of _schwinger_table with no power of S21, one per entry
    # (i, j) with n1_i >= n1_j: row, column, the power of S12 and the
    # coefficient; cached, so read-only
    flat, powers, coefs = _schwinger_table(space)
    keep = powers[1] == 0
    rows, cols = np.divmod(flat[keep], space.dim)
    table = (rows, cols, powers[2, keep], coefs[keep])
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


def chain_exponential(space: FockSpace, z: complex, which: str) -> np.ndarray:
    """e^{z J+} or e^{z J-} entry by entry: J+ raises n1 along a shell, so

        e^{z J+}[i, j] = z^k / k! sqrt(n1_i! n2_j! / (n1_j! n2_i!))

    for i and j in one shell with n1_i = n1_j + k, the Schwinger lift of
    [[1, z], [0, 1]], and e^{z J-} is the transposed pattern with z^k.
    Exact for the truncated operators, partial shells included: J+^k links
    two states of the space only through states of the space."""
    rows, cols, powers, coefs = _chain_entries(space)
    if which == "J-":
        rows, cols = cols, rows
    elif which != "J+":
        raise ValueError(f"unknown chain generator {which!r}")
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out[rows, cols] = coefs * complex(z) ** powers
    return out


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
    |c| (a^dag - a) = -i |c| V diag(mu) V^dag.  Raises TruncationError when
    any amplitude's discarded Poisson tail exceeds tail_tol."""
    c = np.asarray(c, dtype=complex)
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


def mixing_operator(space: FockSpace, gamma3: float, theta_diff: float,
                    eps: int = 1) -> np.ndarray:
    """Beam-splitter style rotation taking the dressed mode onto bare mode 1.

    T = exp[-chi (e^{-i theta_diff} J+ - e^{i theta_diff} J-)], the
    Schwinger lift of [[c, -eps e^{-i theta_diff} s],
    [eps e^{i theta_diff} s, c]] with c = sqrt((1 + eps gamma3)/2) =
    cos(chi) and s = sqrt((1 - eps gamma3)/2) = eps sin(chi).  So
    eps*gamma3 = +1 gives the identity and -1 the quarter rotation (mode
    swap up to phases).
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if not -1.0 <= gamma3 <= 1.0:
        raise ValueError("gamma3 must lie in [-1, 1]")
    c = math.sqrt((1.0 + eps * gamma3) / 2.0)
    s = math.sqrt((1.0 - eps * gamma3) / 2.0)
    e = eps * cmath.exp(1j * theta_diff)
    return schwinger_lift(space, [[c, -s * e.conjugate()], [s * e, c]])


def expectation(op: np.ndarray, state: np.ndarray) -> complex:
    norm2 = np.vdot(state, state).real
    if norm2 == 0.0:
        raise ValueError("expectation of the zero vector")
    return complex(np.vdot(state, op @ state) / norm2)


def interior_mask(space: FockSpace, margin: int = 2) -> np.ndarray:
    """Boolean mask of basis states whose total occupation sits at least
    `margin` quanta below the cutoff, n1 + n2 <= n_max - margin.  The coupling
    generators preserve total occupation, so shells above n_max are the ones
    mutilated by per-mode truncation; this quarantines them."""
    n1, n2 = number_diagonals(space)
    return n1 + n2 <= space.n_max - margin
