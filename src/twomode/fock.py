"""Truncated two-mode Fock space and the operator algebra built on it.

States live on the product basis |n1, n2> with 0 <= n1, n2 <= n_max, stored
as flat vectors of length (n_max + 1)**2 with index n1 * (n_max + 1) + n2.
Operators are dense complex matrices on that space.  Truncation makes ladder
products inexact on the outermost shells, so algebraic identities are only
asserted on interior states (see interior_mask).

The u(2) generators conserve the total occupation N = n1 + n2, so their
exponentials are block-diagonal by shell.  On each shell J+ and J- are
nilpotent chains, so chain_exponential writes e^{z J+} and e^{z J-} entry
by entry from a cached index and coefficient table; shell_expm
exponentiates a general generator one shell block (at most n_max + 1
states) at a time.  The two modes' displacement generators commute, so a
displacement is the Kronecker product of two single-mode ones, each
D(c) = P V e^{-i |c| mu} V^dag P^dag from one cached eigendecomposition
V diag(mu) V^dag of the quadrature i(a^dag - a), with P = diag(e^{i n arg c}).
All of these are exact for the truncated operators: the partial shells
N > n_max are kept as the truncation leaves them, not dropped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm


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


def su2_generator(space: FockSpace, which: str) -> np.ndarray:
    """Schwinger generators: J+ = a1^dag a2, J- = a1 a2^dag,
    J3 = (n1 - n2)/2, and the half total number N = (n1 + n2)/2."""
    n1, n2 = number_diagonals(space)
    if which == "J3":
        return np.diag((n1 - n2) / 2.0).astype(complex)
    if which == "N":
        return np.diag((n1 + n2) / 2.0).astype(complex)
    lower = _lowering(space)
    if which == "J+":
        return np.kron(lower.T, lower).astype(complex)
    if which == "J-":
        return np.kron(lower, lower.T).astype(complex)
    raise ValueError(f"unknown generator {which!r}")


@functools.cache
def _shells(space: FockSpace) -> tuple[np.ndarray, ...]:
    # flat indices of each shell n1 + n2 = N, N = 0..2 n_max, n1 ascending;
    # cached, so read-only
    n = space.n_max
    shells = []
    for total in range(2 * n + 1):
        n1 = np.arange(max(0, total - n), min(total, n) + 1)
        idx = n1 * space.side + (total - n1)
        idx.flags.writeable = False
        shells.append(idx)
    return tuple(shells)


@functools.cache
def _chain_table(space: FockSpace) -> tuple[np.ndarray, ...]:
    # every pair (i, j) of one shell with n1_i = n1_j + k, k >= 0: the flat
    # indices, k and sqrt(n1_i! n2_j! / (n1_j! n2_i!)) / k!, the entry of
    # J+^k / k! at (i, j); n1 steps by one along a shell; cached, so read-only
    rows, cols, powers, coefs = [], [], [], []
    for idx in _shells(space):
        for a in range(idx.size):
            n1_i, n2_i = space.occupations(int(idx[a]))
            for b in range(a + 1):
                k = a - b
                rows.append(idx[a])
                cols.append(idx[b])
                powers.append(k)
                ratio = math.perm(n1_i, k) * math.perm(n2_i + k, k)
                coefs.append(math.sqrt(ratio) / math.factorial(k))
    table = (np.array(rows), np.array(cols), np.array(powers), np.array(coefs))
    for arr in table:
        arr.flags.writeable = False
    return table


def chain_exponential(space: FockSpace, z: complex, which: str) -> np.ndarray:
    """e^{z J+} or e^{z J-} entry by entry: J+ raises n1 along a shell, so

        e^{z J+}[i, j] = z^k / k! sqrt(n1_i! n2_j! / (n1_j! n2_i!))

    for i and j in one shell with n1_i = n1_j + k, and e^{z J-} is the
    transposed pattern with z^k.  Exact for the truncated operators,
    partial shells included: J+^k links two states of the space only
    through states of the space."""
    rows, cols, powers, coefs = _chain_table(space)
    if which == "J-":
        rows, cols = cols, rows
    elif which != "J+":
        raise ValueError(f"unknown chain generator {which!r}")
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out[rows, cols] = coefs * complex(z) ** powers
    return out


def shell_expm(space: FockSpace, gen: np.ndarray) -> np.ndarray:
    """exp(gen) for a generator that conserves the total occupation n1 + n2
    (any combination of J+, J-, J3 and N), one shell block at a time.

    The result equals the dense exponential of the truncated generator,
    partial shells N > n_max included.  Raises ValueError when gen couples
    two different shells.
    """
    n1, n2 = number_diagonals(space)
    total = n1 + n2
    if np.any(gen[total[:, None] != total[None, :]]):
        raise ValueError("generator couples different occupation shells")
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for idx in _shells(space):
        block = np.ix_(idx, idx)
        out[block] = expm(gen[block])
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

    T = exp[-chi (e^{-i theta_diff} J+ - e^{i theta_diff} J-)] with
    chi = arctan(eps sqrt((1 - eps gamma3)/(1 + eps gamma3))).  The endpoint
    limits are continuous: eps*gamma3 -> +1 gives the identity, -> -1 gives
    the quarter rotation chi = eps pi/2 (mode swap up to phases).
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if not -1.0 <= gamma3 <= 1.0:
        raise ValueError("gamma3 must lie in [-1, 1]")
    s = eps * gamma3
    if s == 1.0:
        return np.eye(space.dim, dtype=complex)
    if s == -1.0:
        chi = eps * (math.pi / 2.0)
    else:
        chi = math.atan2(eps * math.sqrt((1.0 - s) / (1.0 + s)), 1.0)
    jp = su2_generator(space, "J+")
    jm = su2_generator(space, "J-")
    gen = -chi * (np.exp(-1j * theta_diff) * jp - np.exp(1j * theta_diff) * jm)
    return shell_expm(space, gen)


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
