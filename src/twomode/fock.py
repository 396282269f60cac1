"""Truncated two-mode Fock space and the operator algebra built on it.

States live on the product basis |n1, n2> with 0 <= n1, n2 <= n_max, stored
as flat vectors of length (n_max + 1)**2 with index n1 * (n_max + 1) + n2.
Operators are dense complex matrices on that space.  Truncation makes ladder
products inexact on the outermost shells, so algebraic identities are only
asserted on interior states (see interior_mask).

Two structures keep the exponentials small.  The two modes' displacement
generators commute, so a displacement is the Kronecker product of two
single-mode exponentials.  The u(2) generators conserve the total
occupation N = n1 + n2, so their exponentials are block-diagonal by shell
and shell_expm exponentiates one shell block (at most n_max + 1 states) at
a time.  Both are exact for the truncated operators: the partial shells
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


def _mode_displacements(space: FockSpace, c1: complex, c2: complex,
                        tail_tol: float) -> tuple[np.ndarray, np.ndarray]:
    # the single-mode factors exp(c a^dag - c* a) of a guarded displacement
    tail = max(_tail_weight(c1, space.n_max), _tail_weight(c2, space.n_max))
    if tail > tail_tol:
        raise TruncationError(
            f"displacement tail weight {tail:.3e} exceeds {tail_tol:.1e} "
            f"at n_max={space.n_max}")
    lower = _lowering(space)
    return tuple(expm(c * lower.T - np.conj(c) * lower) for c in (c1, c2))


def displacement_operator(space: FockSpace, c1: complex, c2: complex,
                          tail_tol: float = 1e-6) -> np.ndarray:
    """Two-mode displacement exp(c1 a1^dag - c1* a1 + c2 a2^dag - c2* a2),
    the Kronecker product of the two commuting single-mode exponentials.

    Raises TruncationError when either mode's discarded Poisson tail exceeds
    tail_tol, i.e. when the displaced vacuum would press against the cutoff.
    """
    d1, d2 = _mode_displacements(space, c1, c2, tail_tol)
    return np.kron(d1, d2)


def coherent_state(space: FockSpace, c1: complex, c2: complex,
                   tail_tol: float = 1e-6) -> np.ndarray:
    """The displaced vacuum D(c1, c2)|0, 0>, through the same guard."""
    d1, d2 = _mode_displacements(space, c1, c2, tail_tol)
    return np.kron(d1[:, 0], d2[:, 0])


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
