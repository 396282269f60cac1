"""Full evolution: drive coefficients, global phase, operator assembly,
and the coherent-state law of the isotropic families.

The drive amplitudes obey i dc/ds = W(s) c + F(s) and enter the propagator
through a displacement in front of the quadratic part:

    U(t, 0) = D(c1(t), c2(t)) e^{-i P(t)} U0(t, 0),
    dP/ds = Re(conj(F1) c1 + conj(F2) c2) + B,     P(0) = 0,

with U0 = Sym^N(S) the Schwinger lift of the j=1/2 propagator S on every
occupation shell N = n1 + n2 (fock.schwinger_lift).  The disentangled
product e^{-i alpha N/2} e^{-i rho J3} e^{lam J+} e^{omega J3}
e^{gamma J-} is an identity of the 2x2 group, and Sym^N is a
homomorphism, so the lift of S is the Fock image of the factorized
product at every time: on the factor chart and past its poles alike,
with no chart and no log branch.  One Magnus flow (magnus.flow) gives S,
(c1, c2) and P together, from one read of its block at t.  The
displacement is formed first, so an amplitude its truncation guard
(fock.TAIL_TOL) rejects costs no U0; it is the spectral single-mode form of
fock.displacement_operator, exact for the truncated operators.  The lift
is the compression P Sym^N(S) P of the untruncated operator: unitary on
the complete shells N <= n_max, not unitary on the partial ones above.
No step forms a general matrix exponential.

The isotropic families carry coherent data; without drives their coherent
states follow one law, the closed S block applied to c(0), and the ladder
check of the states on a grid of amplitudes is one array pass.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .fock import (FockSpace, coherent_state, displacement_operator,
                   schwinger_lift)
from . import magnus
from .scenario import Scenario, drive_is_zero
from .smatrix import smatrix_closed


@dataclass(frozen=True)
class CoherentAmplitudes:
    """Amplitudes at a time, with numpy scalar fields, or at a 1-D array of
    times, with every field an array of that shape."""

    t: float | np.ndarray
    c1: complex | np.ndarray
    c2: complex | np.ndarray
    global_phase: complex | np.ndarray

    @property
    def norm2(self):
        return abs(self.c1) ** 2 + abs(self.c2) ** 2


def _amplitudes(t, c: np.ndarray, phase) -> CoherentAmplitudes:
    """The fields from c, of shape t.shape + (2,), and a phase that
    broadcasts to t; [()] turns 0-d fields into scalars."""
    t = np.asarray(t, dtype=float)
    return CoherentAmplitudes(
        t=t[()], c1=c[..., 0][()], c2=c[..., 1][()],
        global_phase=np.broadcast_to(phase, t.shape)[()])


@dataclass(frozen=True)
class CoherentStateSpec:
    """Initial coherent data: eigenvalue z0 of the dressed lowering operator
    alpha0 a1 + beta0 a2 (unit-norm mode amplitudes)."""

    z0: complex
    alpha0: complex
    beta0: complex

    def __post_init__(self):
        if abs(abs(self.alpha0) ** 2 + abs(self.beta0) ** 2 - 1.0) > 1e-10:
            raise ValueError("|alpha0|^2 + |beta0|^2 must equal 1")

    @property
    def c_initial(self) -> np.ndarray:
        # a_sigma expectation values of the initial coherent state
        return self.z0 * np.conj((self.alpha0, self.beta0))


def coherent_spec(scenario: Scenario) -> CoherentStateSpec:
    """Initial coherent data encoded in a scenario, for the isotropic
    families that carry one."""
    mode = scenario.dressed_mode0()
    if mode is None:
        raise ValueError(f"case {scenario.case} carries no coherent data")
    return CoherentStateSpec(z0=scenario.z0, alpha0=mode[0], beta0=mode[1])


# ---------------------------------------------------------------------------
# drive coefficients and global phase

def c_coefficients(scenario: Scenario, c0, t,
                   tol: float = 1e-10) -> CoherentAmplitudes:
    """Propagate the drive amplitudes from c(0) = c0 and accumulate the
    scalar phase P(t), at a time t or at a 1-D array of ascending times,
    all from one flow of (S, c, P) with the times as step edges."""
    times = np.asarray(t, dtype=float)
    if np.any(np.diff(np.atleast_1d(times)) < 0):
        raise ValueError("times must be ascending")
    c, p = magnus.flow(scenario, times.max(initial=0.0), tol, times,
                       drives=True).amplitudes(times, np.asarray(c0, complex))
    return _amplitudes(times, c, np.exp(-1j * p))


# ---------------------------------------------------------------------------
# operator assembly

def _su2_lift(space: FockSpace, smat: np.ndarray) -> np.ndarray:
    """U0 = Sym^N(S) on every shell.  alpha needs no argument: det S =
    e^{-i alpha}, and Sym^N carries it as e^{-i alpha N/2}.  The
    assembly's one call of the lift; bench/tracer.py patches it by name to
    count the lifts, so it stays a function of its own."""
    return schwinger_lift(space, smat)


def assemble_U(space: FockSpace, scenario: Scenario, t: float,
               tol: float = 1e-10) -> np.ndarray:
    """Dense propagator e^{-i P} D(c) Sym^N(S) on the truncated space, with
    S, c and P from one read of one drive flow's block [[S, g], [a, q]] at
    t: c = g and P = Re q from c(0) = 0.  On the partial shells N > n_max
    the result is a compression and is not unitary.  Raises
    fock.TruncationError, before any work on U0, when the displacement's
    truncation guard rejects c(t)."""
    block = magnus.flow(scenario, t, tol, drives=True)(t)
    disp = displacement_operator(space, block[0, 2], block[1, 2])
    u0 = _su2_lift(space, block[:2, :2])
    return cmath.exp(-1j * block[2, 2].real) * (disp @ u0)


# ---------------------------------------------------------------------------
# coherent-state laws

def coherent_evolution_closed(scenario: Scenario, state: CoherentStateSpec,
                              t) -> CoherentAmplitudes:
    """Printed amplitude evolution without drives, at a time or a 1-D array
    of times: the coherent state stays coherent, |c1|^2 + |c2|^2 = |z0|^2
    for all t.

    c(t) = S(t) c(0) with the closed S block of any case with a phase
    family and c(0) = z0 conj(alpha0, beta0) from the given state.  For an
    isotropic family's own state (coherent_spec), whose dressed mode is
    (cos r0 e^{i theta_alpha0}, sin r0 e^{i theta_beta0}), this written out
    is the mixing-family law, with brackets (w0 cos r0 + 2 eta0 sin r0)/delta
    on c1 and (w0 sin r0 - 2 eta0 cos r0)/delta on c2, so nothing divides
    by w0 or tan r0.  A case without a printed block raises ValueError.
    """
    if not (drive_is_zero(scenario.f1) and drive_is_zero(scenario.f2)
            and drive_is_zero(scenario.b)):
        raise ValueError("closed coherent laws hold for the undriven case")
    closed = smatrix_closed(scenario, t)
    return _amplitudes(closed.t, closed.mat @ state.c_initial, 1.0 + 0j)


def ladder_eigenvalue_checks(space: FockSpace, state: CoherentStateSpec,
                             c1, c2) -> tuple[np.ndarray, np.ndarray]:
    """Verify that the coherent state at each pair of amplitudes c1, c2
    (two 1-D arrays, or two scalars) is an eigenstate of a lowering
    combination u1 a1 + u2 a2, in one array pass: the eigenvalues and the
    residuals.  The coefficients are the generalized ones
    (conj(c1)/conj(z0), conj(c2)/conj(z0)), which at c(0) equal the
    dressed mode (alpha0, beta0) of the lowering operator alpha0 a1 +
    beta0 a2; at z0 = 0, where they are undefined, they are that mode."""
    c1, c2 = (np.atleast_1d(np.asarray(c, dtype=complex)) for c in (c1, c2))
    psi = coherent_state(space, c1, c2).reshape(-1, space.side, space.side)
    if state.z0 == 0:
        coefficients = (state.alpha0, state.beta0)
    else:
        coefficients = (np.conj(c1) / np.conj(state.z0),
                        np.conj(c2) / np.conj(state.z0))
    u1, u2 = (np.broadcast_to(u, c1.shape)[:, None, None]
              for u in coefficients)
    # (a1 psi)[n1, n2] = sqrt(n1 + 1) psi[n1 + 1, n2], likewise for a2
    root = np.sqrt(np.arange(1, space.side, dtype=float))
    lowered = np.zeros_like(psi)
    lowered[:, :-1, :] = u1 * (root[:, None] * psi[:, 1:, :])
    lowered[:, :, :-1] += u2 * (psi[:, :, 1:] * root)
    norm2 = np.sum(np.abs(psi) ** 2, axis=(1, 2))
    lam = np.sum(psi.conj() * lowered, axis=(1, 2)) / norm2
    res = (np.linalg.norm((lowered - lam[:, None, None] * psi)
                          .reshape(c1.size, -1), axis=1) / np.sqrt(norm2))
    return lam, res
