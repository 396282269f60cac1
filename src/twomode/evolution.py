"""Full evolution: drive coefficients, global phase, operator assembly,
and the coherent-state law of the isotropic families.

The drive amplitudes obey i dc/ds = W(s) c + F(s) and enter the propagator
through a displacement in front of the quadratic part:

    U(t, 0) = D(c1(t), c2(t)) e^{-i P(t)} U0(t, 0),
    dP/ds = Re(conj(F1) c1 + conj(F2) c2) + B,     P(0) = 0,

with U0 the Gauss product e^{lam J+} e^{omega J3} e^{gamma J-} of the
factors, framed by the diagonal phases of alpha and rho; one Magnus flow
(magnus.flow) gives S, (c1, c2) and P together.  The displacement is formed
first, so an amplitude its truncation guard rejects costs no U0.  When the
factor chart is singular at t the assembly falls back to a globally regular
form, the Schwinger lift Sym^N(S) of the numeric j=1/2 propagator on every
occupation shell (fock.schwinger_lift); factors, lift and amplitudes share
that one flow.  The Gauss factors e^{z J+-} are the closed nilpotent-chain
entries of fock.chain_exponential and the displacement is the spectral
single-mode form of fock.displacement_operator, both exact for the
truncated operators.  The lift is the compression P Sym^N(S) P of the
untruncated operator: equal to the Gauss product on the complete shells
N <= n_max, not unitary on the partial ones above.  No step forms a
general matrix exponential.

The isotropic families carry coherent data; without drives their coherent
states follow one law, the closed S block applied to c(0), and the ladder
check of the states on a grid of amplitudes is one array pass.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .fock import (FockSpace, annihilator, chain_exponential, coherent_state,
                   displacement_operator, number_diagonals, schwinger_lift)
from . import magnus
from .riccati import _read_factors
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

def _gauss_product(space: FockSpace, alpha: float, rho: float, lam: complex,
                   omega: complex, gamma: complex) -> np.ndarray:
    n1, n2 = number_diagonals(space)
    d_n = np.exp(-0.5j * alpha * (n1 + n2))
    d_rho = np.exp(-0.5j * rho * (n1 - n2))
    d_om = np.exp(0.5 * omega * (n1 - n2))
    u = chain_exponential(space, lam, "J+") * d_n[:, None] * d_rho[:, None]
    u = u * d_om[None, :]
    return u @ chain_exponential(space, gamma, "J-")


def _su2_lift(space: FockSpace, smat: np.ndarray) -> np.ndarray:
    """Globally regular form: the Schwinger lift Sym^N(S) of S on every
    shell, with no chart and no log branch.  alpha needs no argument:
    det S = e^{-i alpha}, and Sym^N carries it as e^{-i alpha N/2}."""
    return schwinger_lift(space, smat)


def assemble_U(space: FockSpace, scenario: Scenario, t: float,
               tol: float = 1e-10) -> np.ndarray:
    """Dense propagator on the truncated space via the factorized form,
    from one flow of (S, c, P).  Falls back to the regular
    single-exponential lift when the factor chart is singular at t.
    Raises fock.TruncationError, before any work on U0, when the
    displacement's truncation guard rejects c(t)."""
    solved = magnus.flow(scenario, t, tol, drives=True)
    (c1, c2), p = solved.amplitudes(t, np.zeros(2))
    disp = displacement_operator(space, c1, c2)
    factors = _read_factors(scenario, solved, np.array([float(t)]))
    alpha, rho = factors.alpha[0], factors.rho[0]
    if factors.valid[0]:
        u0 = _gauss_product(space, alpha, rho, factors.lam[0],
                            factors.omega[0], factors.gamma[0])
    else:
        u0 = _su2_lift(space, factors.s_dense(t))
    return cmath.exp(-1j * p) * (disp @ u0)


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
                             c1, c2, coefficients=None
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Verify that the coherent state at each pair of amplitudes c1, c2
    (two 1-D arrays, or two scalars) is an eigenstate of a lowering
    combination u1 a1 + u2 a2, in one array pass: the eigenvalues and the
    residuals.  Default coefficients are the generalized ones
    (conj(c1)/conj(z0), conj(c2)/conj(z0)); pass explicit (u1, u2) to test
    a fixed dressed mode in every state instead."""
    c1, c2 = (np.atleast_1d(np.asarray(c, dtype=complex)) for c in (c1, c2))
    psi = coherent_state(space, c1, c2).reshape(-1, space.side, space.side)
    if coefficients is None:
        if state.z0 == 0:
            coefficients = (np.conj(state.alpha0), np.conj(state.beta0))
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


# ---------------------------------------------------------------------------
# spectrum of the dressed-number Hamiltonian

@dataclass(frozen=True)
class SpectrumCheck:
    max_deviation: float
    levels: np.ndarray
    counts: np.ndarray


def habeta_spectrum_check(space: FockSpace, state: CoherentStateSpec,
                          k: int | None = None) -> SpectrumCheck:
    """Diagonalize H = A^dag A (A = alpha0 a1 + beta0 a2) on the complete
    total-occupation shells n1 + n2 <= n_max and compare the lowest k
    distinct eigenvalues with 0..k-1.

    Per-mode truncation mutilates the shells above n_max (their blocks
    acquire non-integer eigenvalues), so only complete shells count.
    Within each complete shell N the spectrum is exactly {0, 1, ..., N},
    which fixes the multiplicities: eigenvalue m appears once per shell
    N >= m.
    """
    if k is None:
        k = space.n_max + 1
    a_op = (state.alpha0 * annihilator(space, 1)
            + state.beta0 * annihilator(space, 2))
    h = a_op.conj().T @ a_op
    n1, n2 = number_diagonals(space)
    keep = np.nonzero(n1 + n2 <= space.n_max)[0]
    vals = np.linalg.eigvalsh(h[np.ix_(keep, keep)])
    # cluster into distinct levels
    levels = []
    counts = []
    for v in vals:
        if levels and abs(v - levels[-1]) < 1e-6:
            counts[-1] += 1
            continue
        levels.append(float(v))
        counts.append(1)
    levels = np.asarray(levels)
    counts = np.asarray(counts)
    top = min(k, levels.size)
    dev = float(np.max(np.abs(levels[:top] - np.arange(top))))
    return SpectrumCheck(max_deviation=dev, levels=levels, counts=counts)
