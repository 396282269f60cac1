"""Full evolution: drive coefficients, global phase, operator assembly,
and the coherent-state laws of the isotropic families.

The drive amplitudes obey c(t) = S(t) c(0) - i S(t) int_0^t S^dag(s) F(s) ds
and enter the propagator through a displacement in front of the quadratic
part:

    U(t, 0) = D(c1(t), c2(t)) e^{-i P(t)} U0(t, 0),
    P(t) = int_0^t [ Re(F1 c1* + F2 c2*) + B ] ds,

with U0 the Gauss product built from the factor coefficients.  When the
factor chart is singular at t the assembly falls back to a globally regular
single-exponential form obtained by lifting the numeric j=1/2 propagator
to the truncated Fock space; factors, lift and amplitudes share one S solve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

from .fock import (FockSpace, annihilator, coherent_state,
                   displacement_operator, number_diagonals, su2_generator)
from .riccati import solve_riccati_numeric
from .scenario import (IsotropicConstantScenario, LogRhoScenario,
                       RhoConstantScenario, Scenario, drive_is_zero)


@dataclass(frozen=True)
class CoherentAmplitudes:
    t: float
    c1: complex
    c2: complex
    global_phase: complex

    @property
    def norm2(self) -> float:
        return abs(self.c1) ** 2 + abs(self.c2) ** 2


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
    def c_initial(self) -> tuple[complex, complex]:
        # a_sigma expectation values of the initial coherent state
        return (self.z0 * np.conj(self.alpha0), self.z0 * np.conj(self.beta0))


def coherent_spec(scenario: Scenario) -> CoherentStateSpec:
    """Initial coherent data encoded in a scenario, for the isotropic
    families that carry one."""
    if isinstance(scenario, IsotropicConstantScenario):
        return CoherentStateSpec(z0=scenario.z0, alpha0=scenario.alpha,
                                 beta0=scenario.beta)
    if isinstance(scenario, (RhoConstantScenario, LogRhoScenario)):
        r0 = scenario.mixing_angle0()
        return CoherentStateSpec(
            z0=scenario.z0,
            alpha0=math.cos(r0) * cmath.exp(1j * scenario.theta_alpha0),
            beta0=math.sin(r0) * cmath.exp(1j * scenario.theta_beta0))
    raise ValueError(f"case {scenario.case} carries no coherent data")


# ---------------------------------------------------------------------------
# drive coefficients and global phase

def c_coefficients(scenario: Scenario, c0, t, tol: float = 1e-10):
    """Propagate the drive amplitudes from c(0) = c0 and accumulate the
    scalar phase P(t), at one time t or, as a list, at each of a 1-D array
    of ascending times, all from one S and one drive integration."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be ascending")
    factors = solve_riccati_numeric(scenario, times[-1], tol, grid=times[-1:])
    amps = _amplitudes(scenario, c0, times, tol, factors.s_dense)
    return amps if np.ndim(t) else amps[0]


def _amplitudes(scenario: Scenario, c0, times, tol: float,
                s_dense) -> list[CoherentAmplitudes]:
    """c(t) = S(t) (c0 - i int_0^t S^dag F) and P(t) at ascending times from
    the dense S(t) given; P sums one quadrature per interval between them."""
    c0 = np.asarray(c0, dtype=complex).reshape(2)
    driven = not (drive_is_zero(scenario.f1) and drive_is_zero(scenario.f2))
    f_at = lambda s: np.array([complex(scenario.f1(s)),
                               complex(scenario.f2(s))])
    g_at = lambda s: np.zeros(2)
    if driven:
        sol_g = solve_ivp(lambda s, g: s_dense(s).conj().T @ f_at(s),
                          (0.0, float(times[-1])), [0j, 0j], method="DOP853",
                          rtol=tol, atol=tol, dense_output=True)
        if sol_g.status != 0:
            raise RuntimeError(f"drive integral failed: {sol_g.message}")
        g_at = sol_g.sol

    def c_at(s):
        return s_dense(s) @ (c0 - 1j * g_at(s))

    def p_integrand(s):
        return (np.vdot(f_at(s), c_at(s)).real
                + float(complex(scenario.b(s)).real))

    phased = driven or not drive_is_zero(scenario.b)
    out, p, prev = [], 0.0, 0.0
    for t in times:
        if phased and t > prev:
            p += quad(p_integrand, prev, t, epsabs=tol, epsrel=1e-11,
                      limit=400)[0]
        prev = t
        c = c_at(t)
        out.append(CoherentAmplitudes(t=float(t), c1=complex(c[0]),
                                      c2=complex(c[1]),
                                      global_phase=cmath.exp(-1j * p)))
    return out


# ---------------------------------------------------------------------------
# operator assembly

def _gauss_product(space: FockSpace, alpha: float, rho: float, lam: complex,
                   omega: complex, gamma: complex) -> np.ndarray:
    n1, n2 = number_diagonals(space)
    jp = su2_generator(space, "J+")
    jm = su2_generator(space, "J-")
    d_n = np.exp(-0.5j * alpha * (n1 + n2))
    d_rho = np.exp(-0.5j * rho * (n1 - n2))
    d_om = np.exp(0.5 * omega * (n1 - n2))
    u = expm(lam * jp) * d_n[:, None] * d_rho[:, None]
    u = u * d_om[None, :]
    return u @ expm(gamma * jm)


def _su2_lift(space: FockSpace, smat: np.ndarray, alpha: float) -> np.ndarray:
    """Globally regular form: write e^{i alpha/2} S as an SU(2) rotation
    cos(theta) I - i sin(theta) n.sigma and lift the generator to the
    Schwinger representation.  Exact for any log branch because the group
    is simply connected."""
    su = cmath.exp(0.5j * alpha) * smat
    cos_t = 0.5 * (su[0, 0] + su[1, 1]).real
    m = (su - cos_t * np.eye(2)) / (-1j)
    # m = sin(theta) n.sigma, Hermitian
    v = np.array([m[0, 1].real, -m[0, 1].imag, m[0, 0].real])
    sin_t = float(np.linalg.norm(v))
    n1d, n2d = number_diagonals(space)
    dn = np.diag(np.exp(-0.5j * alpha * (n1d + n2d)))
    if sin_t < 1e-12:
        if cos_t > 0:
            return dn
        # rotation by pi about any axis; z gives a diagonal lift
        return dn @ np.diag(np.exp(-1j * math.pi * (n1d - n2d)))
    theta = math.atan2(sin_t, min(1.0, max(-1.0, cos_t)))
    n_hat = v / sin_t
    jp = su2_generator(space, "J+")
    jm = su2_generator(space, "J-")
    j3 = np.diag(0.5 * (n1d - n2d)).astype(complex)
    gen = (n_hat[0] * (jp + jm) - 1j * n_hat[1] * (jp - jm)
           + 2.0 * n_hat[2] * j3)
    return dn @ expm(-1j * theta * gen)


def assemble_U(space: FockSpace, scenario: Scenario, t: float,
               tol: float = 1e-10) -> np.ndarray:
    """Dense propagator on the truncated space via the factorized form.
    Falls back to the regular single-exponential lift when the factor
    chart is singular at t."""
    factors = solve_riccati_numeric(scenario, t, tol, grid=np.array([t]))
    amps = _amplitudes(scenario, (0j, 0j), np.array([t]), tol,
                       factors.s_dense)[0]
    alpha, rho = factors.alpha[0], factors.rho[0]
    if factors.valid[0]:
        u0 = _gauss_product(space, alpha, rho, factors.lam[0],
                            factors.omega[0], factors.gamma[0])
    else:
        u0 = _su2_lift(space, factors.s_dense(t), alpha)
    disp = displacement_operator(space, amps.c1, amps.c2)
    return amps.global_phase * (disp @ u0)


# ---------------------------------------------------------------------------
# coherent-state laws

def coherent_evolution_closed(scenario: Scenario, state: CoherentStateSpec,
                              t: float) -> CoherentAmplitudes:
    """Printed amplitude evolution for the isotropic families (no drives):
    the state stays coherent, |c1|^2 + |c2|^2 = |z0|^2 for all t."""
    if not (drive_is_zero(scenario.f1) and drive_is_zero(scenario.f2)
            and drive_is_zero(scenario.b)):
        raise ValueError("closed coherent laws hold for the undriven case")
    if isinstance(scenario, IsotropicConstantScenario):
        ph = cmath.exp(-1j * t)
        return CoherentAmplitudes(
            t=float(t),
            c1=state.z0 * np.conj(scenario.alpha) * ph,
            c2=state.z0 * np.conj(scenario.beta) * ph,
            global_phase=1.0 + 0j)
    if isinstance(scenario, (RhoConstantScenario, LogRhoScenario)):
        delta = scenario.delta
        w0 = scenario.w0
        eta0 = scenario.eta0
        r0 = scenario.mixing_angle0()
        big_phi = scenario.big_phi(t)
        theta_ba = scenario.theta_beta_alpha(t)
        c, s = math.cos(big_phi), math.sin(big_phi)
        pre = cmath.exp(-0.5j * t)
        eb = cmath.exp(0.5j * theta_ba)
        ratio = 2.0 * eta0 / w0
        c1 = (pre * eb * state.z0 * math.cos(r0)
              * cmath.exp(-1j * scenario.theta_alpha0)
              * (c - 1j * (w0 / delta) * (1.0 + ratio * math.tan(r0)) * s))
        c2 = (pre * np.conj(eb) * state.z0 * math.sin(r0)
              * cmath.exp(-1j * scenario.theta_beta0)
              * (c + 1j * (w0 / delta) * (1.0 - ratio / math.tan(r0)) * s))
        return CoherentAmplitudes(t=float(t), c1=complex(c1), c2=complex(c2),
                                  global_phase=1.0 + 0j)
    raise ValueError(f"no closed coherent law for case {scenario.case}")


@dataclass(frozen=True)
class LadderCheck:
    eigenvalue: complex
    residual: float


def ladder_eigenvalue_check(space: FockSpace, state: CoherentStateSpec,
                            amplitudes: CoherentAmplitudes,
                            coefficients=None) -> LadderCheck:
    """Verify the evolved state is an eigenstate of a lowering combination
    u1 a1 + u2 a2.  Default coefficients are the generalized ones
    (conj(c1)/conj(z0), conj(c2)/conj(z0)); pass explicit (u1, u2) to test
    a fixed dressed mode instead."""
    psi = coherent_state(space, amplitudes.c1, amplitudes.c2)
    if coefficients is None:
        if state.z0 == 0:
            coefficients = (np.conj(state.alpha0), np.conj(state.beta0))
        else:
            coefficients = (np.conj(amplitudes.c1) / np.conj(state.z0),
                            np.conj(amplitudes.c2) / np.conj(state.z0))
    u1, u2 = coefficients
    op = u1 * annihilator(space, 1) + u2 * annihilator(space, 2)
    lam = complex(np.vdot(psi, op @ psi) / np.vdot(psi, psi))
    res = float(np.linalg.norm(op @ psi - lam * psi)
                / math.sqrt(np.vdot(psi, psi).real))
    return LadderCheck(eigenvalue=lam, residual=res)


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
