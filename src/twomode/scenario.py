"""Coefficient scenarios: time profiles of the quadratic coupling matrix
W(t) = [[w11, w12], [w21, w22]], the linear drives F1, F2, and the scalar
term B for a pair of coupled driven modes.

Each scenario is a frozen dataclass with closed-form diagonal integrals
alpha(t) = int (w11 + w22) and rho(t) = int (w11 - w22).  The effective
coupling entering the off-diagonal Riccati flow is

    eta(s) = -i w12(s) e^{i rho(s)},

and the named closed-form families fix the phase of eta:
constant, linear in s, quadratic in s, or slaved to a mixing angle rho(s).
Each family's coupling is written so that its raw phase theta12 meets
theta12(s) = phi(s) + pi/2 - rho(s) (mod 2pi) for its eta phase model phi.

Every case's coupling(), diag_integrals() and alt_chart() and every drive
take a time or a 1-D array of times, through one numpy formula: an array
gives arrays, a scalar time gives numpy scalars, and an entry that does
not depend on time stays a scalar, which broadcasts against the others.

A case is declared once, by its class: CASES maps each tag to it, the INI
parser fills the parameters of its ini_constructor(), every closed-form
route reads its phase_family(), the showcase cases give their own closed
alternative chart through alt_chart(), and the isotropic cases give z0 and
the dressed mode at t = 0 for the coherent law.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .special import kummer_1f1

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline, PPoly


# ---------------------------------------------------------------------------
# drives

@dataclass(frozen=True)
class ConstantDrive:
    value: complex = 0j

    def __call__(self, t):
        return self.value


@dataclass(frozen=True)
class RotatingDrive:
    """amplitude * exp(i (omega t + phase)), the standard rotating drive."""

    amplitude: complex
    omega: float
    phase: float = 0.0

    ini_aliases = {"amplitude": "amp"}

    def __call__(self, t):
        return self.amplitude * np.exp(1j * (self.omega * t + self.phase))


@dataclass(frozen=True)
class CosineDrive:
    """Real cosine profile, meant for the scalar term B."""

    amplitude: float
    omega: float
    phase: float = 0.0

    ini_aliases = {"amplitude": "amp"}

    def __call__(self, t):
        return self.amplitude * np.cos(self.omega * t + self.phase)


NO_DRIVE = ConstantDrive(0j)


def drive_is_zero(drive) -> bool:
    return isinstance(drive, ConstantDrive) and drive.value == 0


class PhaseFamily(NamedTuple):
    """eta(s) = eps |eta(s)| e^{i phi(s)} with phi = phi0 + phi_tilde(s).

    phi_tilde is computed directly, never as phi(t) - phi(0): with w0 at
    roundoff size (IsotropicConstant at rho0 = pi/4) the difference would
    lose w0 t and with it the rotation angle.
    """

    eta0: float
    w0: float
    eps: int
    phi0: float
    phi_tilde: Callable

    @property
    def delta(self) -> float:
        return math.hypot(2.0 * self.eta0, self.w0)

    def angle(self, t):
        """Rotation angle x = delta phi_tilde(t) / (2 w0), or eta0 t when
        w0 = 0; scalar or array t."""
        if self.w0 == 0.0:
            return self.eta0 * t
        return self.delta * self.phi_tilde(t) / (2.0 * self.w0)


# ---------------------------------------------------------------------------
# scenario base

@dataclass(frozen=True)
class Scenario:
    """Base for all coefficient scenarios.  Subclasses provide coupling()
    and diag_integrals(); drives default to zero."""

    f1: object = field(default=NO_DRIVE, kw_only=True)
    f2: object = field(default=NO_DRIVE, kw_only=True)
    b: object = field(default=NO_DRIVE, kw_only=True)

    case = "?"
    # INI key of a constructor parameter whose key is not its own name
    ini_aliases = {}

    def __post_init__(self):
        for probe in (0.33, 1.7):
            bval = complex(self.b(probe))
            if abs(bval.imag) > 1e-12:
                raise ValueError("scalar drive B must be real-valued")

    @classmethod
    def ini_constructor(cls) -> Callable:
        """The constructor an INI case section fills: its parameters name
        the keys, and their defaults are the keys' defaults."""
        return cls

    def coupling(self, t: float) -> tuple[float, float, complex]:
        """(w11, w22, w12) at time t, or at each time of a 1-D array t."""
        raise NotImplementedError

    def diag_integrals(self, t: float) -> tuple[float, float]:
        """(alpha, rho) = (int_0^t (w11+w22), int_0^t (w11-w22)), at time t
        or at each time of a 1-D array t (a constant stays a scalar)."""
        raise NotImplementedError

    def phase_family(self) -> PhaseFamily | None:
        """The closed phase model of eta, or None outside the catalogue."""
        return None

    def alt_chart(self, t):
        """The case's own closed alternative-ordering (Lambda~, Omega~,
        Gamma~) at a time or 1-D array of times, or None.  At a chart pole
        the values come out infinite or huge, never as an exception."""
        return None

    def breakpoints(self, t: float):
        """Times in (0, t) where the coefficients lose smoothness."""
        return ()

    def kinks(self, t: float):
        """The breakpoints(t) where W has a corner: a midpoint step across
        one is only first order, where across a C2 point it stays second."""
        return ()

    def dressed_mode0(self) -> tuple[complex, complex] | None:
        """(alpha0, beta0) of the dressed lowering operator at t = 0 for the
        cases that carry coherent data (with z0), else None."""
        return None

    def eta(self, t: float) -> complex:
        _, rho = self.diag_integrals(t)
        _, _, w12 = self.coupling(t)
        return -1j * w12 * np.exp(1j * rho)


# ---------------------------------------------------------------------------
# closed-form families: constant / linear / general phase of eta

@dataclass(frozen=True)
class ConstantPhaseScenario(Scenario):
    """Coupling norm eta0 with a time-independent eta phase phi0.

    w12(s) = eta0 e^{i(phi0 + pi/2 - (w11-w22)s)}; diagonals are constant.
    """

    eta0: float
    phi0: float = 0.0
    w11: float = 0.0
    w22: float = 0.0

    case = "ConstantPhase"

    def __post_init__(self):
        super().__post_init__()
        if self.eta0 < 0:
            raise ValueError("eta0 must be non-negative")

    def coupling(self, t):
        theta12 = self.phi0 + math.pi / 2.0 - (self.w11 - self.w22) * t
        return self.w11, self.w22, self.eta0 * np.exp(1j * theta12)

    def diag_integrals(self, t):
        return (self.w11 + self.w22) * t, (self.w11 - self.w22) * t

    def phase_family(self):
        return PhaseFamily(self.eta0, 0.0, 1, self.phi0, self.phi_tilde)

    def phi_tilde(self, t):
        return 0.0


@dataclass(frozen=True)
class LinearPhaseScenario(Scenario):
    """eta = eta0 e^{i(phi0 + w0 s)}: linearly drifting phase, constant norm."""

    eta0: float
    w0: float
    phi0: float = 0.0
    w11: float = 0.0
    w22: float = 0.0

    case = "LinearPhase"

    def __post_init__(self):
        super().__post_init__()
        if self.eta0 < 0:
            raise ValueError("eta0 must be non-negative")

    def coupling(self, t):
        theta12 = (self.phi0 + self.w0 * t + math.pi / 2.0
                   - (self.w11 - self.w22) * t)
        return self.w11, self.w22, self.eta0 * np.exp(1j * theta12)

    def diag_integrals(self, t):
        return (self.w11 + self.w22) * t, (self.w11 - self.w22) * t

    def phase_family(self):
        return PhaseFamily(self.eta0, self.w0, 1, self.phi0, self.phi_tilde)

    def phi_tilde(self, t):
        return self.w0 * t


@dataclass(frozen=True)
class GeneralPhaseScenario(Scenario):
    """eta phase phi(s) = phi0 + theta0 s + nu s^2 with norm slaved to the
    phase speed: |w12(s)| = eps (eta0/w0) dphi/ds, eps = sign(theta0).

    dphi/ds must keep one sign for s >= 0, so theta0 and nu may not pull in
    opposite directions; a sign change would make the norm cross zero and
    the closed factors lose their meaning.
    """

    eta0: float
    w0: float
    phi0: float = 0.0
    theta0: float = 1.0
    nu: float = 0.0
    w11: float = 0.0
    w22: float = 0.0

    case = "GeneralPhase"

    def __post_init__(self):
        super().__post_init__()
        if self.eta0 <= 0 or self.w0 <= 0:
            raise ValueError("eta0 and w0 must be positive")
        if self.theta0 == 0:
            raise ValueError("theta0 must be nonzero (phase speed at s=0)")
        if self.nu != 0 and (self.nu > 0) != (self.theta0 > 0):
            raise ValueError("dphi/ds would cross zero at s = "
                             f"{-self.theta0 / (2 * self.nu):.6g}; rejected")

    @property
    def eps(self) -> int:
        return 1 if self.theta0 > 0 else -1

    def coupling(self, t):
        norm = self.eps * (self.eta0 / self.w0) * (self.theta0 + 2 * self.nu * t)
        theta12 = (self.phi0 + self.theta0 * t + self.nu * t * t
                   + math.pi / 2.0 - (self.w11 - self.w22) * t)
        return self.w11, self.w22, norm * np.exp(1j * theta12)

    def diag_integrals(self, t):
        return (self.w11 + self.w22) * t, (self.w11 - self.w22) * t

    def phase_family(self):
        return PhaseFamily(self.eta0, self.w0, self.eps, self.phi0,
                           self.phi_tilde)

    def phi_tilde(self, t):
        return self.theta0 * t + self.nu * t * t


# ---------------------------------------------------------------------------
# constant Hamiltonian and the isotropic special case

class _ConstantCoupling:
    """Frozen coefficients map onto the linearly drifting phase chart:
    eta = -i w12 e^{i (w11 - w22) s}."""

    def phase_family(self):
        w11, w22, w12 = self.coupling(0.0)
        w0 = w11 - w22
        phi0 = float(np.angle(-1j * w12)) if w12 != 0 else 0.0
        return PhaseFamily(abs(w12), w0, 1, phi0, lambda t: w0 * t)


@dataclass(frozen=True)
class AllConstantScenario(_ConstantCoupling, Scenario):
    """Every Hamiltonian coefficient frozen in time."""

    w11: float
    w22: float
    w12: complex

    case = "AllConstant"

    def coupling(self, t):
        return self.w11, self.w22, self.w12

    def diag_integrals(self, t):
        return (self.w11 + self.w22) * t, (self.w11 - self.w22) * t


@dataclass(frozen=True)
class IsotropicConstantScenario(_ConstantCoupling, Scenario):
    """H = A^dag A for the dressed mode A = alpha a1 + beta a2 with
    |alpha|^2 + |beta|^2 = 1.  Coupling w12 = conj(alpha) beta, unit Rabi
    frequency, spectrum 0, 1, 2, ...
    """

    alpha: complex
    beta: complex
    z0: complex = 0j

    case = "IsotropicConstant"

    def __post_init__(self):
        super().__post_init__()
        if abs(abs(self.alpha) ** 2 + abs(self.beta) ** 2 - 1.0) > 1e-12:
            raise ValueError("|alpha|^2 + |beta|^2 must equal 1")

    @classmethod
    def from_polar(cls, rho0: float, theta_alpha0: float = 0.0,
                   theta_beta0: float = 0.0, z0: complex = 0j, **drives):
        alpha = math.cos(rho0) * np.exp(1j * theta_alpha0)
        beta = math.sin(rho0) * np.exp(1j * theta_beta0)
        return cls(alpha=complex(alpha), beta=complex(beta), z0=z0, **drives)

    @classmethod
    def ini_constructor(cls):
        return cls.from_polar

    def coupling(self, t):
        return (abs(self.alpha) ** 2, abs(self.beta) ** 2,
                np.conj(self.alpha) * self.beta)

    def diag_integrals(self, t):
        d = abs(self.alpha) ** 2 - abs(self.beta) ** 2
        return t, d * t

    def dressed_mode0(self):
        return self.alpha, self.beta


# ---------------------------------------------------------------------------
# time-dependent isotropic families (mixing angle rho(s))

class _MixingAngle:
    """Shared by the mixing-angle families: eta has the general-phase form
    with phi0 = theta_beta0 - theta_alpha0 - pi/2, and the dressed mode at
    t = 0 is (cos r0 e^{i theta_alpha0}, sin r0 e^{i theta_beta0})."""

    @property
    def delta(self) -> float:
        return math.hypot(2.0 * self.eta0, self.w0)

    def phase_family(self):
        phi0 = self.theta_beta0 - self.theta_alpha0 - math.pi / 2.0
        return PhaseFamily(self.eta0, self.w0, 1, phi0, self.phi_tilde)

    def dressed_mode0(self):
        r0 = self.mixing_angle0()
        return (math.cos(r0) * cmath.exp(1j * self.theta_alpha0),
                math.sin(r0) * cmath.exp(1j * self.theta_beta0))


@dataclass(frozen=True)
class RhoConstantScenario(_MixingAngle, Scenario):
    """Isotropic-form coefficients with a frozen mixing angle rho0 and a
    linearly drifting coupling phase.

    w11 = cos^2 rho0, w22 = sin^2 rho0, |w12| = sin(rho0) cos(rho0),
    theta12(s) = theta_beta0 - theta_alpha0 + Theta_dot s with
    Theta_dot = (w0 / 2 eta0) sin(2 rho0) - cos(2 rho0).  Only the ratio
    w0/eta0 is physical; the norm condition holds for any positive pair.
    """

    rho0: float
    eta0: float
    w0: float
    theta_alpha0: float = 0.0
    theta_beta0: float = 0.0
    z0: complex = 0j

    case = "RhoConstant"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.rho0 < math.pi / 2.0:
            raise ValueError("rho0 must lie in (0, pi/2)")
        if self.eta0 <= 0 or self.w0 <= 0:
            raise ValueError("eta0 and w0 must be positive")

    @property
    def theta_drift(self) -> float:
        r2 = 2.0 * self.rho0
        return (self.w0 / (2.0 * self.eta0)) * math.sin(r2) - math.cos(r2)

    def coupling(self, t):
        c, s = math.cos(self.rho0), math.sin(self.rho0)
        theta12 = (self.theta_beta0 - self.theta_alpha0
                   + self.theta_drift * t)
        return c * c, s * s, c * s * np.exp(1j * theta12)

    def diag_integrals(self, t):
        return t, math.cos(2.0 * self.rho0) * t

    def phi_tilde(self, t):
        return (self.w0 / (2.0 * self.eta0)) * math.sin(2.0 * self.rho0) * t

    def mixing_angle0(self) -> float:
        return self.rho0


@dataclass(frozen=True)
class LogRhoScenario(_MixingAngle, Scenario):
    """Isotropic-form coefficients with mixing angle rho(s) = arctan(t0 + s).

    w11 = 1/(1+(s+t0)^2), w22 = (s+t0)^2/(1+(s+t0)^2),
    |w12| = (s+t0)/(1+(s+t0)^2); the coupling phase picks up a logarithmic
    drift (w0 / 2 eta0) ln[(1+(s+t0)^2)/(1+t0^2)] on top of the geometric
    piece, so that eta keeps the general-phase structure.
    """

    t0: float
    eta0: float
    w0: float
    theta_alpha0: float = 0.0
    theta_beta0: float = 0.0
    z0: complex = 0j

    case = "LogRho"

    def __post_init__(self):
        super().__post_init__()
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")
        if self.eta0 <= 0 or self.w0 <= 0:
            raise ValueError("eta0 and w0 must be positive")

    def _log_term(self, t):
        u = t + self.t0
        return np.log((1.0 + u * u) / (1.0 + self.t0 * self.t0))

    def coupling(self, t):
        u = t + self.t0
        den = 1.0 + u * u
        theta12 = (self.theta_beta0 - self.theta_alpha0
                   + (self.w0 / (2.0 * self.eta0)) * self._log_term(t)
                   + t + 2.0 * math.atan(self.t0) - 2.0 * np.arctan(u))
        return 1.0 / den, u * u / den, (u / den) * np.exp(1j * theta12)

    def diag_integrals(self, t):
        return t, 2.0 * np.arctan(t + self.t0) - 2.0 * math.atan(self.t0) - t

    def phi_tilde(self, t):
        return (self.w0 / (2.0 * self.eta0)) * self._log_term(t)

    def mixing_angle0(self) -> float:
        return math.atan(self.t0)


# ---------------------------------------------------------------------------
# alternative-ordering showcase families

def _series(value, x):
    """value(x_i).value of a scalar series at each entry of x, in x's shape."""
    return np.vectorize(lambda v: value(v).value, otypes=[complex])(x)


@dataclass(frozen=True)
class QuadraticPhaseScenario(Scenario):
    """Vanishing diagonals, eta = eta0 e^{-i theta0 s^2}.  The alternative
    ordering solves this through confluent hypergeometric functions."""

    eta0: float
    theta0: float

    case = "QuadraticPhase"

    def __post_init__(self):
        super().__post_init__()
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if self.theta0 == 0:
            raise ValueError("theta0 must be nonzero (constant phase otherwise)")

    def coupling(self, t):
        theta12 = math.pi / 2.0 - self.theta0 * t * t
        return 0.0, 0.0, self.eta0 * np.exp(1j * theta12)

    def diag_integrals(self, t):
        return 0.0, 0.0

    def alt_chart(self, t):
        """u'' - (ln conj(eta))' u' + eta0^2 u = 0 has the Kummer solutions
        u = 1F1(a; 1/2; i theta0 s^2), a = i eta0^2 / 4 theta0, u(0) = 1, and
        v = s 1F1(a + 1/2; 3/2; i theta0 s^2), v'(0) = 1 (DLMF 13.2).  Their
        Wronskian is conj(eta)/eta0 (Abel), so (v/u)' = conj(eta)/(eta0 u^2):

            Lambda~ = -u' / (conj(eta) u),  u' = -eta0^2 s 1F1(a + 1; 3/2; .)
            Omega~  = -2 log u
            Gamma~  = -int_0^t conj(eta)/u^2 = -eta0 v/u."""
        t = np.asarray(t, dtype=float)
        a = 1j * self.eta0 ** 2 / (4.0 * self.theta0)
        z = 1j * self.theta0 * t * t
        u = _series(lambda x: kummer_1f1(a, 0.5, x, 1e-13), z)
        du = -self.eta0 ** 2 * t * _series(
            lambda x: kummer_1f1(a + 1.0, 1.5, x, 1e-13), z)
        v = t * _series(lambda x: kummer_1f1(a + 0.5, 1.5, x, 1e-13), z)
        eta_conj = self.eta0 * np.exp(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            chart = (-du / (eta_conj * u), -2.0 * np.log(u),
                     -self.eta0 * v / u)
        return tuple(c[()] for c in chart)


@functools.cache
def _fresnel_kink_sums(size: int) -> np.ndarray:
    from scipy.special import fresnel

    # 2 sum_{k<K} (-1)^k C(sqrt(2k + 1)) for K = 0..size: the kinks of
    # |cos(pi x^2 / 2)| do not depend on the case, so one cached, read-only
    # table serves all
    k = np.arange(size)
    _, c_kinks = fresnel(np.sqrt(2.0 * k + 1.0))
    sums = np.append(0.0, np.cumsum(np.where(k % 2, -2.0, 2.0) * c_kinks))
    sums.flags.writeable = False
    return sums


@dataclass(frozen=True)
class FresnelNormScenario(Scenario):
    """Vanishing diagonals, |w12(s)| = w12_0 |cos(nu s^2)|, with the
    coupling phase slaved so the alternative ordering closes through
    Fresnel integrals: theta12 = 3 q - tan(q) + theta_v0 - theta_u0 - pi/2
    where q(s) is the Gudermannian of psi(s) = int_0^s |w12|.
    """

    w12_0: float
    nu: float
    theta_v0: float = 0.0
    theta_u0: float = 0.0

    case = "FresnelNorm"
    # eta0 scales the coupling norm, theta0 and phi0 carry the two offsets
    ini_aliases = {"w12_0": "eta0", "theta_v0": "theta0", "theta_u0": "phi0"}

    def __post_init__(self):
        super().__post_init__()
        if self.w12_0 <= 0 or self.nu <= 0:
            raise ValueError("w12_0 and nu must be positive")

    def breakpoints(self, t):
        """The kinks of |cos(nu s^2)| before t, at nu s^2 = (k + 1/2) pi."""
        k = np.arange(math.ceil(self.nu * t * t / math.pi - 0.5))
        return np.sqrt((k + 0.5) * math.pi / self.nu)

    kinks = breakpoints

    def norm_integral(self, t):
        """psi(t) = int_0^t w12_0 |cos(nu s^2)| ds in closed form, at a time
        or at each time of a 1-D array.  With scale = sqrt(pi / 2 nu) and
        x = t / scale the kinks sit at x_k = sqrt(2k + 1), where the sign of
        cos(pi x^2 / 2) flips, so with K kinks before t

            psi = w12_0 scale [(-1)^K C(x) + 2 sum_{k<K} (-1)^k C(x_k)]

        (C the Fresnel cosine integral)."""
        from scipy.special import fresnel

        scale = math.sqrt(math.pi / (2.0 * self.nu))
        count = np.ceil(self.nu * t * t / math.pi - 0.5).astype(int)
        sums = _fresnel_kink_sums(1 << int(count.max(initial=0)).bit_length())
        _, c_t = fresnel(t / scale)
        return self.w12_0 * scale * ((1 - 2 * (count % 2)) * c_t + sums[count])

    def tilt_angle(self, t):
        """q(t) = gd(psi(t)) = 2 arctan(tanh(psi/2)), at a time or at each
        time of a 1-D array; psi runs across every kink, so q rises
        monotonically towards pi/2."""
        return self._tilt(t)[1]

    def _tilt(self, t):
        # psi, q = gd(psi) and tan(q) = sinh(psi); tan(q) from q itself
        # loses relative accuracy as q nears pi/2 (5e-10 at psi = 18)
        psi = self.norm_integral(t)
        return psi, 2.0 * np.arctan(np.tanh(0.5 * psi)), np.sinh(psi)

    def coupling(self, t):
        offset = self.theta_v0 - self.theta_u0 - math.pi / 2.0
        _, q, tanq = self._tilt(t)
        norm = self.w12_0 * np.abs(np.cos(self.nu * t * t))
        return 0.0, 0.0, norm * np.exp(1j * (3.0 * q - tanq + offset))

    def diag_integrals(self, t):
        return 0.0, 0.0

    def alt_chart(self, t):
        """Closed at every time, across the kinks of |cos(nu s^2)|: with
        q = tilt_angle(t), the Gudermannian of the closed psi(t) of
        norm_integral, theta_v = q + theta_v0 and theta_u = tan(q) - q +
        theta_u0.  The factors come from the linearizing solution
        u = cos(q) e^{i theta_u}, so only theta_u - theta_u0 enters Omega~
        and Gamma~:

            Lambda~ = -tan(q) e^{i (theta_v - theta_u)}
            Omega~  = ln sec^2(q) - 2 i (theta_u - theta_u0)
            Gamma~  =  tan(q) e^{-i (tan(q) + theta_v0 - theta_u0)}.

        tan(q) = sinh(psi) and ln sec^2(q) = 2 ln cosh(psi) are taken from
        psi, with ln cosh(psi) = log1p(2 sinh^2(psi/2)), so the chart keeps
        its relative accuracy both near t = 0 and on long horizons.
        """
        psi, q, tanq = self._tilt(np.asarray(t, dtype=float))
        offset = self.theta_v0 - self.theta_u0
        log_cosh = np.log1p(2.0 * np.sinh(0.5 * psi) ** 2)
        chart = (-tanq * np.exp(1j * (2.0 * q - tanq + offset)),
                 2.0 * (log_cosh - 1j * (tanq - q)),
                 tanq * np.exp(-1j * (tanq + offset)))
        return tuple(c[()] for c in chart)


# ---------------------------------------------------------------------------
# tabulated coefficients

@dataclass(frozen=True)
class TabulatedScenario(Scenario):
    """Coefficients sampled on a grid, one cubic spline of (w11, w22, Re w12,
    Im w12) whose third derivative jumps at every sample.  alpha and rho come
    from its antiderivative, exactly consistent with w11 and w22."""

    grid: np.ndarray
    _coeffs: CubicSpline
    _integrals: PPoly

    case = "Tabulated"

    @classmethod
    def from_samples(cls, t, w11, w22, w12, f1=None, f2=None, b=None):
        from scipy.interpolate import CubicSpline

        t = np.asarray(t, dtype=float)
        if t.size < 4:
            raise ValueError("need at least 4 samples for cubic interpolation")
        columns = {name: np.asarray(v) for name, v in (
            ("t", t), ("w11", w11), ("w22", w22), ("w12", w12), ("F1", f1),
            ("F2", f2), ("B", b)) if v is not None}
        for name, v in columns.items():
            bad = np.flatnonzero(~np.isfinite(v))
            if bad.size:
                raise ValueError(f"column {name} is not finite in data row "
                                 f"{bad[0] + 1} ({v[bad[0]]})")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times in column t must be strictly "
                             "increasing")
        w12 = np.asarray(w12, dtype=complex)
        coeffs = CubicSpline(t, np.array([w11, w22, w12.real, w12.imag],
                                         dtype=float).T)
        drives = {name.lower():
                  _SplineDrive(CubicSpline(t, columns[name].astype(complex)))
                  for name in ("F1", "F2", "B") if name in columns}
        integrals = coeffs.antiderivative()
        # alpha and rho vanish at t = 0, where every flow starts with S = I
        integrals.c[-1] -= integrals(0.0)
        return cls(grid=t, _coeffs=coeffs, _integrals=integrals, **drives)

    @classmethod
    def from_csv(cls, path):
        """from_samples on a CSV file; a refused file is named in the
        error.  An empty cell or text that is not a number reads as NaN,
        which from_samples refuses."""
        data = np.genfromtxt(path, delimiter=",", names=True)
        cols = ("t", "w11", "w22", "re_w12", "im_w12",
                "re_F1", "im_F1", "re_F2", "im_F2", "B")
        missing = [c for c in cols if c not in (data.dtype.names or ())]
        try:
            if missing:
                raise ValueError(f"missing columns {missing}")
            return cls.from_samples(
                data["t"], data["w11"], data["w22"],
                data["re_w12"] + 1j * data["im_w12"],
                f1=data["re_F1"] + 1j * data["im_F1"],
                f2=data["re_F2"] + 1j * data["im_F2"],
                b=data["B"])
        except ValueError as exc:
            raise ValueError(f"tabulated file {path}: {exc}") from None

    def _check_domain(self, t):
        lo, hi = self.grid[0], self.grid[-1]
        t = np.asarray(t)
        first, last = t.min(initial=lo), t.max(initial=hi)
        if first < lo - 1e-9 or last > hi + 1e-9:
            bad = first if first < lo - 1e-9 else last
            raise ValueError(f"time {bad} outside tabulated domain [{lo}, {hi}]")

    def coupling(self, t):
        self._check_domain(t)
        v = self._coeffs(t)
        # [()] turns the 0-d columns for a scalar t into scalars
        return v[..., 0][()], v[..., 1][()], (v[..., 2] + 1j * v[..., 3])[()]

    def diag_integrals(self, t):
        self._check_domain(t)
        v = self._integrals(t)
        return (v[..., 0] + v[..., 1])[()], (v[..., 0] - v[..., 1])[()]

    def breakpoints(self, t):
        knots = self.grid[1:-1]
        return knots[(knots > 0.0) & (knots < t)]


class _SplineDrive:
    # a named class with its own __call__: bench/tracer.py patches it by name
    def __init__(self, spline: CubicSpline):
        self.spline = spline

    def __call__(self, t):
        return self.spline(t)[()]


CASES = {cls.case: cls for cls in (
    ConstantPhaseScenario, LinearPhaseScenario, GeneralPhaseScenario,
    AllConstantScenario, IsotropicConstantScenario, RhoConstantScenario,
    LogRhoScenario, QuadraticPhaseScenario, FresnelNormScenario,
    TabulatedScenario)}
