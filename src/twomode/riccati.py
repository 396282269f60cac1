"""Gauss-factorization coefficients for the off-diagonal flow.

The su(2) part of the propagator is written, in the standard ordering, as
exp(-i alpha N) exp(-i rho J3) exp(Lambda J+) exp(Omega J3) exp(Gamma J-).
Lambda obeys the Riccati equation

    dLambda/ds = eta(s) + conj(eta(s)) Lambda^2,        Lambda(0) = 0,

with Omega = 2 int conj(eta) Lambda and Gamma = -int conj(eta) e^{Omega}.
That system is the projective image of i dS/ds = W S (Wei & Norman): the
numeric route integrates S and reads all three off it.  The module also
evaluates the closed forms for every phase family that admits one, plus
the alternative ordering exp(Lambda~ J+) exp(Omega~ J3) exp(Gamma~ J-)
(no separate rho rotation), whose coefficients relate to the standard ones by

    Lambda~ = e^{-i rho} Lambda,   Omega~ = Omega - i rho,   Gamma~ = Gamma.

Lambda diverging (a chart singularity, S22 -> 0) is a property of the
coordinate patch, not of the underlying unitary; it is reported through
validity flags and the first singular time rather than hidden.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .scenario import (AllConstantScenario, ConstantPhaseScenario,
                       FresnelNormScenario, GeneralPhaseScenario,
                       IsotropicConstantScenario, LinearPhaseScenario,
                       LogRhoScenario, QuadraticPhaseScenario,
                       RhoConstantScenario, Scenario)

LAM_LIMIT = 1e8


class ChartSingularity(Exception):
    """Factorization chart coefficient diverged: the Gauss patch ended."""

    def __init__(self, message, singular_time=None):
        super().__init__(message)
        self.singular_time = singular_time


class StepUnderflow(Exception):
    """Adaptive integrator could not advance without violating tolerance."""


class SeriesDivergence(Exception):
    """Power series outside its trusted domain or failed to converge."""


class ConditionViolated(Exception):
    """Scenario does not satisfy the constraint a closed form requires."""


# ---------------------------------------------------------------------------
# special functions (power series with compensated summation)

@dataclass(frozen=True)
class SpecialValue:
    value: complex
    terms: int
    truncation_bound: float


_SERIES_DOMAIN = 30.0
_SERIES_MAX_TERMS = 600


def _fsum_complex(terms) -> complex:
    return complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms))


def kummer_1f1(a: complex, b: complex, z: complex,
               tol: float = 1e-14) -> SpecialValue:
    """Confluent hypergeometric 1F1(a; b; z) by its defining series.

    Terms follow t_{n+1} = t_n (a+n) z / ((b+n)(n+1)); the sum is formed
    with compensated accumulation.  Arguments with |z| > 30 are rejected:
    past that the alternating series loses too many digits in doubles.
    """
    b = complex(b)
    if b.imag == 0 and b.real <= 0 and b.real == int(b.real):
        raise ValueError("1F1 undefined for non-positive integer b")
    if abs(z) > _SERIES_DOMAIN:
        raise SeriesDivergence(f"|z| = {abs(z):.3g} outside series domain "
                               f"{_SERIES_DOMAIN}")
    a = complex(a)
    z = complex(z)
    term = 1.0 + 0j
    terms = [term]
    n = 0
    quiet = 0
    while n < _SERIES_MAX_TERMS:
        term = term * (a + n) * z / ((b + n) * (n + 1))
        terms.append(term)
        n += 1
        partial = abs(_fsum_complex(terms))
        if abs(term) <= tol * max(1.0, partial) and n >= abs(z):
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
    else:
        raise SeriesDivergence("1F1 series did not settle within "
                               f"{_SERIES_MAX_TERMS} terms")
    value = _fsum_complex(terms)
    nxt = abs(term * (a + n) * z / ((b + n) * (n + 1)))
    ratio = abs(z) / (n + 1)
    bound = nxt / (1.0 - ratio) if ratio < 0.5 else 2.0 * nxt
    return SpecialValue(value=value, terms=n + 1, truncation_bound=bound)


def fresnel_c(x: float, tol: float = 1e-14) -> SpecialValue:
    """Fresnel cosine integral C(x) = int_0^x cos(pi u^2 / 2) du by series:
    sum over n of (-1)^n (pi/2)^{2n} x^{4n+1} / ((2n)! (4n+1))."""
    if abs(x) > _SERIES_DOMAIN:
        raise SeriesDivergence(f"|x| = {abs(x):.3g} outside series domain "
                               f"{_SERIES_DOMAIN}")
    y2 = (math.pi / 2.0) * x * x
    term = float(x)
    coeff = float(x)
    terms = [term]
    n = 0
    while n < _SERIES_MAX_TERMS:
        # coeff_{n+1}/coeff_n for the x^{4n+1}/(2n)! part
        coeff = -coeff * y2 * y2 / ((2 * n + 1) * (2 * n + 2))
        n += 1
        term = coeff / (4 * n + 1)
        terms.append(term)
        if abs(term) <= tol * max(1.0, abs(math.fsum(terms))):
            break
    else:
        raise SeriesDivergence("Fresnel series did not settle within "
                               f"{_SERIES_MAX_TERMS} terms")
    value = math.fsum(terms)
    bound = abs(coeff * y2 * y2 / ((2 * n + 1) * (2 * n + 2)) / (4 * n + 5))
    return SpecialValue(value=complex(value), terms=n + 1,
                        truncation_bound=bound)


# ---------------------------------------------------------------------------
# factor containers

@dataclass(frozen=True)
class FactorSample:
    t: float
    alpha: float
    rho: float
    lam: complex
    omega: complex
    gamma: complex
    valid: bool


@dataclass(frozen=True)
class DisentangledFactors:
    """Factor coefficients sampled on a grid, with an exact evaluator for
    off-grid times when one is available (dense ODE output or closed form).
    Numeric factors carry s_dense, t -> S(t), the S they were read from."""

    scenario: Scenario
    ordering: str
    t: np.ndarray
    alpha: np.ndarray
    rho: np.ndarray
    lam: np.ndarray
    omega: np.ndarray
    gamma: np.ndarray
    valid: np.ndarray
    singular_time: float | None = None
    _eval: Callable | None = None
    s_dense: Callable | None = None

    def at(self, t: float) -> FactorSample:
        alpha, rho = self.scenario.diag_integrals(t)
        if self._eval is not None:
            lam, omega, gamma = self._eval(t)
        else:
            i = int(np.argmin(np.abs(self.t - t)))
            if abs(self.t[i] - t) > 1e-9:
                raise ValueError(f"time {t} not on the factor grid and no "
                                 "dense evaluator is attached")
            lam, omega, gamma = self.lam[i], self.omega[i], self.gamma[i]
        finite = np.all(np.isfinite([lam.real, lam.imag, omega.real,
                                     omega.imag, gamma.real, gamma.imag]))
        ok = bool(finite) and abs(lam) <= LAM_LIMIT
        if self.singular_time is not None and t >= self.singular_time:
            ok = False
        return FactorSample(t=float(t), alpha=alpha, rho=rho,
                            lam=complex(lam), omega=complex(omega),
                            gamma=complex(gamma), valid=ok)


@dataclass(frozen=True)
class ConjugacyReport:
    max_conj_residual: float
    max_im_omega: float


def gamma_conjugacy_check(factors: DisentangledFactors) -> ConjugacyReport:
    """Constant-phase identities: Gamma = -conj(Lambda) and Omega real.
    Evaluated over the valid samples only."""
    m = factors.valid
    if not np.any(m):
        return ConjugacyReport(math.nan, math.nan)
    conj_res = float(np.max(np.abs(factors.gamma[m] + np.conj(factors.lam[m]))))
    im_om = float(np.max(np.abs(factors.omega[m].imag)))
    return ConjugacyReport(max_conj_residual=conj_res, max_im_omega=im_om)


# ---------------------------------------------------------------------------
# numeric route

def _integrate(scenario: Scenario, t: float, tol: float):
    """Dense solution of i dS/ds = W(s) S, S(0) = I, on [0, t]: a callable
    whose rows at s are S11, S12, S21, S22, with the solver steps in .ts."""
    def rhs(s, y):
        w11, w22, w12 = scenario.coupling(s)
        w = np.array([[w11, w12], [np.conj(w12), w22]], dtype=complex)
        return (-1j * w @ y.reshape(2, 2)).ravel()

    y0 = np.eye(2, dtype=complex).ravel()
    sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=tol, atol=tol,
                    dense_output=True)
    if sol.status != 0:
        raise StepUnderflow(sol.message)
    return sol.sol


def _diag(scenario: Scenario, times) -> np.ndarray:
    """alpha and rho at each time, as the two rows of one array."""
    return np.array([scenario.diag_integrals(float(t)) for t in times],
                    dtype=float).reshape(-1, 2).T


def _chart_end(scenario: Scenario, dense, ts):
    """First local minimum of |S22| where |S12/S22| reaches LAM_LIMIT (or
    None), and the minima before it; each minimum sampled at ts is refined
    to the root of d|S22|^2/ds = 2 Im(conj(w12 S22) S12) around it."""
    def slope(s):
        y = dense(s)
        return np.imag(np.conj(scenario.coupling(s)[2] * y[3]) * y[1])

    mag = np.abs(dense(ts)[3])
    right = np.append(mag[2:], np.inf)
    near = []
    for i in np.nonzero((mag[1:] < mag[:-1]) & (mag[1:] <= right))[0] + 1:
        lo, hi = ts[i - 1], ts[min(i + 1, ts.size - 1)]
        t = brentq(slope, lo, hi) if slope(lo) < 0.0 < slope(hi) else ts[i]
        y = dense(t)
        if abs(y[1]) >= LAM_LIMIT * abs(y[3]):
            return float(t), np.array(near)
        near.append(t)
    return None, np.array(near)


def solve_riccati_numeric(scenario: Scenario, t_end: float,
                          tol: float = 1e-10,
                          grid=None) -> DisentangledFactors:
    """Read (Lambda, Omega, Gamma) off one adaptive integration of S.  With
    G = e^{i alpha/2} diag(e^{i rho/2}, e^{-i rho/2}) S, Lambda = G12/G22,
    Gamma = G21/G22 and Omega = -2 log G22, arg G22 unwrapped along the
    solver steps, the grid and the near-zeros of |S22| (the branch moves
    only Im Omega, by 4 pi k, which no Gauss product sees).  The chart
    ends at the first local minimum of |S22| where |Lambda| reaches
    LAM_LIMIT; samples from that singular time on are NaN and invalid."""
    if grid is None:
        grid = np.linspace(0.0, t_end, 201)
    grid = np.asarray(grid, dtype=float)
    if grid.size and (grid.min() < 0.0 or grid.max() > t_end):
        raise ValueError(f"grid leaves the span [0, {t_end}]")
    alpha, rho = _diag(scenario, grid)

    if t_end == 0.0:
        z = np.zeros(grid.size, dtype=complex)
        return DisentangledFactors(
            scenario=scenario, ordering="standard", t=grid, alpha=alpha,
            rho=rho, lam=z, omega=z.copy(), gamma=z.copy(),
            valid=np.ones(grid.size, dtype=bool),
            _eval=lambda t: (0j, 0j, 0j),
            s_dense=lambda t: np.eye(2, dtype=complex))

    dense = _integrate(scenario, t_end, tol)
    steps = np.union1d(dense.ts, grid)
    singular_time, near = _chart_end(scenario, dense, steps)
    stop = math.inf if singular_time is None else singular_time
    # near-zeros of |S22| join the unwrapping samples: each splits the
    # fast half turn of arg G22 there into two quarter turns
    ts = np.union1d(steps[steps < stop], near)

    def gauss(times):
        alpha, rho = _diag(scenario, times)
        s = np.exp(0.5j * (alpha - rho)) * dense(times)
        return np.exp(1j * rho) * s[1], s[2], s[3]     # G12, G21, G22

    arg_ts = np.unwrap(np.angle(gauss(ts)[2]))

    def read(times):
        g12, g21, g22 = gauss(times)
        arg = np.angle(g22)
        ref = arg_ts[np.searchsorted(ts, times, side="right") - 1]
        arg += 2.0 * math.pi * np.round((ref - arg) / (2.0 * math.pi))
        with np.errstate(divide="ignore", invalid="ignore"):
            return (g12 / g22, -2.0 * (np.log(np.abs(g22)) + 1j * arg),
                    g21 / g22)

    past = grid >= stop
    lam, omega, gamma = (np.where(past, np.nan, v) for v in read(grid))
    valid = (np.abs(lam) <= LAM_LIMIT) & np.isfinite(omega) & np.isfinite(gamma)

    def evaluate(t):
        top = min(t_end, stop)
        if t > top + 1e-12:
            raise ChartSingularity(
                f"factor chart singular before t = {t:.6g}",
                singular_time=singular_time)
        return tuple(complex(v[0]) for v in read(np.array([min(t, top)])))

    return DisentangledFactors(
        scenario=scenario, ordering="standard", t=grid, alpha=alpha, rho=rho,
        lam=lam, omega=omega, gamma=gamma, valid=valid,
        singular_time=singular_time, _eval=evaluate,
        s_dense=lambda t: dense(t).reshape(2, 2))


# ---------------------------------------------------------------------------
# closed forms, standard ordering

def _branch_index(x):
    return np.floor(x / math.pi + 0.5)


def _phase_family_values(eta0, w0, eps, phi_t, phi0, phi_tilde, t):
    """Shared evaluator for the constant/linear/general phase families.

    With delta = sqrt(4 eta0^2 + w0^2) and the rotated angle
    x = delta phi_tilde / (2 w0) (reducing to eta0 t when w0 = 0), the
    coefficients stay continuous across tan poles by unwrapping

        A(x) = arctan((w0/delta) tan x) + sign(w0) pi floor(x/pi + 1/2).
    """
    t = np.asarray(t, dtype=float)
    phi_t = np.asarray(phi_t, dtype=float)
    phi_tilde = np.asarray(phi_tilde, dtype=float)
    delta = math.hypot(2.0 * eta0, w0)
    if delta < 1e-150:
        # eta0 (and any phase slope) this small leaves the factors at zero
        # to double precision, and delta^2 would underflow below
        z = np.zeros_like(t, dtype=complex)
        return z, z.copy(), z.copy()
    if w0 == 0.0:
        x = eta0 * t
        k = _branch_index(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            tanx = np.tan(x)
            lam = eps * tanx * np.exp(1j * phi_t)
            re_om = -2.0 * np.log(np.abs(np.cos(x)))
            gam = -eps * tanx * np.exp(-1j * phi0)
        im_om = phi_tilde - 2.0 * math.pi * k
        return lam, re_om + 1j * im_om, gam
    x = delta * phi_tilde / (2.0 * w0)
    k = _branch_index(x)
    a_unwrapped = (np.arctan((w0 / delta) * np.tan(x))
                   + math.copysign(math.pi, w0) * k)
    # repair the isolated points where tan overflows
    a_unwrapped = np.where(np.isfinite(a_unwrapped), a_unwrapped,
                           math.copysign(math.pi / 2, w0)
                           + math.copysign(math.pi, w0) * k)
    sinx, cosx = np.sin(x), np.cos(x)
    den = np.sqrt((delta * cosx) ** 2 + (w0 * sinx) ** 2)
    rot = np.exp(-1j * a_unwrapped)
    lam = 2.0 * eps * eta0 * np.exp(1j * phi_t) * sinx * rot / den
    omega = np.log(delta ** 2 / den ** 2) + 1j * (phi_tilde - 2.0 * a_unwrapped)
    gam = -2.0 * eps * eta0 * np.exp(-1j * phi0) * sinx * rot / den
    return lam, omega, gam


def _as_phase_family(scenario):
    """(eta0, w0, eps, phi callable, phi0, phi_tilde callable) with the
    convention that x = delta phi_tilde / (2 w0), or None if the scenario
    is not in the phase-closed catalog."""
    if isinstance(scenario, ConstantPhaseScenario):
        return (scenario.eta0, 0.0, 1, scenario.phi, scenario.phi0,
                scenario.phi_tilde)
    if isinstance(scenario, LinearPhaseScenario):
        return (scenario.eta0, scenario.w0, 1, scenario.phi, scenario.phi0,
                scenario.phi_tilde)
    if isinstance(scenario, GeneralPhaseScenario):
        return (scenario.eta0, scenario.w0, scenario.eps, scenario.phi,
                scenario.phi0, scenario.phi_tilde)
    if isinstance(scenario, (AllConstantScenario, IsotropicConstantScenario)):
        w11, w22, w12 = scenario.coupling(0.0)
        eta0 = abs(w12)
        w0 = w11 - w22
        phi0 = float(np.angle(-1j * w12)) if w12 != 0 else 0.0
        return (eta0, w0, 1, lambda t: phi0 + w0 * np.asarray(t, float),
                phi0, lambda t: w0 * np.asarray(t, float))
    if isinstance(scenario, (RhoConstantScenario, LogRhoScenario)):
        phi0 = scenario.phi(0.0)
        return (scenario.eta0, scenario.w0, 1,
                np.vectorize(scenario.phi), phi0,
                np.vectorize(scenario.phi_tilde))
    return None


def closed_factors(scenario: Scenario, t):
    """Closed-form (Lambda, Omega, Gamma) in the standard ordering for any
    scenario in the phase catalog.  Vectorized over t; values at a chart
    pole come out infinite and must be screened by the caller."""
    fam = _as_phase_family(scenario)
    if fam is None:
        raise ValueError(f"no standard-ordering closed factors for case "
                         f"{scenario.case}")
    eta0, w0, eps, phi_fn, phi0, phi_tilde_fn = fam
    scalar = np.isscalar(t)
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    lam, omega, gam = _phase_family_values(
        eta0, w0, eps, phi_fn(tt), phi0, phi_tilde_fn(tt), tt)
    if scalar:
        return complex(lam[0]), complex(omega[0]), complex(gam[0])
    return lam, omega, gam


def factors_on_grid(scenario: Scenario, grid,
                    ordering: str = "standard") -> DisentangledFactors:
    """Package closed-form coefficients as a DisentangledFactors with an
    exact evaluator.  ordering="alternative" applies the chart relations
    (or the dedicated alternative evaluators for the showcase cases)."""
    grid = np.asarray(grid, dtype=float)
    alpha, rho = _diag(scenario, grid)

    if ordering == "standard":
        def evaluate(t):
            return closed_factors(scenario, float(t))
    elif ordering == "alternative":
        def evaluate(t):
            return alt_factors(scenario, float(t))
    else:
        raise ValueError(f"unknown ordering {ordering!r}")

    lam = np.empty(grid.size, dtype=complex)
    omega = np.empty(grid.size, dtype=complex)
    gamma = np.empty(grid.size, dtype=complex)
    for i, t in enumerate(grid):
        try:
            lam[i], omega[i], gamma[i] = evaluate(t)
        except ChartSingularity:
            lam[i] = omega[i] = gamma[i] = complex(np.inf, np.inf)
    finite = np.isfinite(lam) & np.isfinite(omega) & np.isfinite(gamma)
    valid = finite & (np.abs(lam) <= LAM_LIMIT)
    singular = None
    bad = np.nonzero(~valid)[0]
    if bad.size:
        singular = float(grid[bad[0]])
    return DisentangledFactors(
        scenario=scenario, ordering=ordering, t=grid, alpha=alpha, rho=rho,
        lam=lam, omega=omega, gamma=gamma, valid=valid,
        singular_time=singular, _eval=evaluate)


# ---------------------------------------------------------------------------
# alternative ordering

def alternative_from_standard(lam, omega, gamma, rho):
    """Chart relations between the orderings (exact, not asymptotic)."""
    phase = np.exp(-1j * np.asarray(rho, dtype=float))
    return lam * phase, omega - 1j * np.asarray(rho, dtype=float), gamma


def alt_factors(scenario: Scenario, t: float):
    """Alternative-ordering (Lambda~, Omega~, Gamma~) at time t, using the
    dedicated evaluator for the showcase cases and the chart relations on
    top of the standard closed forms otherwise."""
    if isinstance(scenario, QuadraticPhaseScenario):
        return alt_factors_quadratic_phase(scenario.eta0, scenario.theta0, t)
    if isinstance(scenario, FresnelNormScenario):
        return alt_factors_fresnel(scenario.w12_0, scenario.nu,
                                   (scenario.theta_v0, scenario.theta_u0), t)
    lam, omega, gam = closed_factors(scenario, t)
    _, rho = scenario.diag_integrals(t)
    return alternative_from_standard(lam, omega, gam, rho)


def alt_factors_theta_u_zero(scenario: Scenario, t: float,
                             drift_tol: float = 1e-8):
    """Alternative ordering for couplings whose eta phase is frozen
    (theta12 + rho constant).  With q(t) = int_0^t |w12| and the phase
    offset theta_v0 = angle(eta(0)) + pi:

        Lambda~ = -tan(q) e^{i theta_v0} e^{-i rho(t)}
        Omega~  = 2 ln|sec q| - i (2 pi floor(q/pi + 1/2) + rho(t))
        Gamma~  =  tan(q) e^{-i theta_v0}

    Raises ConditionViolated when the eta phase actually drifts.
    """
    probes = np.linspace(0.0, t, 17) if t > 0 else np.array([0.0])
    phi0 = None
    for s in probes:
        e = scenario.eta(s)
        if abs(e) < 1e-300:
            continue
        ang = float(np.angle(e))
        if phi0 is None:
            phi0 = ang
            continue
        drift = (ang - phi0 + math.pi) % (2.0 * math.pi) - math.pi
        if abs(drift) > drift_tol:
            raise ConditionViolated(
                f"eta phase drifts by {drift:.3e} at s = {s:.6g}; "
                "the frozen-phase alternative form does not apply")
    if phi0 is None:
        return 0j, 0j, 0j
    theta_v0 = phi0 + math.pi

    def norm(s):
        _, _, w12 = scenario.coupling(s)
        return abs(w12)
    q, _ = quad(norm, 0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)
    _, rho = scenario.diag_integrals(t)
    k = math.floor(q / math.pi + 0.5)
    tanq = math.tan(q)
    lam = -tanq * cmath.exp(1j * (theta_v0 - rho))
    omega = (-2.0 * math.log(abs(math.cos(q)))
             - 1j * (2.0 * math.pi * k + rho))
    gam = tanq * cmath.exp(-1j * theta_v0)
    return lam, omega, gam


def _quadratic_u(eta0, theta0, s, tol=1e-14):
    """u(s) = 1F1(i eta0^2 / 4 theta0; 1/2; i theta0 s^2) and its derivative
    -eta0^2 s 1F1(1 + i eta0^2 / 4 theta0; 3/2; i theta0 s^2)."""
    a = 1j * eta0 ** 2 / (4.0 * theta0)
    z = 1j * theta0 * s * s
    u = kummer_1f1(a, 0.5, z, tol).value
    du = -eta0 ** 2 * s * kummer_1f1(a + 1.0, 1.5, z, tol).value
    return u, du


def alt_factors_quadratic_phase(eta0: float, theta0: float, t: float,
                                scenario: Scenario | None = None,
                                tol: float = 1e-13):
    """Alternative ordering for eta = eta0 e^{-i theta0 s^2} through the
    confluent hypergeometric solution u(s) of
    u'' - (d/ds ln conj(eta)) u' + eta0^2 u = 0, u(0)=1, u'(0)=0:

        Lambda~ = -u'(t) / (conj(eta(t)) u(t)) e^{-i rho}
        Omega~  = -2 log u(t) - i rho
        Gamma~  = -int_0^t conj(eta(s)) / u(s)^2 ds.
    """
    if scenario is not None:
        _, rho = scenario.diag_integrals(t)
    else:
        rho = 0.0
    u, du = _quadratic_u(eta0, theta0, t, tol)
    if abs(u) < 1.0 / LAM_LIMIT:
        raise ChartSingularity("u(t) vanished: alternative chart singular",
                               singular_time=t)
    eta_conj = eta0 * cmath.exp(1j * theta0 * t * t)
    lam = -du / (eta_conj * u) * cmath.exp(-1j * rho)
    omega = -2.0 * cmath.log(u) - 1j * rho

    def integrand_re(s):
        us, _ = _quadratic_u(eta0, theta0, s, tol)
        return (eta0 * cmath.exp(1j * theta0 * s * s) / us ** 2).real

    def integrand_im(s):
        us, _ = _quadratic_u(eta0, theta0, s, tol)
        return (eta0 * cmath.exp(1j * theta0 * s * s) / us ** 2).imag

    re, _ = quad(integrand_re, 0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)
    im, _ = quad(integrand_im, 0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)
    gam = -complex(re, im)
    return lam, omega, gam


def alt_factors_fresnel(w12_0: float, nu: float, theta_offsets, t: float,
                        tol: float = 1e-14):
    """Alternative ordering for |w12| = w12_0 |cos(nu s^2)| with the phase
    slaved to theta_offsets = (theta_v0, theta_u0), valid on the first
    non-negative stretch nu t^2 <= pi/2 where

        psi(t) = w12_0 sqrt(pi / 2 nu) C(sqrt(2 nu / pi) t)

    (C the Fresnel cosine integral), q = gd(psi), theta_v = q + theta_v0,
    theta_u = tan(q) - q + theta_u0.  The factors come from the linearizing
    solution u = cos(q) e^{i theta_u}, so only the increment theta_u -
    theta_u0 enters Omega~ and Gamma~; the offsets themselves fix the
    coupling phase, not the chart:

        Lambda~ = -tan(q) e^{i (theta_v - theta_u)}
        Omega~  = ln sec^2(q) - 2 i (theta_u - theta_u0)
        Gamma~  =  tan(q) e^{-i (tan(q) + theta_v0 - theta_u0)}.
    """
    theta_v0, theta_u0 = theta_offsets
    if w12_0 <= 0 or nu <= 0:
        raise ValueError("w12_0 and nu must be positive")
    if nu * t * t > math.pi / 2.0 + 1e-12:
        raise ValueError("closed Fresnel form only valid while nu t^2 <= pi/2")
    scale = math.sqrt(math.pi / (2.0 * nu))
    psi = w12_0 * scale * fresnel_c(t / scale, tol).value.real
    q = 2.0 * math.atan(math.tanh(0.5 * psi))
    theta_v = q + theta_v0
    theta_u = math.tan(q) - q + theta_u0
    tanq = math.tan(q)
    lam = -tanq * cmath.exp(1j * (theta_v - theta_u))
    omega = complex(-2.0 * math.log(abs(math.cos(q))),
                    -2.0 * (theta_u - theta_u0))
    gam = tanq * cmath.exp(-1j * (tanq + theta_v0 - theta_u0))
    return lam, omega, gam
