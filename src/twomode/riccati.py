"""Gauss-factorization coefficients for the off-diagonal flow.

The su(2) part of the propagator is written, in the standard ordering, as
exp(-i alpha N) exp(-i rho J3) exp(Lambda J+) exp(Omega J3) exp(Gamma J-).
Lambda obeys the Riccati equation

    dLambda/ds = eta(s) + conj(eta(s)) Lambda^2,        Lambda(0) = 0,

with Omega = 2 int conj(eta) Lambda and Gamma = -int conj(eta) e^{Omega}.
That system is the projective image of i dS/ds = W S (Wei & Norman).  Every
standard factor set is read off one Gauss-frame matrix

    G = e^{i alpha/2} diag(e^{i rho/2}, e^{-i rho/2}) S

by one read-off, _read_off: Lambda = G12/G22, Gamma = G21/G22 and
Omega = -2 log G22, with arg G22 on the 2 pi branch nearest a reference
arg.  The numeric route takes G from one flow of S and unwraps arg G22
along its step edges; every phase family declares one closed block G(t)
(_closed_block) with its own reference arg, and smatrix_closed unframes
the same block.  One rule (_regular) decides whether a sample lies on the
chart.

The alternative ordering exp(Lambda~ J+) exp(Omega~ J3) exp(Gamma~ J-)
(no separate rho rotation) relates to the standard one by

    Lambda~ = e^{-i rho} Lambda,   Omega~ = Omega - i rho,   Gamma~ = Gamma.

QuadraticPhase and FresnelNorm declare their own closed alternative chart
(Scenario.alt_chart); QuadraticPhase reads Gamma~ off a Wronskian.

Every flow along a scenario (S, and with the drives S, c and P) is one
sixth-order Magnus flow (magnus.flow).  The scenario's breakpoints(t) are
step edges of that flow, so no step straddles one: an error estimate from
smooth steps misses a jump in a higher derivative, as at a Tabulated
sample or a kink of FresnelNorm's |cos(nu s^2)|.

Lambda diverging (a chart singularity, S22 -> 0) is a property of the
coordinate patch, not of the underlying unitary; it is reported through
validity flags and the first singular time rather than hidden.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from . import magnus
from .scenario import PhaseFamily, Scenario

LAM_LIMIT = 1e8


class ChartSingularity(Exception):
    """Factorization chart coefficient diverged: the Gauss patch ended."""

    def __init__(self, message, singular_time=None):
        super().__init__(message)
        self.singular_time = singular_time


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
    """Factor coefficients sampled on a grid, with an exact evaluator _eval,
    t -> (Lambda, Omega, Gamma), for any time (dense flow output or closed
    form).  Numeric factors carry s_dense, which gives their S at a time or
    an array of times as an (..., 2, 2) stack.

    at(t) reads the stored sample i when t is exactly the grid time t[i],
    valid[i] is set and t lies before singular_time (or there is none).
    Any other time (off the grid, an invalid sample, or a grid time at or
    past the singular time) goes through diag_integrals and _eval, so a
    numeric chart still raises ChartSingularity past its end, and
    ValueError past the end of its flow when it has no singular time, and
    a closed chart reads invalid from its first invalid sample on."""

    scenario: Scenario
    ordering: str
    t: np.ndarray
    alpha: np.ndarray
    rho: np.ndarray
    lam: np.ndarray
    omega: np.ndarray
    gamma: np.ndarray
    valid: np.ndarray
    _eval: Callable
    singular_time: float | None = None
    s_dense: Callable | None = None

    def at(self, t: float) -> FactorSample:
        i = int(np.searchsorted(self.t, t))
        if (i < self.t.size and self.t[i] == t and self.valid[i]
                and (self.singular_time is None or t < self.singular_time)):
            return FactorSample(
                t=float(t), alpha=float(self.alpha[i]),
                rho=float(self.rho[i]), lam=complex(self.lam[i]),
                omega=complex(self.omega[i]), gamma=complex(self.gamma[i]),
                valid=True)
        alpha, rho = self.scenario.diag_integrals(t)
        lam, omega, gamma = self._eval(t)
        ok = bool(_regular(lam, omega, gamma))
        if self.singular_time is not None and t >= self.singular_time:
            ok = False
        return FactorSample(t=float(t), alpha=alpha, rho=rho,
                            lam=complex(lam), omega=complex(omega),
                            gamma=complex(gamma), valid=ok)


def _regular(lam, omega, gamma):
    """Whether chart samples are regular: Omega and Gamma finite and
    |Lambda| <= LAM_LIMIT (which a NaN Lambda fails)."""
    return (np.abs(lam) <= LAM_LIMIT) & np.isfinite(omega) & np.isfinite(gamma)


def _read_off(g12, g21, g22, ref):
    """(Lambda, Omega, Gamma) from the Gauss-frame entries G12, G21, G22:
    Lambda = G12/G22, Gamma = G21/G22 and Omega = -2 (log|G22| + i arg G22)
    with arg G22 on the 2 pi branch nearest ref.  The branch moves only
    Im Omega, by 4 pi k, which no Gauss product sees."""
    arg = np.angle(g22)
    arg += 2.0 * math.pi * np.round((ref - arg) / (2.0 * math.pi))
    with np.errstate(divide="ignore", invalid="ignore"):
        return g12 / g22, -2.0 * (np.log(np.abs(g22)) + 1j * arg), g21 / g22


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

def _diag(scenario: Scenario, times) -> np.ndarray:
    """alpha and rho at each time, as the two rows of one array."""
    times = np.asarray(times, dtype=float)
    return np.array([np.broadcast_to(v, times.shape)
                     for v in scenario.diag_integrals(times)], dtype=float)


def _chart_end(scenario: Scenario, dense, ts):
    """First local minimum of |S22| where |S12/S22| reaches LAM_LIMIT (or
    None), and the minima before it; each minimum sampled at ts is refined
    to the root of d|S22|^2/ds = 2 Im(conj(w12 S22) S12) around it."""
    def slope(s):
        y = dense(s)
        return np.imag(np.conj(scenario.coupling(s)[2] * y[..., 1, 1])
                       * y[..., 0, 1])

    mag = np.abs(dense(ts)[..., 1, 1])
    right = np.append(mag[2:], np.inf)
    near = []
    for i in np.nonzero((mag[1:] < mag[:-1]) & (mag[1:] <= right))[0] + 1:
        lo, hi = ts[i - 1], ts[min(i + 1, ts.size - 1)]
        t = brentq(slope, lo, hi) if slope(lo) < 0.0 < slope(hi) else ts[i]
        y = dense(t)
        if abs(y[..., 0, 1]) >= LAM_LIMIT * abs(y[..., 1, 1]):
            return float(t), np.array(near)
        near.append(t)
    return None, np.array(near)


def solve_riccati_numeric(scenario: Scenario, t_end: float,
                          tol: float = 1e-10,
                          grid=None) -> DisentangledFactors:
    """Read (Lambda, Omega, Gamma) off one Magnus flow of S with every grid
    time a step edge: the Gauss frame G of S through _read_off, with arg
    G22 unwrapped along the step edges and the near-zeros of |S22|.  The
    chart ends at the first local minimum of |S22| where |Lambda| reaches
    LAM_LIMIT; samples from that singular time on are NaN and invalid."""
    if grid is None:
        # a t_end that is not finite gives NaN samples, which magnus.flow
        # refuses together with t_end
        with np.errstate(invalid="ignore"):
            grid = np.linspace(0.0, t_end, 201)
    grid = np.asarray(grid, dtype=float)
    flow = magnus.flow(scenario, t_end, tol, grid)
    t_end = float(flow.ts[-1])
    alpha, rho = _diag(scenario, grid)
    dense = functools.partial(flow, s_only=True)
    singular_time, near = _chart_end(scenario, dense, flow.ts)
    stop = math.inf if singular_time is None else singular_time
    # near-zeros of |S22| join the unwrapping samples: each splits the
    # fast half turn of arg G22 there into two quarter turns
    ts = np.union1d(flow.ts[flow.ts < stop], near)

    def gauss(times):
        alpha, rho = _diag(scenario, times)
        s = np.exp(0.5j * (alpha - rho))[..., None, None] * dense(times)
        # G12, G21, G22
        return np.exp(1j * rho) * s[..., 0, 1], s[..., 1, 0], s[..., 1, 1]

    arg_ts = np.unwrap(np.angle(gauss(ts)[2]))

    def read(times):
        ref = arg_ts[np.searchsorted(ts, times, side="right") - 1]
        return _read_off(*gauss(times), ref)

    past = grid >= stop
    lam, omega, gamma = (np.where(past, np.nan, v) for v in read(grid))
    valid = _regular(lam, omega, gamma)

    def evaluate(t):
        top = min(t_end, stop)
        if t > top + 1e-12:
            if singular_time is not None:
                raise ChartSingularity(
                    f"factor chart singular before t = {t:.6g}",
                    singular_time=singular_time)
            raise ValueError(f"factor time {t} is outside the factors' "
                             f"span [0, {t_end}]")
        return tuple(complex(v[0]) for v in read(np.array([min(t, top)])))

    return DisentangledFactors(
        scenario=scenario, ordering="standard", t=grid, alpha=alpha, rho=rho,
        lam=lam, omega=omega, gamma=gamma, valid=valid,
        singular_time=singular_time, _eval=evaluate,
        s_dense=dense)


# ---------------------------------------------------------------------------
# closed forms, standard ordering

def _closed_block(fam: PhaseFamily, t):
    """A phase family's closed Gauss-frame block at a time or 1-D array of
    times, as its entries (G11, G12, G21, G22), and the reference arg of
    G22.  With x the rotation angle, c, s = cos x, sin x, r = w0/delta,
    a = 2 eps eta0/delta (r = a = 0 at delta = 0) and u = e^{i phi~/2}:

        G = [[u (c - i r s),            a u e^{i phi0} s],
             [-a conj(u) e^{-i phi0} s, conj(u) (c + i r s)]].

    arg(c + i r s) stays within pi/2 of sign(w0) x, so the reference arg
    sign(w0) x - phi~/2 picks the branch that follows G22 continuously
    from t = 0; w0 = -0.0 counts as positive, like w0 = 0."""
    delta = fam.delta
    r = fam.w0 / delta if delta else 0.0
    a = 2.0 * fam.eps * fam.eta0 / delta if delta else 0.0
    x = fam.angle(t)
    c, s = np.cos(x), np.sin(x)
    half = 0.5 * np.asarray(fam.phi_tilde(t), dtype=float)
    u = np.exp(1j * half)
    ubar = np.conj(u)
    ep = cmath.exp(1j * fam.phi0)
    block = (u * (c - 1j * r * s), a * ep * u * s,
             -a * ep.conjugate() * ubar * s, ubar * (c + 1j * r * s))
    return block, (-x if fam.w0 < 0 else x) - half


def closed_factors(scenario: Scenario, t):
    """Closed-form (Lambda, Omega, Gamma) in the standard ordering for any
    scenario with a phase family, at a time or 1-D array of times; values
    at a chart pole come out infinite and must be screened by the
    caller."""
    fam = scenario.phase_family()
    if fam is None:
        raise ValueError(f"no standard-ordering closed factors for case "
                         f"{scenario.case}")
    (_, g12, g21, g22), ref = _closed_block(fam, np.asarray(t, dtype=float))
    return _read_off(g12, g21, g22, ref)


def factors_on_grid(scenario: Scenario, grid,
                    ordering: str = "standard") -> DisentangledFactors:
    """Package closed-form coefficients as a DisentangledFactors with an
    exact evaluator: closed_factors, or alt_factors for
    ordering="alternative", in one call on the whole grid."""
    charts = {"standard": closed_factors, "alternative": alt_factors}
    if ordering not in charts:
        raise ValueError(f"unknown ordering {ordering!r}")
    chart = charts[ordering]
    grid = np.asarray(grid, dtype=float)
    alpha, rho = _diag(scenario, grid)
    lam, omega, gamma = (np.asarray(v, dtype=complex)
                         for v in chart(scenario, grid))
    valid = _regular(lam, omega, gamma)
    bad = np.nonzero(~valid)[0]
    singular = float(grid[bad[0]]) if bad.size else None
    return DisentangledFactors(
        scenario=scenario, ordering=ordering, t=grid, alpha=alpha, rho=rho,
        lam=lam, omega=omega, gamma=gamma, valid=valid,
        singular_time=singular, _eval=lambda t: chart(scenario, float(t)))


# ---------------------------------------------------------------------------
# alternative ordering

def alternative_from_standard(lam, omega, gamma, rho):
    """Chart relations between the orderings (exact, not asymptotic)."""
    phase = np.exp(-1j * np.asarray(rho, dtype=float))
    return lam * phase, omega - 1j * np.asarray(rho, dtype=float), gamma


def alt_factors(scenario: Scenario, t):
    """Alternative-ordering (Lambda~, Omega~, Gamma~) at a time or a 1-D
    array of times: the case's own alt_chart where it declares one, the
    chart relations on top of the standard closed forms otherwise."""
    chart = scenario.alt_chart(t)
    if chart is not None:
        return chart
    _, rho = scenario.diag_integrals(t)
    return alternative_from_standard(*closed_factors(scenario, t), rho)
