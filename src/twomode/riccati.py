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
(_closed_block) with its own reference arg.  One helper, _unframe, maps G
back to S, for smatrix_closed and smatrix_from_factors alike.  One rule
(_regular) decides whether a sample lies on the chart.

The alternative ordering exp(Lambda~ J+) exp(Omega~ J3) exp(Gamma~ J-)
(the standard one with rho = 0 in the Gauss frame) relates to it by

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
class DisentangledFactors:
    """Factor coefficients sampled on a grid, with an exact evaluator _eval,
    times -> (Lambda, Omega, Gamma) on a 1-D array of times (dense flow
    output or closed form).  Numeric factors carry s_dense, which gives
    their S at a time or an array of times as an (..., 2, 2) stack."""

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

    def sample(self, t):
        """(alpha, rho, lam, omega, gamma, valid) at a time or a 1-D array
        of times, in the shape of t.  The grid time t[i], valid and before
        singular_time, reads sample i; all other times go through
        diag_integrals and _eval in one call, so a numeric chart raises
        past its end (ChartSingularity, or ValueError past its flow) and a
        closed chart reads invalid from its first invalid sample on.  A
        negative or non-finite time is refused with ValueError."""
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        end = math.inf if self.singular_time is None else self.singular_time
        fields = (self.alpha, self.rho, self.lam, self.omega, self.gamma,
                  self.valid)
        if self.t.size:
            # all grid times but the last: each index stays on the grid
            i = self.t[:-1].searchsorted(flat)
            out = [v[i] for v in fields]
            off = (self.t[i] != flat) | ~out[5] | (flat >= end)
        else:
            out = [np.empty(flat.shape, v.dtype) for v in fields]
            off = np.ones(flat.shape, dtype=bool)
        times = flat[off]
        if times.size:
            magnus.refuse_bad_times(times, "factor")
            fresh = (*self.scenario.diag_integrals(times), *self._eval(times))
            for v, new in zip(out, fresh):
                v[off] = new
            out[5][off] = _regular(*fresh[2:]) & (times < end)
        return tuple(out) if t.ndim else tuple(v[0] for v in out)


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


# ---------------------------------------------------------------------------
# numeric route

def _diag(scenario: Scenario, times) -> np.ndarray:
    """alpha and rho at each time, as the two rows of one array."""
    times = np.asarray(times, dtype=float)
    return np.array([np.broadcast_to(v, times.shape)
                     for v in scenario.diag_integrals(times)], dtype=float)


def _root(f, lo, hi, f_lo, f_hi):
    """The root of f in [lo, hi] with f_lo = f(lo) < 0 < f_hi = f(hi), by
    regula falsi with the Illinois rule: an end left in place by two steps
    in a row has its value halved, which makes the steps converge
    superlinearly.  Stops, at machine precision, when a step lands on an
    end or on a zero of f."""
    moved = 0
    for _ in range(100):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            break
        fx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo, f_lo = x, fx
            f_hi *= 0.5 if moved < 0 else 1.0
            moved = -1
        else:
            hi, f_hi = x, fx
            f_lo *= 0.5 if moved > 0 else 1.0
            moved = 1
    return min(max(x, lo), hi)


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
        f_lo = slope(lo)
        if f_lo < 0.0 < (f_hi := slope(hi)):
            t = _root(slope, lo, hi, f_lo, f_hi)
        else:
            t = ts[i]
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
    dense = magnus.flow(scenario, t_end, tol, grid)
    t_end = float(dense.ts[-1])
    alpha, rho = _diag(scenario, grid)
    singular_time, near = _chart_end(scenario, dense, dense.ts)
    stop = math.inf if singular_time is None else singular_time
    # near-zeros of |S22| join the unwrapping samples: each splits the
    # fast half turn of arg G22 there into two quarter turns
    ts = magnus.union(dense.ts[dense.ts < stop], near)

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

    def evaluate(times):
        top = min(t_end, stop)
        over = times[times > top + 1e-12]
        if over.size:
            if singular_time is not None:
                raise ChartSingularity(
                    f"factor chart singular before t = {over[0]:.6g}",
                    singular_time=singular_time)
            raise ValueError(f"factor time {over[0]} is outside the "
                             f"factors' span [0, {t_end}]")
        return read(np.minimum(times, top))

    return DisentangledFactors(
        scenario=scenario, ordering="standard", t=grid, alpha=alpha, rho=rho,
        lam=lam, omega=omega, gamma=gamma, valid=valid,
        singular_time=singular_time, _eval=evaluate, s_dense=dense)


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
    from t = 0; w0 = -0.0 counts as positive, like w0 = 0.  A negative or
    non-finite time is refused with ValueError."""
    t = np.asarray(t, dtype=float)
    magnus.refuse_bad_times(t, "closed")
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


def _unframe(alpha, rho, g11, g12, g21, g22):
    """S = e^{-i alpha/2} diag(e^{-i rho/2}, e^{i rho/2}) G from the
    Gauss-frame entries, all at one time (a 2x2 matrix) or along a 1-D
    array of times (an (n, 2, 2) stack)."""
    e1 = np.exp(-0.5j * (alpha + rho))
    e2 = np.exp(-0.5j * (alpha - rho))
    # built with the matrix axes first and transposed: .T reverses every
    # axis, which puts the times in front and swaps rows and columns back
    return np.array([[e1 * g11, e2 * g21], [e1 * g12, e2 * g22]],
                    dtype=complex).T


def closed_factors(scenario: Scenario, t):
    """Closed-form (Lambda, Omega, Gamma) in the standard ordering for any
    scenario with a phase family, at a time or 1-D array of times; values
    at a chart pole come out infinite and must be screened by the
    caller."""
    fam = scenario.phase_family()
    if fam is None:
        raise ValueError(f"no standard-ordering closed factors for case "
                         f"{scenario.case}")
    (_, g12, g21, g22), ref = _closed_block(fam, t)
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
    magnus.refuse_bad_times(grid, "factor")
    alpha, rho = _diag(scenario, grid)
    lam, omega, gamma = (np.asarray(v, dtype=complex)
                         for v in chart(scenario, grid))
    valid = _regular(lam, omega, gamma)
    bad = np.nonzero(~valid)[0]
    singular = float(grid[bad[0]]) if bad.size else None
    return DisentangledFactors(
        scenario=scenario, ordering=ordering, t=grid, alpha=alpha, rho=rho,
        lam=lam, omega=omega, gamma=gamma, valid=valid,
        singular_time=singular, _eval=functools.partial(chart, scenario))


# ---------------------------------------------------------------------------
# alternative ordering

def alternative_from_standard(lam, omega, gamma, rho):
    """Chart relations between the orderings (exact, not asymptotic)."""
    phase = np.exp(-1j * np.asarray(rho, dtype=float))
    return lam * phase, omega - 1j * np.asarray(rho, dtype=float), gamma


def alt_factors(scenario: Scenario, t):
    """Alternative-ordering (Lambda~, Omega~, Gamma~) at a time or a 1-D
    array of times: the case's own alt_chart where it declares one, the
    chart relations on top of the standard closed forms otherwise.  A
    negative or non-finite time is refused with ValueError."""
    magnus.refuse_bad_times(np.asarray(t, dtype=float), "closed")
    chart = scenario.alt_chart(t)
    if chart is not None:
        return chart
    _, rho = scenario.diag_integrals(t)
    return alternative_from_standard(*closed_factors(scenario, t), rho)
