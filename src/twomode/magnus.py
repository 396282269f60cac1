"""Sixth-order Magnus flows along a scenario.

Every flow the package takes along a scenario is linear.  S solves
i dS/ds = W(s) S, and the drive amplitudes with the scalar phase solve

    i dc/ds = W c + F,      dP/ds = Re(conj(F) . c) + B.

With P the real part of a complex p, dp/ds = conj(F) . c + B, the drive
flow is linear in (c1, c2, p, 1), with the generator

    [[-i W, 0, -i F], [conj(F), 0, B], [0, 0, 0, 0]]

whose upper-left block is -i W.  Its propagator from 0 to s is
[[S, 0, g], [a, 1, q], [0, 0, 0, 1]]: c(s) = S c(0) + g and
P(s) = Re(a . c(0) + q) from P(0) = 0, so one flow carries S, c and P
together.  The third column and the last row never change, so a drive
flow keeps the 3x3 block [[S, g], [a, q]] (rows c1, c2, p; columns c1,
c2, 1), its generator the 3x3 block [[-i W, -i F], [conj(F), B]], and a
flow of S alone keeps the 2x2 block.  Products of generators and of
propagators run through the two c columns and rows, plus, for
propagators, the fixed entries.

[0, t] is cut at its step edges: 0, the scenario's breakpoints(t), the
requested sample times and t.  Each piece between two edges is split into
n uniform steps.  On a step of length h the generator is sampled at the
three Gauss-Legendre nodes, all steps' nodes in one call of coupling and
of each drive, and combined into the sixth-order Magnus generator of
Blanes, Casas & Ros (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
(2009), section 4; Iserles & Norsett, Phil. Trans. R. Soc. A 357, 983
(1999)):

    a1 = h A2,  a2 = sqrt(15) h (A3 - A1) / 3,  a3 = 10 h (A3 - 2 A2 + A1) / 3,
    C1 = [a1, a2],  C2 = -[a1, 2 a3 + C1] / 60,
    Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240.

Each step is exp(Omega) in closed form, through functions of the 2x2
block at its two eigenvalues, and the steps are multiplied in order by a
prefix scan, which gives the propagator at every step edge.  Inside a
flow the blocks are held steps last, as (dim, dim, steps) arrays, so
every product, bracket and exponential runs over contiguous step arrays.
n starts where h max||W|| <= min(STEP_CAP, 2 tol^(1/6)) on every piece,
from a pre-pass that samples the coupling only; the fixed cap keeps the
step edges bracketing every minimum of |S22| (riccati._s22_minima).  Each
doubling level then samples the generator on the nodes of the mesh and
of its doubling in one call, exponentiates the steps of both in one
pass and scans both in one prefix scan.  When the two agree to tol at
every step edge of the coarser one, the finer is kept; otherwise n
doubles and the next pair is marched.  Off the step edges a flow takes
one partial Magnus step from the left edge of the step that holds the
time, and a time outside [0, t] is refused.
"""

from __future__ import annotations

import math

import numpy as np

STEP_CAP = 0.5          # bound on h max||W|| over every step
MAX_STEPS = 1 << 16     # no refinement past this many steps
_CHUNK = 2048           # steps exponentiated at a time, to bound memory
_NODES = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
_EYE = np.eye(2)[..., None]
# 1/(k+2)! for the Taylor series of phi2, from the highest power down
_PHI2_SERIES = [1.0 / math.factorial(k + 2) for k in range(9, -1, -1)]


def _through_c(p, q):
    """p[:, :2] @ q[:2], block by block, on (dim, dim, ...) stacks with the
    steps last, as two outer products (several times faster than matmul
    on stacks of tiny matrices)."""
    out = p[:, 0, None] * q[None, 0]
    out += p[:, 1, None] * q[None, 1]
    return out


def _bracket(p, q):
    return _through_c(p, q) - _through_c(q, p)


def _after(late, early):
    """The propagators that apply early, then late, step by step."""
    out = _through_c(late, early)
    if out.shape[0] == 3:
        out[2] += early[2]
        out[:, 2] += late[:, 2]
    return out


def _identity(dim):
    """The identity propagator block, (dim, dim)."""
    out = np.zeros((dim, dim), dtype=complex)
    out[0, 0] = out[1, 1] = 1.0
    return out


def _norm(scenario, nodes):
    """||W|| at each node (any shape), from the coupling alone."""
    w11, w22, w12 = scenario.coupling(nodes)
    half = 0.5 * (np.real(w11) - np.real(w22))
    norm = (np.abs(0.5 * (np.real(w11) + np.real(w22)))
            + np.sqrt(half * half + np.abs(w12) ** 2))
    return np.broadcast_to(norm, nodes.shape)


def _generator(scenario, nodes, drives):
    """The generator blocks at nodes of shape (3, steps), as a
    (3, dim, dim, steps) stack: Gauss node first, steps last."""
    w11, w22, w12 = scenario.coupling(nodes)
    dim = 3 if drives else 2
    gen = np.empty((nodes.shape[0], dim, dim) + nodes.shape[1:],
                   dtype=complex)
    gen[:, 0, 0] = -1j * w11
    gen[:, 1, 1] = -1j * w22
    gen[:, 0, 1] = -1j * w12
    gen[:, 1, 0] = -1j * np.conj(w12)
    if drives:
        f1, f2 = scenario.f1(nodes), scenario.f2(nodes)
        gen[:, 0, 2] = -1j * f1
        gen[:, 1, 2] = -1j * f2
        gen[:, 2, 0] = np.conj(f1)
        gen[:, 2, 1] = np.conj(f2)
        gen[:, 2, 2] = np.real(scenario.b(nodes))
    return gen


def _omega6(gen, h):
    """Sixth-order Magnus generator of each step, (dim, dim, steps), from
    its generators at the three Gauss nodes (gen as _generator gives them)
    and its length h."""
    a1, a2, a3 = gen
    x1 = h * a2
    x2 = (math.sqrt(15.0) / 3.0) * h * (a3 - a1)
    x3 = (10.0 / 3.0) * h * (a3 - 2.0 * a2 + a1)
    c1 = _bracket(x1, x2)
    c2 = _bracket(x1, 2.0 * x3 + c1) * (-1.0 / 60.0)
    return (x1 + x3 * (1.0 / 12.0)
            + _bracket(c1 - 20.0 * x1 - x3, x2 + c2) * (1.0 / 240.0))


def _shc(z):
    """sinh(z) / z, from 1 + z^2/6 for |z| < 1e-4 (where that is exact to
    rounding and the quotient may overflow)."""
    small = np.abs(z) < 1e-4
    return np.where(small, 1.0 + z * z / 6.0,
                    np.sinh(z) / np.where(small, 1.0, z))


def _phis(z):
    """phi1(z) = (e^z - 1) / z = e^{z/2} sinh(z/2) / (z/2) and
    phi2(z) = (e^z - 1 - z) / z^2, the latter from its Taylor series for
    |z| < 0.1, where (phi1 - 1) / z cancels."""
    phi1 = np.exp(0.5 * z) * _shc(0.5 * z)
    small = np.abs(z) < 0.1
    series = np.zeros_like(z)
    for coef in _PHI2_SERIES:
        series = series * z + coef
    return phi1, np.where(small, series,
                          (phi1 - 1.0) / np.where(small, 1.0, z))


def _exp(om):
    """exp of each generator block, (dim, dim, steps), in closed form.
    With x = m I + B the -i W block (B traceless, B^2 = s^2 I), e^x =
    e^m (cosh s I + sinh(s)/s B); a drive block [[x, v], [u, r]] maps to
    [[e^x, phi1(x) v], [u phi1(x), u phi2(x) v + r]], where
    f(x) = (f(m + s) + f(m - s))/2 I + (f(m + s) - f(m - s))/(2 s) B.  B is
    anti-Hermitian, so it has norm |s|: the difference's rounding, divided
    by |s|, meets a B of norm |s|, and the error stays at rounding level."""
    x = om[:2, :2]
    m = 0.5 * (x[0, 0] + x[1, 1])
    b = x - m * _EYE
    s = np.sqrt(b[0, 0] ** 2 + b[0, 1] * b[1, 0])
    em = np.exp(m)
    out = np.empty_like(om)
    out[:2, :2] = (em * np.cosh(s)) * _EYE + (em * _shc(s)) * b
    if om.shape[0] == 2:
        return out
    phi1, phi2 = _phis(np.stack([m + s, m - s]))
    # below |s| = 1e-100 the B term is far under rounding; 0.5 / s could
    # overflow there
    tiny = np.abs(s) < 1e-100
    half = np.where(tiny, 0.0, 0.5 / np.where(tiny, 1.0, s))
    p1, p2 = (0.5 * (f[0] + f[1]) * _EYE + ((f[0] - f[1]) * half) * b
              for f in (phi1, phi2))
    v, u = om[:2, 2], om[2, :2]
    out[:2, 2] = p1[:, 0] * v[0] + p1[:, 1] * v[1]
    out[2, :2] = u[0] * p1[0] + u[1] * p1[1]
    p2v = p2[:, 0] * v[0] + p2[:, 1] * v[1]
    out[2, 2] = u[0] * p2v[0] + u[1] * p2v[1] + om[2, 2]
    return out


def _scan(steps):
    """Inclusive prefix products along the last axis, in place: step i
    becomes the map that applies step 0 first and step i last."""
    n = steps.shape[-1]
    d = 1
    while d < n:
        steps[..., d:] = _after(steps[..., d:], steps[..., :n - d])
        d *= 2
    return steps


def _mesh(edges, counts):
    """Left edges and lengths of the steps: piece k between edges k and
    k + 1 split into counts[k] uniform steps."""
    h = np.repeat(np.diff(edges) / counts, counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(edges[:-1], counts) + (np.arange(h.size) - first) * h, h


def _nodes(left, h):
    """The three Gauss nodes of each step, as a (3, steps) array."""
    return left + h * _NODES[:, None]


def _steps(scenario, left, h, drives):
    """exp(Omega) of the steps with left edges left and lengths h, as a
    (dim, dim, steps) stack, from one sampling of the generator on all
    their nodes; _CHUNK steps are exponentiated at a time."""
    gen = _generator(scenario, _nodes(left, h), drives)
    steps = np.empty(gen.shape[1:], dtype=complex)
    for lo in range(0, h.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        steps[..., part] = _exp(_omega6(gen[..., part], h[part]))
    return steps


def _march_pair(scenario, edges, counts, drives):
    """The mesh of counts steps per piece and its doubling, in one batch:
    the step edges of the doubling, and the propagators at every step
    edge after 0 of each mesh, (dim, dim, steps).  The steps of both
    meshes are sampled and exponentiated together, and both meshes are
    scanned together, the coarse one padded with identities to the
    length of the fine one."""
    n = int(counts.sum())
    left, h = _mesh(edges, 2 * counts)
    lc, hc = _mesh(edges, counts)
    steps = _steps(scenario, np.concatenate([lc, left]),
                   np.concatenate([hc, h]), drives)
    dim = steps.shape[0]
    both = np.empty((dim, dim, 2, 2 * n), dtype=complex)
    both[:, :, 0, :n] = steps[..., :n]
    both[:, :, 0, n:] = _identity(dim)[..., None]
    both[:, :, 1] = steps[..., n:]
    # freed before the scan, whose temporaries set the flow's peak memory
    del steps
    _scan(both)
    return np.append(left, edges[-1]), both[:, :, 0, :n], both[:, :, 1]


def refuse_bad_times(times, what):
    """ValueError naming the first negative or non-finite time, if any."""
    bad = times[~(np.isfinite(times) & (times >= 0.0))]
    if bad.size:
        raise ValueError(f"{what} time {bad[0]} is negative or not finite")


def union(*parts):
    """The sorted distinct values of finite 1-D arrays, as np.unique gives
    them, without the numpy.ma import of np.unique's first call."""
    out = np.sort(np.concatenate(parts))
    return out[np.diff(out, prepend=-np.inf) > 0.0]


def _values(scanned):
    """Flow.values, (steps + 1, dim, dim) from the identity on, from
    scanned propagators held steps last."""
    dim, _, n = scanned.shape
    out = np.empty((n + 1, dim, dim), dtype=complex)
    out[0] = _identity(dim)
    out[1:] = scanned.transpose(2, 0, 1)
    return out


class Flow:
    """One Magnus flow on [0, t]: the propagator block at the step edges ts
    as stepped, and anywhere else in [0, t] by one partial step from the
    left edge of the step that holds the time."""

    def __init__(self, scenario, ts, values):
        self.scenario = scenario
        self.ts = ts
        self.values = values

    def __call__(self, times):
        """The propagator blocks at a time or an array of times, as an
        (..., dim, dim) stack with the shape of times in front.  A time
        outside [0, ts[-1]], or not finite, is refused."""
        times = np.asarray(times, dtype=float)
        flat = times.ravel()
        bad = flat[~((flat >= 0.0) & (flat <= self.ts[-1]))]
        if bad.size:
            raise ValueError(f"Magnus flow time {bad[0]} is outside the "
                             f"flow's span [0, {self.ts[-1]}]")
        j = np.searchsorted(self.ts, flat, side="right") - 1
        out = self.values[j]
        theta = flat - self.ts[j]
        off = np.nonzero(theta)[0]
        if off.size:
            gen = _generator(self.scenario,
                             _nodes(self.ts[j[off]], theta[off]),
                             out.shape[-1] == 3)
            step = _exp(_omega6(gen, theta[off]))
            out[off] = _after(step, out[off].transpose(1, 2, 0)).transpose(
                2, 0, 1)
        return out.reshape(times.shape + out.shape[1:])

    def amplitudes(self, times, c0):
        """c = S c0 + g, with a last axis of two, and P = Re(a . c0 + q) at
        a time or an array of times, from c(0) = c0 and P(0) = 0; a drive
        flow only."""
        blocks = self(times)
        return (blocks[..., :2, :2] @ c0 + blocks[..., :2, 2],
                np.real(blocks[..., 2, :2] @ c0 + blocks[..., 2, 2]))


def flow(scenario, t: float, tol: float, samples=(),
         drives: bool = False) -> Flow:
    """The flow of S, or with drives=True of (S, c, P), on [0, t], with
    every sample time a step edge, refined by step doubling until
    max |Y_2n - Y_n| <= tol at every step edge of Y_n.  A negative or
    non-finite t or sample time is refused before any step."""
    t = float(t)
    samples = np.asarray(samples, dtype=float).ravel()
    refuse_bad_times(np.append(t, samples), "Magnus flow")
    if samples.size and samples.max() > t:
        raise ValueError(f"sample times leave the span [0, {t}]")
    inner = np.asarray(scenario.breakpoints(t), dtype=float)
    edges = union([0.0, t], inner[(inner > 0.0) & (inner < t)], samples)
    if edges.size == 1:
        return Flow(scenario, edges, _identity(3 if drives else 2)[None])
    # a step's error goes as (h ||W||)^7: start near where it meets tol
    left, h = _mesh(edges, np.ones(edges.size - 1, dtype=int))
    with np.errstate(over="ignore"):
        norm = _norm(scenario, _nodes(left, h))
    cap = min(STEP_CAP, 2.0 * tol ** (1.0 / 6.0))
    # counted in floats: a count past int64 would wrap in the cast, and an
    # infinite norm gives an infinite count, refused like any other
    counts = np.maximum(np.ceil(np.diff(edges) * norm.max(axis=0) / cap), 1.0)
    while True:
        if not 2.0 * counts.sum() <= MAX_STEPS:
            raise ValueError(
                f"Magnus flow to t = {t:.6g} needs more than {MAX_STEPS} "
                f"steps to reach tol {tol:.3e}")
        ts, coarse, fine = _march_pair(scenario, edges, counts.astype(int),
                                       drives)
        gap = float(np.max(np.abs(fine[..., 1::2] - coarse)))
        if gap <= tol:
            return Flow(scenario, ts, _values(fine))
        if not math.isfinite(gap):
            raise ValueError(f"Magnus flow to t = {t:.6g} is not finite")
        counts = 2 * counts
