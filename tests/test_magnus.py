import cmath
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from twomode import magnus
from twomode.evolution import assemble_U, c_coefficients
from twomode.fock import make_space
from twomode.riccati import solve_riccati_numeric
from twomode.scenario import (CASES, AllConstantScenario, ConstantDrive,
                              ConstantPhaseScenario, CosineDrive,
                              FresnelNormScenario, GeneralPhaseScenario,
                              IsotropicConstantScenario, LinearPhaseScenario,
                              LogRhoScenario, QuadraticPhaseScenario,
                              RhoConstantScenario, RotatingDrive,
                              TabulatedScenario)
from twomode.smatrix import smatrix_numeric_grid

TOL = 1e-10
ANGLE = st.floats(min_value=-math.pi, max_value=math.pi)


def _amp(cap):
    return st.builds(complex, st.floats(min_value=-cap, max_value=cap),
                     st.floats(min_value=-cap, max_value=cap))


@st.composite
def driven_scenarios(draw):
    """A LinearPhase, AllConstant, RhoConstant or ConstantPhase case with
    rotating, constant and cosine drives, and a span."""
    drives = {
        "f1": RotatingDrive(draw(_amp(0.3)),
                            draw(st.floats(min_value=0.3, max_value=1.5)),
                            draw(ANGLE)),
        "f2": ConstantDrive(draw(_amp(0.1))),
        "b": CosineDrive(draw(st.floats(min_value=0.0, max_value=0.3)),
                         draw(st.floats(min_value=0.3, max_value=1.5)),
                         draw(ANGLE))}
    diag = {"w11": draw(st.floats(min_value=-0.5, max_value=0.5)),
            "w22": draw(st.floats(min_value=-0.5, max_value=0.5))}
    eta0 = draw(st.floats(min_value=0.2, max_value=1.3))
    case = draw(st.sampled_from(["LinearPhase", "AllConstant", "RhoConstant",
                                 "ConstantPhase"]))
    if case == "LinearPhase":
        scenario = LinearPhaseScenario(
            eta0=eta0, w0=draw(st.floats(min_value=-1.5, max_value=1.5)),
            phi0=draw(ANGLE), **diag, **drives)
    elif case == "AllConstant":
        scenario = AllConstantScenario(w12=draw(_amp(1.0)), **diag, **drives)
    elif case == "RhoConstant":
        scenario = RhoConstantScenario(
            rho0=draw(st.floats(min_value=0.1, max_value=1.4)), eta0=eta0,
            w0=draw(st.floats(min_value=0.3, max_value=1.5)),
            theta_alpha0=draw(ANGLE), theta_beta0=draw(ANGLE), **drives)
    else:
        scenario = ConstantPhaseScenario(eta0=eta0, phi0=draw(ANGLE), **diag,
                                         **drives)
    return scenario, draw(st.floats(min_value=0.2, max_value=2.5))


def _reference(scenario, t, c0):
    """Dense DOP853 solution of (S, c, P) at rtol 1e-13, sharing no code
    with the Magnus route."""
    def rhs(s, y):
        w11, w22, w12 = scenario.coupling(s)
        w = np.array([[w11, w12], [np.conj(w12), w22]], dtype=complex)
        f = np.array([scenario.f1(s), scenario.f2(s)], dtype=complex)
        c = y[4:6]
        return np.concatenate([(-1j * w @ y[:4].reshape(2, 2)).ravel(),
                               -1j * (w @ c + f),
                               [np.vdot(f, c).real + np.real(scenario.b(s))]])

    y0 = np.concatenate([np.eye(2).ravel(), c0, [0.0]]).astype(complex)
    sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=1e-13,
                    atol=1e-13, dense_output=True)
    return sol.sol


def _flow_values(flow, times, c0):
    """Rows S11, S12, S21, S22, c1, c2, P of a drive flow at the times."""
    c, p = flow.amplitudes(times, c0)
    return np.concatenate([flow(times)[..., :2, :2].reshape(-1, 4).T, c.T,
                           p[None]])


@seed(1)
@settings(max_examples=40, deadline=None)
@given(case=driven_scenarios(),
       fractions=st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=1, max_size=4))
def test_magnus_s_is_unitary_with_the_diagonal_determinant(case, fractions):
    scenario, t = case
    flow = magnus.flow(scenario, t, TOL)
    times = np.concatenate([flow.ts, t * np.array(fractions)])
    s = flow(times)
    defect = s.conj().transpose(0, 2, 1) @ s - np.eye(2)
    assert np.max(np.abs(defect)) <= 1e-13
    alpha, _ = scenario.diag_integrals(times)
    assert np.max(np.abs(np.linalg.det(s) - np.exp(-1j * alpha))) <= 1e-12


@seed(2)
@settings(max_examples=40, deadline=None)
@given(case=driven_scenarios(), c0=st.tuples(_amp(0.5), _amp(0.5)),
       fractions=st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=1, max_size=4))
def test_magnus_flow_matches_dop853_at_edges_and_between(case, c0, fractions):
    scenario, t = case
    c0 = np.array(c0)
    ref = _reference(scenario, t, c0)
    flow = magnus.flow(scenario, t, TOL, drives=True)
    got = _flow_values(flow, flow.ts, c0)
    assert np.max(np.abs(got - ref(flow.ts))) <= 10.0 * TOL
    # interior times come from one partial step off the left step edge
    inside = t * np.array(fractions)
    got = _flow_values(flow, inside, c0)
    assert np.max(np.abs(got - ref(inside))) <= 10.0 * TOL


@seed(3)
@settings(max_examples=25, deadline=None)
@given(eta0=st.floats(min_value=0.2, max_value=1.3), phi0=ANGLE,
       w11=st.floats(min_value=-0.5, max_value=0.5),
       w22=st.floats(min_value=-0.5, max_value=0.5),
       past=st.floats(min_value=1.05, max_value=1.9))
def test_constant_phase_pole_stays_put(eta0, phi0, w11, w22, past):
    # |S22| = |cos(eta0 t)|: the chart ends at its zero pi / (2 eta0)
    scenario = ConstantPhaseScenario(eta0=eta0, phi0=phi0, w11=w11, w22=w22)
    pole = math.pi / (2.0 * eta0)
    numeric = solve_riccati_numeric(scenario, past * pole)
    assert numeric.singular_time is not None
    assert abs(numeric.singular_time - pole) <= 1e-9


def test_magnus_flow_is_sixth_order():
    scenario = LinearPhaseScenario(eta0=1.1, w0=-0.6, phi0=0.2, w22=0.4,
                                   f1=RotatingDrive(0.1 - 0.05j, 1.3, 0.2),
                                   b=CosineDrive(0.3, 0.9))
    c0 = np.array([0.3 - 0.1j, 0.2j])
    want = _reference(scenario, 2.0, c0)(2.0)
    errors = []
    for n in (4, 8, 16):
        # the finer mesh of a pair has n steps
        ts, _, fine = magnus._march_pair(scenario, np.array([0.0, 2.0]),
                                         np.array([n // 2]), True)
        fixed = magnus.Flow(scenario, ts, magnus._values(fine))
        got = _flow_values(fixed, np.array([2.0]), c0)[:, 0]
        errors.append(np.max(np.abs(got - want)))
    for coarse, fine in zip(errors, errors[1:]):
        assert 40.0 < coarse / fine < 100.0


def test_flow_at_time_zero_is_the_identity():
    scenario = AllConstantScenario(w11=0.3, w22=0.1, w12=0.2,
                                   f1=ConstantDrive(0.5))
    flow = magnus.flow(scenario, 0.0, TOL, drives=True)
    assert flow.ts.tolist() == [0.0]
    assert np.array_equal(flow(np.array([0.0]))[0],
                          np.diag([1.0, 1.0, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        magnus.flow(scenario, 1.0, TOL, samples=[0.5, 1.5])


_DRIVEN = AllConstantScenario(w11=0.7, w22=0.3, w12=0.25 + 0.1j,
                              f1=RotatingDrive(0.1, 1.0, 0.0))
_TIME_ROUTES = {
    "c_coefficients": lambda t: c_coefficients(_DRIVEN, (0.1, 0.2j), t),
    "smatrix_numeric_grid": lambda t: smatrix_numeric_grid(_DRIVEN, [0.0, t]),
    "assemble_U": lambda t: assemble_U(make_space(3), _DRIVEN, t),
    "solve_riccati_numeric": lambda t: solve_riccati_numeric(_DRIVEN, t),
    "flow-sample": lambda t: magnus.flow(_DRIVEN, 1.0, TOL, samples=[0.5, t]),
}


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf], ids=str)
@pytest.mark.parametrize("route", list(_TIME_ROUTES))
def test_a_time_the_flows_cannot_reach_is_refused(route, t):
    # the flow refuses a negative or non-finite time up front, naming it,
    # before numpy warns about anything
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"Magnus flow time {t} is"):
            _TIME_ROUTES[route](t)


# Every knot of a table is a step edge, one array element each: the number
# of coupling calls in a flow must not grow with the table's density.

def _table(size):
    ts = np.linspace(0.0, 2.0, size)
    return TabulatedScenario.from_samples(
        ts, w11=0.8 + 0.05 * np.sin(1.3 * ts + 0.4),
        w22=0.05 + 0.03 * np.cos(0.9 * ts - 1.1),
        w12=(0.14 + 0.03 * np.sin(1.7 * ts)) * np.exp(1j * (0.6 - 0.4 * ts)),
        f1=0.07 * np.exp(1j * (1.1 * ts + 0.3)),
        f2=np.full(ts.size, 0.03 - 0.02j), b=0.2 * np.cos(0.8 * ts))


def test_dense_table_flow_cost_does_not_grow_with_density(monkeypatch):
    calls = []
    coupling = TabulatedScenario.coupling

    def counted(self, t):
        calls.append(np.size(t))
        return coupling(self, t)
    monkeypatch.setattr(TabulatedScenario, "coupling", counted)
    sparse, dense = _table(41), _table(2001)
    magnus.flow(sparse, 1.6, TOL, drives=True)
    sparse_calls = len(calls)
    calls.clear()
    magnus.flow(dense, 1.6, TOL, drives=True)
    assert len(calls) <= sparse_calls
    # 1600 knot intervals before t, each at least one step of 3 nodes
    assert sum(calls) >= 3 * 1600


def test_dense_table_matches_knot_by_knot_reference():
    tab = _table(2001)
    t_end = 0.6
    c0 = np.array([0.3, -0.2j])

    def rhs(s, y):
        w11, w22, w12 = tab.coupling(s)
        w = np.array([[w11, w12], [np.conj(w12), w22]])
        c = y[4:6]
        f = np.array([tab.f1(s), tab.f2(s)])
        return np.concatenate([(-1j * w @ y[:4].reshape(2, 2)).ravel(),
                               -1j * (w @ c + f),
                               [np.vdot(f, c).real + tab.b(s).real]])

    y = np.concatenate([np.eye(2).ravel(), c0, [0.0]]).astype(complex)
    knots = tab.grid[tab.grid <= t_end + 1e-12]
    for lo, hi in zip(knots[:-1], knots[1:]):
        y = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-13,
                      atol=1e-13).y[:, -1]
    amps = c_coefficients(tab, c0, knots[-1])
    s = magnus.flow(tab, knots[-1], TOL).values[-1]
    assert np.max(np.abs(s.ravel() - y[:4])) <= 1e-12
    assert abs(amps.c1 - y[4]) <= 1e-12
    assert abs(amps.c2 - y[5]) <= 1e-12
    assert abs(amps.global_phase - cmath.exp(-1j * y[6].real)) <= 1e-12


@pytest.mark.parametrize("time", [1.5, 4.0, -0.5, math.nan, math.inf,
                                  -math.inf], ids=str)
def test_a_built_flow_refuses_times_outside_its_span(time):
    # a partial Magnus step past t or before 0 would extrapolate silently:
    # 2.6e-6 off at 1.5, 0.40 at 4 and 0.52 at -0.5 on this case
    scenario = LinearPhaseScenario(eta0=1.1, w0=-0.6, phi0=0.2, w22=0.4)
    factors = solve_riccati_numeric(scenario, 1.0)
    flow = magnus.flow(scenario, 1.0, TOL)
    message = re.escape(f"Magnus flow time {time} is outside")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dense in (factors.s_dense, flow,
                      lambda x: flow(np.array([0.5, x]))):
            with pytest.raises(ValueError, match=message):
                dense(time)
    # inside the span, both ends included, the values stand
    longer = magnus.flow(scenario, 4.0, 1e-12)
    inside = np.array([0.0, 0.37, 1.0])
    assert np.max(np.abs(factors.s_dense(inside)
                         - longer(inside))) <= 1e-9


# The fused march against the march it replaced: the mesh and its doubling
# each sampled, exponentiated and scanned on its own, one after the other.

def _sequential_flow(scenario, t, tol, samples=(), drives=False):
    """The step edges, values and number of doubling levels of a flow whose
    meshes are marched one at a time, each finer one reused as the next
    coarse one."""
    samples = np.asarray(samples, dtype=float)
    inner = np.asarray(scenario.breakpoints(t), dtype=float)
    edges = np.unique(np.concatenate(
        ([0.0, t], inner[(inner > 0.0) & (inner < t)], samples)))
    left, h = magnus._mesh(edges, np.ones(edges.size - 1, dtype=int))
    norm = magnus._norm(scenario, magnus._nodes(left, h))
    cap = min(magnus.STEP_CAP, 2.0 * tol ** (1.0 / 6.0))
    counts = np.maximum(
        np.ceil(np.diff(edges) * norm.max(axis=0) / cap).astype(int), 1)

    def march(counts):
        left, h = magnus._mesh(edges, counts)
        gen = magnus._generator(scenario, magnus._nodes(left, h), drives)
        steps = magnus._exp(magnus._omega6(gen, h))
        return np.append(left, t), magnus._scan(steps)

    _, coarse = march(counts)
    levels = 0
    while True:
        counts = 2 * counts
        ts, fine = march(counts)
        levels += 1
        if np.max(np.abs(fine[..., 1::2] - coarse)) <= tol:
            return ts, magnus._values(fine), levels
        coarse = fine


class _Counted:
    """A scenario that counts its coupling calls."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.calls = 0

    def coupling(self, t):
        self.calls += 1
        return self.scenario.coupling(t)

    def __getattr__(self, name):
        return getattr(self.scenario, name)


_DRIVES = {"f1": RotatingDrive(0.1 - 0.05j, 1.3, 0.2),
           "f2": ConstantDrive(0.02 + 0.01j), "b": CosineDrive(0.3, 0.9)}
_EVERY_CASE = [
    ConstantPhaseScenario(eta0=0.9, phi0=-0.4, w11=0.3, w22=0.1),
    LinearPhaseScenario(eta0=1.1, w0=-0.6, phi0=0.2, w22=0.4),
    GeneralPhaseScenario(eta0=0.8, w0=1.2, phi0=0.2, theta0=1.0, nu=0.2,
                         w11=0.05),
    AllConstantScenario(w11=0.6, w22=0.2, w12=0.3 - 0.2j),
    IsotropicConstantScenario.from_polar(0.5, 0.3, -0.4, z0=0.4 - 0.2j),
    RhoConstantScenario(rho0=0.6, eta0=0.8, w0=1.1, theta_beta0=-0.3),
    LogRhoScenario(t0=1.0, eta0=0.9, w0=0.7, theta_alpha0=0.2),
    QuadraticPhaseScenario(eta0=1.0, theta0=-0.5),
    FresnelNormScenario(w12_0=0.7, nu=2.0),
]
_FUSED = {
    **{sc.case + "-S": (sc, 2.0, TOL, np.linspace(0.0, 2.0, 5), False)
       for sc in _EVERY_CASE},
    **{sc.case + "-drive": (replace(sc, **_DRIVES), 2.0, TOL, (), True)
       for sc in _EVERY_CASE},
    "Tabulated-S": (_table(41), 1.6, TOL, (0.4, 1.1), False),
    "Tabulated-drive": (_table(41), 1.6, TOL, (), True),
    # 1164 coarse and 2328 fine steps: chunks of the fused pass straddle
    # the two meshes
    "longer-than-a-chunk": (AllConstantScenario(
        w11=0.7, w22=0.3, w12=0.25 + 0.1j, **_DRIVES), 60.0, TOL, (), True),
    # a fast drive the coupling-only pre-pass cannot see
    "three-levels": (AllConstantScenario(
        w11=0.7, w22=0.3, w12=0.25 + 0.1j,
        f1=RotatingDrive(0.1, 40.0, 0.0)), 2.0, 1e-12, (), True),
    "dense-table-samples": (_table(2001), 1.6, TOL,
                            np.linspace(0.0, 1.6, 33), True),
}


def test_fused_march_matches_the_sequential_march():
    assert {sc.case for sc, *_ in _FUSED.values()} == set(CASES)
    worst, where = 0.0, None
    for name, (scenario, t, tol, samples, drives) in _FUSED.items():
        ts, values, levels = _sequential_flow(scenario, t, tol, samples,
                                              drives)
        counted = _Counted(scenario)
        got = magnus.flow(counted, t, tol, samples, drives)
        assert np.array_equal(got.ts, ts), name
        dev = float(np.max(np.abs(got.values - values)))
        if dev >= worst:
            worst, where = dev, name
        # one pre-pass, then one call per doubling level
        assert counted.calls == 1 + levels, name
        if name == "longer-than-a-chunk":
            assert 3 * (ts.size - 1) // 2 > magnus._CHUNK
        if name == "three-levels":
            assert levels >= 3
    assert worst <= 1e-15, f"largest deviation {worst:.3g} on {where}"


@pytest.mark.parametrize("w12,points", [(1e5, 2), (1e19, 5), (1e19, 101),
                                        (1e200, 5)],
                         ids=["past-the-cap", "past-int64", "past-int64-101",
                              "infinite-norm"])
def test_a_step_count_past_the_cap_is_refused_before_any_march(
        monkeypatch, w12, points):
    # counted in floats, a count past int64 or an infinite norm is refused
    # like any count past MAX_STEPS, with no RuntimeWarning and no march
    def march(*args):
        raise AssertionError("marched a flow it should refuse")

    monkeypatch.setattr(magnus, "_march_pair", march)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=(
                r"^Magnus flow to t = 1 needs more than 65536 steps to "
                r"reach tol 1\.000e-10$")):
            smatrix_numeric_grid(AllConstantScenario(0.1, 0.2, w12),
                                 np.linspace(0.0, 1.0, points))


def test_a_flow_that_is_not_finite_is_refused():
    # a NaN drive is invisible to the coupling-only pre-pass; its steps
    # are NaN, which no refinement cures
    scenario = AllConstantScenario(0.1, 0.2, 0.3,
                                   f1=ConstantDrive(complex(math.nan, 0.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=r"^Magnus flow to t = 1 is not finite$"):
            magnus.flow(scenario, 1.0, TOL, drives=True)
