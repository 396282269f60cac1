import math

import numpy as np
import pytest
from scipy.integrate import quad

from twomode.special import SeriesDivergence, fresnel_c, kummer_1f1

try:
    import mpmath
except ImportError:  # pragma: no cover
    mpmath = None


def test_kummer_trivial_arguments():
    assert kummer_1f1(0.7 + 0.2j, 1.3, 0.0).value == 1.0
    assert kummer_1f1(0.0, 2.0, 5.0 + 2.0j).value == 1.0


def test_kummer_exponential_identity():
    # 1F1(1, 1, z) = e^z
    for z in (1j, 0.5, -2.0 + 1.5j, 3.0j):
        got = kummer_1f1(1.0, 1.0, z)
        assert abs(got.value - np.exp(z)) < 1e-12


def test_kummer_frozen_unit_imaginary():
    got = kummer_1f1(1.0, 1.0, 1j)
    assert abs(got.value - (0.5403023058681398 + 0.8414709848078965j)) < 1e-12


def test_kummer_rejects_nonpositive_integer_b():
    for b in (0.0, -1.0, -5.0):
        with pytest.raises(ValueError):
            kummer_1f1(1.0, b, 0.5)
    # negative non-integers are legitimate
    kummer_1f1(1.0, -0.5, 0.5)


def test_kummer_series_policy():
    with pytest.raises(SeriesDivergence):
        kummer_1f1(1.0, 2.0, 31.0)
    kummer_1f1(1.0, 2.0, 29.0)


def test_kummer_truncation_diagnostics():
    got = kummer_1f1(0.3 + 0.1j, 0.9, 2.0 - 1.0j, tol=1e-13)
    assert got.terms > 2
    assert got.truncation_bound < 1e-13


@pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
def test_kummer_against_mpmath():
    mpmath.mp.dps = 30
    cases = [
        (0.5, 1.5, 2.0j),
        (1.0 + 0.25j, 0.75, -1.5 + 0.5j),
        (-2.0, 3.0, 4.0),          # polynomial case
        (0.25j, 2.0 + 1.0j, 5.0),
    ]
    for a, b, z in cases:
        want = complex(mpmath.hyp1f1(a, b, z))
        got = kummer_1f1(a, b, z, tol=1e-14).value
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))
    # large negative argument: direct summation cancels heavily, so only
    # ask for what roundoff leaves us
    want = complex(mpmath.hyp1f1(2.5, 0.5, -8.0))
    got = kummer_1f1(2.5, 0.5, -8.0, tol=1e-14).value
    assert abs(got - want) < 1e-10


def test_fresnel_trivial_and_frozen():
    assert fresnel_c(0.0).value == 0.0
    got = fresnel_c(1.0)
    assert abs(got.value - 0.779893400376823) < 1e-12


def test_fresnel_is_odd():
    for x in (0.3, 1.0, 1.7):
        assert abs(fresnel_c(-x).value + fresnel_c(x).value) < 1e-15


def test_fresnel_against_quadrature():
    for x in (0.25, 0.5, 1.0, 1.5, 2.0):
        want, _ = quad(lambda u: math.cos(math.pi * u * u / 2.0), 0.0, x,
                       epsabs=1e-13, epsrel=1e-13)
        assert abs(fresnel_c(x).value - want) < 1e-10


def test_fresnel_series_policy():
    with pytest.raises(SeriesDivergence):
        fresnel_c(40.0)


def test_kummer_series_that_does_not_settle_is_refused():
    # |z| = 20 lets the stop test pass only once n >= 20, and with a = 1e6
    # the terms still grow at n = 600
    with pytest.raises(SeriesDivergence,
                       match="^1F1 series did not settle within 600 terms$"):
        kummer_1f1(1e6, 1.0, 20.0)


@pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
def test_fresnel_is_the_kummer_series_to_roundoff():
    # C(x) = Re x 1F1(1/2; 3/2; i pi x^2 / 2); on |x| <= 2.5 the terms'
    # rounding leaves about 1e-13 (1.02e-13 at x = 2.493); the roundoff
    # rule refuses the series from |x| = 3.5 on, and the domain
    # |pi x^2 / 2| <= 30 from |x| = 4.38 on
    mpmath.mp.dps = 30
    for x in np.linspace(0.0, 2.5, 2501):
        got = fresnel_c(x).value
        assert got.imag == 0.0
        assert abs(got.real - float(mpmath.fresnelc(x))) <= 1.5e-13
    for x, message in ((3.5, "cancels to roundoff"),
                       (-3.5, "cancels to roundoff"),
                       (4.37, "cancels to roundoff"),
                       (4.38, r"^\|z\| = 30.1 outside series domain 30.0$")):
        with pytest.raises(SeriesDivergence, match=message):
            fresnel_c(x)


def test_series_refuse_non_finite_arguments():
    # refused at once, naming the argument, not after 600 terms of NaN
    nan, inf = math.nan, math.inf
    for args, name in (((0.5, 1.5, nan), "z"), ((nan, 1.5, 0.5), "a"),
                       ((0.5, complex(1.5, nan), 0.5), "b"),
                       ((0.5, 1.5, complex(0.0, inf)), "z")):
        with pytest.raises(ValueError, match=f"argument {name} = .* not"):
            kummer_1f1(*args)
    for x in (nan, inf, -inf):
        with pytest.raises(ValueError, match="argument x = .* not finite"):
            fresnel_c(x)


def test_fresnel_truncation_diagnostics():
    got = fresnel_c(1.8, tol=1e-13)
    assert got.terms > 2
    assert got.truncation_bound < 1e-13


@pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
def test_series_guards_reject_what_roundoff_spoils():
    # past a certain size the terms cancel away more digits than the value
    # keeps; each accepted value must still be right to 1e-9
    mpmath.mp.dps = 30
    accepted = 0
    for a, b in [(0.3j, 0.5), (1.0 + 0.3j, 1.5), (0.5 + 0.3j, 1.5),
                 (-0.7j, 0.5), (1.0 - 0.7j, 1.5), (2.5, 0.5)]:
        for y in np.linspace(-30.0, 30.0, 41):
            try:
                got = kummer_1f1(a, b, 1j * y).value
            except SeriesDivergence:
                continue
            accepted += 1
            want = complex(mpmath.hyp1f1(a, b, 1j * y))
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    for x in np.linspace(-30.0, 30.0, 61):
        try:
            got = fresnel_c(x).value
        except SeriesDivergence:
            continue
        accepted += 1
        want = float(mpmath.fresnelc(x))
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    assert accepted > 100
    with pytest.raises(SeriesDivergence):
        kummer_1f1(0.3j, 0.5, 29j)
    for x in (6.0, 29.9):
        with pytest.raises(SeriesDivergence):
            fresnel_c(x)
    kummer_1f1(0.3j, 0.5, 15j)
    fresnel_c(3.0)
