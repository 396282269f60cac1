"""Special functions by power series with compensated summation, trusted
only where doubles carry them: |z| <= 30, and a sum whose terms' rounding,
eps sum |t_n|, stays within 1e-9 max(1, |value|).  One series serves
both: the Fresnel integral C(x) is the real part of the Kummer series
x 1F1(1/2; 3/2; i pi x^2 / 2), so its domain is |pi x^2 / 2| <= 30, and
the roundoff rule stops it near |x| = 3.5."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


class SeriesDivergence(Exception):
    """Power series outside its trusted domain or failed to converge."""


@dataclass(frozen=True)
class SpecialValue:
    value: complex
    terms: int
    truncation_bound: float


_SERIES_DOMAIN = 30.0
_SERIES_MAX_TERMS = 600
_SERIES_ROUNDOFF = 1e-9


def _fsum_complex(terms) -> complex:
    return complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms))


def _check_roundoff(terms, value) -> None:
    """Reject a sum that overflows or cancels past _SERIES_ROUNDOFF."""
    roundoff = math.ulp(1.0) * math.fsum(abs(t) for t in terms)
    if not roundoff <= _SERIES_ROUNDOFF * max(1.0, abs(value)) < math.inf:
        raise SeriesDivergence(f"series cancels to roundoff {roundoff:.3g} "
                               f"against value {abs(value):.3g}")


def kummer_1f1(a: complex, b: complex, z: complex,
               tol: float = 1e-14) -> SpecialValue:
    """Confluent hypergeometric 1F1(a; b; z) by its defining series.

    Terms follow t_{n+1} = t_n (a+n) z / ((b+n)(n+1)).  The stop test (two
    quiet terms in a row, |t_n| <= tol max(1, |partial sum|), once n >= |z|)
    reads a running sum, so each term costs O(1); the value is the
    compensated sum of all terms, formed once.  Arguments with |z| > 30 are
    rejected, and so are sums that cancel past _SERIES_ROUNDOFF: there the
    alternating series loses too many digits in doubles.  A non-finite
    argument is refused with ValueError.
    """
    a, b, z = complex(a), complex(b), complex(z)
    for name, arg in zip("abz", (a, b, z)):
        if not cmath.isfinite(arg):
            raise ValueError(f"1F1 argument {name} = {arg} is not finite")
    if b.imag == 0 and b.real <= 0 and b.real == int(b.real):
        raise ValueError("1F1 undefined for non-positive integer b")
    if abs(z) > _SERIES_DOMAIN:
        raise SeriesDivergence(f"|z| = {abs(z):.3g} outside series domain "
                               f"{_SERIES_DOMAIN}")
    term = 1.0 + 0j
    terms = [term]
    partial = term
    n = 0
    quiet = 0
    while n < _SERIES_MAX_TERMS:
        term = term * (a + n) * z / ((b + n) * (n + 1))
        terms.append(term)
        partial += term
        n += 1
        if abs(term) <= tol * max(1.0, abs(partial)) and n >= abs(z):
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
    else:
        raise SeriesDivergence("1F1 series did not settle within "
                               f"{_SERIES_MAX_TERMS} terms")
    value = _fsum_complex(terms)
    _check_roundoff(terms, value)
    nxt = abs(term * (a + n) * z / ((b + n) * (n + 1)))
    ratio = abs(z) / (n + 1)
    bound = nxt / (1.0 - ratio) if ratio < 0.5 else 2.0 * nxt
    return SpecialValue(value=value, terms=n + 1, truncation_bound=bound)


def fresnel_c(x: float, tol: float = 1e-14) -> SpecialValue:
    """Fresnel cosine integral C(x) = int_0^x cos(pi u^2 / 2) du, the real
    part of x 1F1(1/2; 3/2; i pi x^2 / 2) = int_0^x e^{i pi u^2 / 2} du
    (DLMF 7.2, 13.2: the series terms carry (1/2)_n / (3/2)_n = 1/(2n+1)),
    summed by kummer_1f1 under its domain |pi x^2 / 2| <= 30 and roundoff
    rule.  A non-finite x is refused with ValueError."""
    if not math.isfinite(x):
        raise ValueError(f"Fresnel argument x = {x} is not finite")
    m = kummer_1f1(0.5, 1.5, 0.5j * math.pi * x * x, tol)
    return SpecialValue(value=complex(x * m.value.real), terms=m.terms,
                        truncation_bound=abs(x) * m.truncation_bound)
