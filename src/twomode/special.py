"""Special functions by power series with compensated summation, trusted
only where doubles carry them: |z| <= 30, and a sum whose terms' rounding,
eps sum |t_n|, stays within 1e-9 max(1, |value|)."""

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
    """Fresnel cosine integral C(x) = int_0^x cos(pi u^2 / 2) du by series:
    sum over n of (-1)^n (pi/2)^{2n} x^{4n+1} / ((2n)! (4n+1)).  A
    non-finite x is refused with ValueError."""
    if not math.isfinite(x):
        raise ValueError(f"Fresnel argument x = {x} is not finite")
    if abs(x) > _SERIES_DOMAIN:
        raise SeriesDivergence(f"|x| = {abs(x):.3g} outside series domain "
                               f"{_SERIES_DOMAIN}")
    x = float(x)
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
    _check_roundoff(terms, value)
    bound = abs(coeff * y2 * y2 / ((2 * n + 1) * (2 * n + 2)) / (4 * n + 5))
    return SpecialValue(value=complex(value), terms=n + 1,
                        truncation_bound=bound)
