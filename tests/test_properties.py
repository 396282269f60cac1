import cmath
import math

import numpy as np
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from twomode.fock import annihilator, displacement_operator, make_space
from twomode.oracle import brute_force_smatrix
from twomode.riccati import closed_factors, factors_on_grid
from twomode.scenario import AllConstantScenario, LinearPhaseScenario
from twomode.smatrix import smatrix_from_factors
from twomode import special
from twomode.special import SeriesDivergence, fresnel_c, kummer_1f1

ETA_MIN = 0.2
ETA_MAX = 1.3
SLOPE_MAX = 1.2
TIME_MAX = 0.9
LAMBDA_CAP = 50.0
COUPLING_CAP = 1.0
AMPLITUDE_CAP = 0.45
SPACE = make_space(8)


@seed(1)
@given(
    eta0=st.floats(min_value=ETA_MIN, max_value=ETA_MAX),
    w0=st.floats(min_value=0.0, max_value=SLOPE_MAX),
    phi0=st.floats(min_value=-math.pi, max_value=math.pi),
    t=st.floats(min_value=0.0, max_value=TIME_MAX),
)
def test_factor_unitarity_identities(eta0, w0, phi0, t):
    # any unitary S forces Re Omega = ln(1 + |Lambda|^2) and |Gamma| = |Lambda|
    scenario = LinearPhaseScenario(eta0=eta0, w0=w0, phi0=phi0)
    lam, omega, gamma = closed_factors(scenario, t)
    assume(abs(lam) < LAMBDA_CAP)
    assert abs(omega.real - math.log(1.0 + abs(lam) ** 2)) < 1e-9
    assert abs(abs(gamma) - abs(lam)) < 1e-9


@seed(1)
@given(
    w11=st.floats(min_value=-COUPLING_CAP, max_value=COUPLING_CAP),
    w22=st.floats(min_value=-COUPLING_CAP, max_value=COUPLING_CAP),
    re12=st.floats(min_value=-COUPLING_CAP, max_value=COUPLING_CAP),
    im12=st.floats(min_value=-COUPLING_CAP, max_value=COUPLING_CAP),
    t=st.floats(min_value=0.0, max_value=3.0),
)
def test_brute_force_smatrix_unitarity(w11, w22, re12, im12, t):
    scenario = AllConstantScenario(w11=w11, w22=w22, w12=complex(re12, im12))
    s = brute_force_smatrix(scenario, t, 64)
    assert np.max(np.abs(s.conj().T @ s - np.eye(2))) < 1e-12


@seed(1)
@given(
    w11=st.floats(min_value=-COUPLING_CAP, max_value=COUPLING_CAP),
    w22=st.floats(min_value=-COUPLING_CAP, max_value=COUPLING_CAP),
    re12=st.floats(min_value=-COUPLING_CAP, max_value=COUPLING_CAP),
    im12=st.floats(min_value=-COUPLING_CAP, max_value=COUPLING_CAP),
    t=st.floats(min_value=0.1, max_value=2.0),
)
def test_reconstructed_determinant(w11, w22, re12, im12, t):
    scenario = AllConstantScenario(w11=w11, w22=w22, w12=complex(re12, im12))
    factors = factors_on_grid(scenario, np.array([0.0, t]))
    _, _, lam, _, _, valid = factors.sample(t)
    assume(valid and abs(lam) < LAMBDA_CAP)
    s = smatrix_from_factors(factors, t)
    alpha = (w11 + w22) * t
    assert abs(np.linalg.det(s.mat) - cmath.exp(-1j * alpha)) < 1e-9
    assert s.unitarity_defect < 1e-9


@seed(1)
@given(
    a=st.floats(min_value=0.25, max_value=3.0),
    re=st.floats(min_value=-8.0, max_value=8.0),
    im=st.floats(min_value=-8.0, max_value=8.0),
)
def test_kummer_collapses_to_exponential(a, re, im):
    z = complex(re, im)
    got = kummer_1f1(a, a, z).value
    assert abs(got - cmath.exp(z)) < 1e-9 * max(1.0, abs(cmath.exp(z)))


def _kummer_refsummed(a, b, z, tol):
    """kummer_1f1 with its stop test on the compensated sum of all terms so
    far, re-formed at every term (quadratic in the term count)."""
    a, b, z = complex(a), complex(b), complex(z)
    term = 1.0 + 0j
    terms = [term]
    n = 0
    quiet = 0
    while n < special._SERIES_MAX_TERMS:
        term = term * (a + n) * z / ((b + n) * (n + 1))
        terms.append(term)
        n += 1
        partial = abs(special._fsum_complex(terms))
        if abs(term) <= tol * max(1.0, partial) and n >= abs(z):
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
    else:
        raise SeriesDivergence("no settle")
    value = special._fsum_complex(terms)
    special._check_roundoff(terms, value)
    return value, n + 1


def _outcome(evaluate):
    try:
        return evaluate()
    except SeriesDivergence:
        return "SeriesDivergence"


@seed(1)
@settings(max_examples=300)
@given(
    a=st.complex_numbers(max_magnitude=6.0),
    b_re=st.floats(min_value=0.05, max_value=5.0),
    b_im=st.sampled_from([0.0, 0.5, -1.5]),
    r=st.floats(min_value=0.0, max_value=30.0),
    angle=st.floats(min_value=-math.pi, max_value=math.pi),
    tol=st.sampled_from([1e-13, 1e-14]),
)
def test_kummer_running_stop_test_matches_compensated_one(a, b_re, b_im, r,
                                                          angle, tol):
    b = complex(b_re, b_im)
    z = cmath.rect(r, angle)
    assume(abs(z) <= 30.0)

    def running():
        got = kummer_1f1(a, b, z, tol)
        return got.value, got.terms

    assert _outcome(running) == _outcome(
        lambda: _kummer_refsummed(a, b, z, tol))


@seed(1)
@given(x=st.floats(min_value=-2.5, max_value=2.5))
def test_fresnel_odd_and_bounded(x):
    c = fresnel_c(x).value
    assert abs(c) <= abs(x) + 1e-15
    assert fresnel_c(-x).value == -c


@seed(1)
@settings(max_examples=40)
@given(
    re1=st.floats(min_value=-AMPLITUDE_CAP, max_value=AMPLITUDE_CAP),
    im1=st.floats(min_value=-AMPLITUDE_CAP, max_value=AMPLITUDE_CAP),
    re2=st.floats(min_value=-AMPLITUDE_CAP, max_value=AMPLITUDE_CAP),
    im2=st.floats(min_value=-AMPLITUDE_CAP, max_value=AMPLITUDE_CAP),
)
def test_displacement_unitary_with_right_mean(re1, im1, re2, im2):
    c1 = complex(re1, im1)
    c2 = complex(re2, im2)
    d = displacement_operator(SPACE, c1, c2)
    assert np.max(np.abs(d.conj().T @ d - np.eye(SPACE.dim))) < 1e-9
    vac = np.zeros(SPACE.dim)
    vac[SPACE.index(0, 0)] = 1.0
    psi = d @ vac
    assert abs(np.vdot(psi, annihilator(SPACE, 1) @ psi) - c1) < 1e-6
    assert abs(np.vdot(psi, annihilator(SPACE, 2) @ psi) - c2) < 1e-6
