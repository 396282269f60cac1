"""Dense references for the shell-block and Kronecker assembly: each
operator built by one `expm` on a full truncated space.  A shell-conserving
operator is built on the space of 2 n_max quanta per mode, whose shells up
to 2 n_max are complete, and restricted to the n_max states: that is the
exact compression P U P of the untruncated operator, partial shells
included.  Also the dense spectrum of the dressed number operator and each
case's model phase of eta."""

import cmath
import math

import numpy as np
from scipy.linalg import expm

from twomode.evolution import c_coefficients
from twomode.fock import annihilator, make_space, number_diagonals
from twomode.scenario import (FresnelNormScenario, QuadraticPhaseScenario,
                              TabulatedScenario)
from twomode.smatrix import smatrix_numeric_grid


def assert_close(got, ref, bound=1e-12):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))


def dense_jpm(space):
    a1 = annihilator(space, 1)
    a2 = annihilator(space, 2)
    return a1.conj().T @ a2, a1 @ a2.conj().T


def compression(space, build):
    """build(big) on the space of 2 n_max quanta per mode, restricted to
    the states of space."""
    big = make_space(2 * space.n_max)
    n1, n2 = number_diagonals(big)
    keep = np.nonzero((n1 <= space.n_max) & (n2 <= space.n_max))[0]
    return build(big)[np.ix_(keep, keep)]


def dense_displacement(space, c1, c2):
    a1 = annihilator(space, 1)
    a2 = annihilator(space, 2)
    gen = (c1 * a1.conj().T - np.conj(c1) * a1
           + c2 * a2.conj().T - np.conj(c2) * a2)
    return expm(gen)


def mixing_rotation(gamma3, theta_diff, eps=1):
    """The 2x2 matrix whose lift dense_mixing exponentiates:
    [[c, -eps e^{-i theta_diff} s], [eps e^{i theta_diff} s, c]] with
    c = sqrt((1 + eps gamma3)/2) and s = sqrt((1 - eps gamma3)/2)."""
    c = math.sqrt((1.0 + eps * gamma3) / 2.0)
    s = math.sqrt((1.0 - eps * gamma3) / 2.0)
    e = eps * cmath.exp(1j * theta_diff)
    return np.array([[c, -s * e.conjugate()], [s * e, c]])


def dense_mixing(space, gamma3, theta_diff, eps=1):
    s = eps * gamma3
    if s == 1.0:
        return np.eye(space.dim, dtype=complex)
    if s == -1.0:
        chi = eps * (math.pi / 2.0)
    else:
        chi = math.atan2(eps * math.sqrt((1.0 - s) / (1.0 + s)), 1.0)

    def build(big):
        jp, jm = dense_jpm(big)
        return expm(-chi * (np.exp(-1j * theta_diff) * jp
                            - np.exp(1j * theta_diff) * jm))

    return compression(space, build)


def _nilpotent_exp(gen):
    """exp(gen) for a nilpotent gen with at most one entry per row and per
    column, such as z J+ or z J-: its terminating series, summed in gen's
    precision."""
    rows, cols = np.nonzero(gen)
    out = term = np.eye(len(gen), dtype=gen.dtype)
    for k in range(1, len(gen)):
        step = np.zeros_like(term)
        step[:, cols] = term[:, rows] * gen[rows, cols] / k
        if not step.any():
            return out
        out, term = out + step, step
    return out


def dense_gauss_product(space, alpha, rho, lam, omega, gamma):
    """e^{-i alpha N/2} e^{-i rho J3} e^{lam J+} e^{omega J3} e^{gamma J-}
    (N = n1 + n2) on the truncated space, in long double throughout: the
    product cancels entries of e^{omega J3} as large as
    e^{n_max |Re omega|/2}, and in double precision that cancellation
    alone leaves errors of 4e-11 of the largest complete-shell entry at
    n_max 12."""
    real, cplx = np.longdouble, np.clongdouble
    lower = np.diag(np.sqrt(np.arange(1, space.side, dtype=real)), k=1)
    eye = np.eye(space.side, dtype=real)
    a1, a2 = np.kron(lower, eye), np.kron(eye, lower)
    n1, n2 = (n.astype(real) for n in number_diagonals(space))
    diag = np.exp(cplx(-0.5j * alpha) * (n1 + n2)
                  + cplx(-0.5j * rho) * (n1 - n2))
    u = (_nilpotent_exp(cplx(lam) * (a1.T @ a2)) * diag[:, None]
         * np.exp(cplx(0.5 * omega) * (n1 - n2))[None, :])
    return u @ _nilpotent_exp(cplx(gamma) * (a1 @ a2.T))


def dense_su2_lift(space, smat):
    """The U(2) matrix smat, with det smat = e^{-i alpha}, as e^{-i alpha/2}
    times an SU(2) rotation cos(theta) I - i sin(theta) n.sigma, lifted by
    exponentiating the rotation's generator."""
    alpha = -cmath.phase(np.linalg.det(smat))
    su = cmath.exp(0.5j * alpha) * smat
    cos_t = 0.5 * (su[0, 0] + su[1, 1]).real
    m = (su - cos_t * np.eye(2)) / (-1j)
    v = np.array([m[0, 1].real, -m[0, 1].imag, m[0, 0].real])
    sin_t = float(np.linalg.norm(v))

    def build(big):
        n1d, n2d = number_diagonals(big)
        dn = np.diag(np.exp(-0.5j * alpha * (n1d + n2d)))
        if sin_t < 1e-12:
            if cos_t > 0:
                return dn
            return dn @ np.diag(np.exp(-1j * math.pi * (n1d - n2d)))
        theta = math.atan2(sin_t, min(1.0, max(-1.0, cos_t)))
        n_hat = v / sin_t
        jp, jm = dense_jpm(big)
        j3 = np.diag(0.5 * (n1d - n2d)).astype(complex)
        gen = (n_hat[0] * (jp + jm) - 1j * n_hat[1] * (jp - jm)
               + 2.0 * n_hat[2] * j3)
        return dn @ expm(-1j * theta * gen)

    return compression(space, build)


def dense_assemble_U(space, scenario, t, tol=1e-10):
    smat = smatrix_numeric_grid(scenario, np.array([t]), tol).mat[0]
    amps = c_coefficients(scenario, (0j, 0j), t, tol)
    disp = dense_displacement(space, amps.c1, amps.c2)
    return amps.global_phase * (disp @ dense_su2_lift(space, smat))


def dressed_levels(space, alpha0, beta0):
    """Distinct eigenvalues, ascending, and their multiplicities of
    A^dag A (A = alpha0 a1 + beta0 a2) on the complete shells
    n1 + n2 <= n_max, from one dense diagonalization.  Per-mode truncation
    mutilates the shells above n_max, so only complete shells count;
    within shell N the spectrum is exactly {0, 1, ..., N}."""
    a_op = alpha0 * annihilator(space, 1) + beta0 * annihilator(space, 2)
    n1, n2 = number_diagonals(space)
    keep = np.nonzero(n1 + n2 <= space.n_max)[0]
    vals = np.linalg.eigvalsh((a_op.conj().T @ a_op)[np.ix_(keep, keep)])
    levels, counts = [], []
    for v in vals:
        if levels and abs(v - levels[-1]) < 1e-6:
            counts[-1] += 1
        else:
            levels.append(float(v))
            counts.append(1)
    return np.array(levels), np.array(counts)


def phase_model(scenario, t):
    """The model phase phi(t) of eta = eps |eta| e^{i phi} at a time or a
    1-D array of times: the case's phase family, QuadraticPhase's
    -theta0 t^2, FresnelNorm's 3 q - tan q + theta_v0 - theta_u0 - pi, and
    for a table the phase of eta at its first sample."""
    if isinstance(scenario, QuadraticPhaseScenario):
        return -scenario.theta0 * t * t
    if isinstance(scenario, FresnelNormScenario):
        tanq = np.sinh(scenario.norm_integral(t))
        return (3.0 * scenario.tilt_angle(t) - tanq + scenario.theta_v0
                - scenario.theta_u0 - math.pi)
    if isinstance(scenario, TabulatedScenario):
        _, _, w12 = scenario.coupling(float(scenario.grid[0]))
        return float(np.angle(-1j * w12)) if w12 != 0 else 0.0
    fam = scenario.phase_family()
    return fam.phi0 + fam.phi_tilde(t)
