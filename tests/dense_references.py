"""Dense references for the shell-block and Kronecker assembly: each
operator built by one `expm` on a full truncated space.  A shell-conserving
operator is built on the space of 2 n_max quanta per mode, whose shells up
to 2 n_max are complete, and restricted to the n_max states: that is the
exact compression P U P of the untruncated operator, partial shells
included."""

import cmath
import math

import numpy as np
from scipy.linalg import expm

from twomode.evolution import c_coefficients
from twomode.fock import annihilator, make_space, number_diagonals
from twomode.riccati import solve_riccati_numeric


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


def dense_gauss_product(space, alpha, rho, lam, omega, gamma):
    n1, n2 = number_diagonals(space)
    jp, jm = dense_jpm(space)
    d_n = np.exp(-0.5j * alpha * (n1 + n2))
    d_rho = np.exp(-0.5j * rho * (n1 - n2))
    d_om = np.exp(0.5 * omega * (n1 - n2))
    u = expm(lam * jp) * d_n[:, None] * d_rho[:, None]
    u = u * d_om[None, :]
    return u @ expm(gamma * jm)


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
    factors = solve_riccati_numeric(scenario, t, tol, grid=np.array([t]))
    amps = c_coefficients(scenario, (0j, 0j), t, tol)
    alpha, rho = factors.alpha[0], factors.rho[0]
    if factors.valid[0]:
        u0 = dense_gauss_product(space, alpha, rho, factors.lam[0],
                                 factors.omega[0], factors.gamma[0])
    else:
        u0 = dense_su2_lift(space, factors.s_dense(t))
    disp = dense_displacement(space, amps.c1, amps.c2)
    return amps.global_phase * (disp @ u0)
