"""The 2x2 propagator S(t) of the linear-drive coefficients.

S solves i dS/ds = W(s) S with S(0) = I, where W is the Hermitian
coefficient matrix [[w11, w12], [w21, w22]].  It is the j=1/2 carrier of
the su(2) part of the evolution: unitary, with det S = e^{-i alpha(t)}.
Every closed-form family has a printed element block here, and any factor
set reconstructs S through the Gauss product.  Numeric S and numeric
factors come from the same integration routine, riccati._integrate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .riccati import ChartSingularity, DisentangledFactors, _integrate
from .scenario import (AllConstantScenario, ConstantPhaseScenario,
                       GeneralPhaseScenario, IsotropicConstantScenario,
                       LinearPhaseScenario, LogRhoScenario,
                       RhoConstantScenario, Scenario)


@dataclass(frozen=True)
class SMatrix2:
    t: float
    mat: np.ndarray
    projected: bool = False

    @property
    def unitarity_defect(self) -> float:
        return float(np.max(np.abs(self.mat.conj().T @ self.mat - np.eye(2))))

    def __getitem__(self, idx):
        return self.mat[idx]


def _polar_project(m: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def smatrix_numeric(scenario: Scenario, t: float,
                    tol: float = 1e-10) -> SMatrix2:
    """S(t) alone: smatrix_numeric_grid at [t]."""
    return smatrix_numeric_grid(scenario, [t], tol)[0]


def smatrix_numeric_grid(scenario: Scenario, grid,
                         tol: float = 1e-10) -> list[SMatrix2]:
    """One integration pass sampled at the grid times (ascending, from 0).
    A sample is re-unitarized by polar projection only if integration
    drift exceeds 10x the requested tolerance, and that is flagged."""
    grid = np.asarray(grid, dtype=float)
    mats = np.tile(np.eye(2, dtype=complex), (grid.size, 1, 1))
    positive = grid > 0
    if np.any(positive):
        dense = _integrate(scenario, float(grid[-1]), tol)
        mats[positive] = dense(grid[positive]).T.reshape(-1, 2, 2)
    out: list[SMatrix2] = []
    for t, m in zip(grid, mats):
        projected = SMatrix2(t=t, mat=m).unitarity_defect > 10.0 * tol
        out.append(SMatrix2(t=float(t), projected=projected,
                            mat=_polar_project(m) if projected else m))
    return out


# ---------------------------------------------------------------------------
# closed element blocks

def _rabi_block(wbar: float, w0: float, coupling: complex, t: float
                ) -> np.ndarray:
    """exp(-i W t) for constant W, written in Rabi form with
    b = sqrt(w0^2 + 4|coupling|^2), w0 = w11 - w22, wbar the mean."""
    b = math.hypot(w0, 2.0 * abs(coupling))
    pre = cmath.exp(-1j * wbar * t)
    if b == 0.0:
        return pre * np.eye(2, dtype=complex)
    c = math.cos(0.5 * b * t)
    s = math.sin(0.5 * b * t)
    return pre * np.array(
        [[c - 1j * (w0 / b) * s, -2j * (coupling / b) * s],
         [-2j * (np.conj(coupling) / b) * s, c + 1j * (w0 / b) * s]],
        dtype=complex)


def smatrix_closed(scenario: Scenario, t: float) -> SMatrix2:
    """Printed closed-form S(t) for the catalogued families."""
    if isinstance(scenario, ConstantPhaseScenario):
        w11, w22 = scenario.w11, scenario.w22
        chi = scenario.eta0 * t
        c, s = math.cos(chi), math.sin(chi)
        e1 = cmath.exp(-1j * w11 * t)
        e2 = cmath.exp(-1j * w22 * t)
        ep = cmath.exp(1j * scenario.phi0)
        m = np.array([[e1 * c, e1 * ep * s],
                      [-e2 * np.conj(ep) * s, e2 * c]], dtype=complex)
        return SMatrix2(t=float(t), mat=m)

    if isinstance(scenario, (LinearPhaseScenario, GeneralPhaseScenario)):
        eta0, w0 = scenario.eta0, scenario.w0
        eps = getattr(scenario, "eps", 1)
        delta = math.hypot(2.0 * eta0, w0)
        phi_tilde = scenario.phi_tilde(t)
        x = delta * phi_tilde / (2.0 * w0) if w0 != 0 else eta0 * t
        c, s = math.cos(x), math.sin(x)
        e1 = cmath.exp(-1j * scenario.w11 * t)
        e2 = cmath.exp(-1j * scenario.w22 * t)
        half_sum = 0.5 * (scenario.phi(t) + scenario.phi(0.0))
        amp = 2.0 * eps * eta0 / delta
        m = np.array(
            [[e1 * cmath.exp(0.5j * phi_tilde) * (c - 1j * (w0 / delta) * s),
              amp * e1 * cmath.exp(1j * half_sum) * s],
             [-amp * e2 * cmath.exp(-1j * half_sum) * s,
              e2 * cmath.exp(-0.5j * phi_tilde) * (c + 1j * (w0 / delta) * s)]],
            dtype=complex)
        return SMatrix2(t=float(t), mat=m)

    if isinstance(scenario, (AllConstantScenario, IsotropicConstantScenario)):
        w11, w22, w12 = scenario.coupling(0.0)
        return SMatrix2(t=float(t),
                        mat=_rabi_block(0.5 * (w11 + w22), w11 - w22, w12, t))

    if isinstance(scenario, (RhoConstantScenario, LogRhoScenario)):
        delta = scenario.delta
        w0 = scenario.w0
        eta0 = scenario.eta0
        big_phi = scenario.big_phi(t)
        theta_ba = scenario.theta_beta_alpha(t)
        phi0 = scenario.theta_beta0 - scenario.theta_alpha0 - math.pi / 2.0
        c, s = math.cos(big_phi), math.sin(big_phi)
        pre = cmath.exp(-0.5j * t)
        amp = 2.0 * eta0 / delta
        eb = cmath.exp(0.5j * theta_ba)
        m = np.array(
            [[pre * eb * (c - 1j * (w0 / delta) * s),
              amp * pre * eb * cmath.exp(1j * phi0) * s],
             [-amp * pre * np.conj(eb) * cmath.exp(-1j * phi0) * s,
              pre * np.conj(eb) * (c + 1j * (w0 / delta) * s)]],
            dtype=complex)
        return SMatrix2(t=float(t), mat=m)

    raise ValueError(f"no printed closed S block for case {scenario.case}")


# ---------------------------------------------------------------------------
# reconstruction from factors

def smatrix_from_factors(factors: DisentangledFactors, t: float) -> SMatrix2:
    """Rebuild S(t) from the Gauss factors on the j=1/2 carrier.

    Standard ordering:
        S = e^{-i alpha/2} diag(e^{-i rho/2}, e^{i rho/2})
            [[e^{Om/2} + L G e^{-Om/2}, L e^{-Om/2}],
             [G e^{-Om/2},              e^{-Om/2}]]
    Alternative ordering drops the rho rotation (it lives inside Omega~).
    """
    sample = factors.at(t)
    if not sample.valid:
        raise ChartSingularity(
            f"factor chart invalid at t = {t:.6g}",
            singular_time=factors.singular_time)
    lam, omega, gam = sample.lam, sample.omega, sample.gamma
    ep = cmath.exp(0.5 * omega)
    em = cmath.exp(-0.5 * omega)
    gauss = np.array([[ep + lam * gam * em, lam * em],
                      [gam * em, em]], dtype=complex)
    phase = cmath.exp(-0.5j * sample.alpha)
    if factors.ordering == "standard":
        rot = np.diag([cmath.exp(-0.5j * sample.rho),
                       cmath.exp(0.5j * sample.rho)])
        m = phase * rot @ gauss
    else:
        m = phase * gauss
    return SMatrix2(t=float(t), mat=m)
