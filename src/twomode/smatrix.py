"""The 2x2 propagator S(t) of the linear-drive coefficients.

S solves i dS/ds = W(s) S with S(0) = I, where W is the Hermitian
coefficient matrix [[w11, w12], [w21, w22]].  It is the j=1/2 carrier of
the su(2) part of the evolution: unitary, with det S = e^{-i alpha(t)}.
Every factor set is read off the Gauss frame
G = e^{i alpha/2} diag(e^{i rho/2}, e^{-i rho/2}) S (see riccati), and
rebuilds S through the Gauss product.  Every case with a phase family
(eta = eps |eta| e^{i (phi0 + phi_tilde)}) has one printed block: the
family's closed G, the one its closed factors are read from, unframed by
the diagonal integrals.  Numeric S and numeric factors come from the same
Magnus flow, magnus.flow.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import magnus
from .riccati import ChartSingularity, DisentangledFactors, _closed_block
from .scenario import Scenario


@dataclass(frozen=True)
class SMatrix2:
    """S at a time t, mat 2x2, or at a 1-D array of times t, mat an
    (n, 2, 2) stack; projected flags the samples polar-projected."""

    t: float | np.ndarray
    mat: np.ndarray
    projected: bool | np.ndarray = False

    @property
    def unitarity_defect(self):
        return unitarity_defects(self.mat)[()]


def unitarity_defects(mats) -> np.ndarray:
    """max |S^H S - I| of a 2x2 matrix, or of each one in an (..., 2, 2)
    stack."""
    mats = np.asarray(mats)
    gram = np.swapaxes(mats, -1, -2).conj() @ mats
    return np.max(np.abs(gram - np.eye(2)), axis=(-2, -1))


def smatrix_numeric_grid(scenario: Scenario, grid,
                         tol: float = 1e-10) -> SMatrix2:
    """S on a 1-D grid of times (ascending, from 0), from one Magnus flow
    with the grid times as step edges.  A sample is re-unitarized by polar
    projection only if its drift exceeds 10x the requested tolerance, and
    that is flagged."""
    grid = np.asarray(grid, dtype=float)
    solved = magnus.flow(scenario, grid.max(initial=0.0), tol, grid)
    return _sampled(solved(grid, s_only=True), grid, tol)


def _sampled(mats: np.ndarray, grid, tol: float) -> SMatrix2:
    """smatrix_numeric_grid's result from the (n, 2, 2) stack mats of S on
    the grid, which it may change in place.  The unitarity defects of all
    samples come from one unitarity_defects pass; only the samples whose
    defect exceeds 10 tol are polar-projected, u vh from their SVDs, and
    those are flagged."""
    projected = unitarity_defects(mats) > 10.0 * tol
    u, _, vh = np.linalg.svd(mats[projected])
    mats[projected] = u @ vh
    return SMatrix2(t=grid, mat=mats, projected=projected)


# ---------------------------------------------------------------------------
# closed element block

def smatrix_closed(scenario: Scenario, t) -> SMatrix2:
    """Printed closed-form S for every case with a phase family, at a time
    or a 1-D array of times: the family's closed Gauss-frame block G
    (riccati._closed_block) unframed,
    S = e^{-i alpha/2} diag(e^{-i rho/2}, e^{i rho/2}) G."""
    fam = scenario.phase_family()
    if fam is None:
        raise ValueError(f"no printed closed S block for case {scenario.case}")
    alpha, rho = scenario.diag_integrals(t)
    (g11, g12, g21, g22), _ = _closed_block(fam, t)
    e1 = np.exp(-0.5j * (alpha + rho))
    e2 = np.exp(-0.5j * (alpha - rho))
    # built with the matrix axes first and transposed: .T reverses every
    # axis, which puts the times in front and swaps rows and columns back
    m = np.array([[e1 * g11, e2 * g21], [e1 * g12, e2 * g22]], dtype=complex)
    return SMatrix2(t=t, mat=m.T)


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
