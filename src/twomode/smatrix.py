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

from dataclasses import dataclass

import numpy as np

from . import magnus
from .riccati import (ChartSingularity, DisentangledFactors, _closed_block,
                      _unframe)
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
    return _sampled(solved(grid), grid, tol)


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
    S = e^{-i alpha/2} diag(e^{-i rho/2}, e^{i rho/2}) G.  A negative or
    non-finite time is refused with ValueError."""
    fam = scenario.phase_family()
    if fam is None:
        raise ValueError(f"no printed closed S block for case {scenario.case}")
    block, _ = _closed_block(fam, t)
    alpha, rho = scenario.diag_integrals(t)
    return SMatrix2(t=t, mat=_unframe(alpha, rho, *block))


# ---------------------------------------------------------------------------
# reconstruction from factors

def smatrix_from_factors(factors: DisentangledFactors, t) -> SMatrix2:
    """Rebuild S on the j=1/2 carrier at a time (a 2x2 mat) or a 1-D array
    of times (an (n, 2, 2) mat): the Gauss product of the factors L, Om, Ga

        G = [[e^{Om/2} + L Ga e^{-Om/2}, L e^{-Om/2}],
             [Ga e^{-Om/2},              e^{-Om/2}]]

    unframed by riccati._unframe, with rho = 0 in the alternative ordering
    (its rho rotation lives inside Omega~).  Raises ChartSingularity when
    any sample is off the chart."""
    # read a float as an array of one: numpy scalars round unlike arrays
    times = np.asarray(t, dtype=float)
    flat = times.reshape(-1)
    alpha, rho, lam, omega, gamma, valid = factors.sample(flat)
    if np.count_nonzero(valid) < valid.size:
        raise ChartSingularity(
            f"factor chart invalid at t = {flat[~valid][0]:.6g}",
            singular_time=factors.singular_time)
    half = 0.5 * omega
    em = np.exp(-half)
    mat = _unframe(alpha, rho if factors.ordering == "standard" else 0.0,
                   np.exp(half) + lam * gamma * em, lam * em, gamma * em, em)
    # a time-major copy keeps no reference to the (2, 2, n) block
    return SMatrix2(t=t, mat=np.ascontiguousarray(
        mat.reshape(times.shape + (2, 2))))
