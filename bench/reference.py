"""Reference computations for the workload checks.

From twomode these take only the scenario objects: their ``coupling``,
``diag_integrals`` and drives define the input.  Everything else is
integrated or built here, sharing no code with the package's factor,
S-matrix, evolution, Fock or oracle routes:

* S(t) from i dS/ds = W S, S(0) = I;
* the 2x2 Gauss product of the factor exponentials in either ordering;
* the chart pole, the first vanishing of |S22|;
* drive amplitudes and phase from i dc/dt = W c + F and
  dtheta/dt = Re(F^dag c) + B, theta(0) = 0;
* two-mode coherent states from Poisson amplitudes.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

RTOL = 1e-12
POLE_ZERO = 1e-6   # |S22| below this at a local minimum marks a chart pole


def w_matrix(scenario, t: float) -> np.ndarray:
    w11, w22, w12 = scenario.coupling(t)
    return np.array([[w11, w12], [np.conj(w12), w22]], dtype=complex)


def _solve(rhs, t_end, y0):
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=RTOL,
                    atol=RTOL, dense_output=True)
    if sol.status != 0:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.sol


class SReference:
    """Dense solution of i dS/ds = W(s) S on [0, t_end]."""

    def __init__(self, scenario, t_end: float):
        self.t_end = float(t_end)
        self._dense = _solve(
            lambda s, y: (-1j * w_matrix(scenario, s) @ y.reshape(2, 2)).ravel(),
            self.t_end, np.eye(2, dtype=complex).ravel())

    def __call__(self, t: float) -> np.ndarray:
        if t == 0.0:
            return np.eye(2, dtype=complex)
        return self._dense(float(t)).reshape(2, 2)

    def first_pole(self) -> float | None:
        """First time |S22| vanishes on [0, t_end], or None."""
        ts = np.linspace(0.0, self.t_end, 2001)
        mag = np.abs(self._dense(ts)[3])
        for i in range(1, ts.size):
            right = mag[i + 1] if i + 1 < ts.size else math.inf
            if mag[i] <= mag[i - 1] and mag[i] <= right and mag[i] < 1e-2:
                lo, hi = ts[i - 1], ts[min(i + 1, ts.size - 1)]
                res = minimize_scalar(
                    lambda t: abs(self._dense(t)[3]) ** 2, bounds=(lo, hi),
                    method="bounded", options={"xatol": 1e-13})
                if math.sqrt(res.fun) < POLE_ZERO:
                    return float(res.x)
        return None


def gauss_product(lam: complex, omega: complex, gamma: complex,
                  alpha: float, rho: float, ordering: str) -> np.ndarray:
    """j = 1/2 image of e^{-i alpha N/2} [e^{-i rho J3}] e^{Lambda J+}
    e^{Omega J3} e^{Gamma J-}; the rho rotation is present only in the
    standard ordering."""
    raise_ = np.array([[1.0, lam], [0.0, 1.0]], dtype=complex)
    diag = np.diag([cmath.exp(0.5 * omega), cmath.exp(-0.5 * omega)])
    lower = np.array([[1.0, 0.0], [gamma, 1.0]], dtype=complex)
    product = raise_ @ diag @ lower
    if ordering == "standard":
        product = np.diag([cmath.exp(-0.5j * rho),
                           cmath.exp(0.5j * rho)]) @ product
    elif ordering != "alternative":
        raise ValueError(ordering)
    return cmath.exp(-0.5j * alpha) * product


class DriveReference:
    """Dense solution of i dc/dt = W c + F, dtheta/dt = Re(F^dag c) + B
    from c(0) = c0, theta(0) = 0.  A coherent state |c0> evolves into
    e^{-i theta(t)} |c(t)>."""

    def __init__(self, scenario, c0, t_end: float):
        self.c0 = np.asarray(c0, dtype=complex)

        def rhs(s, y):
            c = y[:2]
            f = np.array([complex(scenario.f1(s)), complex(scenario.f2(s))])
            dc = -1j * (w_matrix(scenario, s) @ c + f)
            dtheta = (np.vdot(f, c)).real + complex(scenario.b(s)).real
            return np.array([dc[0], dc[1], dtheta])

        self._dense = _solve(rhs, float(t_end),
                             np.array([self.c0[0], self.c0[1], 0.0],
                                      dtype=complex))

    def __call__(self, t: float) -> tuple[np.ndarray, float]:
        if t == 0.0:
            return self.c0.copy(), 0.0
        y = self._dense(float(t))
        return y[:2], float(y[2].real)


def coherent_vector(n_max: int, c1: complex, c2: complex) -> np.ndarray:
    """|c1, c2> on the product basis |n1, n2> (flat index n1 (n_max+1) + n2)
    from the Poisson amplitudes e^{-|c|^2/2} c^n / sqrt(n!), truncated."""
    n = np.arange(n_max + 1)
    log_fact = np.array([math.lgamma(k + 1) for k in n])

    def mode(c):
        if c == 0:
            amp = np.zeros(n_max + 1, dtype=complex)
            amp[0] = 1.0
            return amp
        return np.exp(-0.5 * abs(c) ** 2 + n * np.log(complex(c))
                      - 0.5 * log_fact)

    return np.kron(mode(c1), mode(c2))


def ladder_residual_bound(n_max: int, c, z0: complex) -> float:
    """Largest residual |(u1 a1 + u2 a2 - lambda)psi| / |psi| that cutting
    the coherent state |c1, c2> at n_max per mode can leave, for the
    generalized lowering coefficients u = conj(c) / conj(z0): with the
    cutoff a|c>_N = c (|c>_N - e^{-|c|^2/2} c^N / sqrt(N!) |N>), so each
    mode contributes |u| |c|^{N+1} e^{-|c|^2/2} / sqrt(N!)."""
    bound = 0.0
    for ci in c:
        r = abs(ci)
        if r:
            bound += (r / abs(z0)) * math.exp(
                (n_max + 1) * math.log(r) - 0.5 * r * r
                - 0.5 * math.lgamma(n_max + 1))
    return bound
