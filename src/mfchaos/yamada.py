"""Regularization devices for Hoelder diffusions, realized numerically.

Two constructions live here. The first is the C^2 approximation V of |x|
built from a kernel psi supported on [eps*exp(-1/eps), eps] with
psi(x) <= 2*eps/x and unit mass; V'' = psi(|.|), |V'| <= 1 and
|x| - eps <= V(x) <= |x|. The second is mollification of the diffusion by
a smooth bump: sigma_n = sigma * rho_n with rho_n(x) = n*rho(n*x), whose
sup-norm error is bounded by K_sigma * n^(-alpha) times the alpha-moment
of rho. Neither device is used by the production stepper; they exist to
be audited.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .model import ModelSpec

# Fraction of the log-support occupied by each taper of psi. With tapers
# linear in log x the normalising constant is exactly 1/(1 - RAMP_FRAC),
# which keeps psi <= 2*eps/x for every eps.
_RAMP_FRAC = 0.05
_EPS_FLOOR = 0.02   # below this, eps*exp(-1/eps) underflows any usable grid


class YamadaFunction:
    """Kernel psi plus cached cumulative integrals for V' and V.

    psi(x) = c * min(ramp_lo(x), eps/x, ramp_hi(x)) where the ramps are the
    hyperbola modulated by linear tapers over the outer 5% of the
    log-support at each end, and c = 1/(1 - 0.05) normalizes exactly.

    V'(x) at grid nodes comes from a cumulative trapezoid of psi in
    log-space, where the integrand is piecewise linear and the rule is
    exact; V comes from a cumulative trapezoid of V' in x. Point queries
    interpolate with a local trapezoid correction, keeping the evaluation
    error well under 1e-8.
    """

    __slots__ = ("epsilon", "support", "_a", "_c", "_nodes", "_psi", "_cdf", "_v")

    def __init__(self, epsilon: float, n_nodes: int = 30_000):
        if not (_EPS_FLOOR <= epsilon < 1.0):
            raise ValueError(
                f"epsilon must lie in [{_EPS_FLOOR}, 1); below the floor the "
                f"support edge eps*exp(-1/eps) is numerically degenerate (got {epsilon!r})")
        self.epsilon = float(epsilon)
        lo = epsilon * np.exp(-1.0 / epsilon)
        hi = epsilon
        self.support = (lo, hi)
        self._a = _RAMP_FRAC / epsilon
        self._c = 1.0 / (1.0 - _RAMP_FRAC)

        tau = np.linspace(np.log(lo), np.log(hi), n_nodes)
        tau = np.union1d(tau, [np.log(lo) + self._a, np.log(hi) - self._a])
        x = np.exp(tau)
        psi = self.psi(x)
        g = psi * x  # integrand of psi dx in log space: piecewise linear
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(tau))])
        cdf /= cdf[-1]  # mass is 1 analytically; remove residual roundoff
        v = np.concatenate([[0.0], np.cumsum(0.5 * (cdf[1:] + cdf[:-1]) * np.diff(x))])
        self._nodes = x
        self._psi = psi
        self._cdf = cdf
        self._v = v

    def psi(self, x):
        """The kernel itself; zero outside the support."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        lo, hi = self.support
        out = np.zeros_like(x)
        m = (x > lo) & (x < hi)
        xm = x[m]
        hyp = self.epsilon / xm
        ramp_lo = hyp * (np.log(xm / lo) / self._a)
        ramp_hi = hyp * (np.log(hi / xm) / self._a)
        out[m] = self._c * np.minimum(np.minimum(ramp_lo, hyp), ramp_hi)
        return float(out[0]) if scalar else out

    def mass(self) -> float:
        """Quadrature check of the kernel mass (should be 1)."""
        tau = np.log(self._nodes)
        return float(np.trapezoid(self._psi * self._nodes, tau))

    def V(self, x):
        q = np.abs(np.asarray(x, dtype=float))
        scalar = q.ndim == 0
        q = np.atleast_1d(q)
        lo, hi = self.support
        out = np.zeros_like(q)
        above = q >= hi
        out[above] = self._v[-1] + (q[above] - hi)
        mid = (q > lo) & ~above
        if mid.any():
            qs = q[mid]
            idx = np.clip(np.searchsorted(self._nodes, qs) - 1, 0, len(self._nodes) - 2)
            c0 = self._cdf[idx]
            c1 = np.interp(qs, self._nodes, self._cdf)
            out[mid] = self._v[idx] + 0.5 * (c0 + c1) * (qs - self._nodes[idx])
        return float(out[0]) if scalar else out

    def V_prime(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        r = np.interp(np.abs(x), self._nodes, self._cdf, left=0.0, right=1.0)
        out = np.sign(x) * r
        return float(out[0]) if scalar else out

    def V_second(self, x):
        out = self.psi(np.abs(np.atleast_1d(np.asarray(x, dtype=float))))
        return float(out[0]) if np.ndim(x) == 0 else out


def make_yamada(epsilon: float, n_nodes: int = 30_000) -> YamadaFunction:
    return YamadaFunction(epsilon, n_nodes=n_nodes)


# ---------------------------------------------------------------------------
# mollification


def _bump_raw(u):
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = np.zeros_like(u)
    m = np.abs(u) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
    return float(out[0]) if scalar else out


@lru_cache(maxsize=1)
def _bump_normalization() -> float:
    z, _ = quad(_bump_raw, -1.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    return z


def bump(u):
    """The standard compactly supported smooth kernel on [-1, 1], unit mass."""
    return _bump_raw(u) / _bump_normalization()


@lru_cache(maxsize=16)
def rho_moment(alpha: float) -> float:
    """Integral of |u|^alpha * rho(u) over [-1, 1] by adaptive quadrature."""
    val, _ = quad(lambda u: abs(u) ** alpha * bump(u),
                  -1.0, 1.0, points=[0.0], epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


@lru_cache(maxsize=4)
def _kernel_atoms(order: int) -> tuple[np.ndarray, np.ndarray]:
    # Two Gauss-Legendre panels split at 0 so kernels convolved with
    # kinked-at-0 coefficients keep the kink at a panel edge.
    xg, wg = np.polynomial.legendre.leggauss(order)
    nodes = np.concatenate([0.5 * (xg - 1.0), 0.5 * (xg + 1.0)])
    weights = np.concatenate([0.5 * wg, 0.5 * wg]) * _bump_raw(nodes)
    weights = weights / weights.sum()   # discrete kernel is exactly a probability
    return nodes, weights


@dataclass(frozen=True)
class MollifiedSigma:
    """sigma convolved with the bump at scale 1/n, as a fixed-atom quadrature."""

    n: int
    model: ModelSpec
    nodes: np.ndarray
    weights: np.ndarray

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        shifted = x[..., None] - self.nodes / self.n
        vals = self.model.sigma(t, shifted)
        out = np.asarray(vals, dtype=float) @ self.weights
        return float(out[0]) if scalar else out


def mollify_sigma(model: ModelSpec, n: int, order: int = 200) -> MollifiedSigma:
    if n < 1:
        raise ValueError(f"mollification index must be >= 1, got {n!r}")
    nodes, weights = _kernel_atoms(order)
    return MollifiedSigma(n=int(n), model=model, nodes=nodes, weights=weights)


def mollifier_error_bound(K_sigma: float, alpha: float, n: float) -> float:
    """Sup-norm bound K_sigma * n^(-alpha) * (alpha-moment of the bump).

    n may be any real >= 1 so the power law can be probed off the integer
    mollification indices.
    """
    if n < 1:
        raise ValueError(f"mollification scale must be >= 1, got {n!r}")
    return K_sigma * float(n) ** (-alpha) * rho_moment(alpha)
