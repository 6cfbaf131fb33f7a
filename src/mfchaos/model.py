"""Coefficient triples (b, B, sigma) with declared constants, plus an audit.

A ModelSpec bundles the state drift b(t, x, mu), the path drift
B(t, segment, mu), the diffusion sigma(t, x) and the constants the model
claims to satisfy: a one-sided constant K_b for b, a Lipschitz constant
K_B for B (against the segment's L1 norm under the delay measure plus W1
in the measure), and a Hoelder pair (K_sigma, alpha) for sigma.
`check_assumptions` probes the claims on random tuples; it can only
certify that no violation was found.

Coefficients see one calling convention, in a run and in the audit alike:
x is a float64 array with one entry per particle, the path drift's segment
argument is a `paths.SegmentBatch` over the same particles, and the measure
argument is a single EmpiricalMeasure shared by all particles of a step.
When the engine steps a stack of K systems together, x is (K, N) with one
system per row, and the segment batch is stacked the same way. The measure
is then either one shared measure (a frozen flow's) or a stacked
EmpiricalMeasure whose `mean` is a (K, 1) column, one entry per row, so a
term written `c * mu.mean` broadcasts row by row. Coefficients must act
elementwise across rows.

The drift and sigma may take an optional `out=`: drift(t, x, mu, out=None)
and sigma(t, x, out=None) then write their values into out, a float64
array shaped like x that overlaps neither x nor, for the drift, the
measure's samples (sigma comes last, so its out may be them). The engine
reads each signature once per run and hands such a coefficient memory the
run already holds; one without `out` is called as (t, x[, mu]) and its
value, a scalar included, is copied in. The zoo's coefficients write into
out with the operations they use without it, in the same order, so both
give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import EmpiricalMeasure, w1
from .paths import DelayMeasure, SegmentBatch, l1m_norm


class ModelError(Exception):
    """A coefficient returned a non-finite value."""


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients and declared constants; x is a float64 array, (N,) or a
    (K, N) stack, the segment a SegmentBatch, and mu.mean a float or a
    (K, 1) column (see the module docstring)."""

    name: str
    drift: Callable          # (t, x, mu[, out]) -> like x; out= optional (module docstring)
    path_drift: Callable     # (t, SegmentBatch, mu) -> per-particle values
    sigma: Callable          # (t, x[, out]) -> like x; out= optional (module docstring)
    K_b: float               # one-sided drift constant, may be negative
    K_B: float
    K_sigma: float
    alpha: float
    delay_measure: DelayMeasure
    moment_order: float = 4.0         # declared p of the initial data
    sigma_sq_floor: float = 0.0       # declared ellipticity floor, 0 = none

    def __post_init__(self):
        if not (0.5 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in the Hoelder range [1/2, 1], got {self.alpha!r}")
        if self.K_B < 0 or self.K_sigma < 0:
            raise ValueError("K_B and K_sigma must be non-negative")
        if not np.isfinite([self.K_b, self.K_B, self.K_sigma]).all():
            raise ValueError("declared constants must be finite")
        if not (self.moment_order > 1):
            raise ValueError(f"moment order must exceed 1, got {self.moment_order!r}")


def _checked(name, t, out):
    out = np.asarray(out, dtype=float)
    if not np.isfinite(out).all():
        bad = np.argwhere(~np.isfinite(np.atleast_1d(out)))
        raise ModelError(f"{name} returned a non-finite value at t={t} (first index {bad[0]})")
    return out


def eval_drift(model: ModelSpec, t: float, x, mu: EmpiricalMeasure):
    return _checked("drift", t, model.drift(t, x, mu))


def eval_path_drift(model: ModelSpec, t: float, seg, mu: EmpiricalMeasure):
    return _checked("path drift", t, model.path_drift(t, seg, mu))


def eval_sigma(model: ModelSpec, t: float, x):
    return _checked("sigma", t, model.sigma(t, x))


# ---------------------------------------------------------------------------
# model zoo


def _constant(value: float, x, out=None):
    """value at every particle of x, written into out if given."""
    out = np.empty_like(x, dtype=float) if out is None else out
    out.fill(value)
    return out


def make_linear_model(a: float = -1.0, c: float = 0.5, sigma0: float = 0.2,
                      p: float = 4.0, alpha: float = 1.0) -> ModelSpec:
    """b = a*x + c*mean(mu), no path drift, constant diffusion."""
    def drift(t, x, mu, out=None):
        out = np.multiply(a, x, out=out)
        out += c * mu.mean
        return out

    def path_drift(t, seg, mu):
        return 0.0

    def sigma(t, x, out=None):
        return _constant(sigma0, x, out)

    return ModelSpec(
        name="linear", drift=drift, path_drift=path_drift, sigma=sigma,
        K_b=max(a, 0.0) + abs(c), K_B=0.0, K_sigma=abs(sigma0), alpha=alpha,
        delay_measure=DelayMeasure.dirac(0.0), moment_order=p,
        sigma_sq_floor=sigma0 ** 2,
    )


def make_sqrt_model(kappa: float = 1.0, theta: float = 1.0, c: float = 0.5,
                    sigma0: float = 0.2, p: float = 4.0,
                    alpha: float = 0.5) -> ModelSpec:
    """Mean-reverting drift with mean-field coupling and sigma0*sqrt(|x|) diffusion.

    The diffusion is evaluated at |x| exactly as written, so the state is
    never clamped or reflected.
    """
    def drift(t, x, mu, out=None):
        out = np.subtract(theta, x, out=out)
        np.multiply(kappa, out, out=out)
        out += c * mu.mean
        return out

    def path_drift(t, seg, mu):
        return 0.0

    def sigma(t, x, out=None):
        s = np.abs(x, out=out)   # sigma0 * sqrt(|x|) in one array
        np.sqrt(s, out=s)
        s *= sigma0
        return s

    return ModelSpec(
        name="sqrt", drift=drift, path_drift=path_drift, sigma=sigma,
        K_b=max(-kappa, abs(c)), K_B=0.0, K_sigma=abs(sigma0), alpha=alpha,
        delay_measure=DelayMeasure.dirac(0.0), moment_order=p,
    )


def make_delay_model(beta: float = 1.0, r: float = 1.0, a: float = 0.0,
                     sigma0: float = 0.0, p: float = 4.0, alpha: float = 1.0,
                     m: str = "dirac", atoms: int = 8) -> ModelSpec:
    """b = a*x and path drift beta * integral of the segment against m.

    m = "dirac" puts all mass at lag -r (pure discrete delay); m = "uniform"
    uses an atom quadrature of the uniform density on [-r, 0].
    """
    if not (np.isfinite(r) and r >= 0):
        raise ValueError(f"r must be finite and >= 0, got {r!r}")
    if m == "dirac":
        dm = DelayMeasure.dirac(-r)
    elif m == "uniform":
        dm = DelayMeasure.uniform(r, atoms)
    else:
        raise ValueError(f"m must be 'dirac' or 'uniform', got {m!r}")

    def drift(t, x, mu, out=None):
        return np.multiply(a, x, out=out)

    def path_drift(t, seg, mu):
        return beta * seg.integral_against(dm)

    def sigma(t, x, out=None):
        return _constant(sigma0, x, out)

    return ModelSpec(
        name="delay", drift=drift, path_drift=path_drift, sigma=sigma,
        K_b=max(a, 0.0), K_B=abs(beta), K_sigma=abs(sigma0), alpha=alpha,
        delay_measure=dm, moment_order=p, sigma_sq_floor=sigma0 ** 2,
    )


MODEL_ZOO = {
    "linear": make_linear_model,
    "sqrt": make_sqrt_model,
    "delay": make_delay_model,
}


def make_model(name: str, **params) -> ModelSpec:
    if name not in MODEL_ZOO:
        raise ValueError(f"unknown model {name!r}; available: {sorted(MODEL_ZOO)}")
    return MODEL_ZOO[name](**params)


# ---------------------------------------------------------------------------
# assumption audit


@dataclass
class AssumptionReport:
    """Outcome of a sampled audit of the declared constants.

    The audit samples random tuples; a True flag means no violation beyond
    tolerance was found among them, not that none exists.
    """

    K_b_hat: float
    K_B_hat: float
    K_sigma_hat: float
    alpha_hat: float
    drift_ok: bool
    path_drift_ok: bool
    sigma_ok: bool
    bounds_ok: bool
    witnesses: dict
    tol: float
    note: str = "sampled audit: flags certify only that no violation was found"

    @property
    def all_ok(self) -> bool:
        return self.drift_ok and self.path_drift_ok and self.sigma_ok and self.bounds_ok

    def rows(self):
        yield ("drift_one_sided", self.K_b_hat, "K_b", self.drift_ok)
        yield ("path_drift_lipschitz", self.K_B_hat, "K_B", self.path_drift_ok)
        yield ("sigma_hoelder", self.K_sigma_hat, "K_sigma", self.sigma_ok)
        yield ("zero_point_bounds", float("nan"), "", self.bounds_ok)


_T_GRID = np.linspace(0.0, 1.0, 11)   # audit times
_TOL = 1e-9                            # slack before a sampled excess counts as a violation
_MEASURE_SIZE = 8                      # atoms of each random empirical measure


def check_assumptions(model: ModelSpec, box=(-3.0, 3.0), sample_count: int = 10_000,
                      seed: int = 0) -> AssumptionReport:
    """Probe the declared constants on random (t, x, y, mu, nu) tuples.

    Pairs include near-coincident points (spacings down to 1e-8 of the box)
    so Hoelder violations that only show at small scales are caught. Each
    point is handed to the coefficients as the engine hands its particles:
    a one-element array, and a one-particle SegmentBatch for the path drift,
    whose segment distance `l1m_norm` reads from the same kind of batch.
    """
    lo, hi = float(box[0]), float(box[1])
    if not lo < hi:
        raise ValueError("box must satisfy lo < hi")
    rng = np.random.default_rng(seed)
    width = hi - lo

    r = model.delay_measure.span
    h = (r / 16.0) if r > 0 else 1.0
    seg_len = (16 if r > 0 else 0) + 1

    def rand_segment():
        return lo + (hi - lo) * rng.random(seg_len)

    def batch(vals):
        return SegmentBatch(vals[None], 0, r, h)

    def one(value) -> float:
        """The value at the one particle; a coefficient may return a scalar that broadcasts."""
        return float(np.ravel(value)[0])

    worst = {"drift": (-np.inf, None), "path": (-np.inf, None), "sigma": (-np.inf, None)}
    k_b_hat = -np.inf
    k_B_hat = 0.0
    k_sig_hat = 0.0
    drift_viol = path_viol = sig_viol = 0.0
    log_pairs = []

    for i in range(sample_count):
        t = float(rng.choice(_T_GRID))
        x = lo + width * rng.random()
        if i % 3 == 0:
            # near pair at a log-uniform spacing
            d = width * 10.0 ** rng.uniform(-8.0, 0.0) * rng.choice([-1.0, 1.0])
            y = float(np.clip(x + d, lo, hi))
        elif i % 3 == 1:
            # pair anchored at the origin, where kinked coefficients are worst
            x = float(np.clip(width * 10.0 ** rng.uniform(-8.0, 0.0) * rng.choice([-1.0, 1.0]),
                              lo, hi))
            y = 0.0
        else:
            y = lo + width * rng.random()
        mu = EmpiricalMeasure(lo + width * rng.random(_MEASURE_SIZE))
        nu = EmpiricalMeasure(lo + width * rng.random(_MEASURE_SIZE))
        wmn = w1(mu, nu)
        dx = abs(x - y)
        px, py = np.array([x]), np.array([y])

        # one-sided drift condition
        gap = one(eval_drift(model, t, px, mu)) - one(eval_drift(model, t, py, nu))
        lhs = gap * np.sign(x - y)
        rhs_scale = wmn + dx
        if rhs_scale > 0:
            ratio = float(lhs) / rhs_scale
            if ratio > k_b_hat:
                k_b_hat = ratio
                worst["drift"] = (ratio, (t, x, y))
            drift_viol = max(drift_viol, float(lhs) - model.K_b * rhs_scale)

        # Hoelder diffusion
        dsig = abs(one(eval_sigma(model, t, px)) - one(eval_sigma(model, t, py)))
        if dx > 0:
            ratio = dsig / dx ** model.alpha
            if ratio > k_sig_hat:
                k_sig_hat = ratio
                worst["sigma"] = (ratio, (t, x, y))
            sig_viol = max(sig_viol, dsig - model.K_sigma * dx ** model.alpha)
            if dsig > 0:
                log_pairs.append((np.log(dx), np.log(dsig)))

        # path-drift Lipschitz condition (every 4th sample: segments are costly)
        if i % 4 == 0:
            xi, eta = rand_segment(), rand_segment()
            dB = abs(one(eval_path_drift(model, t, batch(xi), mu))
                     - one(eval_path_drift(model, t, batch(eta), nu)))
            norm = one(l1m_norm(batch(xi - eta), model.delay_measure)) + wmn
            if norm > 0:
                ratio = dB / norm
                if ratio > k_B_hat:
                    k_B_hat = ratio
                    worst["path"] = (ratio, (t,))
                path_viol = max(path_viol, dB - model.K_B * norm)

    # zero-point bounds declared alongside the regularity conditions
    zero_seg = batch(np.zeros(seg_len))
    delta0 = EmpiricalMeasure([0.0])
    bounds_ok = True
    for t in _T_GRID:
        if abs(one(eval_sigma(model, float(t), np.zeros(1)))) > model.K_sigma + _TOL:
            bounds_ok = False
        if abs(one(eval_path_drift(model, float(t), zero_seg, delta0))) > model.K_B + _TOL:
            bounds_ok = False

    # Hoelder exponent estimate: slope of the upper envelope of |dsigma|
    # against |x - y| across log-spaced distance bins. The envelope (not a
    # pointwise fit) is what tracks the worst-case exponent the constant
    # K_sigma has to cover.
    if len(log_pairs) >= 32:
        lp = np.array(log_pairs)
        edges = np.linspace(lp[:, 0].min(), lp[:, 0].max(), 13)
        centers, peaks = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            m = (lp[:, 0] >= a) & (lp[:, 0] < b)
            if m.any():
                centers.append(0.5 * (a + b))
                peaks.append(lp[m, 1].max())
        alpha_hat = float(np.polyfit(centers, peaks, 1)[0]) if len(centers) >= 3 else float("nan")
    else:
        alpha_hat = float("nan")

    return AssumptionReport(
        K_b_hat=k_b_hat, K_B_hat=k_B_hat, K_sigma_hat=k_sig_hat, alpha_hat=alpha_hat,
        drift_ok=drift_viol <= _TOL, path_drift_ok=path_viol <= _TOL,
        sigma_ok=sig_viol <= _TOL, bounds_ok=bounds_ok,
        witnesses={k: v for k, v in worst.items()},
        tol=_TOL,
    )
