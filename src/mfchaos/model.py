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
term written `c * mu.mean` broadcasts row by row. The audit hands over each
audit time's tuples as such a stack of K one-particle systems, (K, 1), and
its zero-point bounds one element. Coefficients must act elementwise.

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

from .measures import EmpiricalMeasure, w1_sorted_rows
from .paths import DelayMeasure, SegmentBatch, l1m_norm


class ModelError(Exception):
    """A coefficient returned a non-finite value."""


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients and declared constants; x is a float64 array, (N,) or a
    (K, N) stack, the segment a SegmentBatch, and mu.mean a float or a
    (K, 1) column (see the module docstring). The initial data's moment
    order is no constant of the model: the initial law states it."""

    name: str
    drift: Callable          # (t, x, mu[, out]) -> like x; out= optional (module docstring)
    path_drift: Callable     # (t, SegmentBatch, mu) -> per-particle values
    sigma: Callable          # (t, x[, out]) -> like x; out= optional (module docstring)
    K_b: float               # one-sided drift constant, may be negative
    K_B: float
    K_sigma: float
    alpha: float
    delay_measure: DelayMeasure
    sigma_sq_floor: float = 0.0       # declared ellipticity floor, 0 = none

    def __post_init__(self):
        if not (0.5 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in the Hoelder range [1/2, 1], got {self.alpha!r}")
        if self.K_B < 0 or self.K_sigma < 0:
            raise ValueError("K_B and K_sigma must be non-negative")
        if not np.isfinite([self.K_b, self.K_B, self.K_sigma]).all():
            raise ValueError("declared constants must be finite")


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
                      alpha: float = 1.0) -> ModelSpec:
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
        delay_measure=DelayMeasure.dirac(0.0), sigma_sq_floor=sigma0 ** 2,
    )


def make_sqrt_model(kappa: float = 1.0, theta: float = 1.0, c: float = 0.5,
                    sigma0: float = 0.2, alpha: float = 0.5) -> ModelSpec:
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
        delay_measure=DelayMeasure.dirac(0.0),
    )


def make_delay_model(beta: float = 1.0, r: float = 1.0, a: float = 0.0,
                     sigma0: float = 0.0, alpha: float = 1.0,
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
        delay_measure=dm, sigma_sq_floor=sigma0 ** 2,
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
    so Hoelder violations that only show at small scales are caught. The
    tuples are drawn first, then each coefficient is called once per audit
    time on its K tuples as a run hands over a stack: x and y (K, 1), mu and
    nu stacked EmpiricalMeasures, the segments one (K, 1, width) SegmentBatch.
    The zero-point bounds hand over one element and a one-particle batch.
    """
    lo, hi = float(box[0]), float(box[1])
    if not lo < hi:
        raise ValueError("box must satisfy lo < hi")
    rng = np.random.default_rng(seed)
    width = hi - lo

    r = model.delay_measure.span
    h, seg_len = (r / 16.0, 17) if r > 0 else (1.0, 1)   # 16 steps across the window

    def batch(vals):
        """One particle's segment, or a (K, width) array as K systems of one."""
        return SegmentBatch(vals[..., None, :], 0, r, h)

    points, atoms, segments = [], [], []
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
        points.append((t, x, y))
        atoms.append(lo + width * rng.random((2, _MEASURE_SIZE)))   # mu's, then nu's
        if i % 4 == 0:   # the path drift is probed on every 4th tuple: segments are costly
            segments.append(lo + width * rng.random((2, seg_len)))   # xi, then eta

    t, x, y = np.reshape(points, (-1, 3)).T
    measures = np.sort(np.reshape(atoms, (-1, 2, _MEASURE_SIZE)), axis=-1)
    xi, eta = np.reshape(segments, (-1, 2, seg_len)).transpose(1, 0, 2)
    wmn = w1_sorted_rows(measures[:, 0], measures[:, 1])

    def mu_nu(rows):
        return (EmpiricalMeasure(measures[rows, k], presorted=True, stacked=True) for k in (0, 1))

    # each call's value is a (K, 1) column, or a scalar that broadcasts
    fx, fy, sx, sy = np.empty((4, len(t)))
    bx, by = np.empty((2, len(xi)))
    for tk in _T_GRID.tolist():
        rows = np.flatnonzero(t == tk)
        probes = rows[rows % 4 == 0]
        if len(rows):
            mu, nu = mu_nu(rows)
            fx[rows, None] = eval_drift(model, tk, x[rows, None], mu)
            fy[rows, None] = eval_drift(model, tk, y[rows, None], nu)
            sx[rows, None] = eval_sigma(model, tk, x[rows, None])
            sy[rows, None] = eval_sigma(model, tk, y[rows, None])
        if len(probes):
            (mu, nu), j = mu_nu(probes), probes // 4
            bx[j, None] = eval_path_drift(model, tk, batch(xi[j]), mu)
            by[j, None] = eval_path_drift(model, tk, batch(eta[j]), nu)

    def audit(value, scale, probed, bound, floor, *coords):
        """The largest probed value / scale and (it, its first tuple's coords), else
        (floor, (-inf, None)); and whether value <= bound * scale + tol where probed."""
        ratio = np.divide(value, scale, out=np.full(len(value), -np.inf), where=probed)
        ok = float(np.max(value - bound * scale, where=probed, initial=0.0)) <= _TOL
        j = int(np.argmax(ratio)) if len(ratio) else 0
        if not (len(ratio) and ratio[j] > floor):
            return floor, (-np.inf, None), ok
        return float(ratio[j]), (float(ratio[j]), tuple(float(c[j]) for c in coords)), ok

    # one-sided drift condition
    dx = np.abs(x - y)
    rhs_scale = wmn + dx
    k_b_hat, drift_worst, drift_ok = audit((fx - fy) * np.sign(x - y), rhs_scale,
                                           rhs_scale > 0, model.K_b, -np.inf, t, x, y)
    # Hoelder diffusion, with Python's float pow per tuple: np.power may round otherwise
    dsig = np.abs(sx - sy)
    scale = np.array([d ** model.alpha for d in dx.tolist()])
    k_sig_hat, sigma_worst, sigma_ok = audit(dsig, scale, dx > 0, model.K_sigma, 0.0, t, x, y)
    # path-drift Lipschitz condition
    dB = np.abs(bx - by)
    norm = l1m_norm(batch(xi - eta), model.delay_measure)[:, 0] + wmn[::4]
    k_B_hat, path_worst, path_ok = audit(dB, norm, norm > 0, model.K_B, 0.0, t[::4])

    # zero-point bounds declared alongside the regularity conditions
    zero_seg, delta0 = batch(np.zeros(seg_len)), EmpiricalMeasure([0.0])
    bounds_ok = True
    for tk in _T_GRID.tolist():
        s0, b0 = eval_sigma(model, tk, np.zeros(1)), eval_path_drift(model, tk, zero_seg, delta0)
        bounds_ok &= bool(np.all(np.abs(s0) <= model.K_sigma + _TOL)
                          and np.all(np.abs(b0) <= model.K_B + _TOL))

    # Hoelder exponent estimate: slope of the upper envelope of |dsigma|
    # against |x - y| across log-spaced distance bins. The envelope (not a
    # pointwise fit) is what tracks the worst-case exponent the constant
    # K_sigma has to cover.
    logged = (dx > 0) & (dsig > 0)
    log_dx, log_dsig = np.log(dx[logged]), np.log(dsig[logged])
    if len(log_dx) >= 32:
        edges = np.linspace(log_dx.min(), log_dx.max(), 13)
        centers, peaks = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            m = (log_dx >= a) & (log_dx < b)
            if m.any():
                centers.append(0.5 * (a + b))
                peaks.append(log_dsig[m].max())
        alpha_hat = float(np.polyfit(centers, peaks, 1)[0]) if len(centers) >= 3 else float("nan")
    else:
        alpha_hat = float("nan")

    return AssumptionReport(
        K_b_hat=k_b_hat, K_B_hat=k_B_hat, K_sigma_hat=k_sig_hat, alpha_hat=alpha_hat,
        drift_ok=drift_ok, path_drift_ok=path_ok, sigma_ok=sigma_ok, bounds_ok=bounds_ok,
        witnesses={"drift": drift_worst, "path": path_worst, "sigma": sigma_worst},
        tol=_TOL,
    )
