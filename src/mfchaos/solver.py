"""Measure flows and the Picard iteration on them.

A MeasureFlow is a time-indexed family of empirical measures on the
simulation grid. The map under iteration sends a flow to the empirical
law of M paths simulated with that flow frozen into the coefficients;
under the exponentially weighted sup-W1 metric the map is a contraction,
so iterating from the initial-law constant flow walks to the mean-field
law until the Monte Carlo resolution is reached.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .engine import SimConfig, simulate_frozen
from .measures import EmpiricalMeasure, w1_sorted_rows
from .measures import w1_sorted  # noqa: F401  (perfbench/tracer.py wraps it by this name)
from .model import ModelSpec
from .table import write_table

# stream labels for iteration sub-seeds, distinct from the engine streams
_PICARD = 2
_PICARD_PROBE = 3


class MeasureFlow:
    """One empirical measure per grid time, all with the same sample count."""

    def __init__(self, times, values, tag: str = "", initial_law=None, presorted=False):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != len(times):
            raise ValueError("values must be (len(times), M)")
        if values.shape[1] < 1:
            raise ValueError("flow snapshots must be non-empty")
        if not np.isfinite(values).all():
            raise ValueError("flow values must be finite")
        dt = np.diff(times)
        if len(dt) and (dt.min() <= 0 or dt.max() - dt.min() > 1e-12 * max(times[-1], 1.0)):
            raise ValueError("flow time grid must be uniform and increasing")
        self.times = times
        self.values = values if presorted else np.sort(values, axis=1)
        self.tag = tag
        self.initial_law = initial_law
        self._measures: list[EmpiricalMeasure | None] = [None] * len(times)

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def means(self) -> np.ndarray:
        return self.values.mean(axis=1)

    def measure_at(self, k: int) -> EmpiricalMeasure:
        """The measure at grid time k, built on first use and then shared."""
        # sweep threads may race to build the same entry; both builds are equal
        mu = self._measures[k]
        if mu is None:
            mu = self._measures[k] = EmpiricalMeasure(self.values[k], presorted=True)
        return mu

    @classmethod
    def from_record(cls, record, tag: str = "", initial_law=None) -> "MeasureFlow":
        return cls(record.times, record.values, tag=tag, initial_law=initial_law)

    @classmethod
    def point_flow(cls, times, centers, tag: str = "point", initial_law=None) -> "MeasureFlow":
        """Point-mass flow: one atom per time (useful as an oracle mean flow)."""
        centers = np.asarray(centers, dtype=float)
        return cls(times, centers[:, None], tag=tag, initial_law=initial_law, presorted=True)

    @classmethod
    def constant_flow(cls, times, samples, tag: str = "constant",
                      initial_law=None) -> "MeasureFlow":
        """The same sample set at every time (the standard initial guess)."""
        samples = np.sort(np.asarray(samples, dtype=float))
        vals = np.tile(samples, (len(times), 1))
        return cls(times, vals, tag=tag, initial_law=initial_law, presorted=True)

    def w1_curve(self, other: "MeasureFlow") -> np.ndarray:
        if self.steps != other.steps or abs(self.times[-1] - other.times[-1]) > 1e-12:
            raise ValueError("flows live on different grids")
        return w1_sorted_rows(self.values, other.values)

    def w1_at(self, k: int, rows: np.ndarray) -> np.ndarray:
        """W1 between the measure at grid time k and each row of a row-sorted stack."""
        return w1_sorted_rows(rows, np.broadcast_to(self.values[k], (len(rows), self.m)))

    def write_csv(self, path) -> None:
        index = [str(j) for j in range(self.m)]
        write_table(path, "t,sample_index,value",
                    (([repr(t)] * self.m, index, row)
                     for t, row in zip(self.times.tolist(), self.values)))


def rho_metric(a: MeasureFlow, b: MeasureFlow, lam: float) -> float:
    """sup over the grid of exp(-lam * t) * W1(a_t, b_t)."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    curve = a.w1_curve(b)
    return float(np.max(np.exp(-lam * a.times) * curve))


def default_lambda(model: ModelSpec) -> float:
    """Weight scale 4*(K_b^+ + K_B + 1): comfortably past the contraction
    threshold for the declared constants."""
    return 4.0 * (max(model.K_b, 0.0) + model.K_B + 1.0)


def apply_phi(config: SimConfig, model: ModelSpec, flow: MeasureFlow, M: int,
              seed: int) -> MeasureFlow:
    """One iteration: empirical law of M paths driven by the frozen flow.

    Initial segments are re-sampled from the declared law with this call's
    seed, so the flow family keeps the initial law fixed in distribution.
    """
    if M < 2:
        raise ValueError("need at least two paths per iteration")
    return frozen_law(config, model, flow, M, seed, tag="iterate")


def frozen_law(config: SimConfig, model: ModelSpec, flow: MeasureFlow, M: int,
               seed: int, tag: str = "") -> MeasureFlow:
    """Empirical law of M paths driven by the frozen flow, kept from the
    rows each step sorts anyway, so no record is kept or sorted again."""
    values = np.empty((config.steps + 1, M))

    def keep(k, x, xs):
        values[k] = xs

    simulate_frozen(config, model, flow, M, seed, observe=keep, record=False)
    return MeasureFlow(config.times, values, tag=tag, initial_law=flow.initial_law,
                       presorted=True)


@dataclass
class FixedPointResult:
    flow: MeasureFlow
    rhos: list[float]
    converged: bool
    reason: str
    noise_floor: float
    lam: float
    iterations: int = field(init=False)

    def __post_init__(self):
        self.iterations = len(self.rhos)

    def write_diagnostics_csv(self, path) -> None:
        write_table(path, "iter,rho", [(range(len(self.rhos)), self.rhos)])


def solve_fixed_point(config: SimConfig, model: ModelSpec, initial_law, M: int,
                      lam: float | None = None, tol: float = 1e-3,
                      max_iter: int = 25, seed: int | None = None,
                      common_noise: bool = False) -> FixedPointResult:
    """Iterate the frozen-flow map from the initial-law constant flow.

    Stops when the weighted distance between successive iterates falls
    under tol, or when it plateaus within twice the measured noise floor
    for three consecutive iterations (the Monte Carlo resolution limit).
    The floor is measured directly: the map is applied twice to the same
    flow with independent sub-seeds and the distance of the two outputs is
    the floor. Non-convergence is reported in the result, never silent.

    common_noise=True reuses one sub-seed for every iteration; successive
    iterates are then positively correlated, which looks faster but makes
    the measured floor meaningless as a stopping guard, so the default is
    fresh noise per iteration.
    """
    seed = config.seed if seed is None else seed
    lam = default_lambda(model) if lam is None else float(lam)
    init_samples = initial_law.sample(rng.derive_seed(seed, _PICARD, 0), M)
    flow = MeasureFlow.constant_flow(config.times, init_samples, tag="initial-guess",
                                     initial_law=initial_law)

    def sub_seed(it: int) -> int:
        return rng.derive_seed(seed, _PICARD, 1 if common_noise else it + 1)

    probe_a = apply_phi(config, model, flow, M, sub_seed(0))
    probe_b = apply_phi(config, model, flow, M, rng.derive_seed(seed, _PICARD_PROBE, 0))
    noise_floor = rho_metric(probe_a, probe_b, lam)
    if tol < noise_floor:
        warnings.warn(
            f"tol={tol:g} is below the measured Monte Carlo noise floor "
            f"{noise_floor:g} at M={M}; the plateau rule will govern stopping")

    rhos: list[float] = []
    new = probe_a
    plateau = 0
    for it in range(max_iter):
        r = rho_metric(flow, new, lam)
        rhos.append(r)
        new.tag = f"iterate-{it + 1}"
        flow = new
        if r < tol:
            return FixedPointResult(flow, rhos, True, "tol", noise_floor, lam)
        plateau = plateau + 1 if r <= 2.0 * noise_floor else 0
        if plateau >= 3:
            return FixedPointResult(flow, rhos, True, "noise-floor plateau", noise_floor, lam)
        if it < max_iter - 1:
            new = apply_phi(config, model, flow, M, sub_seed(it + 1))
    return FixedPointResult(flow, rhos, False, "max_iter", noise_floor, lam)
