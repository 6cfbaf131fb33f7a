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
from contextlib import closing
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

    def __init__(self, times, values, initial_law=None, presorted=False):
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
        self.initial_law = initial_law

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
        """The measure at grid time k."""
        return EmpiricalMeasure(self.values[k], presorted=True)

    @classmethod
    def from_record(cls, record, initial_law=None) -> "MeasureFlow":
        return cls(record.times, record.values, initial_law=initial_law)

    @classmethod
    def point_flow(cls, times, centers, initial_law=None) -> "MeasureFlow":
        """Point-mass flow: one atom per time (useful as an oracle mean flow)."""
        centers = np.asarray(centers, dtype=float)
        return cls(times, centers[:, None], initial_law=initial_law, presorted=True)

    @classmethod
    def constant_flow(cls, times, samples, initial_law=None) -> "MeasureFlow":
        """The same sample set at every time (the standard initial guess)."""
        samples = np.sort(np.asarray(samples, dtype=float))
        vals = np.tile(samples, (len(times), 1))
        return cls(times, vals, initial_law=initial_law, presorted=True)

    def w1_curve(self, other: "MeasureFlow") -> np.ndarray:
        if self.steps != other.steps or abs(self.times[-1] - other.times[-1]) > 1e-12:
            raise ValueError("flows live on different grids")
        return w1_sorted_rows(self.values, other.values)

    def w1_at(self, k: int, rows: np.ndarray) -> np.ndarray:
        """W1 between the measure at grid time k and each row of a row-sorted stack."""
        return w1_sorted_rows(rows, np.broadcast_to(self.measure_at(k).samples,
                                                    (len(rows), self.m)))

    def rows(self):
        """The sorted row of every grid time, in order."""
        yield from self.values

    def write_csv(self, path) -> None:
        index = [str(j) for j in range(self.m)]
        write_table(path, "t,sample_index,value",
                    (([repr(t)] * self.m, index, row)
                     for t, row in zip(self.times.tolist(), self.values)))


class FrozenFlow(MeasureFlow):
    """The empirical law of M paths driven by a frozen flow, stepped when it
    is read. `rows()` steps a fresh run and hands over each grid time's
    sorted row as the run reaches it, so a reader that keeps none holds one
    row at a time, however many steps there are; `values` steps it once and
    keeps every row, so no record is kept and none is sorted again."""

    def __init__(self, config: SimConfig, model: ModelSpec, flow: MeasureFlow, M: int,
                 seed: int):
        # the rows come with `values`, from a run whose update check keeps them finite
        self.times = config.times
        self.initial_law = flow.initial_law
        self._law = (config, model, flow, M, seed)
        self._values = None

    @property
    def m(self) -> int:
        return self._law[3]

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            values = np.empty((len(self.times), self.m))
            for k, row in enumerate(self.rows()):
                values[k] = row
            self._values = values
        return self._values

    def rows(self):
        held = []
        run = simulate_frozen(*self._law, observe=lambda k, x, xs: held.append(xs.copy()),
                              lazy=True)
        with closing(run):   # a reader that stops early joins the run's helper
            for _ in run:
                yield held.pop()
        yield held.pop()     # the last grid time, observed as the run ended


class StreamedFlow:
    """One pass over a flow's sorted rows, one grid time at a time, holding
    only the current row. It offers what the engine and the sweeps read of
    a MeasureFlow (`steps`, `m`, `initial_law`, `measure_at`, `w1_at`), at
    the current grid time only; `advance` moves to the next one."""

    def __init__(self, flow: MeasureFlow):
        self.times = flow.times
        self.initial_law = flow.initial_law
        self.m = flow.m
        self._rows = flow.rows()
        self._k = -1
        self._mu = None

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def advance(self) -> None:
        self._mu = None   # the old row goes before the next one is stepped
        self._mu = EmpiricalMeasure(next(self._rows), presorted=True)
        self._k += 1

    def measure_at(self, k: int) -> EmpiricalMeasure:
        if k != self._k:
            raise ValueError(f"streamed flow is at grid time {self._k}, not {k}")
        return self._mu

    w1_at = MeasureFlow.w1_at   # one body: it reads the row through `measure_at`

    def close(self) -> None:
        self._rows.close()


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
    return MeasureFlow(config.times, FrozenFlow(config, model, flow, M, seed).values,
                       initial_law=flow.initial_law, presorted=True)


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
                      max_iter: int = 25) -> FixedPointResult:
    """Iterate the frozen-flow map from the initial-law constant flow.

    Stops when the weighted distance between successive iterates falls
    under tol, or when it plateaus within twice the measured noise floor
    for three consecutive iterations (the Monte Carlo resolution limit).
    The floor is measured directly: the map is applied twice to the same
    flow with independent sub-seeds and the distance of the two outputs is
    the floor. Non-convergence is reported in the result, never silent.
    Every iteration draws fresh noise.
    """
    lam = default_lambda(model) if lam is None else float(lam)
    init_samples = initial_law.sample(rng.derive_seed(config.seed, _PICARD, 0), M)
    flow = MeasureFlow.constant_flow(config.times, init_samples, initial_law=initial_law)

    def sub_seed(it: int) -> int:
        return rng.derive_seed(config.seed, _PICARD, it + 1)

    probe_a = apply_phi(config, model, flow, M, sub_seed(0))
    probe_b = apply_phi(config, model, flow, M, rng.derive_seed(config.seed, _PICARD_PROBE, 0))
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
        flow = new
        if r < tol:
            return FixedPointResult(flow, rhos, True, "tol", noise_floor, lam)
        plateau = plateau + 1 if r <= 2.0 * noise_floor else 0
        if plateau >= 3:
            return FixedPointResult(flow, rhos, True, "noise-floor plateau", noise_floor, lam)
        if it < max_iter - 1:
            new = apply_phi(config, model, flow, M, sub_seed(it + 1))
    return FixedPointResult(flow, rhos, False, "max_iter", noise_floor, lam)
