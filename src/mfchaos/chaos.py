"""Propagation-of-chaos experiments: rates across N, coupling error, TV study.

The headline experiment runs the interacting system at several ensemble
sizes against a fixed reference flow (an oracle mean-flow construction for
the built-in models, or a solved fixed point otherwise), averages the
sup-in-time W1 error over replicas, and fits a log-log slope to compare
with the theoretical exponent min(1/2, (p-1)/p). Every run also records
the synchronous-coupling quantities, so the exact per-run triangle
inequality through the i.i.d.-copies empirical measure is checked for free.

Every experiment steps stacks through the engine's one loop (all replicas
of one N together), and sweeps over N share one thread pool (`_per_n`).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import engine, rng
from .engine import (ConstantLaw, GaussianLaw, ParticleEnsemble, SimConfig, coupled_stack,
                     simulate_frozen, simulate_interacting)
from .engine import simulate_coupled  # noqa: F401  (perfbench/tracer.py wraps it by this name)
from .model import ModelSpec
from .solver import MeasureFlow
from .table import write_table
from .measures import EmpiricalMeasure, tv_estimate

_REF_STREAM = 7   # sub-seed label for reference-flow construction


def theoretical_exponent(p: float) -> float:
    """Dominant decay exponent min(1/2, (p-1)/p) of the chaos rate.

    p = 2 sits outside the supported moment cases and is rejected rather
    than interpolated.
    """
    if not (p > 1):
        raise ValueError(f"moment order must exceed 1, got {p!r}")
    if p == 2:
        raise ValueError("moment order 2 is excluded; pick p on either side")
    return min(0.5, (p - 1.0) / p)


def fit_loglog(xs, ys) -> tuple[float, float, float]:
    """OLS fit of log(ys) against log(xs): (slope, intercept, slope stderr)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys) or len(xs) < 3:
        raise ValueError("need at least three points to fit a rate")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs strictly positive values (degenerate input)")
    lx, ly = np.log(xs), np.log(ys)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    dof = len(xs) - 2
    rss = float(res[0]) if len(res) else float(np.sum((ly - A @ coef) ** 2))
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    stderr = float(np.sqrt(rss / dof / sxx)) if dof > 0 and sxx > 0 else float("nan")
    return slope, intercept, stderr


# ---------------------------------------------------------------------------
# reference flows


def oracle_mean_flow(config: SimConfig, model: ModelSpec, initial_law) -> MeasureFlow:
    """Point-mass flow at the scheme's own mean recursion.

    Valid whenever the drift is affine in (x, mean) -- true for the whole
    model zoo -- because then the ensemble mean satisfies a closed
    deterministic recursion, realized here by one noiseless particle.
    """
    silent = replace(model, sigma=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
                     name=f"{model.name}-mean")
    cfg = replace(config, N=1)
    rec = simulate_interacting(cfg, silent, ConstantLaw(initial_law.mean))
    return MeasureFlow.point_flow(config.times, rec.values[:, 0], tag="oracle-mean",
                                  initial_law=initial_law)


def build_reference_flow(config: SimConfig, model: ModelSpec, initial_law, M: int,
                         seed: int | None = None) -> MeasureFlow:
    """M-sample reference: paths frozen to the oracle mean flow.

    For the zoo models the frozen dynamics at the mean flow coincide with
    the mean-field limit of the scheme, so this is an M-sample draw of the
    limit law at every grid time.
    """
    seed = rng.derive_seed(config.seed, _REF_STREAM) if seed is None else seed
    mean_flow = oracle_mean_flow(config, model, initial_law)
    rec = simulate_frozen(config, model, mean_flow, M, seed)
    out = MeasureFlow.from_record(rec, tag=f"reference-M{M}", initial_law=mean_flow.initial_law)
    return out


# ---------------------------------------------------------------------------
# the sweep


@dataclass(frozen=True)
class RunDiagnostics:
    N: int
    replica: int
    seed: int
    w1_sup: float           # sup_t W1(interacting empirical, reference)
    pairing_sup: float      # sup_t mean |X_i - X_i^N| under the coupling
    limit_w1_sup: float     # sup_t W1(i.i.d.-copies empirical, reference)
    triangle_ok: bool       # w1_sup <= pairing_sup + limit_w1_sup (+1e-12)


@dataclass
class RateReport:
    N_list: list[int]
    error_mean: np.ndarray
    error_stderr: np.ndarray
    slope: float
    intercept: float
    slope_stderr: float
    theoretical: float
    runs: list[RunDiagnostics]

    def write_csv(self, path) -> None:
        write_table(path, "N,error_mean,error_stderr",
                    [(self.N_list, self.error_mean, self.error_stderr)])

    def write_summary_csv(self, path) -> None:
        write_table(path, "slope,stderr,theoretical_exponent",
                    [([self.slope], [self.slope_stderr], [self.theoretical])])

    def write_runs_csv(self, path) -> None:
        # seeds straddle 2**63: they stay Python ints, never a numpy column
        write_table(path, "N,replica,seed,w1_sup,pairing_sup,limit_w1_sup,triangle_ok",
                    [([d.N], [d.replica], [d.seed], [d.w1_sup], [d.pairing_sup],
                      [d.limit_w1_sup], [int(d.triangle_ok)]) for d in self.runs])


def _one_coupled_run(config: SimConfig, model: ModelSpec, reference: MeasureFlow,
                     N: int, replicas: int, master_seed: int) -> list[RunDiagnostics]:
    """Every replica at one N, as one coupled stack scored while it steps.

    Replica r runs with seed derive_seed(master_seed, N, r). At each grid
    time the sorted stack the step builds is scored against the reference,
    and the pairing gap is taken from the unsorted state, so no trajectory
    is kept.
    """
    seeds = [rng.derive_seed(master_seed, N, r) for r in range(replicas)]
    w1_sup = np.zeros(2 * replicas)    # interacting rows, then their twins
    pairing_sup = np.zeros(replicas)

    def score(k, x, xs):
        np.maximum(w1_sup, reference.w1_at(k, xs), out=w1_sup)
        gap = np.abs(x[:replicas] - x[replicas:]).mean(axis=1)
        np.maximum(pairing_sup, gap, out=pairing_sup)

    coupled_stack(replace(config, N=N), model, reference, seeds, observe=score, record=False)
    runs = []
    for r, seed in enumerate(seeds):
        hat, tld, pair = float(w1_sup[r]), float(w1_sup[replicas + r]), float(pairing_sup[r])
        runs.append(RunDiagnostics(N=N, replica=r, seed=seed, w1_sup=hat,
                                   pairing_sup=pair, limit_w1_sup=tld,
                                   triangle_ok=hat <= pair + tld + 1e-12))
    return runs


def _per_n(task, sizes, workers: int) -> list:
    """task(N) for each N in sizes, in that order; with workers > 1 on one
    thread pool, largest N first."""
    if workers <= 1:
        return [task(N) for N in sizes]
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futs = {i: pool.submit(task, sizes[i]) for i in order}
    return [futs[i].result() for i in range(len(sizes))]


def _coupled_sweep(config: SimConfig, model: ModelSpec, reference: MeasureFlow,
                   N_list, replicas: int, workers: int = 1) -> list[RunDiagnostics]:
    per_n = _per_n(lambda N: _one_coupled_run(config, model, reference, N, replicas, config.seed),
                   [int(N) for N in N_list], workers)
    return [d for runs in per_n for d in runs]


def _per_n_stats(N_list, runs, field: str, replicas: int) -> tuple[np.ndarray, np.ndarray]:
    """Replica mean and standard error of one RunDiagnostics field per N."""
    per_n = {n: [] for n in N_list}
    for d in runs:
        per_n[d.N].append(getattr(d, field))
    means = np.array([np.mean(per_n[n]) for n in N_list])
    stderrs = np.array([np.std(per_n[n], ddof=1) / np.sqrt(max(replicas, 2)) for n in N_list])
    return means, stderrs


def estimate_chaos_rate(config_base: SimConfig, model: ModelSpec, N_list, replicas: int,
                        reference: MeasureFlow, workers: int = 1) -> RateReport:
    """Sweep N, average sup-t W1 against the reference over replicas, fit
    the log-log rate. Seeds derive from (config seed, N, replica), so the
    report is reproducible and independent of the worker count."""
    N_list = [int(n) for n in N_list]
    if len(N_list) < 3 or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("need at least three strictly increasing ensemble sizes")
    if replicas < 2:
        raise ValueError("need at least two replicas for standard errors")
    runs = _coupled_sweep(config_base, model, reference, N_list, replicas, workers)
    means, stderrs = _per_n_stats(N_list, runs, "w1_sup", replicas)
    slope, intercept, sst = fit_loglog(N_list, means)
    return RateReport(N_list=N_list, error_mean=means, error_stderr=stderrs,
                      slope=slope, intercept=intercept, slope_stderr=sst,
                      theoretical=theoretical_exponent(model.moment_order), runs=runs)


@dataclass
class CouplingReport:
    N_list: list[int]
    error_mean: np.ndarray     # per-N replica mean of sup_t pairing error
    error_stderr: np.ndarray
    slope: float
    runs: list[RunDiagnostics]

    write_csv = RateReport.write_csv


def coupling_error_curve(config_base: SimConfig, model: ModelSpec, reference: MeasureFlow,
                         N_list, replicas: int, workers: int = 1) -> CouplingReport:
    """Per-N sup-t pathwise gap between each particle and its mean-field twin."""
    N_list = [int(n) for n in N_list]
    runs = _coupled_sweep(config_base, model, reference, N_list, replicas, workers)
    means, stderrs = _per_n_stats(N_list, runs, "pairing_sup", replicas)
    slope = fit_loglog(N_list, means)[0] if len(N_list) >= 3 and np.all(means > 0) else float("nan")
    return CouplingReport(N_list=N_list, error_mean=means, error_stderr=stderrs,
                          slope=slope, runs=runs)


# ---------------------------------------------------------------------------
# marginal total-variation study


@dataclass
class TvStudyReport:
    N_list: list[int]
    times: list[float]
    table: np.ndarray    # (len(N_list), len(times)) TV estimates

    def write_csv(self, path) -> None:
        times = [float(t) for t in self.times]
        write_table(path, "N,t,tv_estimate",
                    [([nv] * len(times), times, row) for nv, row in zip(self.N_list, self.table)])


def marginal_tv_study(config_base: SimConfig, model: ModelSpec, reference: MeasureFlow,
                      N_list, replicas: int, times, bin_width: float | None = None,
                      workers: int = 1) -> TvStudyReport:
    """Histogram TV between the single-particle marginal and the reference.

    Requires the model to declare a positive diffusion floor
    (sigma_sq_floor > 0): without uniform ellipticity the marginal laws
    need not be comparable in total variation and the study refuses to run.
    Particle values are pooled across the exchangeable ensemble and the
    replicas, which sharpens the per-N marginal sample without biasing it.
    """
    if not (model.sigma_sq_floor > 0):
        raise ValueError(
            "model does not declare a uniform ellipticity floor (sigma_sq_floor > 0); "
            "the total-variation study requires one")
    if reference.initial_law is None:
        raise ValueError("reference flow carries no initial law to sample runs from")
    if replicas < 1:
        raise ValueError("need at least one replica")
    N_list = [int(n) for n in N_list]
    times = [float(t) for t in times]
    k_idx = []
    for t in times:
        k = int(round(t / config_base.dt))
        if abs(k * config_base.dt - t) > 1e-9 or not (0 <= k <= config_base.steps):
            raise ValueError(f"study time {t!r} is not on the simulation grid")
        k_idx.append(k)

    def run_pool(N: int) -> dict[int, np.ndarray]:
        seeds = [rng.derive_seed(config_base.seed, N, rep) for rep in range(replicas)]
        cfg = replace(config_base, N=N)
        ens = ParticleEnsemble.from_law(cfg, reference.initial_law, seed=seeds)
        pools = {}

        def keep(k, x, xs):
            if k in k_idx:
                pools[k] = x.flatten()   # a copy: x is a view of the ring buffer
        engine._run(cfg, model, ens, seeds, observe=keep, record=False)
        return pools

    table = np.empty((len(N_list), len(times)))
    for i, pools in enumerate(_per_n(run_pool, N_list, workers)):
        for j, k in enumerate(k_idx):
            ref = reference.measure_at(k)
            table[i, j] = tv_estimate(EmpiricalMeasure(pools[k]), ref, bin_width)
    return TvStudyReport(N_list=N_list, times=times, table=table)


# ---------------------------------------------------------------------------
# stability under an initial perturbation


@dataclass
class StabilityResult:
    times: np.ndarray
    mean_abs_diff: np.ndarray
    delta: float

    @property
    def response_ratio(self) -> float:
        """sup_t mean gap divided by the initial offset."""
        return float(np.max(self.mean_abs_diff) / self.delta) if self.delta > 0 else 0.0


def stability_perturbation_test(config: SimConfig, model: ModelSpec, delta: float,
                                initial_law=GaussianLaw()) -> StabilityResult:
    """Two interacting systems on identical noise, one stack of two rows with
    initial segments offset by delta; reports the mean absolute gap over time."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    x0 = initial_law.sample(config.seed, config.N)
    ens = ParticleEnsemble(config.r, config.dt, np.array([x0, x0 + delta]), stacked=True)
    v = engine._run(config, model, ens, [config.seed, config.seed])
    gap = np.abs(v[:, 0] - v[:, 1]).mean(axis=1)
    return StabilityResult(times=config.times, mean_abs_diff=gap, delta=float(delta))
