"""Propagation-of-chaos experiments: rates across N, coupling error, TV study.

The headline experiment runs the interacting system at several ensemble
sizes against a fixed reference flow (an oracle mean-flow construction for
the built-in models, or a solved fixed point otherwise), averages the
sup-in-time W1 error over replicas, and fits a log-log slope to compare
with the theoretical exponent min(1/2, (p-1)/p). Every run also records
the synchronous-coupling quantities, so the exact per-run triangle
inequality through the i.i.d.-copies empirical measure is checked for free.

Every experiment steps stacks through the engine's one loop (all replicas
of one N together). Sweeps over N share one dispatch (`_per_n`): each
worker steps its own copy of the reference and its share of N in one time
loop, so a sweep holds one reference row at a time.
"""

from __future__ import annotations

import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import engine, rng
from .engine import (ConstantLaw, GaussianLaw, ParticleEnsemble, SimConfig, coupled_stack,
                     simulate_interacting)
from .engine import simulate_coupled  # noqa: F401  (perfbench/tracer.py wraps it by this name)
from .model import ModelSpec
from .paths import _ratio_as_int
from .solver import FrozenFlow, MeasureFlow, StreamedFlow
from .table import write_table
from .measures import _W1_BLOCK_BYTES, EmpiricalMeasure, tv_estimate

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
    if initial_law is None:
        raise engine.EngineError("no initial law to draw the ensemble from")
    silent = replace(model, sigma=lambda t, x: np.zeros_like(x), name=f"{model.name}-mean")
    cfg = replace(config, N=1)
    rec = simulate_interacting(cfg, silent, ConstantLaw(initial_law.mean))
    return MeasureFlow.point_flow(config.times, rec.values[:, 0], initial_law=initial_law)


def build_reference_flow(config: SimConfig, model: ModelSpec, initial_law,
                         M: int) -> FrozenFlow:
    """M-sample reference: paths frozen to the oracle mean flow.

    For the zoo models the frozen dynamics at the mean flow coincide with
    the mean-field limit of the scheme, so this is an M-sample draw of the
    limit law at every grid time. Only the mean flow is stepped here: the
    sweeps step the M paths alongside their runs, one row at a time.
    """
    mean_flow = oracle_mean_flow(config, model, initial_law)
    return FrozenFlow(config, model, mean_flow, M, rng.derive_seed(config.seed, _REF_STREAM))


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


def _mean_gaps(xs, ys) -> np.ndarray:
    """Each row's mean |xs - ys| (ys like xs, or one row) over row blocks of at
    most _W1_BLOCK_BYTES; each row is reduced alone, so blocking changes no bit."""
    ys = np.broadcast_to(ys, xs.shape)
    out = np.empty(len(xs))
    block = max(1, _W1_BLOCK_BYTES // (8 * xs.shape[-1]))
    for a in range(0, len(xs), block):
        gaps = xs[a:a + block] - ys[a:a + block]
        out[a:a + block] = np.abs(gaps, out=gaps).mean(axis=1)
    return out


def _w1_upper_bound(reference: MeasureFlow, N: int):
    """bound(k, xs) >= W1(reference at k, row) for each row of a sorted (K, N)
    stack, in O(N) per row: W1(row, ref) <= W1(row, skel) + W1(skel, ref) for
    skel the reference's N quantile midpoints at k (sorted for any N and M).
    The first term is the mean gap of two sorted rows; the second is one
    exact W1 row, read from the reference at k alone."""
    at = (2 * np.arange(N) + 1) * reference.m // (2 * N)

    def bound(k, xs):
        skel = reference.measure_at(k).samples[at]
        return _mean_gaps(xs, skel) + reference.w1_at(k, skel[None])[0]
    return bound


def _replica_seeds(master_seed: int, N: int, replicas: int) -> list[int]:
    return [rng.derive_seed(master_seed, N, r) for r in range(replicas)]


def _pairing_sups(config: SimConfig, model: ModelSpec, reference: MeasureFlow, N: int,
                  seeds, observe=None):
    """Every replica at one N, as one coupled stack stepped lazily: a stepper
    (`engine._run`'s) whose result is each replica's sup-t pairing gap,
    taken from the unsorted state as it steps, so no trajectory is kept.
    observe(k, x, xs), if given, sees every grid time first, as `_run`'s
    hook does."""
    K = len(seeds)
    pairing_sup = np.zeros(K)

    def score(k, x, xs):
        if observe is not None:
            observe(k, x, xs)
        np.maximum(pairing_sup, _mean_gaps(x[:K], x[K:]), out=pairing_sup)

    yield from coupled_stack(replace(config, N=N), model, reference, seeds, observe=score,
                             lazy=True)
    return pairing_sup


def _one_coupled_run(config: SimConfig, model: ModelSpec, reference: MeasureFlow,
                     N: int, replicas: int):
    """Every replica at one N, scored in W1 and in the pairing gap while it
    steps: a stepper whose result is one RunDiagnostics per replica.

    Replica r runs with seed derive_seed(config.seed, N, r). At each grid
    time the sorted stack the step builds is scored against the reference,
    which is read at that grid time only. A row gets its O(M) exact W1 only
    where `_w1_upper_bound` lets its sup rise.
    """
    seeds = _replica_seeds(config.seed, N, replicas)
    w1_sup = np.zeros(2 * replicas)    # interacting rows, then their twins
    bound = _w1_upper_bound(reference, N)

    def score(k, x, xs):
        # W1 rounds within (ceil(log2 S) + 20) * 2**-53 relative (S <= N + M, w1_sorted_rows),
        # the bound within 2**-53 more: < 1e-14, so a bound 1e-9 below the sup cannot raise it
        live = bound(k, xs) * (1 + 1e-9) >= w1_sup
        if live.all():   # as at k = 0: score xs itself, not a copy of every row
            np.maximum(w1_sup, reference.w1_at(k, xs), out=w1_sup)
        elif live.any():
            w1_sup[live] = np.maximum(w1_sup[live], reference.w1_at(k, xs[live]))

    pairing_sup = yield from _pairing_sups(config, model, reference, N, seeds, observe=score)
    hat, tld, pair = w1_sup[:replicas].tolist(), w1_sup[replicas:].tolist(), pairing_sup.tolist()
    return [RunDiagnostics(N=N, replica=r, seed=seed, w1_sup=hat[r], pairing_sup=pair[r],
                           limit_w1_sup=tld[r], triangle_ok=hat[r] <= pair[r] + tld[r] + 1e-12)
            for r, seed in enumerate(seeds)]


def _shares(sizes, workers: int) -> list[list[int]]:
    """Indices into sizes, split into at most `workers` shares: largest N
    first, each onto the share with the least total N so far."""
    loads = [0] * min(workers, len(sizes))
    shares = [[] for _ in loads]
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        w = loads.index(min(loads))
        shares[w].append(i)
        loads[w] += sizes[i]
    return [sorted(share) for share in shares]


def _per_n(run, reference: MeasureFlow, sizes, workers: int) -> list:
    """The result of run(flow, N) for each N in sizes, in that order.

    run(flow, N) returns a stepper (`engine._run`'s protocol) that reads
    flow at grid time k only while it takes that grid time. Each share of
    sizes (`_shares`) runs on a thread of its own, or on this one if there
    is one share, and steps its own copy of the reference with its runs
    (`_lockstep`). A failing reference raises at once; otherwise, once every
    run is closed, the failure of the first failing N in sizes is raised.
    """
    if not sizes:
        return []
    shares = _shares(sizes, workers)
    if len(shares) == 1:
        outcomes = [_lockstep(run, reference, sizes, shares[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(shares)) as pool:
            futs = [pool.submit(_lockstep, run, reference, sizes, share) for share in shares]
        outcomes = [f.result() for f in futs]
    results, errors = {}, {}
    for done, failures in outcomes:
        results.update(done)
        errors.update(failures)
    if errors:
        raise errors[min(errors)]
    return [results[i] for i in range(len(sizes))]


def _lockstep(run, reference: MeasureFlow, sizes, share) -> tuple[dict, dict]:
    """Step one copy of the reference and run(flow, N) for each index of the
    share, one grid time at a time, smaller N first: at grid time k every
    run reads the reference's row k, which is then dropped. The reference's
    run and the share's take their step buffers from one workspace
    (`engine.shared_workspace`), since they step one at a time. Returns each
    run's result and each run's exception by index. Once a run fails, the
    share's runs of larger index are closed, since their outcome cannot be
    reported; a failing reference raises, after every run is closed."""
    runs, results, errors = {}, {}, {}
    with engine.shared_workspace():
        flow = StreamedFlow(reference)
        try:
            runs.update((i, run(flow, sizes[i])) for i in share)
            for _ in range(reference.steps + 1):
                flow.advance()
                for i in list(runs):
                    if errors and i > min(errors):
                        runs.pop(i).close()
                        continue
                    try:
                        next(runs[i])
                    except StopIteration as end:
                        results[i] = end.value
                        del runs[i]
                    except Exception as e:
                        # the failed run's frames, which the traceback keeps,
                        # would hold the share's workspace as long as the error
                        traceback.clear_frames(e.__traceback__)
                        errors[i] = e
                        del runs[i]
        finally:
            for stepper in runs.values():
                stepper.close()
            flow.close()
    return results, errors


def _check_increasing(N_list) -> None:
    """Every sweep runs each N once, on seeds derived from N alone."""
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("ensemble sizes must be strictly increasing")


def _check_sweep(N_list, replicas: int) -> None:
    """The coupled sweeps also need a standard error per N."""
    _check_increasing(N_list)
    if replicas < 2:
        raise ValueError("need at least two replicas for standard errors")


def _coupled_sweep(config: SimConfig, model: ModelSpec, reference: MeasureFlow,
                   N_list, replicas: int, workers: int = 1) -> list[RunDiagnostics]:
    _check_sweep(N_list, replicas)
    per_n = _per_n(lambda flow, N: _one_coupled_run(config, model, flow, N, replicas),
                   reference, N_list, workers)
    return [d for runs in per_n for d in runs]


def _mean_stderr(per_n) -> tuple[np.ndarray, np.ndarray]:
    """Replica mean and standard error of each N's values."""
    return (np.array([np.mean(v) for v in per_n]),
            np.array([np.std(v, ddof=1) / np.sqrt(len(v)) for v in per_n]))


def estimate_chaos_rate(config_base: SimConfig, model: ModelSpec, N_list, replicas: int,
                        reference: MeasureFlow, workers: int = 1) -> RateReport:
    """Sweep N, average sup-t W1 against the reference over replicas, fit
    the log-log rate. Seeds derive from (config seed, N, replica), so the
    report is reproducible and independent of the worker count."""
    N_list = [int(n) for n in N_list]
    if len(N_list) < 3:
        raise ValueError("need at least three ensemble sizes to fit a rate")
    theoretical = theoretical_exponent(model.moment_order)   # a bad p is rejected unstepped
    runs = _coupled_sweep(config_base, model, reference, N_list, replicas, workers)
    means, stderrs = _mean_stderr([[d.w1_sup for d in runs if d.N == n] for n in N_list])
    slope, intercept, sst = fit_loglog(N_list, means)
    return RateReport(N_list=N_list, error_mean=means, error_stderr=stderrs,
                      slope=slope, intercept=intercept, slope_stderr=sst,
                      theoretical=theoretical, runs=runs)


@dataclass
class CouplingReport:
    N_list: list[int]
    error_mean: np.ndarray     # per-N replica mean of sup_t pairing error
    error_stderr: np.ndarray
    slope: float

    write_csv = RateReport.write_csv


def coupling_error_curve(config_base: SimConfig, model: ModelSpec, reference: MeasureFlow,
                         N_list, replicas: int, workers: int = 1) -> CouplingReport:
    """Per-N sup-t pathwise gap between each particle and its mean-field
    twin, on the rate sweep's seeds and stacks; no W1 is computed."""
    N_list = [int(n) for n in N_list]
    _check_sweep(N_list, replicas)
    seed = config_base.seed
    gaps = _per_n(lambda flow, N: _pairing_sups(config_base, model, flow, N,
                                                _replica_seeds(seed, N, replicas)),
                  reference, N_list, workers)
    means, stderrs = _mean_stderr(gaps)
    slope = fit_loglog(N_list, means)[0] if len(N_list) >= 3 and np.all(means > 0) else float("nan")
    return CouplingReport(N_list=N_list, error_mean=means, error_stderr=stderrs, slope=slope)


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
    if replicas < 1:
        raise ValueError("need at least one replica")
    N_list = [int(n) for n in N_list]
    _check_increasing(N_list)
    engine._check_fit(reference, config_base)
    times = [float(t) for t in times]
    k_idx = [_ratio_as_int(t, config_base.dt, "study time") for t in times]
    if not all(0 <= k <= config_base.steps for k in k_idx):
        raise ValueError(f"study times must lie in [0, T = {config_base.T!r}], got {times}")

    def run_study(flow, N: int):
        seeds = _replica_seeds(config_base.seed, N, replicas)
        cfg = replace(config_base, N=N)
        ens = ParticleEnsemble.from_law(cfg, model, reference.initial_law, seed=seeds)
        row = np.empty(len(times))

        def compare(k, x, xs):
            for j, kj in enumerate(k_idx):
                if kj == k:   # x pooled over replicas, against the reference's row k
                    row[j] = tv_estimate(EmpiricalMeasure(x.flatten()), flow.measure_at(k),
                                         bin_width)
        yield from engine._run(cfg, model, ens, seeds, observe=compare, lazy=True)
        return row

    table = np.empty((len(N_list), len(times)))
    for i, row in enumerate(_per_n(run_study, reference, N_list, workers)):
        table[i] = row
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
    ens = ParticleEnsemble(model.delay_measure.span, config.dt, np.array([x0, x0 + delta]),
                           stacked=True)
    v = engine._run(config, model, ens, [config.seed, config.seed]).values
    gap = np.abs(v[:, 0] - v[:, 1]).mean(axis=1)
    return StabilityResult(times=config.times, mean_abs_diff=gap, delta=float(delta))
