"""Euler-Maruyama stepping for the interacting particle system and friends.

All simulators share one noise contract: the Brownian increment of
particle i at step k is a pure function of (seed, stream id of i, k),
regenerated from a counter-based generator. Consequences: records are
bit-identical across runs, two systems stepped against the same seed
share their noise exactly (which is how the synchronous coupling works),
and permuting particles together with their stream ids permutes
trajectories exactly.

The empirical measure a step sees is built once from the full state
before any particle moves, so no particle ever observes a partially
updated ensemble.

One loop, `_run`, does every step. It advances one system of N particles
or a (K, N) stack of K such systems at once: row i is driven by its own
seed, rows with equal seeds share their increments, and each group of
rows sees either its rows' own empirical laws or a shared measure flow.
Every row goes through the same per-row operations as a system stepped
alone (sorted-row mean, `x + drift*dt + sig*sqdt*z`), so stacking never
changes a bit.

`_run` steps on the caller's thread. Where one step draws at least
`_AHEAD_MIN` values, counted over the distinct seeds of a stack, it draws
step k+1's increments on one helper thread while step k runs: `simulate` at
large N, the reference build and the rate sweep's largest stacks. The
helper fills one of two buffers the caller allocated, lives only as long as
the call, and since a draw is a pure function of (seed, stream, step), the
thread it runs on changes no bit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .measures import EmpiricalMeasure
from .model import ModelError, ModelSpec
from .paths import DelayMeasure, _ratio_as_int
from .table import write_table
from .yamada import mollify_sigma


class EngineError(Exception):
    pass


class BlowUpError(EngineError):
    """A particle value left the finite range."""

    def __init__(self, particle: int, step: int, t: float):
        self.particle = particle
        self.step = step
        self.t = t
        super().__init__(f"blow-up: particle {particle} became non-finite at step {step} (t={t:g})")

    def __reduce__(self):
        # Exception pickles only its message; rebuild from the three fields
        return type(self), (self.particle, self.step, self.t)


@dataclass(frozen=True)
class SimConfig:
    T: float
    dt: float
    N: int
    seed: int
    r: float = 0.0

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError(f"T must be positive, got {self.T!r}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N!r}")
        if self.r < 0:
            raise ValueError(f"delay r must be >= 0, got {self.r!r}")
        _ratio_as_int(self.T, self.dt, "horizon")
        if self.r > 0:
            _ratio_as_int(self.r, self.dt, "delay")

    @property
    def steps(self) -> int:
        return _ratio_as_int(self.T, self.dt, "horizon")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


# ---------------------------------------------------------------------------
# initial laws


@dataclass(frozen=True)
class ConstantLaw:
    value: float = 1.0
    name: str = "constant"

    def sample(self, seed: int, n: int) -> np.ndarray:
        return np.full(n, float(self.value))

    @property
    def mean(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class GaussianLaw:
    loc: float = 1.0
    scale: float = 0.5
    name: str = "gaussian"

    def sample(self, seed: int, n: int) -> np.ndarray:
        return self.loc + self.scale * rng.normals(seed, rng.STREAM_INIT, 0, n)

    @property
    def mean(self) -> float:
        return float(self.loc)


@dataclass(frozen=True)
class BoundedParetoLaw:
    """Pareto tail truncated to [lo, hi]; every moment is finite, so any
    declared moment order is honest while the near-tail stays heavy."""

    tail: float = 1.5
    lo: float = 0.5
    hi: float = 50.0
    name: str = "pareto"

    def __post_init__(self):
        if not (0 < self.lo < self.hi and self.tail > 0):
            raise ValueError("bounded Pareto needs 0 < lo < hi and tail > 0")

    def sample(self, seed: int, n: int) -> np.ndarray:
        u = rng.uniforms(seed, rng.STREAM_INIT, 0, n)
        a, lo, hi = self.tail, self.lo, self.hi
        return lo * (1.0 - u * (1.0 - (lo / hi) ** a)) ** (-1.0 / a)

    def moment(self, p: float) -> float:
        """Closed-form E|X|^p of the truncated law."""
        a, lo, hi = self.tail, self.lo, self.hi
        norm = 1.0 - (lo / hi) ** a
        if abs(p - a) < 1e-12:
            return a * lo ** a * np.log(hi / lo) / norm
        return (a / (a - p)) * lo ** a * (lo ** (p - a) - hi ** (p - a)) / norm

    @property
    def mean(self) -> float:
        return self.moment(1.0)


INITIAL_LAWS = {"constant": ConstantLaw, "gaussian": GaussianLaw, "pareto": BoundedParetoLaw}


def make_initial_law(name: str, **params):
    if name not in INITIAL_LAWS:
        raise ValueError(f"unknown initial law {name!r}; available: {sorted(INITIAL_LAWS)}")
    return INITIAL_LAWS[name](**params)


# ---------------------------------------------------------------------------
# ensemble state


class SegmentBatch:
    """Read-only view of every particle's segment, vectorized over particles.

    The buffer is (N, width) for one system or (K, N, width) for a stack.
    """

    __slots__ = ("_buf", "_head", "r", "h")

    def __init__(self, buf: np.ndarray, head: int, r: float, h: float):
        self._buf = buf
        self._head = head
        self.r = r
        self.h = h

    def __len__(self) -> int:
        return self._buf[..., 0].size   # particles, over every row of a stack

    @property
    def width(self) -> int:
        return self._buf.shape[-1]

    def _col(self, j: int) -> np.ndarray:
        return self._buf[..., (self._head + j) % self.width]

    @property
    def current(self) -> np.ndarray:
        return self._col(self.width - 1)

    def value_at(self, s: float) -> np.ndarray:
        """Per-particle linearly interpolated value at lag s in [-r, 0]."""
        if self.width == 1:
            return self.current
        pos = (s + self.r) / self.h
        j = int(np.floor(pos))
        j = max(0, min(j, self.width - 2))
        frac = pos - j
        return (1.0 - frac) * self._col(j) + frac * self._col(j + 1)

    def integral_against(self, m: DelayMeasure) -> np.ndarray:
        out = np.zeros(self._buf.shape[:-1])
        for s, w in zip(m.locations, m.weights):
            out += w * self.value_at(float(s))
        return out


class ParticleEnsemble:
    """Per-particle ring buffers over the delay window plus stream identities.

    init_values holds one system's current values (n,) or full windows
    (n, width). With stacked=True it holds a stack of K systems, (K, N) or
    (K, N, width); the rows share the stream ids of their N particles.
    """

    def __init__(self, r: float, dt: float, init_values: np.ndarray, stream_ids=None,
                 stacked: bool = False):
        init_values = np.asarray(init_values, dtype=float)
        lead = 2 if stacked else 1
        if init_values.ndim == lead:
            width = (_ratio_as_int(r, dt, "delay") if r > 0 else 0) + 1
            init_values = np.repeat(init_values[..., None], width, axis=-1)
        if init_values.ndim != lead + 1:
            raise ValueError(f"initial values must have {lead} or {lead + 1} dimensions")
        if not np.isfinite(init_values).all():
            raise ValueError("initial ensemble values must be finite")
        self.r = float(r)
        self.dt = float(dt)
        self.buf = init_values.copy()
        self.head = 0
        self.step_index = 0
        n = init_values.shape[-2]
        if stream_ids is None:
            self.stream_ids = np.arange(n)
        else:
            self.stream_ids = np.asarray(stream_ids, int)
            if len(self.stream_ids) != n or len(np.unique(self.stream_ids)) != n:
                raise ValueError("stream ids must be a permutation-compatible unique labelling")

    @property
    def n(self) -> int:
        """Particles over all systems: N, or K*N for a stack."""
        return self.buf[..., 0].size

    @property
    def current(self) -> np.ndarray:
        width = self.buf.shape[-1]
        return self.buf[..., (self.head + width - 1) % width]

    def batch(self, rows=Ellipsis) -> SegmentBatch:
        return SegmentBatch(self.buf[rows], self.head, self.r, self.dt)

    def advance(self, new_values: np.ndarray) -> None:
        self.buf[..., self.head] = new_values   # oldest slot becomes newest
        self.head = (self.head + 1) % self.buf.shape[-1]
        self.step_index += 1

    @classmethod
    def from_law(cls, config: SimConfig, initial_law, n: int | None = None,
                 seed=None, stream_ids=None) -> "ParticleEnsemble":
        """Initial values drawn from the law with `seed`; a list of seeds
        gives a stack with one row per seed, each row drawn on its own."""
        n = config.N if n is None else n
        seed = config.seed if seed is None else seed
        ids = None if stream_ids is None else np.asarray(stream_ids, int)
        size, pick = (n, slice(None)) if ids is None else (int(ids.max()) + 1, ids)
        if np.ndim(seed) == 0:
            return cls(config.r, config.dt, initial_law.sample(seed, size)[pick], stream_ids=ids)
        rows = np.array([initial_law.sample(s, size)[pick] for s in seed])
        return cls(config.r, config.dt, rows, stream_ids=ids, stacked=True)


# ---------------------------------------------------------------------------
# records

RECORD_FORMS = ("long", "wide")   # PathRecord.write_csv layouts


class WideSummary:
    """The `wide` record form of one system: per grid time, five
    percentiles and the mean, summarized as the state goes by.

    `observe` has the signature of `_run`'s hook, so a run can fill the
    table without keeping its trajectory. Row k holds the percentiles of
    xs, which must be sorted, and the mean of x in its given order. The
    percentiles are np.percentile's linear method read straight from the
    sorted row, with the same roundings, so no copy is partitioned.
    """

    QUANTILES = (5, 25, 50, 75, 95)
    _Q = np.true_divide(QUANTILES, 100)   # as np.percentile divides them

    def __init__(self, times: np.ndarray):
        self.times = times
        self.rows = np.empty((len(times), len(self.QUANTILES) + 1))

    def observe(self, k: int, x: np.ndarray, xs: np.ndarray) -> None:
        """Summarize grid time k; xs must be x sorted, or the percentiles are wrong."""
        n = xs.shape[-1]
        pos = (n - 1) * self._Q
        lo = np.floor(pos)
        lo[pos >= n - 1] = -1   # as numpy: both neighbours are the last value,
        g = pos - lo            # and the weight is taken from the clipped index
        i = lo.astype(np.intp)
        a, b = xs[i], xs[np.where(i < 0, -1, i + 1)]
        d = b - a
        # numpy's _lerp: from the nearer end, a + d*g below g = 0.5, b - d*(1-g) from it
        self.rows[k, :-1] = np.where(g >= 0.5, b - d * (1 - g), a + d * g)
        self.rows[k, -1] = x.mean()

    def write_csv(self, path) -> None:
        write_table(path, "t,q05,q25,q50,q75,q95,mean", [(self.times, *self.rows.T)])


@dataclass
class PathRecord:
    times: np.ndarray
    values: np.ndarray               # (steps+1, n)

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def means(self) -> np.ndarray:
        return self.values.mean(axis=1)

    def write_csv(self, path, form: str = "long") -> None:
        if form not in RECORD_FORMS:
            raise ValueError(f"unknown record form {form!r}")
        if form == "long":
            index = [str(i) for i in range(self.n)]
            write_table(path, "t,particle,value",
                        (([repr(t)] * self.n, index, row)
                         for t, row in zip(self.times.tolist(), self.values)))
        else:
            summary = WideSummary(self.times)
            for k, row in enumerate(self.values):
                summary.observe(k, row, np.sort(row))
            summary.write_csv(path)


@dataclass
class CoupledRecord:
    """Synchronously coupled pair: interacting system and its mean-field twin."""

    times: np.ndarray
    interacting: PathRecord
    limit: PathRecord

    @property
    def error_curve(self) -> np.ndarray:
        """Per-time mean absolute gap under the identity pairing."""
        return np.abs(self.interacting.values - self.limit.values).mean(axis=1)


# ---------------------------------------------------------------------------
# stepping


# perfbench/tracer.py wraps it by this name; nothing here calls it
def _chunked(n: int, workers: int):
    """Split an index range into per-worker chunks; results concatenate in
    index order so the chunking degree cannot change the output."""
    if workers <= 1 or n < 2 * workers:
        return [slice(0, n)]
    bounds = np.linspace(0, n, workers + 1).astype(int)
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]


def _eval_coeffs(model: ModelSpec, t: float, x: np.ndarray, batch: SegmentBatch,
                 mu: EmpiricalMeasure) -> tuple[np.ndarray, np.ndarray]:
    drift = (np.asarray(model.drift(t, x, mu), dtype=float)
             + np.asarray(model.path_drift(t, batch, mu), dtype=float))
    sig = np.asarray(model.sigma(t, x), dtype=float)
    # full shape, because _check_advanced indexes them at a particle
    return np.broadcast_to(drift, x.shape), np.broadcast_to(sig, x.shape)


# states beyond this are treated as having already blown up, even if the
# non-finite value first shows in a coefficient rather than the state
_BLOWUP_SCALE = 1e100


def _check_advanced(x, drift, sig, new, k: int, t: float) -> None:
    if np.isfinite(new).all():
        return
    at = tuple(np.argwhere(~np.isfinite(new))[0])   # (particle,) or (row, particle)
    bad = int(at[-1])
    coeff_bad = not (np.isfinite(drift[at]) and np.isfinite(sig[at]))
    if coeff_bad and abs(x[at]) < _BLOWUP_SCALE:
        raise ModelError(
            f"coefficient returned a non-finite value for particle {bad} "
            f"at t={t:g} (state {x[at]!r})")
    raise BlowUpError(bad, k, t)


def _increments(seeds, k: int, ids, n_streams: int, out: np.ndarray) -> np.ndarray:
    """Fill out with the Brownian increments of step k and return it: one row
    per seed, or one system for a single seed. Each distinct seed is drawn
    straight into its first row and later rows with that seed copy it, so no
    two rows share memory: `_run` overwrites out as scratch."""
    def draw(seed, row):
        if ids is None:
            rng.normals(seed, rng.STREAM_DRIVE, k, n_streams, out=row)
        else:
            row[...] = rng.normals(seed, rng.STREAM_DRIVE, k, n_streams)[ids]

    if np.ndim(seeds) == 0:
        draw(seeds, out)
        return out
    first = {}
    for i, s in enumerate(seeds):
        if s in first:
            out[i] = out[first[s]]
        else:
            first[s] = i
            draw(s, out[i])
    return out


_OWN_LAW = ((Ellipsis, None),)   # every row sees its own empirical law

# Steps that draw at least this many values, over a stack's distinct seeds,
# are drawn ahead on `_run`'s helper thread. Overlapping the rate sweep costs
# CPU time, since its two threads hand the interpreter lock back and forth
# around every draw: its stacks of 20 seeds up to N = 1024 (at most 20,480
# values per step) lost wall time too when overlapped, while from N = 2048
# (40,960) on, and in the reference build and sim-sqrt, wall time fell. It
# picks only where a draw runs, never what it holds.
_AHEAD_MIN = 1 << 15


def _run(config: SimConfig, model: ModelSpec, ensemble: ParticleEnsemble, seeds,
         groups=_OWN_LAW, observe=None, record: bool = True, lazy: bool = False):
    """The Euler-Maruyama loop: config.steps steps from the ensemble's step counter.

    The ensemble is one system (seeds is then one seed) or a (K, N) stack
    whose row i is driven by seeds[i]. Each group (rows, flow) names the
    measure its rows see: flow.measure_at(k), or with flow None each row's
    own empirical law. observe(k, x, xs), if given, sees the state x at
    every grid time k, the last one included, with xs sorted row by row;
    the next step overwrites both, so an observer copies what it keeps.
    Returns the record, shaped (steps + 1,) + the ensemble's shape, unless
    record is False.

    With lazy True nothing is stepped yet: the run comes back as a stepper,
    a generator that takes one grid time per `next`. It observes grid time k
    and steps to k + 1, then yields; at the last grid time it observes and
    ends, StopIteration carrying what the eager call returns (`_drain`). So
    several runs can advance in step, each reading a flow at grid time k
    only while it takes that step. Closing a stepper part way joins its
    helper.

    Where one step draws at least _AHEAD_MIN values (distinct seeds times
    streams), step k+1's increments are drawn on one helper thread while
    step k runs; the helper is joined before the run ends or raises, and
    draws no step beyond the last. A draw the helper has not started when
    its step comes is taken back and made on the stepping thread.
    """
    span = model.delay_measure.span   # atoms are read where declared, so all must fit
    if span > config.r + 1e-12:
        raise EngineError(f"model delay measure reaches lag -{span} but config.r = {config.r}")
    stepper = _steps(config, model, ensemble, seeds, groups, observe, record)
    return stepper if lazy else _drain(stepper)


def _drain(stepper):
    """Step a lazy run to its end and return its result."""
    while True:
        try:
            next(stepper)
        except StopIteration as end:
            return end.value


def _observe(observe, k, x, xs):
    xs[...] = x
    xs.sort(axis=-1)   # in place, as np.sort sorts its copy
    observe(k, x, xs)


def _step(model, ensemble, groups, observe, k, dt, z, new, xs):
    """Observe grid time k, sorting into the run's buffer xs, and write step
    k's update into new. Its temporaries go when it returns, so a lazy run
    holds none while other runs take their steps."""
    t = k * dt
    sqdt = np.sqrt(dt)
    x = ensemble.current
    if observe is not None:
        _observe(observe, k, x, xs)
    for rows, flow in groups:
        if flow is not None:
            mu = flow.measure_at(k)
        else:
            own = xs[rows] if observe is not None else np.sort(x[rows], axis=-1)
            mu = EmpiricalMeasure(own, presorted=True, stacked=x.ndim == 2)
        drift, sig = _eval_coeffs(model, t, x[rows], ensemble.batch(rows), mu)
        # new = x + drift*dt + sig*sqdt*z with the same roundings (+ and * commute);
        # z is this step's own draw, so its rows serve as the scratch
        upd, zr = new[rows], z[rows]
        np.multiply(sig, sqdt, out=upd)
        upd *= zr
        np.multiply(drift, dt, out=zr)
        zr += x[rows]
        upd += zr
        _check_advanced(x[rows], drift, sig, upd, k, t)
        del drift, sig   # gone before the next group's: fewer large arrays alive at once


def _steps(config, model, ensemble, seeds, groups, observe, record):
    """`_run`'s stepper: one grid time per `next`."""
    dt = config.dt
    ids = ensemble.stream_ids
    n_streams = int(ids.max()) + 1
    if n_streams == len(ids) and np.array_equal(ids, np.arange(n_streams)):
        ids = None
    k0 = ensemble.step_index
    end = k0 + config.steps
    new = np.empty_like(ensemble.current)   # advance copies it into the ring buffer
    out = None
    if record:
        out = np.empty((config.steps + 1,) + ensemble.current.shape)
        out[0] = ensemble.current
    ahead = (1 if np.ndim(seeds) == 0 else len(set(seeds))) * n_streams >= _AHEAD_MIN
    # step k's increments land in zs[k % len(zs)]: one buffer, or two when the
    # helper fills the next step's while this step uses its own as scratch.
    # They are allocated on this thread: arrays the helper allocated would
    # grow its own malloc arena and the peak RSS with it.
    zs = [np.empty_like(new) for _ in range(2 if ahead else 1)]
    # each grid time is sorted into this one buffer, so a step allocates no
    # sorted stack and no two are ever alive
    xs = np.empty_like(new) if observe is not None else None
    with ThreadPoolExecutor(max_workers=1) if ahead else nullcontext() as helper:
        drawn = None
        for k in range(k0, end):
            # a draw the helper never started is made here, into the same buffer:
            # on a busy host the step does not wait for a thread that is not running
            if drawn is not None and not drawn.cancel():
                z = drawn.result()
            else:
                z = _increments(seeds, k, ids, n_streams, zs[k % len(zs)])
            if helper and k + 1 < end:
                drawn = helper.submit(_increments, seeds, k + 1, ids, n_streams, zs[(k + 1) % 2])
            _step(model, ensemble, groups, observe, k, dt, z, new, xs)
            ensemble.advance(new)
            if record:
                out[k - k0 + 1] = new
            yield k
    if observe is not None:
        _observe(observe, end, ensemble.current, xs)
    return out


def step_interacting(ensemble: ParticleEnsemble, model: ModelSpec, t: float,
                     dt: float, seed: int) -> ParticleEnsemble:
    """One synchronous update of the interacting system.

    The empirical measure is built from the full current state before any
    particle moves; the increment of particle i is indexed by its stream id
    and the ensemble's step counter, so stepping by hand or through
    simulate_interacting produces the same numbers.
    """
    if abs(t - ensemble.step_index * dt) > 1e-9 * max(1.0, abs(t)):
        raise EngineError(
            f"time {t!r} does not match the ensemble's step counter "
            f"({ensemble.step_index} steps of dt={dt})")
    cfg = SimConfig(T=dt, dt=dt, N=ensemble.n, seed=seed, r=ensemble.r)
    _run(cfg, model, ensemble, seed, record=False)
    return ensemble


def simulate_interacting(config: SimConfig, model: ModelSpec, initial_law,
                         stream_ids=None, observe=None, record: bool = True) -> PathRecord | None:
    """The N-interacting system: each particle sees the ensemble's own
    empirical law, rebuilt once per step from the full state. observe and
    record are those of `_run`; with record False nothing is returned."""
    ens = ParticleEnsemble.from_law(config, initial_law, stream_ids=stream_ids)
    values = _run(config, model, ens, config.seed, observe=observe, record=record)
    return PathRecord(times=config.times, values=values) if record else None


def simulate_frozen(config: SimConfig, model: ModelSpec, flow, n_paths: int,
                    seed: int, observe=None, record: bool = True, lazy: bool = False):
    """Independent paths driven by a frozen measure flow instead of the
    ensemble's own law. observe and record are those of `_run`; with
    record False nothing is returned, and with lazy True the run's stepper."""
    if flow.steps != config.steps or abs(flow.times[-1] - config.T) > 1e-12:
        raise EngineError("measure flow grid does not match the simulation grid")
    if flow.initial_law is None:
        raise EngineError("flow carries no initial law; attach one before freezing")
    cfg = replace(config, N=n_paths, seed=seed)
    ens = ParticleEnsemble.from_law(cfg, flow.initial_law, seed=seed)
    values = _run(cfg, model, ens, seed, groups=((Ellipsis, flow),), observe=observe,
                  record=record, lazy=lazy)
    return PathRecord(times=cfg.times, values=values) if record and not lazy else values


def coupled_stack(config: SimConfig, model: ModelSpec, reference_flow, seeds,
                  initial_law=None, observe=None, record: bool = True, lazy: bool = False):
    """Interacting systems and their reference-driven twins, one pair per
    seed, stepped as one (2K, N) stack.

    Rows 0..K-1 are the interacting systems, rows K..2K-1 their twins. Each
    twin draws its own initial values with its system's seed and shares its
    increments; only the measure they see differs. observe, record and lazy
    are those of `_run`.
    """
    if reference_flow.steps != config.steps:
        raise EngineError("reference flow grid does not match the simulation grid")
    law = initial_law if initial_law is not None else reference_flow.initial_law
    if law is None:
        raise EngineError("no initial law: pass one or use a flow that carries it")
    K = len(seeds)
    rows = list(seeds) * 2
    ens = ParticleEnsemble.from_law(config, law, seed=rows)
    groups = ((slice(0, K), None), (slice(K, 2 * K), reference_flow))
    return _run(config, model, ens, rows, groups, observe=observe, record=record, lazy=lazy)


def simulate_coupled(config: SimConfig, model: ModelSpec, reference_flow,
                     initial_law=None) -> CoupledRecord:
    """Interacting system and reference-driven twin on identical noise.

    Both systems start from the same initial draws and consume the same
    increment per (particle, step); only the measure they see differs.
    """
    values = coupled_stack(config, model, reference_flow, [config.seed], initial_law)
    times = config.times
    return CoupledRecord(times=times,
                         interacting=PathRecord(times=times, values=values[:, 0]),
                         limit=PathRecord(times=times, values=values[:, 1]))


def simulate_mollified(config: SimConfig, model: ModelSpec, n: int, initial_law) -> PathRecord:
    """Interacting run with the diffusion replaced by its mollification at
    scale 1/n; the noise contract is unchanged, so runs at different n
    couple through identical increments."""
    moll = mollify_sigma(model, n)
    smoothed = replace(model, sigma=moll, name=f"{model.name}-mollified-{n}")
    return simulate_interacting(config, smoothed, initial_law)
