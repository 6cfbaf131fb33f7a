"""Euler-Maruyama stepping for the interacting particle system and friends.

All simulators share one noise contract: the Brownian increment of
particle i at step k is a pure function of (seed, stream id of i, k),
regenerated from a counter-based generator. Consequences: records are
bit-identical across runs and across any particle-chunking degree, two
systems stepped against the same seed share their noise exactly (which is
how the synchronous coupling works), and permuting particles together
with their stream ids permutes trajectories exactly.

The empirical measure a step sees is built once from the full state
before any particle moves, so no particle ever observes a partially
updated ensemble.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .measures import EmpiricalMeasure
from .model import ModelError, ModelSpec
from .paths import DelayMeasure, Segment, _ratio_as_int
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


@dataclass(frozen=True)
class SimConfig:
    T: float
    dt: float
    N: int
    seed: int
    r: float = 0.0
    workers: int = 1

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError(f"T must be positive, got {self.T!r}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N!r}")
        if self.r < 0:
            raise ValueError(f"delay r must be >= 0, got {self.r!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
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


def sample_initial(ensemble_size: int, initial_law, seed: int,
                   r: float = 0.0, h: float = 1.0) -> list[Segment]:
    """i.i.d. initial segments with constant history; draw i is a pure
    function of (seed, i)."""
    law = make_initial_law(initial_law) if isinstance(initial_law, str) else initial_law
    vals = law.sample(seed, ensemble_size)
    width = (_ratio_as_int(r, h, "delay") if r > 0 else 0) + 1
    return [Segment(r, h, np.full(width, v)) for v in vals]


# ---------------------------------------------------------------------------
# ensemble state


class SegmentBatch:
    """Read-only view of every particle's segment, vectorized over particles."""

    __slots__ = ("_buf", "_head", "r", "h")

    def __init__(self, buf: np.ndarray, head: int, r: float, h: float):
        self._buf = buf
        self._head = head
        self.r = r
        self.h = h

    def __len__(self) -> int:
        return self._buf.shape[0]

    @property
    def width(self) -> int:
        return self._buf.shape[1]

    def _col(self, j: int) -> np.ndarray:
        return self._buf[:, (self._head + j) % self.width]

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
        out = np.zeros(len(self))
        for s, w in zip(m.locations, m.weights):
            out += w * self.value_at(float(s))
        return out

    def rows(self, sl: slice) -> "SegmentBatch":
        return SegmentBatch(self._buf[sl], self._head, self.r, self.h)

    def segment(self, i: int) -> Segment:
        if self._head == 0:
            vals = self._buf[i].copy()
        else:
            vals = np.concatenate([self._buf[i, self._head:], self._buf[i, :self._head]])
        return Segment(self.r, self.h, vals)


class ParticleEnsemble:
    """Per-particle ring buffers over the delay window plus stream identities."""

    def __init__(self, r: float, dt: float, init_values: np.ndarray, stream_ids=None):
        init_values = np.asarray(init_values, dtype=float)
        if init_values.ndim == 1:
            width = (_ratio_as_int(r, dt, "delay") if r > 0 else 0) + 1
            init_values = np.tile(init_values[:, None], (1, width))
        if not np.isfinite(init_values).all():
            raise ValueError("initial ensemble values must be finite")
        self.r = float(r)
        self.dt = float(dt)
        self.buf = init_values.copy()
        self.head = 0
        self.step_index = 0
        n = init_values.shape[0]
        self.stream_ids = np.arange(n) if stream_ids is None else np.asarray(stream_ids, int)
        if len(self.stream_ids) != n or len(np.unique(self.stream_ids)) != n:
            raise ValueError("stream ids must be a permutation-compatible unique labelling")

    @property
    def n(self) -> int:
        return self.buf.shape[0]

    @property
    def current(self) -> np.ndarray:
        return self.buf[:, (self.head + self.buf.shape[1] - 1) % self.buf.shape[1]]

    def batch(self) -> SegmentBatch:
        return SegmentBatch(self.buf, self.head, self.r, self.dt)

    def advance(self, new_values: np.ndarray) -> None:
        self.buf[:, self.head] = new_values   # oldest slot becomes newest
        self.head = (self.head + 1) % self.buf.shape[1]
        self.step_index += 1

    @classmethod
    def from_law(cls, config: SimConfig, initial_law, n: int | None = None,
                 seed: int | None = None, stream_ids=None) -> "ParticleEnsemble":
        n = config.N if n is None else n
        seed = config.seed if seed is None else seed
        law = make_initial_law(initial_law) if isinstance(initial_law, str) else initial_law
        ids = np.arange(n) if stream_ids is None else np.asarray(stream_ids, int)
        pool = law.sample(seed, int(ids.max()) + 1)
        return cls(config.r, config.dt, pool[ids], stream_ids=ids)


# ---------------------------------------------------------------------------
# records


@dataclass
class PathRecord:
    times: np.ndarray
    values: np.ndarray               # (steps+1, n)
    _sorted: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def sorted_values(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(self.values, axis=1)
        return self._sorted

    @property
    def means(self) -> np.ndarray:
        return self.values.mean(axis=1)

    def snapshot(self, k: int) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.sorted_values[k], presorted=True)

    def write_csv(self, path, form: str = "long") -> None:
        with open(path, "w") as fh:
            if form == "long":
                fh.write("t,particle,value\n")
                for k, t in enumerate(self.times):
                    row = self.values[k]
                    for i in range(self.n):
                        fh.write(f"{float(t)!r},{i},{float(row[i])!r}\n")
            elif form == "wide":
                fh.write("t,q05,q25,q50,q75,q95,mean\n")
                qs = np.percentile(self.values, [5, 25, 50, 75, 95], axis=1)
                mns = self.means
                for k, t in enumerate(self.times):
                    cells = ",".join(repr(float(v)) for v in
                                     (qs[0, k], qs[1, k], qs[2, k], qs[3, k], qs[4, k], mns[k]))
                    fh.write(f"{float(t)!r},{cells}\n")
            else:
                raise ValueError(f"unknown record form {form!r}")


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


def _snap_measure(model: ModelSpec, config: SimConfig) -> ModelSpec:
    dm, shift = model.delay_measure.snapped(config.dt)
    if dm.span > config.r + 1e-12:
        raise EngineError(
            f"model delay measure reaches lag -{dm.span} but config.r = {config.r}")
    if shift > 1e-12 * max(config.dt, 1.0):
        warnings.warn(f"delay measure atoms snapped to the step grid (worst shift {shift:.3g})")
        return replace(model, delay_measure=dm)
    return model


def _chunked(n: int, workers: int):
    """Split an index range into per-worker chunks; results concatenate in
    index order so the chunking degree cannot change the output."""
    if workers <= 1 or n < 2 * workers:
        return [slice(0, n)]
    bounds = np.linspace(0, n, workers + 1).astype(int)
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]


def _eval_coeffs(model: ModelSpec, t: float, x: np.ndarray, batch: SegmentBatch,
                 mu: EmpiricalMeasure, workers: int, pool) -> tuple[np.ndarray, np.ndarray]:
    def one(sl: slice):
        xs = x[sl]
        b = np.broadcast_to(np.asarray(model.drift(t, xs, mu), dtype=float), xs.shape)
        bb = np.broadcast_to(np.asarray(model.path_drift(t, batch.rows(sl), mu), dtype=float), xs.shape)
        sg = np.broadcast_to(np.asarray(model.sigma(t, xs), dtype=float), xs.shape)
        return b + bb, sg

    slices = _chunked(len(x), workers)
    if len(slices) == 1:
        parts = [one(slices[0])]
    else:
        parts = list(pool.map(one, slices))
    drift = np.concatenate([p[0] for p in parts])
    sig = np.concatenate([p[1] for p in parts])
    return drift, sig


# states beyond this are treated as having already blown up, even if the
# non-finite value first shows in a coefficient rather than the state
_BLOWUP_SCALE = 1e100


def _check_advanced(x, drift, sig, new, k: int, t: float) -> None:
    if np.isfinite(new).all():
        return
    bad = int(np.argwhere(~np.isfinite(new))[0, 0])
    coeff_bad = not (np.isfinite(drift[bad]) and np.isfinite(sig[bad]))
    if coeff_bad and abs(x[bad]) < _BLOWUP_SCALE:
        raise ModelError(
            f"coefficient returned a non-finite value for particle {bad} "
            f"at t={t:g} (state {x[bad]!r})")
    raise BlowUpError(bad, k, t)


def _run(config: SimConfig, model: ModelSpec, ensemble: ParticleEnsemble,
         seed: int, measure_at=None) -> PathRecord:
    """Core Euler-Maruyama loop.

    measure_at(k, ensemble) supplies the measure each step sees; the default
    is the ensemble's own empirical law (the interacting system).
    """
    model = _snap_measure(model, config)
    steps = config.steps
    n = ensemble.n
    out = np.empty((steps + 1, n))
    out[0] = ensemble.current
    sqdt = np.sqrt(config.dt)
    n_streams = int(ensemble.stream_ids.max()) + 1
    pool = ThreadPoolExecutor(config.workers) if config.workers > 1 else None
    try:
        for k in range(steps):
            t = k * config.dt
            x = ensemble.current
            mu = EmpiricalMeasure(x) if measure_at is None else measure_at(k, ensemble)
            drift, sig = _eval_coeffs(model, t, x, ensemble.batch(), mu, config.workers, pool)
            z = rng.normals(seed, rng.STREAM_DRIVE, k, n_streams)[ensemble.stream_ids]
            new = x + drift * config.dt + sig * sqdt * z
            _check_advanced(x, drift, sig, new, k, t)
            ensemble.advance(new)
            out[k + 1] = new
    finally:
        if pool is not None:
            pool.shutdown(wait=False)
    return PathRecord(times=config.times, values=out)


def step_interacting(ensemble: ParticleEnsemble, model: ModelSpec, t: float,
                     dt: float, seed: int, workers: int = 1) -> ParticleEnsemble:
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
    x = ensemble.current
    mu = EmpiricalMeasure(x)
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    try:
        drift, sig = _eval_coeffs(model, t, x, ensemble.batch(), mu, workers, pool)
    finally:
        if pool is not None:
            pool.shutdown(wait=False)
    n_streams = int(ensemble.stream_ids.max()) + 1
    z = rng.normals(seed, rng.STREAM_DRIVE, ensemble.step_index, n_streams)[ensemble.stream_ids]
    new = x + drift * dt + sig * np.sqrt(dt) * z
    _check_advanced(x, drift, sig, new, ensemble.step_index, t)
    ensemble.advance(new)
    return ensemble


def simulate_interacting(config: SimConfig, model: ModelSpec, initial_law,
                         stream_ids=None) -> PathRecord:
    """The N-interacting system: each particle sees the ensemble's own
    empirical law, rebuilt once per step from the full state."""
    ens = ParticleEnsemble.from_law(config, initial_law, stream_ids=stream_ids)
    return _run(config, model, ens, config.seed)


def simulate_frozen(config: SimConfig, model: ModelSpec, flow, n_paths: int,
                    seed: int) -> PathRecord:
    """Independent paths driven by a frozen measure flow instead of the
    ensemble's own law."""
    if flow.steps != config.steps or abs(flow.times[-1] - config.T) > 1e-12:
        raise EngineError("measure flow grid does not match the simulation grid")
    if flow.initial_law is None:
        raise EngineError("flow carries no initial law; attach one before freezing")
    cfg = replace(config, N=n_paths, seed=seed)
    ens = ParticleEnsemble.from_law(cfg, flow.initial_law, seed=seed)
    return _run(cfg, model, ens, seed, measure_at=lambda k, _e: flow.measure_at(k))


def simulate_coupled(config: SimConfig, model: ModelSpec, reference_flow,
                     initial_law=None) -> CoupledRecord:
    """Interacting system and reference-driven twin on identical noise.

    Both systems start from the same initial draws and consume the same
    increment per (particle, step); only the measure they see differs.
    """
    if reference_flow.steps != config.steps:
        raise EngineError("reference flow grid does not match the simulation grid")
    law = initial_law if initial_law is not None else reference_flow.initial_law
    if law is None:
        raise EngineError("no initial law: pass one or use a flow that carries it")
    model = _snap_measure(model, config)
    ens_i = ParticleEnsemble.from_law(config, law)
    ens_l = ParticleEnsemble.from_law(config, law)
    steps = config.steps
    n = config.N
    out_i = np.empty((steps + 1, n))
    out_l = np.empty((steps + 1, n))
    out_i[0] = ens_i.current
    out_l[0] = ens_l.current
    sqdt = np.sqrt(config.dt)
    pool = ThreadPoolExecutor(config.workers) if config.workers > 1 else None
    try:
        for k in range(steps):
            t = k * config.dt
            z = rng.normals(config.seed, rng.STREAM_DRIVE, k, n)
            xi = ens_i.current
            mu_hat = EmpiricalMeasure(xi)
            d_i, s_i = _eval_coeffs(model, t, xi, ens_i.batch(), mu_hat, config.workers, pool)
            xl = ens_l.current
            mu_ref = reference_flow.measure_at(k)
            d_l, s_l = _eval_coeffs(model, t, xl, ens_l.batch(), mu_ref, config.workers, pool)
            new_i = xi + d_i * config.dt + s_i * sqdt * z
            new_l = xl + d_l * config.dt + s_l * sqdt * z
            _check_advanced(xi, d_i, s_i, new_i, k, t)
            _check_advanced(xl, d_l, s_l, new_l, k, t)
            ens_i.advance(new_i)
            ens_l.advance(new_l)
            out_i[k + 1] = new_i
            out_l[k + 1] = new_l
    finally:
        if pool is not None:
            pool.shutdown(wait=False)
    times = config.times
    return CoupledRecord(times=times,
                         interacting=PathRecord(times=times, values=out_i),
                         limit=PathRecord(times=times, values=out_l))


def simulate_mollified(config: SimConfig, model: ModelSpec, n: int, initial_law) -> PathRecord:
    """Interacting run with the diffusion replaced by its mollification at
    scale 1/n; the noise contract is unchanged, so runs at different n
    couple through identical increments."""
    moll = mollify_sigma(model, n)
    smoothed = replace(model, sigma=moll, name=f"{model.name}-mollified-{n}")
    return simulate_interacting(config, smoothed, initial_law)
