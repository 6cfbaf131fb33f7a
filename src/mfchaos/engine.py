"""Euler-Maruyama stepping for the interacting particle system and friends.

All simulators share one noise contract: the Brownian increment of
particle i at step k is element i of step k's draw, a pure function of
(seed, k, i) regenerated from a counter-based generator. Consequences:
records are bit-identical across runs, and two systems stepped against
the same seed share their noise exactly (which is how the synchronous
coupling works).

The empirical measure a step sees is built once from the full state
before any particle moves, so no particle ever observes a partially
updated ensemble.

One loop, `_run`, does every step. It advances one system of N particles
or a (K, N) stack of K such systems at once: row i is driven by its own
seed, and each group of rows sees either its rows' own empirical laws or
a shared measure flow. A step draws one row per distinct seed, which every
row with that seed reads and no step writes (`_draw_rows`), so a coupled
stack of K pairs draws K rows.
Every row goes through the same per-row operations as a system stepped
alone (sorted-row mean, `x + drift*dt + sig*sqdt*z`), so stacking never
changes a bit. A step allocates no particle-sized array: the coefficients
are written into memory the run already holds (see `_step`), through the
optional `out=` of a coefficient that takes one.

A step's sorted state, its update and an in-step draw live only while it
runs, so they are views, taken at each step, of a workspace's buffers (one
per role, grown to the largest run that takes it). A stepping block has one
workspace: a lazy run made inside `shared_workspace()` belongs to that
block, whose runs step in lockstep on one thread, as a sweep's share does,
and any other run is a block of its own. Between its steps a run keeps
only its ring buffer.

`_run` steps on the caller's thread. Where a block's draw per grid time,
summed over its runs' distinct seeds, reaches `_AHEAD_MIN` values, one
forked drawer process (`_Drawer`) makes every draw after the first grid
time, ahead of the step that reads it, into a mapping it shares with the
block, and the steps read their draws there in place: `simulate` at large N, a frozen
flow of at least 2^15 paths read on its own, and a rate sweep's share with
its reference. Since a draw is a pure function of (seed, stream, step), the
process that makes it changes no bit.
"""

from __future__ import annotations

import inspect
import math
import mmap
import os
import signal
import threading
from contextlib import closing, contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .measures import EmpiricalMeasure
from .model import ModelError, ModelSpec
from .paths import SegmentBatch, _ratio_as_int
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

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError(f"T must be positive, got {self.T!r}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N!r}")
        _ratio_as_int(self.T, self.dt, "horizon")

    @property
    def steps(self) -> int:
        return _ratio_as_int(self.T, self.dt, "horizon")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


# ---------------------------------------------------------------------------
# initial laws, each with the moment order p of `chaos.theoretical_exponent`


@dataclass(frozen=True)
class ConstantLaw:
    value: float = 1.0
    moment_order = math.inf

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value!r}")

    def sample(self, seed: int, n: int) -> np.ndarray:
        return np.full(n, float(self.value))

    @property
    def mean(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class GaussianLaw:
    mean: float = 1.0
    std: float = 0.5
    moment_order = math.inf

    def __post_init__(self):
        if not np.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean!r}")
        if not (np.isfinite(self.std) and self.std >= 0):
            raise ValueError(f"std must be finite and >= 0, got {self.std!r}")

    def sample(self, seed: int, n: int) -> np.ndarray:
        return self.mean + self.std * rng.normals(seed, rng.STREAM_INIT, 0, n)


@dataclass(frozen=True)
class BoundedParetoLaw:
    """Pareto tail truncated to [lo, hi]. Its moment order is its tail, that
    of the untruncated law, whose moments are finite below it only."""

    tail: float = 1.5
    lo: float = 0.5
    hi: float = 50.0

    def __post_init__(self):
        if not self.tail > 0:
            raise ValueError(f"tail must be > 0, got {self.tail!r}")
        if not self.lo > 0:
            raise ValueError(f"lo must be > 0, got {self.lo!r}")
        if not self.lo < self.hi < np.inf:
            raise ValueError(f"hi must be finite and exceed lo = {self.lo!r}, got {self.hi!r}")

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

    @property
    def moment_order(self) -> float:
        return self.tail


INITIAL_LAWS = {"constant": ConstantLaw, "gaussian": GaussianLaw, "pareto": BoundedParetoLaw}


# ---------------------------------------------------------------------------
# ensemble state


class ParticleEnsemble:
    """Per-particle ring buffers over the delay window [-r, 0].

    init_values holds one system's current values (n,) or full windows
    (n, width), width = r/dt + 1. With stacked=True it holds a stack of K
    systems, (K, N) or (K, N, width). Particle i draws element i of each
    step's noise.
    """

    def __init__(self, r: float, dt: float, init_values: np.ndarray, stacked: bool = False):
        init_values = np.asarray(init_values, dtype=float)
        lead = 2 if stacked else 1
        self._allocate(r, dt, init_values.shape[:lead])
        width = self.buf.shape[-1]
        if init_values.ndim not in (lead, lead + 1):
            raise ValueError(f"initial values must have {lead} or {lead + 1} dimensions")
        if init_values.ndim == lead + 1 and init_values.shape[-1] != width:
            raise ValueError(f"a window over [-{r}, 0] at dt={dt} holds {width} values, "
                             f"got {init_values.shape[-1]}")
        _check_finite(init_values)
        # one copy, never the caller's array; a current value fills its whole window
        self.buf[...] = init_values if init_values.ndim == lead + 1 else init_values[..., None]

    def _allocate(self, r: float, dt: float, shape) -> None:
        """Unwritten windows over [-r, 0] for values of the given shape."""
        if not (np.isfinite(r) and r >= 0):
            raise ValueError(f"r must be finite and >= 0, got {r!r}")
        self.r = float(r)
        self.dt = float(dt)
        width = (_ratio_as_int(r, dt, "delay") if r > 0 else 0) + 1
        self.buf = np.empty(tuple(shape) + (width,))
        self.head = 0
        self.step_index = 0

    @property
    def n(self) -> int:
        """Particles over all systems: N, or K*N for a stack."""
        return len(self.batch())

    @property
    def current(self) -> np.ndarray:
        return self.batch().current

    def batch(self, rows=Ellipsis) -> SegmentBatch:
        return SegmentBatch(self.buf[rows], self.head, self.r, self.dt)

    def advance(self, new_values: np.ndarray) -> None:
        self.buf[..., self.head] = new_values   # oldest slot becomes newest
        self.head = (self.head + 1) % self.buf.shape[-1]
        self.step_index += 1

    @classmethod
    def from_law(cls, config: SimConfig, model: ModelSpec, initial_law,
                 seed=None) -> "ParticleEnsemble":
        """config.N values drawn from the law with `seed` (config.seed by default),
        on the window of the model's delay measure; a list of seeds gives a stack
        with one row per seed. A stack's rows are written straight into its
        windows, and a seed's row is drawn once and copied to every later row
        with that seed, as a coupled stack's twins are."""
        if initial_law is None:
            raise EngineError("no initial law to draw the ensemble from")
        seed = config.seed if seed is None else seed
        r = model.delay_measure.span
        if np.ndim(seed) == 0:
            return cls(r, config.dt, initial_law.sample(seed, config.N))
        ens = cls.__new__(cls)
        ens._allocate(r, config.dt, (len(seed), config.N))
        first = {}
        for i, s in enumerate(seed):
            if s in first:
                ens.buf[i] = ens.buf[first[s]]
            else:
                first[s] = i
                ens.buf[i] = _check_finite(initial_law.sample(s, config.N))[:, None]
        return ens


def _check_finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ValueError("initial ensemble values must be finite")
    return values


# ---------------------------------------------------------------------------
# records


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

    @classmethod
    def blank(cls, times: np.ndarray, shape) -> "PathRecord":
        """A record for `observe` to fill, one row of the given shape per grid time."""
        return cls(times, np.empty((len(times),) + tuple(shape)))

    def observe(self, k: int, x: np.ndarray, xs: np.ndarray) -> None:
        """Keep grid time k's state; the signature of `_run`'s hook."""
        self.values[k] = x

    def write_csv(self, path) -> None:
        """The `long` record form: one line per grid time and particle."""
        index = [str(i) for i in range(self.n)]
        write_table(path, "t,particle,value",
                    (([repr(t)] * self.n, index, row)
                     for t, row in zip(self.times.tolist(), self.values)))


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


def _takes_out(coefficient) -> bool:
    """Whether a coefficient takes `out=`, read from its signature once per run."""
    try:
        return "out" in inspect.signature(coefficient).parameters
    except (TypeError, ValueError):   # no signature to read: call it as (t, x[, mu])
        return False


def _eval_coeffs(model: ModelSpec, t: float, x: np.ndarray, batch: SegmentBatch,
                 mu: EmpiricalMeasure, drift: np.ndarray, sig: np.ndarray, outs) -> None:
    """Write the drift plus the path drift into drift, then sigma into sig, both
    shaped like x; sig may be the memory mu was built from, since sigma comes
    last. outs says whether the drift and sigma take `out=`; a coefficient
    that does not has its value copied in, a scalar broadcast."""
    drift_out, sig_out = outs
    if drift_out:
        model.drift(t, x, mu, out=drift)
    else:
        np.copyto(drift, model.drift(t, x, mu))
    drift += model.path_drift(t, batch, mu)
    if sig_out:
        model.sigma(t, x, out=sig)
    else:
        np.copyto(sig, model.sigma(t, x))


# states beyond this are treated as having already blown up, even if the
# non-finite value first shows in a coefficient rather than the state
_BLOWUP_SCALE = 1e100


def _check_advanced(x, drift, sig, new, k: int, t: float) -> None:
    """Raise for the first non-finite value of new, the update of state x with
    coefficients drift and sig: ModelError where a coefficient is non-finite at
    a sane state, BlowUpError otherwise."""
    at = tuple(np.argwhere(~np.isfinite(new))[0])   # (particle,) or (row, particle)
    bad = int(at[-1])
    coeff_bad = not (np.isfinite(drift[at]) and np.isfinite(sig[at]))
    if coeff_bad and abs(x[at]) < _BLOWUP_SCALE:
        raise ModelError(
            f"coefficient returned a non-finite value for particle {bad} "
            f"at t={t:g} (state {x[at]!r})")
    raise BlowUpError(bad, k, t)


def _increments(seeds, k: int, out: np.ndarray) -> np.ndarray:
    """Fill out with the Brownian increments of step k and return it: one
    system for a single seed, else one row per seed, as `_draw_rows` gives them."""
    n = out.shape[-1]
    for s, row in [(seeds, out)] if np.ndim(seeds) == 0 else zip(seeds, out):
        rng.normals(s, rng.STREAM_DRIVE, k, n, out=row)
    return out


def _draw_rows(seeds, groups):
    """A run's seeds to draw, each distinct seed once in first-seen order, and
    its groups as (rows, draw rows, flow), resolved once per run. A group reads
    a slice of the draw where its draw rows are consecutive, as both halves of
    a coupled stack do, else an index array, which copies its rows each step:
    only `stability_perturbation_test`'s pair, two rows of one seed, does so."""
    if np.ndim(seeds) == 0:
        return seeds, tuple((rows, rows, flow) for rows, flow in groups)
    distinct = list(dict.fromkeys(seeds))
    reads = np.array([distinct.index(s) for s in seeds])
    resolved = []
    for rows, flow in groups:
        at = reads[rows]
        resolved.append((rows, slice(at[0], at[-1] + 1) if (np.diff(at) == 1).all() else at, flow))
    return distinct, tuple(resolved)


_OWN_LAW = ((Ellipsis, None),)   # every row sees its own empirical law


def _check_fit(flow, config: SimConfig) -> None:
    """A flow a run reads at its grid times must have its step count and horizon."""
    if flow.steps != config.steps or abs(flow.times[-1] - config.T) > 1e-12:
        raise EngineError("measure flow grid does not match the simulation grid")


# A block whose draw per grid time, summed over its runs' distinct seeds,
# reaches this many values forks a drawer (`_Workspace.draw`). The drawer
# costs a fork (some 2 ms for a 50 MiB process) and two pipe bytes per draw
# (some 5 us a round trip), against a draw of 2^15 values that takes about
# 1 ms. It picks only where a draw runs, never what it holds.
_AHEAD_MIN = 1 << 15


@dataclass(eq=False)
class _Draws:
    """What one run draws: each step, `_increments` of its seeds into an
    array of the given shape, for steps up to end - 1."""

    seeds: object
    shape: tuple
    end: int


# Every pipe end any live drawer's block holds, whatever thread steps it: a
# drawer closes all but its own two, so that another block's drawer sees
# end-of-file once that block closes its ends. The lock is held from a
# block's making its pipes through its fork.
_PIPES: set[int] = set()
_PIPES_LOCK = threading.Lock()


class _Drawer:
    """A forked process that draws a block's increments ahead of its steps.

    The arena, an anonymous mapping shared with the drawer, holds fixed rows
    for every run of the plan: one slot per run in a block of several runs,
    where the other runs' steps overlap a run's next draw, and two for a
    block of one run, whose next draw overlaps its own step. The drawer makes
    the block's draws (`_increments`) in the order the block steps them, from
    grid time `first` on: grid time by grid time, each in plan order. It
    writes one byte to `ready` once a draw is made, and before it overwrites
    a slot it reads one byte from `free`, which the block writes once the step
    that read the slot is done (`release`). The steps read their draws in
    place, through views the block cannot write.

    The drawer's body always ends in `os._exit`; it exits once its last draw
    is made, or at end-of-file or a broken pipe, so a killed block leaves no
    drawer behind. It touches only the arena, its two pipe ends and its own
    thread's generator (`rng`), so it may be forked from one of a sweep's
    worker threads while another steps.
    """

    def __init__(self, plan: list, first: int):
        self.plan, self.first = plan, first
        self.last = max(d.end for d in plan) - 1
        self.depth = 2 if len(plan) == 1 else 1
        self._pending = self._order()
        self._next = next(self._pending)   # the next draw the block takes
        size = self.depth * sum(math.prod(d.shape) for d in plan)
        arena = np.frombuffer(mmap.mmap(-1, 8 * size))
        arena.fill(0.0)   # touched here, so that no step faults its pages in
        with _PIPES_LOCK:
            self._ready, ready = os.pipe()
            free, self._free = os.pipe()
            _PIPES.update((self._ready, ready, free, self._free))
            try:
                self.pid = os.fork()
            except OSError:
                self._close(ready, free, self._ready, self._free)
                raise
            if self.pid == 0:
                status = 1
                try:
                    for fd in _PIPES - {ready, free}:
                        os.close(fd)
                    self._draw(self._slots(arena), ready, free)
                    status = 0
                except BrokenPipeError:
                    status = 0
                finally:
                    os._exit(status)
            self._close(ready, free)
        arena.flags.writeable = False
        self.slots = self._slots(arena)

    def _slots(self, arena: np.ndarray) -> dict:
        """Each run's `depth` slots, as views of the arena."""
        slots, at = {}, 0
        for d in self.plan:
            n = math.prod(d.shape)
            slots[d] = [arena[at + i * n:at + (i + 1) * n].reshape(d.shape)
                        for i in range(self.depth)]
            at += self.depth * n
        return slots

    def _order(self):
        """Every draw of the plan from grid time `first` on, as (k, plan
        index), in the order the block steps them."""
        for k in range(self.first, self.last + 1):
            for i, d in enumerate(self.plan):
                if k < d.end:
                    yield k, i

    def _draw(self, slots, ready, free):
        """The drawer's loop, run in the forked process."""
        for k, i in self._order():
            if k >= self.first + self.depth and not os.read(free, 1):
                return   # end-of-file: the block is gone
            d = self.plan[i]
            _increments(d.seeds, k, slots[d][k % self.depth])
            os.write(ready, b"\0")

    def read(self, run: _Draws, k: int) -> np.ndarray:
        """Step k's draw of the run, once the drawer has made it. The block's
        runs must step in the drawer's order; the draws of a run that has
        stopped stepping are taken and released unread."""
        at = (k, self.plan.index(run)) if run in self.slots else None
        while at is not None and self._next is not None and self._next <= at:
            taken, self._next = self._next, next(self._pending, None)
            if not os.read(self._ready, 1):
                raise EngineError(f"the block's drawer ended before grid time {k}")
            if taken == at:
                return self.slots[run][k % self.depth]
            self.release(self.plan[taken[1]], taken[0])
        raise EngineError("the runs of a block must step in lockstep, each "
                          "taking its first step before any takes its second")

    def release(self, run: _Draws, k: int) -> None:
        """The step that read the run's draw of grid time k is done: its slot
        may take the run's draw of grid time k + depth."""
        if self.first <= k and k + self.depth < run.end:
            try:
                os.write(self._free, b"\0")
            except BrokenPipeError:
                pass   # the drawer is gone; the next read says so

    @staticmethod
    def _close(*fds):
        for fd in fds:
            _PIPES.discard(fd)
            os.close(fd)

    def close(self) -> None:
        """Close the block's pipe ends, kill the drawer if it still runs, and
        reap it."""
        with _PIPES_LOCK:
            self._close(self._ready, self._free)
        if os.waitpid(self.pid, os.WNOHANG)[0] == 0:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


class _Workspace:
    """A stepping block's step buffers by role, each grown to the largest run
    that takes it, and its draws. `take` hands out a view at the front of a
    role's buffer, so a view is good only until the next step of any run
    that takes from it.

    `draw` registers each run at its first step, which draws in step. At the
    block's first request for a run's second step every run has registered,
    since the block's runs step in lockstep: if their draws per grid time sum
    to at least _AHEAD_MIN values, a `_Drawer` then makes every later draw,
    else every step draws in step. A step `release`s its draw when it is
    done, and `close` ends the drawer."""

    def __init__(self):
        self._bufs = {}
        self._plan = []
        self._drawer = None   # a _Drawer, or False once the block draws in step

    def take(self, role: str, shape) -> np.ndarray:
        n = math.prod(shape)
        if role not in self._bufs or self._bufs[role].size < n:
            self._bufs.pop(role, None)   # the smaller buffer goes before the larger is made
            # the in-step draw's buffer is a mapping of its own, not a heap block
            # that stays resident once freed: it goes back when a drawer takes over
            self._bufs[role] = (np.frombuffer(mmap.mmap(-1, 8 * n)) if role == "draw"
                                else np.empty(n))
        return self._bufs[role][:n].reshape(shape)

    def draw(self, run: _Draws, k: int) -> np.ndarray:
        """Step k's increments of the run, which no step may write."""
        if self._drawer is None:
            if run not in self._plan:
                self._plan.append(run)
            elif sum(math.prod(d.shape) for d in self._plan) >= _AHEAD_MIN:
                self._bufs.pop("draw", None)   # no step draws in step again
                self._drawer = _Drawer(self._plan, k)
            else:
                self._drawer = False
        if self._drawer:
            return self._drawer.read(run, k)
        return _increments(run.seeds, k, self.take("draw", run.shape))

    def release(self, run: _Draws, k: int) -> None:
        """The run's step k is done with its draw."""
        if self._drawer:
            self._drawer.release(run, k)

    def close(self) -> None:
        if self._drawer:
            self._drawer.close()
        self._drawer = False


_SHARED = ContextVar("_SHARED", default=None)


@contextmanager
def shared_workspace():
    """Within the block, every lazy run `_run` makes on this thread belongs to
    one stepping block: it takes its step buffers from one workspace and its
    draws from the block's one drawer, if it has one (`_Workspace.draw`). The
    block's runs must step in lockstep on one thread: each takes its first
    step before any takes its second, and each takes grid time k before any
    takes k + 1, so that no two steps overlap; an observer sees xs
    overwritten by the next step of any of them. When the block ends, its
    drawer is ended and its buffers released."""
    workspace = _Workspace()
    token = _SHARED.set(workspace)
    try:
        yield
    finally:
        _SHARED.reset(token)
        workspace.close()


def _run(config: SimConfig, model: ModelSpec, ensemble: ParticleEnsemble, seeds,
         groups=_OWN_LAW, observe=None, lazy: bool = False):
    """The Euler-Maruyama loop: config.steps steps from the ensemble's step counter.

    The ensemble is one system (seeds is then one seed) or a (K, N) stack
    whose row i is driven by seeds[i]. Each group (rows, flow) names the
    measure its rows see: flow.measure_at(k), or with flow None each row's
    own empirical law; every such flow must sit on the run's grid
    (`_check_fit`). The run reports through observe(k, x, xs) alone: it
    sees the state x at every grid time k, the last one included, with xs
    sorted row by row. The run's next step overwrites x, and xs is
    overwritten by the next step of any run that shares the workspace
    (`shared_workspace`), so an observer copies what it keeps. With no
    observer the run keeps its record (a PathRecord of a run from step 0,
    through its `observe`) and returns it.

    With lazy True nothing is stepped yet: the run comes back as a stepper,
    a generator that takes one grid time per `next`. It observes grid time k
    and steps to k + 1, then yields; at the last grid time it observes and
    ends. So several runs can advance in step, each reading a flow at grid
    time k only while it takes that step. A lazy run made inside
    `shared_workspace()` belongs to that block; any other run is a block of
    its own, with its own workspace, and closing its stepper part way ends
    its drawer.

    A run draws its first step in step. Where its block draws at least
    _AHEAD_MIN values per grid time (distinct seeds times particles, summed
    over the block's runs), one forked drawer makes every later draw one grid
    time ahead (`_Drawer`), and the step reads it in place; else each step
    draws in step. The drawer draws no step beyond the last and is ended, and
    reaped, when a lone run ends, is closed or raises, or when its block ends.
    """
    span = model.delay_measure.span   # atoms are read where declared, so all must fit
    if span > ensemble.r + 1e-12:
        raise EngineError(f"model delay measure reaches lag -{span}, beyond the "
                          f"ensemble's window [-{ensemble.r}, 0]")
    for _, flow in groups:
        if flow is not None:
            _check_fit(flow, config)
    record = None
    if observe is None:
        record = PathRecord.blank(config.times, ensemble.current.shape)
        observe = record.observe
    shared = _SHARED.get() if lazy else None
    stepper = _steps(config, model, ensemble, seeds, groups, observe, shared or _Workspace(),
                     own=shared is None)
    if lazy:
        return stepper
    _drain(stepper)
    return record


def _drain(stepper):
    """Step a lazy run to its end and return its result; it is closed
    however it ends."""
    with closing(stepper):
        while True:
            try:
                next(stepper)
            except StopIteration as end:
                return end.value


def _sort_into(xs, x):
    xs[...] = x
    xs.sort(axis=-1)   # in place, as np.sort sorts its copy


def _observe(observe, k, x, xs):
    _sort_into(xs, x)
    observe(k, x, xs)


def _measure(flow, k, xs):
    """The measure a group sees at grid time k: its flow's, or with flow None
    its rows' own empirical laws, built from xs, those rows of the sorted state."""
    if flow is not None:
        return flow.measure_at(k)
    return EmpiricalMeasure(xs, presorted=True, stacked=xs.ndim == 2)


def _step(model, outs, ensemble, groups, observe, k, dt, z, workspace):
    """Observe grid time k, sorting the state into the workspace's sorted
    buffer xs, and advance the ensemble by step k, written first into its
    update buffer new. The coefficients are written into memory the step
    already holds, so a step allocates no particle-sized array: each group's
    drift into its rows of new, then, once the drift has read mu, its sigma
    into its rows of xs, which no later group reads and where the noise term
    is formed. z, this step's draw, is read through each group's draw rows
    (`_draw_rows`) and never written."""
    t = k * dt
    sqdt = np.sqrt(dt)
    x = ensemble.current
    new, xs = workspace.take("update", x.shape), workspace.take("sorted", x.shape)
    _observe(observe, k, x, xs)
    for rows, reads, flow in groups:
        xr, upd, zr, sr = x[rows], new[rows], z[reads], xs[rows]
        _eval_coeffs(model, t, xr, ensemble.batch(rows), _measure(flow, k, sr), upd, sr, outs)
        # new = x + drift*dt + sig*sqdt*z with the same roundings (+ and * commute)
        sr *= sqdt
        sr *= zr
        upd *= dt
        upd += xr
        upd += sr
        if not np.isfinite(upd).all():
            # the coefficients are overwritten: evaluate them afresh from the
            # unchanged state to tell a model fault from a blow-up
            _sort_into(xs, x)
            drift, sig = np.empty_like(upd), np.empty_like(upd)
            _eval_coeffs(model, t, xr, ensemble.batch(rows), _measure(flow, k, xs[rows]),
                         drift, sig, outs)
            _check_advanced(xr, drift, sig, upd, k, t)
    ensemble.advance(new)


def _steps(config, model, ensemble, seeds, groups, observe, workspace, own):
    """`_run`'s stepper: one grid time per `next`, each step drawing one row
    per distinct seed (`_draw_rows`, resolved once per run) through the
    workspace, which the run closes at its end where it is its own."""
    dt = config.dt
    k0 = ensemble.step_index
    shape = ensemble.current.shape
    outs = (_takes_out(model.drift), _takes_out(model.sigma))   # each probed on its own
    seeds, groups = _draw_rows(seeds, groups)
    run = _Draws(seeds, shape if np.ndim(seeds) == 0 else (len(seeds), shape[-1]),
                 k0 + config.steps)
    try:
        for k in range(k0, run.end):
            z = workspace.draw(run, k)
            try:
                _step(model, outs, ensemble, groups, observe, k, dt, z, workspace)
            finally:
                del z   # a view of the workspace or the arena lives no longer than its step
                workspace.release(run, k)   # a failed step's slot too: other runs step on
            yield k
        _observe(observe, run.end, ensemble.current, workspace.take("sorted", shape))
    finally:
        if own:
            workspace.close()


def step_interacting(ensemble: ParticleEnsemble, model: ModelSpec, t: float,
                     dt: float, seed: int) -> ParticleEnsemble:
    """One synchronous update of the interacting system.

    The empirical measure is built from the full current state before any
    particle moves; the increment of particle i is indexed by i and the
    ensemble's step counter, so stepping by hand or through
    simulate_interacting produces the same numbers.
    """
    if abs(t - ensemble.step_index * dt) > 1e-9 * max(1.0, abs(t)):
        raise EngineError(
            f"time {t!r} does not match the ensemble's step counter "
            f"({ensemble.step_index} steps of dt={dt})")
    cfg = SimConfig(T=dt, dt=dt, N=ensemble.n, seed=seed)
    _run(cfg, model, ensemble, seed, observe=lambda k, x, xs: None)   # nothing to keep
    return ensemble


def simulate_interacting(config: SimConfig, model: ModelSpec, initial_law,
                         observe=None) -> PathRecord | None:
    """The N-interacting system: each particle sees the ensemble's own
    empirical law, rebuilt once per step from the full state. observe is
    `_run`'s; with no observer the record comes back."""
    ens = ParticleEnsemble.from_law(config, model, initial_law)
    return _run(config, model, ens, config.seed, observe=observe)


def simulate_frozen(config: SimConfig, model: ModelSpec, flow, n_paths: int,
                    seed: int, observe=None, lazy: bool = False):
    """Independent paths driven by a frozen measure flow instead of the
    ensemble's own law. observe and lazy are those of `_run`: with no
    observer the record comes back, and with lazy True the run's stepper."""
    cfg = replace(config, N=n_paths, seed=seed)
    ens = ParticleEnsemble.from_law(cfg, model, flow.initial_law)
    return _run(cfg, model, ens, seed, groups=((Ellipsis, flow),), observe=observe, lazy=lazy)


def coupled_stack(config: SimConfig, model: ModelSpec, reference_flow, seeds,
                  observe=None, lazy: bool = False):
    """Interacting systems and their reference-driven twins, one pair per
    seed, stepped as one (2K, N) stack.

    Rows 0..K-1 are the interacting systems, rows K..2K-1 their twins. Each
    row draws its initial values from the reference's initial law with its
    system's seed, and each twin shares its system's increments; only the
    measure they see differs. observe and lazy are those of `_run`.
    """
    K = len(seeds)
    rows = list(seeds) * 2
    ens = ParticleEnsemble.from_law(config, model, reference_flow.initial_law, seed=rows)
    groups = ((slice(0, K), None), (slice(K, 2 * K), reference_flow))
    return _run(config, model, ens, rows, groups, observe=observe, lazy=lazy)


def simulate_coupled(config: SimConfig, model: ModelSpec, reference_flow) -> CoupledRecord:
    """Interacting system and reference-driven twin on identical noise.

    Both start from the same draws of the reference's initial law and consume
    the same increment per (particle, step); only the measure they see differs.
    """
    values = coupled_stack(config, model, reference_flow, [config.seed]).values
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
