"""Counter-based noise streams for reproducible parallel Monte Carlo.

Every random quantity in the simulator is a pure function of
(seed, stream, step, index): the generator is Philox keyed by
(seed, stream) with the block counter pinned to the step index, so a
value can be regenerated without replaying anything that came before
it, and the result is independent of execution order or thread count.
Normal variates go through the inverse CDF rather than Box-Muller so
the mapping from counter to variate involves no libm transcendentals
with platform-dependent rounding.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import ndtri

# Stream roles. Values are part of the reproducibility contract: changing
# them changes every simulation output.
STREAM_INIT = 0    # initial-condition draws
STREAM_DRIVE = 1   # Brownian increments

_U53 = 1 << 53


def derive_seed(*ids: int) -> int:
    """Collapse a tuple of integer identifiers into a 64-bit sub-seed."""
    ss = np.random.SeedSequence(entropy=tuple(int(i) for i in ids))
    return int(ss.generate_state(1, np.uint64)[0])


@functools.lru_cache(maxsize=1024)
def _philox_key(seed: int, stream: int) -> np.ndarray:
    """The Philox key of (seed, stream), derived once; read-only, since it is shared."""
    key = np.random.SeedSequence(entropy=(seed, stream)).generate_state(2, np.uint64)
    key.flags.writeable = False
    return key


def _philox(seed: int, stream: int, step: int) -> np.random.Generator:
    # Each step owns a disjoint 2^64-block slice of the counter space.
    bg = np.random.Philox(key=_philox_key(int(seed), int(stream)), counter=int(step) << 64)
    return np.random.Generator(bg)


def uniforms(seed: int, stream: int, step: int, n: int) -> np.ndarray:
    """n uniforms in the open interval (0, 1), pure in (seed, stream, step, i)."""
    g = _philox(seed, stream, step)
    return (g.integers(0, _U53, size=n, dtype=np.int64) + 0.5) / _U53


def normals(seed: int, stream: int, step: int, n: int) -> np.ndarray:
    """n standard normals via inverse CDF; element i depends only on its index."""
    return ndtri(uniforms(seed, stream, step, n))
