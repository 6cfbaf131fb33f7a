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

import threading

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


# one generator per (seed, stream) and thread, rewound to each step's counter block
_kept = threading.local()
_KEPT_MAX = 1024


def _philox(seed: int, stream: int, step: int) -> np.random.Generator:
    kept = getattr(_kept, "generators", None)
    if kept is None:
        kept = _kept.generators = {}
    ident = (int(seed), int(stream))
    entry = kept.get(ident)
    if entry is None:
        if len(kept) >= _KEPT_MAX:
            del kept[next(iter(kept))]   # the oldest entry
        key = np.random.SeedSequence(entropy=ident).generate_state(2, np.uint64)
        bg = np.random.Philox(key=key)
        entry = kept[ident] = (np.random.Generator(bg), bg, bg.state)
    gen, bg, state = entry
    # Each step owns a disjoint 2^64-block slice of the counter space: the
    # counter is [0, step, 0, 0] with an empty output buffer, exactly as a
    # new Philox(key=key, counter=step << 64) starts.
    state["state"]["counter"][:] = (0, int(step), 0, 0)
    state["buffer_pos"] = 4
    state["has_uint32"] = 0
    state["uinteger"] = 0
    bg.state = state
    return gen


def uniforms(seed: int, stream: int, step: int, n: int) -> np.ndarray:
    """n uniforms in the open interval (0, 1), pure in (seed, stream, step, i)."""
    u = _philox(seed, stream, step).integers(0, _U53, size=n, dtype=np.int64) + 0.5
    u /= _U53
    return u


def normals(seed: int, stream: int, step: int, n: int) -> np.ndarray:
    """n standard normals via inverse CDF; element i depends only on its index."""
    u = uniforms(seed, stream, step, n)
    return ndtri(u, out=u)
