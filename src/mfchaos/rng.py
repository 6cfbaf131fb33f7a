"""Counter-based noise streams for reproducible parallel Monte Carlo.

Every random quantity in the simulator is a pure function of
(seed, stream, step, index): the generator is Philox keyed by
(seed, stream) with the block counter pinned to the step index, so a
value can be regenerated without replaying anything that came before
it, and the result is independent of execution order or thread count.
Normal variates go through the inverse CDF rather than Box-Muller, one
uniform to one variate, so variate i depends on uniform i alone. Their
bits are those of the pinned scipy's compiled `ndtri` (Cephes: rational
approximations, with a `log` in each tail, u < e^-2 or u > 1 - e^-2).

`ndtri` is taken from `scipy.special._ufuncs` without running the
`scipy.special` package initialiser, whose array-API layer imports most of
numpy (`numpy.f2py`, `numpy.testing`, `numpy.ma`, ...): that is more than
half of the CLI's start-up time and some 13 MiB of resident memory, where
the compiled ufuncs take a few milliseconds. The package is never left
half-registered: a later `import scipy.special` runs the real initialiser,
which binds the same `ndtri`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import threading

import numpy as np
import numpy.random   # here, so that a run's first draw imports nothing
import scipy


def _load_ndtri():
    """`ndtri` of scipy.special._ufuncs, without executing scipy/special/__init__.py."""
    loaded = sys.modules.get("scipy.special")
    if loaded is not None:
        return loaded.ndtri
    # never scipy.special as an attribute: scipy's __getattr__ imports the package
    before = set(sys.modules)
    spec = importlib.machinery.PathFinder.find_spec("scipy.special", scipy.__path__)
    sys.modules["scipy.special"] = importlib.util.module_from_spec(spec)   # not executed
    try:
        from scipy.special._ufuncs import ndtri
        return ndtri
    finally:
        # leave sys.modules as it was: a later import of scipy.special then runs the
        # real initialiser, and binds each submodule it loads as a package attribute
        for name in set(sys.modules) - before:
            if name == "scipy.special" or name.startswith("scipy.special."):
                del sys.modules[name]


ndtri = _load_ndtri()

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


def uniforms(seed: int, stream: int, step: int, n: int, out=None) -> np.ndarray:
    """n uniforms in the open interval (0, 1), pure in (seed, stream, step, i).

    out, if given, is a contiguous float64 array of n values; it is filled
    and returned, with the same bits as a fresh draw."""
    # random() is k * 2^-53 for the k of integers(0, 2^53), and + 2^-54 rounds as k + 0.5
    u = _philox(seed, stream, step).random(n, out=out)
    u += 0.5 / _U53
    return u


def normals(seed: int, stream: int, step: int, n: int, out=None) -> np.ndarray:
    """n standard normals via inverse CDF; element i depends only on its index.
    out is that of `uniforms`."""
    u = uniforms(seed, stream, step, n, out=out)
    return ndtri(u, out=u)
