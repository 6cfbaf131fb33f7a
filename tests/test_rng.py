"""The kept Philox generators against generators built fresh for every call."""

import os
import random
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy.special import ndtri

from mfchaos import rng

_U53 = 1 << 53


def integer_uniforms(seed, stream, step, n):
    """The uniforms as (k + 0.5) / 2^53 of 53-bit integers k, from a fresh generator."""
    key = np.random.SeedSequence(entropy=(seed, stream)).generate_state(2, np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=int(step) << 64))
    return (gen.integers(0, _U53, size=n, dtype=np.int64) + 0.5) / _U53


def fresh_normals(seed, stream, step, n):
    return ndtri(integer_uniforms(seed, stream, step, n))


@pytest.mark.parametrize("n", [1, 64, 4096, 131_072])
def test_uniforms_match_the_integer_formula_bitwise(n):
    for seed, step in [(0, 0), (20260810, 1), (7, 99), (2 ** 63 + 5, 12345)]:
        got = rng.uniforms(seed, rng.STREAM_DRIVE, step, n)
        assert got.tobytes() == integer_uniforms(seed, rng.STREAM_DRIVE, step, n).tobytes()
        assert 0.0 < got.min() and got.max() < 1.0


@pytest.mark.parametrize("n", [1, 5, 4096, 131_072])
def test_out_is_filled_and_returned_bitwise(n):
    for draw in (rng.uniforms, rng.normals):
        fresh = draw(20260810, rng.STREAM_DRIVE, 3, n)
        buf = np.full(n, np.nan)
        assert draw(20260810, rng.STREAM_DRIVE, 3, n, out=buf) is buf
        assert buf.tobytes() == fresh.tobytes()


def shuffled_cases(seed, count=120):
    pick = random.Random(seed)
    return [(pick.choice([0, 1, 7, 20260810, 2 ** 63 + 5]), pick.choice([0, 1, 7]),
             pick.randrange(0, 200), pick.choice([1, 3, 64, 1000])) for _ in range(count)]


def test_interleaved_keys_match_fresh_generators():
    for case in shuffled_cases(1):
        assert rng.normals(*case).tobytes() == fresh_normals(*case).tobytes()


def test_threads_keep_their_own_generators():
    failures = []

    def worker(seed):
        for case in shuffled_cases(seed):
            if rng.normals(*case).tobytes() != fresh_normals(*case).tobytes():
                failures.append(case)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert failures == []


def test_cache_stays_bounded_and_exact():
    for seed in range(rng._KEPT_MAX + 10):
        rng.uniforms(seed, 5, 0, 1)
    assert len(rng._kept.generators) <= rng._KEPT_MAX
    assert rng.normals(0, 5, 3, 16).tobytes() == fresh_normals(0, 5, 3, 16).tobytes()


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

COEXIST = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
if sys.argv[2] == "special-first":
    import scipy.special
import mfchaos.cli
from mfchaos import rng
if sys.argv[2] == "cli-first":
    assert not [m for m in sys.modules if m.startswith("scipy.special")]
import scipy.special, scipy.stats
assert scipy.special.ndtri is rng.ndtri
# scipy.stats reaches the ufuncs through the package's submodule attributes
assert 0.5 < scipy.special._ufuncs.stdtr(3, 0.5) < 1
u = np.array([5e-324, 2.0 ** -54, 0.3, 0.5, 1 - 2.0 ** -53])
assert scipy.stats.norm.ppf(u).tobytes() == rng.ndtri(u).tobytes()
print("ok")
"""


@pytest.mark.parametrize("order", ["cli-first", "special-first"])
def test_ndtri_is_scipy_specials_in_either_import_order(order):
    # rng loads the compiled ndtri without running scipy.special's initialiser;
    # a later import of the package must still run it and hand back the same ufunc
    proc = subprocess.run([sys.executable, "-c", COEXIST, SRC, order], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]
