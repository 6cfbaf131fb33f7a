"""The kept Philox generators against generators built fresh for every call."""

import random
import threading

import numpy as np
from scipy.special import ndtri

from mfchaos import rng

_U53 = 1 << 53


def fresh_normals(seed, stream, step, n):
    key = np.random.SeedSequence(entropy=(seed, stream)).generate_state(2, np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=int(step) << 64))
    return ndtri((gen.integers(0, _U53, size=n, dtype=np.int64) + 0.5) / _U53)


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
