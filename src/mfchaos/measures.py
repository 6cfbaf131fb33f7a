"""Empirical measures on the line: Wasserstein-1, total variation, Pinsker.

W1 between empirical measures is computed exactly from order statistics
(in one dimension the optimal coupling is the monotone one), so no LP
solver is involved. Total variation between continuous laws is only
*estimated* (histogram plug-in, biased); the Pinsker inequality is checked
exactly, but only on finite discrete supports where both sides are exact.
"""

from __future__ import annotations

import functools

import numpy as np


class EmpiricalMeasure:
    """Uniformly weighted sample set, stored sorted.

    With stacked=True the samples are a (K, n) array of K sample sets, one
    per row; `mean` is then a (K, 1) column, each row reduced exactly as a
    set of its own would be.
    """

    __slots__ = ("samples", "_mean")

    def __init__(self, samples, presorted: bool = False, stacked: bool = False):
        arr = np.asarray(samples, dtype=float)
        if not stacked:
            arr = arr.ravel()
        elif arr.ndim != 2:
            raise ValueError(f"a stacked empirical measure needs a (K, n) array, got {arr.shape}")
        if arr.shape[-1] == 0:
            raise ValueError("empirical measure needs at least one sample")
        if not np.isfinite(arr).all():
            raise ValueError("samples must be finite")
        self.samples = arr if presorted else np.sort(arr, axis=-1)
        self._mean = None

    @property
    def n(self) -> int:
        return self.samples.shape[-1]

    @property
    def mean(self):
        if self._mean is None:
            if self.samples.ndim == 1:
                self._mean = float(self.samples.mean())
            else:
                self._mean = self.samples.mean(axis=1, keepdims=True)
        return self._mean

    def __repr__(self) -> str:
        if self.samples.ndim == 2:
            return f"EmpiricalMeasure(rows={self.samples.shape[0]}, n={self.n})"
        return f"EmpiricalMeasure(n={self.n}, mean={self.mean:.4g})"


_W1_BLOCK_BYTES = 1 << 20   # scratch buffer size of the W1 kernel


@functools.lru_cache(maxsize=64)
def _segments(ns: int, nb: int):
    """Repeats of each small- and big-side sample and segment lengths; None if nesting."""
    L = np.lcm(ns, nb)
    if L == nb:
        return nb // ns, None, None
    starts = np.union1d(np.arange(0, L, L // ns), np.arange(0, L, L // nb))
    return (np.bincount(starts // (L // ns)), np.bincount(starts // (L // nb)),
            np.diff(starts, append=L).astype(float))


def w1_sorted_rows(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Exact W1 between row k of xs and row k of ys, for stacks of sorted samples.

    W1 is the L1 distance of the quantile functions. On the grid of 1/L, L = lcm(n, m),
    segment s between the merged breakpoints {i/n} and {j/m} pairs small-side sample
    ia[s] with big-side sample ib[s] over an integer length len[s]:
    W1 = sum_s len[s] * |small[ia[s]] - big[ib[s]]| / L, formed with `np.repeat` on
    about 1 MiB of rows at a time (either stack may be a read-only broadcast). For
    nesting counts every len is 1, bit for bit the expanded formula
    `np.abs(np.repeat(small, r, axis=1) - big).mean(axis=1)`. A term rounds twice, then
    meets at most ceil(log2 S) + 17 additions in numpy's pairwise sum of the S <= n + m
    terms and one division: relative error below (ceil(log2 S) + 20) * 2**-53, any lcm.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.ndim != 2 or xs.shape[0] != ys.shape[0]:
        raise ValueError(f"need two stacks with equal row counts, got {xs.shape} and {ys.shape}")
    rows, n, m = xs.shape[0], xs.shape[1], ys.shape[1]
    if min(n, m) < 1:
        raise ValueError("W1 needs at least one sample per row")
    small, big = (xs, ys) if n <= m else (ys, xs)
    reps_small, reps_big, lengths = _segments(min(n, m), max(n, m))
    out = np.empty(rows)
    block = max(1, _W1_BLOCK_BYTES // (8 * (n + m)))
    for a in range(0, rows, block):
        b = min(a + block, rows)
        gaps = np.repeat(small[a:b], reps_small, axis=1)
        gaps -= big[a:b] if reps_big is None else np.repeat(big[a:b], reps_big, axis=1)
        np.abs(gaps, out=gaps)
        if lengths is not None:
            gaps *= lengths
        out[a:b] = gaps.sum(axis=1) / np.lcm(n, m)
    return out


def w1_sorted(xs: np.ndarray, ys: np.ndarray) -> float:
    """W1 between empirical measures given pre-sorted sample arrays."""
    return float(w1_sorted_rows(np.reshape(xs, (1, -1)), np.reshape(ys, (1, -1)))[0])


def w1(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact 1-d Wasserstein-1 distance between two empirical measures."""
    return w1_sorted(mu.samples, nu.samples)


def freedman_diaconis_width(samples: np.ndarray) -> float:
    """Freedman-Diaconis bin width, with fallbacks for degenerate samples."""
    samples = np.asarray(samples, dtype=float)
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = q75 - q25
    if iqr <= 0:
        spread = samples.max() - samples.min()
        return spread / 10.0 if spread > 0 else 1.0
    return float(2.0 * iqr / len(samples) ** (1.0 / 3.0))


def tv_estimate(mu: EmpiricalMeasure, nu: EmpiricalMeasure, bin_width: float | None = None) -> float:
    """Histogram plug-in estimate of the total variation distance in [0, 1].

    Both sample sets are binned on one shared grid aligned to multiples of
    the bin width. This is a biased estimator (bias grows with bin count
    relative to sample size); it is reported as an estimate, not a distance.
    """
    if bin_width is None:
        bin_width = freedman_diaconis_width(np.concatenate([mu.samples, nu.samples]))
    if not (bin_width > 0):
        raise ValueError(f"bin_width must be positive, got {bin_width!r}")
    lo = min(mu.samples[0], nu.samples[0])
    hi = max(mu.samples[-1], nu.samples[-1])
    first = np.floor(lo / bin_width)
    nbins = int(np.floor(hi / bin_width) - first) + 1
    edges = (first + np.arange(nbins + 1)) * bin_width
    p, _ = np.histogram(mu.samples, bins=edges)
    q, _ = np.histogram(nu.samples, bins=edges)
    return float(0.5 * np.abs(p / mu.n - q / nu.n).sum())


def pinsker_check(p, q) -> tuple[float, float, bool]:
    """Exact variation norm, relative entropy and the Pinsker verdict.

    p and q are probability vectors on a shared finite support. Returns
    (var_norm, entropy, holds) where var_norm = sum |p_i - q_i| (the sup
    over |f| <= 1 of the mean gap), entropy = sum q_i log(q_i / p_i), and
    holds is var_norm^2 <= 2 * entropy + 1e-12. If q puts mass where p has
    none the entropy is infinite and the bound holds vacuously.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be probability vectors on a shared support")
    for name, v in (("p", p), ("q", q)):
        if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} is not a probability vector")
    var = float(np.abs(p - q).sum())
    if np.any((q > 0) & (p == 0)):
        return var, float("inf"), True
    mask = q > 0
    ent = float(np.sum(q[mask] * np.log(q[mask] / p[mask])))
    return var, ent, var * var <= 2.0 * ent + 1e-12
