"""Path segments on the trailing delay window and probability measures on it.

A SegmentBatch is every particle's path on [-r, 0], the state of a delay
equation, read from a ring buffer of values on a uniform grid; `value_at`
is the one interpolation between grid points. The engine hands one to a
model's path drift, and the assumption audit a stack of one-particle ones. A
DelayMeasure is the atomic probability measure that weights the
path-dependent drift, and `l1m_norm` is the segment norm against it that
the drift's Lipschitz condition uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative slack for "h divides r" style integrality checks: a few ulps,
# so grids built as k*dt round-trip but genuinely incommensurate pairs fail.
_GRID_RTOL = 4.0 * np.finfo(float).eps


def _ratio_as_int(num: float, den: float, what: str) -> int:
    ratio = num / den
    k = int(round(ratio)) if np.isfinite(ratio) else None   # round() of inf overflows
    if k is None or abs(num - k * den) > _GRID_RTOL * max(abs(num), abs(k * den), 1.0):
        raise ValueError(f"{what}: {num!r} is not an integer multiple of {den!r}")
    return k


class SegmentBatch:
    """Read-only view of every particle's segment, vectorized over particles:
    what a model's path drift is handed, in a run and in the audit alike.

    The buffer is (N, width) for one system or (K, N, width) for a stack, a
    ring whose oldest column (lag -r) is `head`.
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


@dataclass(frozen=True)
class DelayMeasure:
    """Atomic probability measure on [-r, 0]: (location, weight) pairs."""

    locations: np.ndarray
    weights: np.ndarray

    def __init__(self, locations, weights):
        loc = np.asarray(locations, dtype=float)
        w = np.asarray(weights, dtype=float)
        if loc.ndim != 1 or loc.shape != w.shape or len(loc) == 0:
            raise ValueError("locations and weights must be matching non-empty 1-d sequences")
        if np.any(w <= 0):
            raise ValueError("atom weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"atom weights must sum to 1 (got {w.sum()!r})")
        if np.any(loc > 0) or not np.isfinite(loc).all():
            raise ValueError("atom locations must be finite and lie in [-r, 0]")
        order = np.argsort(loc)
        object.__setattr__(self, "locations", loc[order])
        object.__setattr__(self, "weights", w[order])

    @property
    def span(self) -> float:
        """Smallest delay horizon containing every atom."""
        return float(-self.locations[0])

    @classmethod
    def dirac(cls, location: float = 0.0) -> "DelayMeasure":
        return cls([location], [1.0])

    @classmethod
    def uniform(cls, r: float, atoms: int) -> "DelayMeasure":
        """Atom quadrature of the uniform density on [-r, 0]."""
        if atoms < 1:
            raise ValueError(f"atoms must be >= 1, got {atoms!r}")
        if atoms == 1:
            return cls.dirac(-r / 2.0)
        return cls(np.linspace(-r, 0.0, atoms), np.full(atoms, 1.0 / atoms))


def l1m_norm(seg: SegmentBatch, m: DelayMeasure) -> np.ndarray:
    """Each particle's integral of |segment| against the delay measure.

    One dot product over the atoms per particle, the same bits whatever
    the batch's shape.
    """
    if m.span > seg.r + _GRID_RTOL:
        raise ValueError(f"measure atoms reach lag -{m.span}, outside segment window [-{seg.r}, 0]")
    atoms = np.stack([seg.value_at(float(s)) for s in m.locations], axis=-1)
    return np.vecdot(np.abs(atoms), m.weights)
