"""Path segments on the trailing delay window and probability measures on it.

A Segment holds the last stretch of a scalar path on a uniform grid over
[-r, 0]; it is the state of a delay equation. A DelayMeasure is the atomic
probability measure that weights the path-dependent drift. Both norms used
on segments live here: the sup norm and the L1 norm against a DelayMeasure.
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


class Segment:
    """Scalar path restricted to [-r, 0] on a grid of spacing h.

    A plain window of grid values: `advance` builds a new Segment holding
    all but the oldest value plus the new one, O(len) per step.
    Instances are treated as immutable.
    """

    __slots__ = ("r", "h", "_buf")

    def __init__(self, r: float, h: float, values):
        if not (r > 0 and np.isfinite(r)) and r != 0.0:
            raise ValueError(f"delay horizon r must be finite and >= 0, got {r!r}")
        if not (h > 0 and np.isfinite(h)):
            raise ValueError(f"grid spacing h must be positive, got {h!r}")
        self.r = float(r)
        self.h = float(h)
        n = _ratio_as_int(r, h, "segment grid") + 1
        buf = np.asarray(values, dtype=float)
        if buf.shape != (n,):
            raise ValueError(f"expected {n} grid values spanning [-{r}, 0], got shape {buf.shape}")
        if not np.isfinite(buf).all():
            raise ValueError("segment values must all be finite")
        self._buf = buf.copy()

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def values(self) -> np.ndarray:
        """Grid values ordered from lag -r up to lag 0."""
        return self._buf.copy()

    def advance(self, new_value: float) -> "Segment":
        """One grid step of the segment process: drop the oldest value, append new."""
        return Segment(self.r, self.h, np.append(self._buf[1:], float(new_value)))

    def interpolate(self, s: float) -> float:
        """Linear interpolation at lag s in [-r, 0]; exact at grid points."""
        if not (-self.r - _GRID_RTOL <= s <= _GRID_RTOL):
            raise ValueError(f"lag {s!r} outside [-{self.r}, 0]")
        vals = self._buf
        if len(vals) == 1:
            return float(vals[0])
        pos = (min(max(s, -self.r), 0.0) + self.r) / self.h
        j = min(int(np.floor(pos)), len(vals) - 2)
        frac = pos - j
        return float((1.0 - frac) * vals[j] + frac * vals[j + 1])

    def __sub__(self, other: "Segment") -> "Segment":
        if (self.r, self.h) != (other.r, other.h):
            raise ValueError("segments live on different grids")
        return Segment(self.r, self.h, self.values - other.values)

    def __repr__(self) -> str:
        return f"Segment(r={self.r}, h={self.h}, n={len(self._buf)})"


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
            raise ValueError("need at least one atom")
        if atoms == 1:
            return cls.dirac(-r / 2.0)
        return cls(np.linspace(-r, 0.0, atoms), np.full(atoms, 1.0 / atoms))


def uniform_norm(seg: Segment) -> float:
    """Sup norm of the segment over its window."""
    return float(np.max(np.abs(seg.values)))


def l1m_norm(seg: Segment, m: DelayMeasure) -> float:
    """Integral of |segment| against the delay measure."""
    if m.span > seg.r + _GRID_RTOL:
        raise ValueError(f"measure atoms reach lag -{m.span}, outside segment window [-{seg.r}, 0]")
    vals = np.array([abs(seg.interpolate(s)) for s in m.locations])
    return float(np.dot(m.weights, vals))
