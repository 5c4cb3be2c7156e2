"""Uniform scalar quantizers over bounded intervals.

A rate-L quantizer splits [lo, hi] into 2^L equal cells and decodes to
cell midpoints, which is worst-case optimal among all L-bit quantizers
of an interval.  Inputs outside the interval are clamped to the nearest
endpoint cell so iterates perturbed out of the box stay representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import WeightedMax


@dataclass(frozen=True)
class ScalarQuantizer:
    lo: float
    hi: float
    bits: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.hi < self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        if self.bits < 0 or self.bits != int(self.bits):
            raise ValueError(f"rate must be a nonnegative integer, got {self.bits}")

    @property
    def levels(self) -> int:
        return 1 << self.bits

    @property
    def cell_width(self) -> float:
        return (self.hi - self.lo) / self.levels

    @property
    def worst_case_error(self) -> float:
        return sq_worst_case_error((self.lo, self.hi), self.bits)

    def quantize(self, x: float) -> float:
        """Round-trip decode(encode(x))."""
        return sq_decode(self, sq_encode(self, x))


def sq_encode(q: ScalarQuantizer, x: float) -> int:
    """Index of the cell containing x, after clamping x into [lo, hi]."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot encode non-finite value {x}")
    if q.hi == q.lo:
        return 0
    x = min(max(x, q.lo), q.hi)
    i = int((x - q.lo) / q.cell_width)
    return min(i, q.levels - 1)


def sq_decode(q: ScalarQuantizer, i: int) -> float:
    """Midpoint of cell i."""
    if not (0 <= i < q.levels):
        raise ValueError(f"index {i} out of range for {q.bits}-bit quantizer")
    if q.hi == q.lo:
        return q.lo
    return q.lo + (i + 0.5) * q.cell_width


def sq_worst_case_error(interval, bits: int) -> float:
    """|X| / 2^(L+1): the midpoint rule's worst error over the interval."""
    lo, hi = float(interval[0]), float(interval[1])
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if bits < 0:
        raise ValueError(f"rate must be nonnegative, got {bits}")
    return (hi - lo) / (2.0 * (1 << bits))


@dataclass(frozen=True)
class ScalarBlockQuantizer:
    """One uniform scalar quantizer per coordinate of a block."""

    coords: tuple[ScalarQuantizer, ...]

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(coords))

    @property
    def size(self) -> int:
        return len(self.coords)

    def quantize(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.size != len(self.coords):
            raise ValueError(f"block length {v.size} != {len(self.coords)}")
        return np.array([q.quantize(x) for q, x in zip(self.coords, v)])

    def worst_case_errors(self) -> np.ndarray:
        """Per-coordinate worst-case absolute errors."""
        return np.array([q.worst_case_error for q in self.coords])

    def worst_case_block_error(self, norm) -> float:
        """Bound on the block error in a weighted-max or L_p component norm."""
        errs = self.worst_case_errors()
        if isinstance(norm, WeightedMax):
            return float(np.max(errs / np.asarray(norm.a)))
        return float(np.sum(errs**norm.p)) ** (1.0 / norm.p)
