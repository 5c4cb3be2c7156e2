"""Uniform scalar quantizers over bounded intervals.

A rate-L quantizer splits [lo, hi] into 2^L equal cells and decodes to
cell midpoints, which is worst-case optimal among all L-bit quantizers
of an interval.  Inputs outside the interval are clamped to the nearest
endpoint cell so iterates perturbed out of the box stay representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .norms import WeightedMax, lp_norm


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

    @cached_property
    def _block(self) -> "ScalarBlockQuantizer":
        """This quantizer as a one-coordinate block, built once."""
        return ScalarBlockQuantizer((self,))

    def quantize(self, x: float) -> float:
        """Round-trip decode(encode(x))."""
        return float(self._block.quantize(np.array([x]))[0])


def sq_encode(q: ScalarQuantizer, x: float) -> int:
    """Index of the cell containing x, after clamping x into [lo, hi]."""
    return int(q._block._encode(np.array([float(x)]))[0])


def sq_decode(q: ScalarQuantizer, i: int) -> float:
    """Midpoint of cell i."""
    if not (0 <= i < q.levels):
        raise ValueError(f"index {i} out of range for {q.bits}-bit quantizer")
    return float(q._block._decode(i)[0])


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
    """One uniform scalar quantizer per coordinate of a block, applied as arrays."""

    coords: tuple[ScalarQuantizer, ...]

    def __init__(self, coords):
        coords = tuple(coords)
        object.__setattr__(self, "coords", coords)
        lo = np.array([q.lo for q in coords], dtype=float)
        hi = np.array([q.hi for q in coords], dtype=float)
        levels = np.array([float(q.levels) for q in coords])
        width = (hi - lo) / levels
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)
        object.__setattr__(self, "_top", levels - 1.0)
        # A point interval encodes to 0 (divide by 1) and decodes to lo + 0.5 * -0.0,
        # which is lo, signed zero included.
        object.__setattr__(self, "_div", np.where(width > 0, width, 1.0))
        object.__setattr__(self, "_width", np.where(width > 0, width, -0.0))

    @property
    def size(self) -> int:
        return len(self.coords)

    def _encode(self, v: np.ndarray) -> np.ndarray:  # cell indices, as floats
        if v.shape != self._lo.shape:
            raise ValueError(f"block of shape {v.shape} for {self.size} coordinates")
        if not np.isfinite(v).all():
            raise ValueError(f"cannot encode non-finite value in {v}")
        x = np.minimum(np.maximum(v, self._lo), self._hi)
        return np.minimum(np.floor((x - self._lo) / self._div), self._top)

    def _decode(self, i) -> np.ndarray:
        return self._lo + (i + 0.5) * self._width

    def quantize(self, v: np.ndarray) -> np.ndarray:
        return self._decode(self._encode(np.asarray(v, dtype=float)))

    def worst_case_errors(self) -> np.ndarray:
        """Per-coordinate bounds on the computed |q(v) - v| for v in the box.

        The half cell plus 8 ulps of max(|lo|, |hi|): the encode's division,
        the midpoint decode lo + (i + 0.5) w and the difference q(v) - v each
        round, and together they move a realized error by less than that.
        """
        ulp = np.spacing(np.maximum(np.abs(self._lo), np.abs(self._hi)))
        return 0.5 * (self._hi - self._lo) / (self._top + 1.0) + 8.0 * ulp

    def worst_case_block_error(self, norm) -> float:
        """Bound on the block error in a weighted-max or L_p component norm.

        An L_p bound is taken in block_norm's scaled form, and widened by the
        relative rounding of that form, which grows with the block size.
        """
        errs = self.worst_case_errors()
        if isinstance(norm, WeightedMax):
            return float(np.max(errs / np.asarray(norm.a)))
        return lp_norm(errs, norm.p) * (1.0 + 4.0 * (self.size + 4) * np.finfo(float).eps)
