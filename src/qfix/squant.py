"""Uniform scalar quantizers over bounded intervals.

A rate-L quantizer splits [lo, hi] into 2^L equal cells and decodes to
cell midpoints, which is worst-case optimal among all L-bit quantizers
of an interval.  Inputs outside the interval are clamped to the nearest
endpoint cell so iterates perturbed out of the box stay representable.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .norms import WeightedMax, lp_norm


_RATE_CAP = 1024  # a rate is below this, where 2.0 ** L overflows float64


def _rate(bits):
    """Rates as ints (an array's as an int array); ValueError unless each is in 0.._RATE_CAP - 1.

    A rate is an integer (2.0 is, 1.5 is not) below _RATE_CAP.
    """
    given = np.asarray(bits)
    rates = given.astype(float)
    ok = (rates >= 0) & (rates < _RATE_CAP) & (rates == np.floor(rates))
    if not ok.all():
        raise ValueError(f"rate must be a nonnegative integer below {_RATE_CAP}, got {given[~ok].flat[0]}")
    return rates.astype(int) if rates.ndim else int(rates)


class ScalarBlockQuantizer:
    """One uniform scalar quantizer per coordinate of a block, applied as arrays.

    Coordinate m quantizes [lo[m], hi[m]] at bits[m] bits.  The constructor
    checks the three equal-length arrays once and derives the encode and
    decode arrays; `_take` and `_join` (behind `fuse`) slice and join
    those checked arrays.
    """

    def __init__(self, lo, hi, bits):
        lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
        if not (lo.ndim == 1 and lo.shape == hi.shape == np.shape(bits)):
            shapes = (lo.shape, hi.shape, np.shape(bits))
            raise ValueError(f"lo, hi and bits must be equal-length vectors, got shapes {shapes}")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("interval endpoints must be finite")
        empty = np.flatnonzero(hi < lo)
        if empty.size:
            raise ValueError(f"empty interval [{lo[empty[0]]}, {hi[empty[0]]}]")
        levels = np.ldexp(1.0, _rate(bits))
        width = (hi - lo) / levels
        # A point interval encodes to 0 (divide by 1) and decodes to lo + 0.5 * -0.0,
        # which is lo, signed zero included.
        div, width = np.where(width > 0, width, 1.0), np.where(width > 0, width, -0.0)
        self._set((lo, hi, levels - 1.0, div, width))

    def _set(self, arrays) -> "ScalarBlockQuantizer":
        """Take checked (lo, hi, top, div, width) arrays; self."""
        self._lo, self._hi, self._top, self._div, self._width = self._arrays = tuple(arrays)
        return self

    def _take(self, index: slice) -> "ScalarBlockQuantizer":
        """Coordinates `index` as a quantizer of their own: the checked arrays, sliced."""
        return object.__new__(ScalarBlockQuantizer)._set(a[index] for a in self._arrays)

    @staticmethod
    def _join(quantizers) -> "ScalarBlockQuantizer":
        """The blocks' coordinates as one quantizer: their checked arrays, joined."""
        arrays = (np.concatenate(a) for a in zip(*(q._arrays for q in quantizers)))
        return object.__new__(ScalarBlockQuantizer)._set(arrays)

    @property
    def size(self) -> int:
        return self._lo.size

    @staticmethod
    def fuse(quantizers) -> Callable[[np.ndarray], np.ndarray]:
        """v -> the blocks' quantized values, bit for bit as block by block (coordinate-wise).

        `quantize` is looked up at each call, so a wrapper put on the class later
        (perfbench's tracer) sees the call.
        """
        joined = ScalarBlockQuantizer._join(quantizers)
        return lambda v: joined.quantize(v)

    def quantize(self, v: np.ndarray) -> np.ndarray:
        """The midpoint of v's cell, coordinate-wise, v clamped into [lo, hi] first."""
        v = np.asarray(v, dtype=float)
        if v.shape != self._lo.shape:
            raise ValueError(f"block of shape {v.shape} for {self.size} coordinates")
        if not np.isfinite(v).all():
            raise ValueError(f"cannot encode non-finite value in {v}")
        x = np.minimum(np.maximum(v, self._lo), self._hi)
        cell = np.minimum(np.floor((x - self._lo) / self._div), self._top)  # as floats
        return self._lo + (cell + 0.5) * self._width

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
