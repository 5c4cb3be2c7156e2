"""Block partitions and the norms used throughout the package.

Three norms are provided: the weighted maximum norm max_m |x_m|/a_m,
the L_p norm, and the weighted block-maximum norm

    ||x||_block = max_k ||x_{M_k}||_k / w_k

where the state vector is split into K contiguous blocks M_k and each
block carries its own component norm (weighted-max or L_p).  The module
also holds the closed-form water level of an L_1 budget, which the simplex
projection and the relaxed rate designs share.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache
from typing import Sequence, Union

import numpy as np


class _Frozen:
    """An immutable value: field-wise ==, hash and repr over the class's `_fields`.

    A subclass lists its fields in `_fields` and its constructor stores
    every attribute through `_set`, after which assigning or deleting one
    raises AttributeError.  Attributes outside `_fields` (caches, derived
    arrays) take no part in ==, hash or repr.  Instances keep a `__dict__`,
    so a `cached_property` works.
    """

    _fields: tuple = ()

    def _set(self, **values) -> None:
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BlockPartition(_Frozen):
    """Contiguous decomposition of an n-dimensional state into K blocks.

    Block k covers coordinates [offsets[k], offsets[k+1]); the offsets are
    cumulative sums of the block sizes, computed once.
    """

    _fields = ("block_sizes",)

    def __init__(self, block_sizes: Sequence[int]):
        given = tuple(block_sizes)
        if len(given) < 1:
            raise ValueError("need at least one block")
        if not all(s >= 1 and float(s).is_integer() for s in given):
            raise ValueError(f"block sizes must be positive integers, got {given}")
        sizes = tuple(int(s) for s in given)
        self._set(block_sizes=sizes, offsets=(0, *itertools.accumulate(sizes)))

    @property
    def n(self) -> int:
        return self.offsets[-1]

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    def block_slice(self, k: int) -> slice:
        return slice(self.offsets[k], self.offsets[k + 1])

    def block_index(self, blocks: Union[int, tuple, None] = None) -> Union[slice, np.ndarray]:
        """Coordinates of `blocks`, for indexing a vector.

        Every block (None) and block k (an int) give a slice; a tuple of
        blocks gives their coordinates in that order, as a read-only int
        array (a mapping's group record keeps it).
        """
        if blocks is None:
            return slice(None)
        if not isinstance(blocks, tuple):
            return self.block_slice(blocks)
        idx = np.concatenate([np.arange(self.offsets[k], self.offsets[k + 1]) for k in blocks])
        idx.flags.writeable = False
        return idx


class WeightedMax(_Frozen):
    """Per-block weighted maximum norm with coordinate weights a_m > 0."""

    _fields = ("a",)

    def __init__(self, a: Sequence[float]):
        aa = tuple(float(v) for v in a)
        if not all(0 < v < math.inf for v in aa):
            raise ValueError(f"weighted-max weights must be positive and finite, got {aa}")
        self._set(a=aa)

    @property
    def size(self) -> int:
        return len(self.a)


class Lp(_Frozen):
    """Per-block L_p norm, p >= 1."""

    _fields = ("p",)

    def __init__(self, p: float):
        if not (p >= 1.0):
            raise ValueError(f"p must be >= 1, got {p}")
        self._set(p=p)


PerBlockNorm = Union[WeightedMax, Lp]


class NormSpec(_Frozen):
    """Block weights w plus one component norm per block.

    `_layouts` maps block sizes to the spec's `_BlockLayout` over them.
    """

    _fields = ("block_weights", "per_block")

    def __init__(self, block_weights: Sequence[float], per_block: Sequence[PerBlockNorm]):
        w = tuple(float(v) for v in block_weights)
        pb = tuple(per_block)
        if not all(0 < v < math.inf for v in w):
            raise ValueError(f"block weights must be positive and finite, got {w}")
        if len(w) != len(pb):
            raise ValueError("one component norm per block weight required")
        for item in pb:
            if not isinstance(item, (WeightedMax, Lp)):
                raise TypeError(f"unsupported per-block norm {item!r}")
        self._set(block_weights=w, per_block=pb, _layouts={})

    def check_partition(self, part: BlockPartition) -> None:
        if len(self.block_weights) != part.num_blocks:
            raise ValueError(
                f"{len(self.block_weights)} block norms for {part.num_blocks} blocks"
            )
        for k, item in enumerate(self.per_block):
            if isinstance(item, WeightedMax) and item.size != part.block_sizes[k]:
                raise ValueError(
                    f"block {k}: {item.size} weights for size {part.block_sizes[k]}"
                )

    def _layout(self, part: BlockPartition) -> "_BlockLayout":
        layout = self._layouts.get(part.block_sizes)
        if layout is None:
            layout = self._layouts[part.block_sizes] = _BlockLayout(self, part)
        return layout

    @staticmethod
    def from_json(text: str) -> tuple["BlockPartition", "NormSpec"]:
        doc = json.loads(text)
        part = BlockPartition(doc["blocks"])
        per_block: list[PerBlockNorm] = []
        for entry in doc["per_block"]:
            if entry["kind"] == "wmax":
                per_block.append(WeightedMax(entry["a"]))
            elif entry["kind"] == "lp":
                per_block.append(Lp(entry["p"]))
            else:
                raise ValueError(f"unknown per-block norm kind {entry['kind']!r}")
        spec = NormSpec(doc["w"], per_block)
        spec.check_partition(part)
        return part, spec


class BoxDomain(_Frozen):
    """Per-coordinate closed intervals [lo_m, hi_m].

    The bounds are also kept as read-only arrays, built once, for clamping
    and membership tests.
    """

    _fields = ("lo", "hi")

    def __init__(self, intervals: Sequence[Sequence[float]]):
        lo, hi = [], []
        for m, iv in enumerate(intervals):
            try:
                a, b = iv
            except (TypeError, ValueError):
                raise ValueError(f"interval {m} is not a [lo, hi] pair: {iv!r}") from None
            a, b = float(a), float(b)
            if not (a <= b):
                raise ValueError(f"interval {m} has lo {a} > hi {b}")
            if not (-math.inf < a and b < math.inf):
                raise ValueError(f"interval {m} has an infinite endpoint: [{a}, {b}]")
            lo.append(a)
            hi.append(b)
        lo, hi = tuple(lo), tuple(hi)
        lo_arr, hi_arr = np.array(lo, dtype=float), np.array(hi, dtype=float)
        lo_arr.flags.writeable = hi_arr.flags.writeable = False
        self._set(lo=lo, hi=hi, _lo=lo_arr, _hi=hi_arr)

    @property
    def n(self) -> int:
        return len(self.lo)

    @property
    def lengths(self) -> np.ndarray:
        return self._hi - self._lo

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """x clipped into the box, as min(max(x, lo), hi): `np.clip`'s bytes without its wrapper."""
        return np.minimum(np.maximum(np.asarray(x, dtype=float), self._lo), self._hi)

    def bounds(self, index: Union[slice, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The read-only lower and upper bounds at coordinates `index` (a slice or an int array)."""
        lo, hi = self._lo[index], self._hi[index]
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi

    def contains(self, x: np.ndarray, tol: float = 1e-12) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self._lo - tol) and np.all(x <= self._hi + tol))

    def subbox(self, sl: slice) -> "BoxDomain":
        return BoxDomain(list(zip(self.lo[sl], self.hi[sl])))

    def intervals(self) -> list[tuple[float, float]]:
        return list(zip(self.lo, self.hi))


def lp_norm(x: Sequence[float], p: float) -> float:
    """(sum |x_m|^p)^(1/p) for p >= 1."""
    if not (p >= 1.0):
        raise ValueError(f"p must be >= 1, got {p}")
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return 0.0
    scale = float(np.max(np.abs(x)))
    if scale == 0.0 or scale == math.inf:
        return scale
    return scale * float(np.sum((np.abs(x) / scale) ** p)) ** (1.0 / p)


def _water_level(v: np.ndarray, budget: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The level theta with sum_i (v_i - theta)^+ = budget along the last axis, and the top entry.

    Sorted cumulative sums give theta in closed form: (sum of the rho largest
    entries - budget) / rho, rho the number of entries above it (the level of
    the Euclidean projection onto the simplex).  A zero budget, or a positive
    one below half an ulp of the top entry, leaves no entry above any level:
    theta = inf.  `budget` is one number or one per row.
    """
    n = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    excess = u.cumsum(axis=-1) - budget[..., None]
    count = _counts(n)
    active = u * count > excess
    rho = n - active[..., ::-1].argmax(axis=-1)  # last active index + 1
    theta = np.where((count == rho[..., None]) & active, excess, np.inf).min(axis=-1) / rho
    return theta, u[..., 0]


@lru_cache(maxsize=None)
def _counts(n: int) -> np.ndarray:
    """The read-only entry counts 1, ..., n, built once per n."""
    count = np.arange(1, n + 1)
    count.flags.writeable = False
    return count


class _BlockLayout:
    """A NormSpec over one partition as arrays, checked once.

    Every coordinate has its weight a (1 on L_p blocks).  The weighted-max
    blocks' coordinates are listed with their block's weight w_k.  The L_p
    blocks, which need a power sum, are listed with their coordinates, the
    L_p block of each such coordinate, the blocks' offsets in that list,
    their exponents and their weights.  A coordinate list that is one
    contiguous run (every coordinate, or none) is kept as a slice, so
    indexing with it takes a view.
    """

    def __init__(self, spec: NormSpec, part: BlockPartition):
        spec.check_partition(part)
        self.a = np.concatenate(
            [
                item.a if isinstance(item, WeightedMax) else np.ones(size)
                for item, size in zip(spec.per_block, part.block_sizes)
            ]
        )
        w = np.asarray(spec.block_weights)
        is_lp = np.array([isinstance(item, Lp) for item in spec.per_block])
        coord_is_lp = np.repeat(is_lp, part.block_sizes)
        self.wm_coords = _coordinates(~coord_is_lp)
        self.wm_w = np.repeat(w, part.block_sizes)[self.wm_coords]
        sizes = np.asarray(part.block_sizes)[is_lp]
        exps = np.array([item.p for item in spec.per_block if isinstance(item, Lp)])
        self.has_lp = bool(is_lp.any())
        self.lp_coords = _coordinates(coord_is_lp)
        self.lp_owner = np.repeat(np.arange(sizes.size), sizes)
        self.lp_starts = np.cumsum(sizes) - sizes
        self.lp_w = w[is_lp]
        self.p, self.inv_p = np.repeat(exps, sizes), 1.0 / exps


def _coordinates(mask: np.ndarray) -> Union[slice, np.ndarray]:
    """The coordinates where `mask` holds: a slice if they are one contiguous run, else an array."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return slice(0, 0)
    if idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def block_norms(rows: np.ndarray, part: BlockPartition, spec: NormSpec) -> np.ndarray:
    """The weighted block-maximum norm of every row of a (..., n) array.

    A weighted-max block's norm over its weight, max_m (|x_m| / a_m) / w_k,
    is the largest of its entries' (|x_m| / a_m) / w_k: dividing by w_k > 0
    is correctly rounded and monotone, so it commutes with the max bit for
    bit, NaN included.  So every weighted-max block goes into one flat max
    over their coordinates.  Each L_p block is scaled by its largest entry
    before the power sum, so no block under- or overflows where its norm is
    representable; the sum is not compensated.  A block whose largest entry
    is inf is not scaled, so its norm is inf, or NaN if it holds a NaN.
    Every row gets the same floating-point operations as when it is passed
    alone.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 0 or rows.shape[-1] != part.n:
        raise ValueError(f"vector length {rows.shape[-1:]} != partition dimension {part.n}")
    layout = spec._layout(part)
    ax = np.abs(rows) / layout.a
    norm = (ax[..., layout.wm_coords] / layout.wm_w).max(axis=-1, initial=0.0)
    if layout.has_lp:
        lp = ax[..., layout.lp_coords]
        scale = np.maximum.reduceat(lp, layout.lp_starts, axis=-1)
        unit = np.where((scale > 0) & (scale < np.inf), scale, 1.0).take(layout.lp_owner, axis=-1)
        sums = np.add.reduceat(_power(lp / unit, layout.p), layout.lp_starts, axis=-1)
        norm = np.maximum(norm, (scale * _power(sums, layout.inv_p) / layout.lp_w).max(axis=-1))
    return norm


def _power(base: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """base ** exps, exps copied out to the base's shape.

    numpy's power can take a vectorized path over contiguous operands and a
    scalar one over strided operands, which may differ in the last bit.
    Contiguous exponents of the base's own shape keep every row of a stack
    on the path that row takes alone.
    """
    full = np.empty_like(base)
    full[...] = exps
    return base**full


def block_norm(x: Sequence[float], part: BlockPartition, spec: NormSpec) -> float:
    """Weighted block-maximum norm max_k ||x_{M_k}||_k / w_k of one vector."""
    x = np.asarray(x, dtype=float)
    if x.size != part.n:
        raise ValueError(f"vector length {x.size} != partition dimension {part.n}")
    return float(block_norms(x.reshape(part.n), part, spec))

