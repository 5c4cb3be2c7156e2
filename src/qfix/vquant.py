"""Dual-lattice A*_n vector quantizers over boxes.

The n-dimensional dual lattice A*_n lives in the hyperplane
H = {z in R^(n+1) : sum(z) = 0} as the union of n+1 translates
("cosets") of the integer root lattice A_n = {f in Z^(n+1) : sum(f) = 0}:

    A*_n = union_{i=0..n} (glue(i) + A_n)
    glue(i) = (i/(n+1), ..., i/(n+1), i/(n+1) - 1, ..., i/(n+1) - 1)
              with n+1-i leading and i trailing entries.

Points are mapped between H and R^n through a fixed orthonormal basis
(rows b_i = (1,...,1,-i,0,...,0)/sqrt(i(i+1)), i = 1..n), so codebooks
are reproducible.  Nearest-point decoding solves every coset at once
(round, then repair the sum deficiency by the cheapest +/-1 moves) and
keeps the nearest candidate; cosets within 1e-12 (1 + d^2) of the nearest
squared distance d^2 count as tied, and the lexicographically smallest
tied candidate wins.

A quantizer scales the lattice so 2^L cells cover the box volume and
its codebook holds every lattice point within covering distance of the
box.  That set is a conservative superset of the points whose cells
meet the box — it may graze a few extra boundary points, which only
enlarges the reported effective rate — and it provably contains the
true nearest lattice point of every in-box input.  So the codebook is
counted, never tabulated, and quantizing decodes the clamped input and
checks that the point is in reach of the box.
"""

from __future__ import annotations

import math

import numpy as np

from .norms import Lp
from .squant import _rate

_ENUM_GUARD = 5_000_000


def covering_radius(n: int) -> float:
    """Covering radius of the unscaled A*_n."""
    if n < 1:
        raise ValueError(f"lattice dimension must be >= 1, got {n}")
    return math.sqrt(n * (n + 2) / (12.0 * (n + 1)))


def fundamental_volume(n: int) -> float:
    """Volume of the fundamental region of the unscaled A*_n."""
    if n < 1:
        raise ValueError(f"lattice dimension must be >= 1, got {n}")
    return math.sqrt(1.0 / (n + 1))


def lattice_scale(lengths, bits: int) -> float:
    """Scale at which 2^bits cells of A*_n cover a box with these n side lengths."""
    lengths = np.asarray(lengths, dtype=float)
    n = lengths.size
    return (float(np.prod(lengths)) / ((1 << bits) * fundamental_volume(n))) ** (1.0 / n)


def embedding_basis(n: int) -> np.ndarray:
    """Fixed orthonormal basis of the zero-sum hyperplane, shape (n, n+1)."""
    basis = np.zeros((n, n + 1))
    for i in range(1, n + 1):
        basis[i - 1, :i] = 1.0
        basis[i - 1, i] = -float(i)
        basis[i - 1] /= math.sqrt(i * (i + 1.0))
    return basis


def glue_vectors(n: int) -> np.ndarray:
    """The n+1 coset representatives of A*_n relative to A_n, shape (n+1, n+1)."""
    g = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        g[i, : n + 1 - i] = i / (n + 1.0)
        g[i, n + 1 - i :] = i / (n + 1.0) - 1.0
    return g


def _nearest_a_n(w: np.ndarray) -> np.ndarray:
    """Nearest points of A_n for hyperplane vectors along the last axis of w.

    Round coordinatewise, then repair the integer sum deficiency with the
    cheapest unit moves: decrement where the rounding residual is smallest,
    increment where it is largest.
    """
    f = np.rint(w)
    delta = np.rint(f.sum(axis=-1, keepdims=True))
    ranks = np.argsort(np.argsort(w - f, axis=-1, kind="stable"), axis=-1, kind="stable")
    dec = (delta > 0) & (ranks < delta)
    inc = (delta < 0) & (ranks >= w.shape[-1] + delta)
    return f - dec + inc


def _decode_batch(y: np.ndarray, scale: float, basis: np.ndarray, glue: np.ndarray):
    """Nearest A*_n points for rows of y (in R^n).

    Returns (points in R^n, coset indices, integer coset offsets f).
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite input")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    z = ((y / scale) @ basis)[:, None, :]  # hyperplane coordinates, one row per coset
    f = _nearest_a_n(z - glue)  # (m, cosets, n+1)
    cand = glue + f
    d2 = np.sum((z - cand) ** 2, axis=-1)
    d2_min = d2.min(axis=1, keepdims=True)
    tied = d2 <= d2_min + 1e-12 * (1.0 + d2_min)
    # Among tied cosets the lexicographically smallest candidate wins; np.lexsort's
    # last key is its primary one.  Only rows with a tie need the sort.
    coset = np.argmax(tied, axis=1)
    multi = np.flatnonzero(tied.sum(axis=1) > 1)
    if multi.size:
        keys = (*np.moveaxis(cand[multi, :, ::-1], -1, 0), ~tied[multi])
        coset[multi] = np.lexsort(keys, axis=-1)[:, 0]
    rows = np.arange(z.shape[0])
    points = scale * (cand[rows, coset] @ basis.T)
    return points, coset, f[rows, coset].astype(int)


def nearest_point_a_star(y, scale: float) -> np.ndarray:
    """The closest point of scale * A*_n to y in Euclidean distance."""
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    n = y.shape[-1]
    points, _, _ = _decode_batch(y, scale, embedding_basis(n), glue_vectors(n))
    return points[0] if single else points


def _box_lengths(box) -> np.ndarray:
    """Side lengths of a box of (lo, hi) intervals, each of which must be positive."""
    lengths = np.array([float(hi) - float(lo) for lo, hi in box])
    if np.any(lengths <= 0):
        raise ValueError("degenerate box: every interval must have positive length")
    return lengths


class LatticeQuantizer:
    """A scaled A*_n quantizer whose codebook is counted, never tabulated; `size` is n."""

    def __init__(self, box, bits: int):
        box = [(float(lo), float(hi)) for lo, hi in box]
        n = len(box)
        if n < 1:
            raise ValueError("empty box")
        self.bits = _rate(bits)
        lengths = _box_lengths(box)

        self.n = self.size = n
        self.box = tuple(box)
        self.scale = lattice_scale(lengths, self.bits)
        self.basis = embedding_basis(n)
        self._glue = glue_vectors(n)
        self._lo = np.array([lo for lo, _ in box])
        self._hi = np.array([hi for _, hi in box])
        self.codebook_size = self._count_codebook()

    @property
    def worst_case_error(self) -> float:
        return self.scale * covering_radius(self.n)

    @property
    def effective_bits(self) -> float:
        return math.log2(self.codebook_size)

    def _in_reach(self, pts: np.ndarray) -> np.ndarray:
        """Which rows of pts lie within covering distance of the box: the codebook's membership test."""
        gap = np.maximum(np.maximum(self._lo - pts, pts - self._hi), 0.0)
        return np.sqrt(np.sum(gap**2, axis=1)) <= self.worst_case_error * (1.0 + 1e-9)

    def _count_codebook(self) -> int:
        n = self.n
        reach = self.worst_case_error
        ylo = (self._lo - reach) / self.scale
        yhi = (self._hi + reach) / self.scale
        # Interval arithmetic on z = basis^T y over the expanded box, then the
        # offset range of every coset (row) in every hyperplane coordinate.
        cols = self.basis.T
        zmin = np.minimum(cols * ylo, cols * yhi).sum(axis=1)
        zmax = np.maximum(cols * ylo, cols * yhi).sum(axis=1)
        f_lo = np.ceil(zmin - self._glue - 1e-9).astype(int)
        f_hi = np.floor(zmax - self._glue + 1e-9).astype(int)
        spans = np.maximum(f_hi[:, :n] - f_lo[:, :n] + 1, 0)
        for count in map(math.prod, spans.tolist()):
            if count > _ENUM_GUARD:
                raise ValueError(
                    f"codebook enumeration would visit {count} candidates "
                    f"(guard {_ENUM_GUARD}); lower the rate or split the block"
                )

        size = 0
        for i, g in enumerate(self._glue):
            grid = np.indices(spans[i]).reshape(n, -1).T + f_lo[i, :n]
            last = -grid.sum(axis=1)
            ok = (last >= f_lo[i, n]) & (last <= f_hi[i, n])
            f = np.column_stack([grid[ok], last[ok]])
            size += int(np.count_nonzero(self._in_reach(self.scale * ((g + f) @ self.basis.T))))
        return size

    def clamp(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self._lo, self._hi)

    def quantize(self, v: np.ndarray) -> np.ndarray:
        """The nearest lattice point to clamp(v, box), which is a codebook point."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,) or not np.isfinite(v).all():
            raise ValueError(f"expected a finite length-{self.n} vector, got {v!r}")
        points, _, _ = _decode_batch(self.clamp(v)[None, :], self.scale, self.basis, self._glue)
        if not self._in_reach(points)[0]:  # the membership proof the count relies on
            raise ValueError(f"decoded point {points[0]} is outside the codebook's reach of the box")
        return points[0]

    def worst_case_block_error(self, norm) -> float:
        """The Euclidean bound, which also bounds every L_p norm with p >= 2."""
        if not (isinstance(norm, Lp) and norm.p >= 2):
            raise ValueError("lattice quantizer error bound requires an L_p block norm with p >= 2")
        return self.worst_case_error


def vq_design(box, n: int, bits: int) -> LatticeQuantizer:
    """Scale A*_n so 2^bits cells cover the box volume and count the codebook."""
    box = list(box)
    if len(box) != n:
        raise ValueError(f"box has {len(box)} intervals for dimension {n}")
    return LatticeQuantizer(box, bits)
