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
true nearest lattice point of every in-box input, so encoding is exact
and never scans.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .norms import Lp

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


def vq_worst_case_error(box, n: int, bits: int) -> float:
    """Worst-case decode error of the scaled lattice over the box interior."""
    if bits < 0:
        raise ValueError(f"rate must be nonnegative, got {bits}")
    lengths = [float(hi) - float(lo) for lo, hi in box]
    if len(lengths) != n:
        raise ValueError(f"box has {len(lengths)} intervals for dimension {n}")
    return lattice_scale(lengths, bits) * covering_radius(n)


class LatticeQuantizer:
    """A scaled A*_n quantizer with a finite, deterministically indexed codebook."""

    def __init__(self, box, bits: int):
        box = [(float(lo), float(hi)) for lo, hi in box]
        n = len(box)
        if n < 1:
            raise ValueError("empty box")
        if bits < 0 or bits != int(bits):
            raise ValueError(f"rate must be a nonnegative integer, got {bits}")
        lengths = np.array([hi - lo for lo, hi in box])
        if np.any(lengths <= 0):
            raise ValueError("degenerate box: every interval must have positive length")

        self.n = n
        self.box = tuple(box)
        self.bits = int(bits)
        self.scale = lattice_scale(lengths, self.bits)
        self.basis = embedding_basis(n)
        self._glue = glue_vectors(n)
        self._lo = np.array([lo for lo, _ in box])
        self._hi = np.array([hi for _, hi in box])
        self._build_codebook()

    @property
    def worst_case_error(self) -> float:
        return self.scale * covering_radius(self.n)

    @property
    def codebook_size(self) -> int:
        return self.points.shape[0]

    @property
    def effective_bits(self) -> float:
        return math.log2(self.codebook_size)

    def _build_codebook(self):
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

        keys, points = [], []
        for i, g in enumerate(self._glue):
            grid = np.indices(spans[i]).reshape(n, -1).T + f_lo[i, :n]
            last = -grid.sum(axis=1)
            ok = (last >= f_lo[i, n]) & (last <= f_hi[i, n])
            f = np.column_stack([grid[ok], last[ok]])
            pts = self.scale * ((g + f) @ self.basis.T)
            gap = np.maximum(np.maximum(self._lo - pts, pts - self._hi), 0.0)
            near = np.sqrt(np.sum(gap**2, axis=1)) <= reach * (1.0 + 1e-9)
            keys.append(np.column_stack([np.full(near.sum(), i), f[near]]))
            points.append(pts[near])

        keys = np.concatenate(keys)
        order = np.lexsort(keys.T[::-1])
        self.keys = tuple(map(tuple, keys[order].tolist()))
        self.points = np.concatenate(points)[order]
        self._index = dict(zip(self.keys, range(len(self.keys))))

    def clamp(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self._lo, self._hi)

    def quantize(self, v: np.ndarray) -> np.ndarray:
        """Round-trip decode(encode(v))."""
        return vq_decode(self, vq_encode(self, v))

    def worst_case_block_error(self, norm) -> float:
        """The Euclidean bound, which also bounds every L_p norm with p >= 2."""
        if not (isinstance(norm, Lp) and norm.p >= 2):
            raise ValueError("lattice quantizer error bound requires an L_p block norm with p >= 2")
        return self.worst_case_error

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "L": self.bits,
                "box": [list(iv) for iv in self.box],
                "scale": self.scale,
                "basis": self.basis.tolist(),
                "codebook_size": self.codebook_size,
            }
        )

    @staticmethod
    def from_json(text: str) -> "LatticeQuantizer":
        doc = json.loads(text)
        q = LatticeQuantizer(doc["box"], doc["L"])
        if q.codebook_size != doc["codebook_size"]:
            raise ValueError(
                f"codebook size mismatch on reload: {q.codebook_size} != {doc['codebook_size']}"
            )
        if abs(q.scale - doc["scale"]) > 1e-12 * max(1.0, abs(doc["scale"])):
            raise ValueError("scale mismatch on reload")
        return q


def vq_design(box, n: int, bits: int) -> LatticeQuantizer:
    """Scale A*_n so 2^bits cells cover the box volume and enumerate the codebook."""
    box = list(box)
    if len(box) != n:
        raise ValueError(f"box has {len(box)} intervals for dimension {n}")
    return LatticeQuantizer(box, bits)


def vq_encode(q: LatticeQuantizer, x) -> int:
    """Index of the nearest codebook point to clamp(x, box)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (q.n,):
        raise ValueError(f"expected a length-{q.n} vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    # The nearest point of a clamped input lies within covering distance of the
    # box, so it is in the codebook.
    _, coset, f = _decode_batch(q.clamp(x)[None, :], q.scale, q.basis, q._glue)
    return q._index[(int(coset[0]), *f[0].tolist())]


def vq_decode(q: LatticeQuantizer, index: int) -> np.ndarray:
    if not (0 <= index < q.codebook_size):
        raise ValueError(f"index {index} out of range (codebook size {q.codebook_size})")
    return q.points[index].copy()
