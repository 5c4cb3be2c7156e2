"""Reference lattice algorithms the lattice tests compare the package against.

`brute_nearest_distance` is independent of the package's decoder: it
enumerates every candidate in a window that provably contains the optimum
and takes the distance minimum directly.  `scan_decode` and
`enumerate_codebook` are the straightforward forms of the package's decoder
and codebook construction: one coset, one tied row and one codebook point at
a time, with the same floating-point operations, so the package must equal
them bit for bit.
"""

import itertools
import math

import numpy as np

from qfix.vquant import embedding_basis, glue_vectors


def brute_nearest_distance(y, scale, n):
    """Distances from rows of y to the nearest scaled lattice point.

    Any lattice point within covering distance of y sits, in hyperplane
    coordinates, within R(n) < 1 of y per coordinate; the offset window
    floor+{-1,0,1,2} covers every integer within +/-1 of a real number, so
    the enumerated candidate set contains the true nearest point.
    """
    basis = embedding_basis(n)
    glue = glue_vectors(n)
    z = (np.atleast_2d(np.asarray(y, dtype=float)) / scale) @ basis
    m = z.shape[0]
    offsets = np.array(list(itertools.product(range(-1, 3), repeat=n)), dtype=float)
    best_d2 = np.full(m, np.inf)
    for g in glue:
        base = np.floor(z[:, :n] - g[:n])
        for off in offsets:
            f_head = base + off
            f_last = -f_head.sum(axis=1, keepdims=True)
            cand = g + np.concatenate([f_head, f_last], axis=1)
            d2 = np.sum((z - cand) ** 2, axis=1)
            np.minimum(best_d2, d2, out=best_d2)
    return scale * np.sqrt(best_d2)


def _scan_nearest_a_n(w):
    f = np.rint(w)
    delta = np.rint(f.sum(axis=1)).astype(int)
    order = np.argsort(w - f, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(w.shape[1]), w.shape), axis=1)
    dec = (delta[:, None] > 0) & (ranks < delta[:, None])
    inc = (delta[:, None] < 0) & (ranks >= w.shape[1] + delta[:, None])
    return f - dec + inc


def scan_decode(y, scale, n):
    """Nearest scaled A*_n points of the rows of y, one coset at a time.

    Returns (points, coset indices, integer coset offsets).  A coset
    replaces the best so far when it is nearer by more than 1e-12 (1 + d^2),
    or when it is that close and its candidate is lexicographically smaller.
    """
    basis = embedding_basis(n)
    glue = glue_vectors(n)
    z = (np.atleast_2d(np.asarray(y, dtype=float)) / scale) @ basis
    m = z.shape[0]
    best_d2 = np.full(m, np.inf)
    best_cand = np.zeros((m, n + 1))
    best_coset = np.zeros(m, dtype=int)
    best_f = np.zeros((m, n + 1))
    for i, g in enumerate(glue):
        f = _scan_nearest_a_n(z - g)
        cand = g + f
        d2 = np.sum((z - cand) ** 2, axis=1)
        fresh = ~np.isfinite(best_d2)
        seen = np.where(fresh, d2, best_d2)
        better = fresh | (d2 < seen - 1e-12 * (1.0 + seen))
        tied = ~fresh & (np.abs(d2 - seen) <= 1e-12 * (1.0 + seen))
        for r in np.nonzero(tied)[0]:
            if tuple(cand[r]) < tuple(best_cand[r]):
                better[r] = True
        best_cand[better] = cand[better]
        best_d2[better] = d2[better]
        best_coset[better] = i
        best_f[better] = f[better]
    return scale * (best_cand @ basis.T), best_coset, best_f.astype(int)


def enumerate_codebook(q):
    """(keys, points) of every lattice point within covering distance of q's box.

    Visits the offsets of each coset with `itertools.product` over the
    coordinate ranges that interval arithmetic allows, keeps the points near
    the box one at a time, and sorts them by key (coset, offsets).
    """
    n, scale, basis = q.n, q.scale, q.basis
    lo = np.array([a for a, _ in q.box])
    hi = np.array([b for _, b in q.box])
    reach = q.worst_case_error
    ylo, yhi = (lo - reach) / scale, (hi + reach) / scale
    zmin = np.array([np.sum(np.minimum(c * ylo, c * yhi)) for c in basis.T])
    zmax = np.array([np.sum(np.maximum(c * ylo, c * yhi)) for c in basis.T])
    keys, rows = [], []
    for i, g in enumerate(glue_vectors(n)):
        f_lo = np.ceil(zmin - g - 1e-9).astype(int)
        f_hi = np.floor(zmax - g + 1e-9).astype(int)
        spans = [range(f_lo[j], f_hi[j] + 1) for j in range(n)]
        if math.prod(len(s) for s in spans) == 0:
            continue
        grid = np.array(list(itertools.product(*spans)), dtype=int)
        last = -grid.sum(axis=1)
        ok = (last >= f_lo[n]) & (last <= f_hi[n])
        if not np.any(ok):
            continue
        f = np.column_stack([grid[ok], last[ok]])
        pts = scale * ((g + f) @ basis.T)
        gap = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
        near = np.sqrt(np.sum(gap**2, axis=1)) <= reach * (1.0 + 1e-9)
        for row, fv in zip(pts[near], f[near]):
            keys.append((i, *map(int, fv)))
            rows.append(row)
    order = sorted(range(len(keys)), key=lambda idx: keys[idx])
    points = np.array([rows[idx] for idx in order]) if rows else np.zeros((0, n))
    return tuple(keys[idx] for idx in order), points
