"""Reference helpers the tests use and the package does not.

`IdentityQuantizer` is a pass-through block quantizer, the infinite-rate
fake a bank can hold in place of a real one.  `weighted_max_norm` is the
per-block weighted maximum norm in its plain form, the oracle `block_norm`
is compared against; `reduceat_block_norms` is the block-by-block formula
(one `np.maximum.reduceat` max per block, then each L_p block's scaled
power sum), the oracle `block_norms` must equal bit for bit.
`sq_worst_case_error` is the midpoint rule's half cell, the oracle the
scalar and lattice quantizers' errors are held to.  `validate_profile`
checks a MIMO strategy profile against its game's constraints.
`frobenius_norm` scales the Frobenius norm through `math.hypot`, so it
stays positive on entries near `np.finfo(float).tiny`, where
`np.linalg.norm` underflows to 0.
`uniform_l2_spec` and `uniform_wmax_spec` are the unit-weight block norm
specs the tests build their mappings and bounds on.
"""

import math
from typing import Sequence

import numpy as np

from qfix.linalg import herm_eig
from qfix.norms import BlockPartition, Lp, NormSpec, WeightedMax


class IdentityQuantizer:
    """Pass-through block quantizer of `size` coordinates (infinite-rate surrogate)."""

    def __init__(self, size: int):
        self.size = size

    def quantize(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v, dtype=float).copy()

    def worst_case_block_error(self, norm) -> float:
        return 0.0


def weighted_max_norm(x: Sequence[float], a: Sequence[float]) -> float:
    """max_m |x_m| / a_m with positive coordinate weights a."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    if x.shape != a.shape:
        raise ValueError(f"length mismatch: x has {x.shape}, a has {a.shape}")
    if np.any(a <= 0):
        raise ValueError("weights must be positive")
    if x.size == 0:
        return 0.0
    return float(np.max(np.abs(x) / a))


def reduceat_block_norms(rows, part: BlockPartition, spec: NormSpec) -> np.ndarray:
    """The weighted block-maximum norm of every row of a (..., n) array, block by block.

    Each block's largest weighted entry |x_m| / a_m comes from one
    `np.maximum.reduceat`; an L_p block's norm is that scale times the
    power sum of its entries over it (over 1 where the scale is 0, inf or
    NaN, so a block holding inf has norm inf, or NaN with a NaN); each
    block norm is divided by its weight w_k, and the row's norm is the
    largest.
    """
    rows = np.asarray(rows, dtype=float)
    sizes = np.asarray(part.block_sizes)
    a = np.concatenate(
        [
            np.asarray(item.a) if isinstance(item, WeightedMax) else np.ones(size)
            for item, size in zip(spec.per_block, part.block_sizes)
        ]
    )
    ax = np.abs(rows) / a
    norms = np.maximum.reduceat(ax, np.asarray(part.offsets[:-1]), axis=-1)
    is_lp = np.array([isinstance(item, Lp) for item in spec.per_block])
    if is_lp.any():
        lp_sizes = sizes[is_lp]
        exps = np.array([item.p for item in spec.per_block if isinstance(item, Lp)])
        lp_starts = np.cumsum(lp_sizes) - lp_sizes
        owner = np.repeat(np.arange(lp_sizes.size), lp_sizes)
        scale = norms[..., is_lp]
        unit = np.where((scale > 0) & (scale < np.inf), scale, 1.0).take(owner, axis=-1)
        y = ax.take(np.flatnonzero(np.repeat(is_lp, sizes)), axis=-1) / unit
        sums = np.add.reduceat(_full_power(y, np.repeat(exps, lp_sizes)), lp_starts, axis=-1)
        norms[..., is_lp] = scale * _full_power(sums, 1.0 / exps)
    return (norms / np.asarray(spec.block_weights)).max(axis=-1)


def _full_power(base: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """base ** exps with the exponents copied out to the base's shape (contiguous operands)."""
    full = np.empty_like(base)
    full[...] = exps
    return base**full


def sq_worst_case_error(interval, bits: int) -> float:
    """|X| / 2^(L+1): the midpoint rule's worst error over the interval at an integer rate."""
    lo, hi = float(interval[0]), float(interval[1])
    return (hi - lo) / (2.0 * (1 << int(bits)))


def validate_profile(profile, game) -> None:
    """Each covariance PSD to 1e-10 relative and on its trace budget to 1e-9 relative."""
    budgets = game.budgets
    for k, P in enumerate(profile.covariances):
        lam, _ = herm_eig(P)
        if lam[0] < -1e-10 * max(1.0, float(lam[-1])):
            raise ValueError(f"link {k} covariance has eigenvalue {lam[0]:.3e} < 0")
        tr = float(np.trace(P).real)
        if abs(tr - budgets[k]) > 1e-9 * budgets[k]:
            raise ValueError(f"link {k} trace {tr} != budget {budgets[k]}")


def frobenius_norm(a) -> float:
    """||A||_F, computed with scaling so tiny entries do not underflow."""
    return math.hypot(*np.abs(np.asarray(a, dtype=complex)).ravel())


def uniform_l2_spec(part: BlockPartition) -> NormSpec:
    """Unit-weight spec with a plain Euclidean norm on every block."""
    return NormSpec([1.0] * part.num_blocks, [Lp(2.0)] * part.num_blocks)


def uniform_wmax_spec(part: BlockPartition) -> NormSpec:
    """Unit-weight spec with unweighted max norm on every block."""
    return NormSpec(
        [1.0] * part.num_blocks,
        [WeightedMax([1.0] * s) for s in part.block_sizes],
    )
