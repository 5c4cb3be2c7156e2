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
specs the tests build their mappings and bounds on.  `tied_swaps` yields
every tied alternate of a rounded stage split, unbounded, in the order the
package lists its first ones.
`sparse_contraction` draws affine maps whose rows read one to three blocks,
scaled to an exact weighted-max modulus, and `adversarial_bank` is a bank
whose every coordinate errs by its stated worst case, away from x* or along
a given direction: together they make runs that reach their certificates.
"""

import math
from typing import Sequence

import numpy as np

from qfix.engine import QuantizerBank, affine_contraction
from qfix.linalg import herm_eig
from qfix.norms import BlockPartition, BoxDomain, Lp, NormSpec, WeightedMax, lp_norm


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


def tied_swaps(bits: np.ndarray, fracs: np.ndarray, ceiled: np.ndarray):
    """Each schedule one ceil away from `bits`, moved to a floored stage of equal fraction, lazily.

    Fractions within 1e-12 are equal.  The order is ceiled stages in ceiling
    order, then floored stages ascending.
    """
    ceiled_set = set(ceiled.tolist())
    floored = [t for t in range(bits.size) if t not in ceiled_set]
    for i in ceiled:
        for j in floored:
            if abs(fracs[i] - fracs[j]) <= 1e-12:
                alt = bits.copy()
                alt[i] -= 1
                alt[j] += 1
                yield tuple(int(b) for b in alt)


def sparse_contraction(part: BlockPartition, spec: NormSpec, box: BoxDomain, alpha: float, rng=None):
    """A random affine map x -> A x + b of weighted-max modulus alpha, and its fixed point x* in the box.

    Block row k reads 1 to 3 distinct blocks.  Each entry of a read block is
    nonzero with probability 1/2, with a random sign and magnitude, and
    every row and every read block keeps at least one.  Each row r is then
    scaled so that sum_c |A_rc| c_c / c_r = alpha, where c_m = w_k a_m is
    the weight of coordinate m of block k: that is the modulus of A in the
    spec's norm, whose every block must be a `WeightedMax`.
    """
    rng = np.random.default_rng(rng)
    c = np.concatenate([w * np.asarray(norm.a) for w, norm in zip(spec.block_weights, spec.per_block)])
    K, n = part.num_blocks, part.n
    A = np.zeros((n, n))
    for k in range(K):
        rows = np.arange(n)[part.block_slice(k)]
        reads = rng.choice(K, size=int(rng.integers(1, min(3, K) + 1)), replace=False)
        cols = np.concatenate([np.arange(n)[part.block_slice(j)] for j in reads])
        sizes = np.array([part.block_sizes[j] for j in reads])
        kept = rng.random((rows.size, cols.size)) < 0.5
        kept[np.arange(rows.size), rng.integers(cols.size, size=rows.size)] = True
        kept[rng.integers(rows.size, size=reads.size), np.cumsum(sizes) - sizes + rng.integers(sizes)] = True
        magnitudes = rng.uniform(0.1, 1.0, kept.shape) * rng.choice([-1.0, 1.0], kept.shape)
        A[np.ix_(rows, cols)] = np.where(kept, magnitudes, 0.0)
    A *= (alpha * c / (np.abs(A) @ c))[:, None]
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    x_star = lo + rng.uniform(0.15, 0.85, n) * (hi - lo)
    return affine_contraction(A, x_star - A @ x_star, part, box, spec, alpha), x_star


class AdversarialQuantizer:
    """A block quantizer that moves every coordinate by its radius: away from `center` (upward at a
    tie) or, when a `direction` is given, along its signs.  Its stated worst case is the radii's
    norm, which every step reaches up to the rounding of v + radius."""

    def __init__(self, radius, center=None, direction=None):
        self.radius = np.asarray(radius, dtype=float)
        self.size = self.radius.size
        self.center, self.direction = center, direction

    def quantize(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.direction is not None:
            return v + self.radius * np.sign(self.direction)
        return v + self.radius * np.where(v >= self.center, 1.0, -1.0)

    def worst_case_block_error(self, norm) -> float:
        if isinstance(norm, WeightedMax):
            return float(np.max(self.radius / np.asarray(norm.a)))
        return lp_norm(self.radius, norm.p)


def adversarial_bank(part: BlockPartition, spec: NormSpec, rho: float, center=None, direction=None):
    """A bank of `AdversarialQuantizer`s whose every block errs by rho in the spec's block norm, on
    every coordinate: by rho w_k a_m on coordinate m of a weighted-max block, by rho w_k / size^(1/p)
    on an L_p block.  `center` (x*) or `direction` is one vector over all coordinates."""
    blocks = []
    for k, (w, norm) in enumerate(zip(spec.block_weights, spec.per_block)):
        size, where = part.block_sizes[k], part.block_slice(k)
        if isinstance(norm, WeightedMax):
            radius = rho * w * np.asarray(norm.a)
        else:
            radius = np.full(size, rho * w / size ** (1.0 / norm.p))
        blocks.append(AdversarialQuantizer(
            radius,
            None if center is None else np.asarray(center, dtype=float)[where],
            None if direction is None else np.asarray(direction, dtype=float)[where],
        ))
    return QuantizerBank(blocks)
