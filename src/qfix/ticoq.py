"""Time-invariant rate allocation minimizing the steady convergence-error bound.

Given a total bit budget L, these solvers split it across coordinates
(scalar quantizers) or blocks (lattice quantizers) so that the block-norm
worst-case quantization error — and with it the limiting error bound of
the quantized iteration — is as small as possible.  Three variants:

* weighted-max block norms, scalar quantizers: water-filling;
* L_p block norms, scalar quantizers: nested water-filling (per-block
  levels tau_k under a global level tau);
* L_p (p >= 2) block norms, dual-lattice vector quantizers: per-block
  water-filling.

Each objective is a max over terms that fall in their own bits, so one
exact integer step serves all three: every bit goes to the term that
currently sets the max, lowest index on ties (marginal analysis: Fox,
Management Science 13(3), 1966; Ibaraki & Katoh, Resource Allocation
Problems, 1988).  The walk starts from 0 bits and is exact at every
prefix, so one walk to B bits is every budget's design up to B
(`ticoq_frontier`).  A design's relaxed optimum is computed when read, at
exact water levels (Palomar & Fonollosa, IEEE T-SP 53(2), 2005): the
closed-form level of `norms._water_level`, which `mimo.project_simplex`
shares, or for L_p blocks Newton's steps in log2 tau from the all-funded
closed form.  An exhaustive oracle over integer allocations, kept as the
reference the tests compare against, and the closed-form high-rate
threshold L' (past which the relaxed optimum decays exactly like
eta * 2^(-L/n)) round out the module.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import QuantizerBank
from .norms import BlockPartition, BoxDomain, Lp, NormSpec, WeightedMax, _water_level
from .squant import ScalarBlockQuantizer
from .vquant import LatticeQuantizer, covering_radius, lattice_scale

_ORACLE_GUARD = 10_000_000


@dataclass(frozen=True)
class DesignConstants:
    """One design family: its entry constants and entry sizes, checked once.

    kind selects the family.  "sq-wmax" (one entry per coordinate, size 1)
    and "vq" (one entry per block, of size n_k) minimize the max term
    max_i const_i 2^(-L_i / sizes_i).  "sq-lp" (one entry per coordinate)
    minimizes max_k (sum_{m in M_k} const_m 2^(-p L_m))^(1/p) over the
    coordinate blocks `blocks`; only it reads p and blocks.
    """

    kind: str
    const: tuple
    sizes: tuple
    p: float = 1.0
    blocks: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("sq-wmax", "sq-lp", "vq"):
            raise ValueError(f"unknown design kind {self.kind!r}")
        if len(self.const) != len(self.sizes):
            raise ValueError(f"{len(self.const)} constants for {len(self.sizes)} entry sizes")
        if not all(v > 0 for v in self.const):
            raise ValueError("all design constants must be positive")
        if self.kind == "sq-lp" and not (
            self.p >= 1.0 and self.blocks is not None and sum(self.blocks) == len(self.const)
        ):
            raise ValueError("sq-lp constants need p >= 1 and blocks covering every coordinate")

    @property
    def n(self) -> int:
        """Total quantized dimension."""
        return int(sum(self.sizes))


@dataclass(frozen=True)
class RateAllocation:
    """The integer bit allocation for one total budget, and its relaxed optimum.

    The relaxed optimum (`relaxed`, `relaxed_value` and the water levels
    `tau` and `tau_blocks`) is computed from `family` on first read: the
    integer design never needs it.
    """

    total_bits: int
    bits: tuple  # integer allocation actually used
    integer_value: float
    family: DesignConstants

    def __post_init__(self):
        if len(self.bits) != len(self.family.const):
            raise ValueError(f"{len(self.bits)} rates for {len(self.family.const)} entries")
        if any(b < 0 or b != int(b) for b in self.bits):
            raise ValueError("integer bits must be nonnegative integers")
        if sum(self.bits) != self.total_bits:
            raise ValueError(
                f"integer bits sum to {sum(self.bits)}, budget is {self.total_bits}"
            )

    @property
    def mode(self) -> str:
        """"sq": bits per coordinate; "vq": bits per block."""
        return "vq" if self.family.kind == "vq" else "sq"

    @cached_property
    def _relaxation(self) -> tuple:
        """Nested water-filling for "sq-lp", weighted water-filling at the exact level otherwise."""
        f = self.family
        if f.kind == "sq-lp":
            relaxed, tau, levels = _relax_lp(np.asarray(f.const), f.p, BlockPartition(f.blocks), self.total_bits)
            return tuple(relaxed), tau ** (1.0 / f.p), tau, tuple(levels)
        # Weighted: sum_k n_k (log2 d_k - t)^+ = L is unweighted over each entry repeated n_k times.
        logs, sizes, _ = _log_terms(f)
        level, top = _water_level(np.repeat(logs, sizes.astype(int)), np.asarray(float(self.total_bits)))
        t = float(min(level, top))  # a zero budget funds nothing: t is the largest log constant
        return tuple(sizes * np.maximum(logs - t, 0.0)), 2.0**t, 2.0**t, None

    relaxed = property(lambda self: self._relaxation[0], doc="The real-valued optimum.")
    relaxed_value = property(lambda self: self._relaxation[1], doc="Its objective value.")
    tau = property(lambda self: self._relaxation[2], doc="The global water level.")
    tau_blocks = property(
        lambda self: self._relaxation[3],
        doc='The "sq-lp" per-block levels (NaN for inactive blocks); None otherwise.',
    )

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "total_bits": self.total_bits,
            "relaxed": list(self.relaxed),
            "bits": [int(b) for b in self.bits],
            "relaxed_value": self.relaxed_value,
            "integer_value": self.integer_value,
        }


# ---------------------------------------------------------------------------
# Objective evaluators (shared by the solvers and the oracle)
# ---------------------------------------------------------------------------

def max_term_objective(
    const: Sequence[float], sizes: Sequence[int]
) -> Callable[[np.ndarray], np.ndarray]:
    """max_i const_i 2^(-L_i / sizes_i) over rows of an allocation matrix."""
    cv = np.asarray(const, dtype=float)
    nv = np.asarray(sizes, dtype=float)

    def f(allocs: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(allocs, dtype=float))
        return np.max(cv * 2.0 ** (-a / nv), axis=1)

    return f


def sq_lp_objective(
    c: Sequence[float], p: float, part: BlockPartition
) -> Callable[[np.ndarray], np.ndarray]:
    """max_k (sum_{m in M_k} c_m 2^(-p L_m))^(1/p) over allocation rows."""
    cv = np.asarray(c, dtype=float)
    offsets = np.asarray(part.offsets[:-1], dtype=int)
    slices = [part.block_slice(k) for k in range(part.num_blocks)]

    def f(allocs: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(allocs, dtype=float))
        terms = cv * 2.0 ** (-p * a)
        for sl in slices:  # ascending, so a block's terms sum to one float wherever they sit
            terms[:, sl].sort(axis=1)
        block_sums = np.add.reduceat(terms, offsets, axis=1)
        return np.max(block_sums, axis=1) ** (1.0 / p)

    return f


def objective_for(family: DesignConstants) -> Callable[[np.ndarray], np.ndarray]:
    if family.kind == "sq-lp":
        return sq_lp_objective(family.const, family.p, BlockPartition(family.blocks))
    return max_term_objective(family.const, family.sizes)


# ---------------------------------------------------------------------------
# Design constants from a box + norm specification
# ---------------------------------------------------------------------------

def _check_box(part: BlockPartition, box: BoxDomain) -> None:
    if box.n != part.n:
        raise ValueError(f"a box of dimension {box.n} for a partition of dimension {part.n}")


def _box_lengths(part: BlockPartition, box: BoxDomain) -> np.ndarray:
    """The side lengths of a design's box, checked against its partition."""
    _check_box(part, box)
    lengths = box.lengths
    if np.any(lengths <= 0):
        raise ValueError("every interval must have positive length")
    return lengths


def sq_wmax_constants(part: BlockPartition, spec: NormSpec, box: BoxDomain) -> np.ndarray:
    """c_m = |X_m| / (2 a_m w_k(m)) for weighted-max blocks."""
    spec.check_partition(part)
    lengths = _box_lengths(part, box)
    for k, norm_k in enumerate(spec.per_block):
        if not isinstance(norm_k, WeightedMax):
            raise ValueError(f"block {k} does not carry a weighted-max norm")
    a = np.concatenate([norm_k.a for norm_k in spec.per_block])
    return lengths / (2.0 * a * np.repeat(spec.block_weights, part.block_sizes))


def sq_lp_constants(
    part: BlockPartition, spec: NormSpec, box: BoxDomain
) -> tuple[np.ndarray, float]:
    """c_m = |X_m|^p / (2^p w_k(m)^p) and the common exponent p."""
    spec.check_partition(part)
    lengths = _box_lengths(part, box)
    p = None
    for k, norm_k in enumerate(spec.per_block):
        if not isinstance(norm_k, Lp):
            raise ValueError(f"block {k} does not carry an L_p norm")
        if p is None:
            p = norm_k.p
        elif norm_k.p != p:
            raise ValueError(f"blocks mix exponents {p} and {norm_k.p}")
    c = (lengths / (2.0 * np.repeat(spec.block_weights, part.block_sizes))) ** p
    return c, float(p)


def vq_constants(part: BlockPartition, w: Sequence[float], box: BoxDomain) -> np.ndarray:
    """d_k: worst-case lattice error of block k's unit-rate cell, over w_k.

    d_k = (vol_k / V_nk)^(1/n_k) * R_nk / w_k with R, V the covering radius
    and fundamental volume of the n_k-dimensional dual lattice, so the
    block-norm error at L_k bits is exactly d_k 2^(-L_k/n_k).
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (part.num_blocks,) or np.any(w <= 0):
        raise ValueError("need one positive weight per block")
    lengths = _box_lengths(part, box)
    d = np.empty(part.num_blocks)
    for k in range(part.num_blocks):
        scale = lattice_scale(lengths[part.block_slice(k)], 0)
        d[k] = scale * covering_radius(part.block_sizes[k]) / w[k]
    return d


# ---------------------------------------------------------------------------
# Relaxed solutions: water-filling at exact levels
# ---------------------------------------------------------------------------

def _relax_lp(c: np.ndarray, p: float, part: BlockPartition, budget: int):
    """Nested water-filling for the L_p scalar design, at exact levels.

    At the global level tau, block k's level tau_k solves
    sum_m min(c_m, tau_k) = tau exactly: with its constants ascending and
    prefix sums P_i, it is the largest of (tau - P_i) / (n_k - i), until tau
    reaches the block's total and the block drops out (NaN).  The bits spent,
    sum_m (log2 c_m - log2 tau_k)^+ / p, are falling and convex in
    t = log2 tau, and the all-funded closed form (sum_m log2(n_k c_m) - p L) / n
    bounds t from below (exact past the high-rate threshold), so Newton's
    steps in t from it rise to the level until t stops increasing.
    Returns (relaxed bits, tau, per-block tau_k).
    """
    sizes = np.asarray(part.block_sizes)
    prefix = [np.concatenate(([0.0], np.cumsum(np.sort(c[part.block_slice(k)])))) for k in range(sizes.size)]
    if budget == 0:
        return np.zeros(c.size), float(max(P[-1] for P in prefix)), np.full(sizes.size, np.nan)

    def spend(tau: float) -> tuple[np.ndarray, np.ndarray]:
        levels = np.array([
            np.max((tau - P[:-1]) / np.arange(P.size - 1, 0, -1)) if tau < P[-1] else math.nan
            for P in prefix
        ])
        return np.fmax(np.log2(c) - np.log2(np.repeat(levels, sizes)), 0.0) / p, levels

    t = (np.sum(np.log2(np.repeat(sizes, sizes) * c)) - p * budget) / c.size
    while True:
        tau = 2.0**t
        relaxed, levels = spend(tau)
        step = (math.fsum(relaxed) - budget) * p / np.nansum(tau / levels)
        if not t + step > t:
            return relaxed, float(tau), levels
        t += step


# ---------------------------------------------------------------------------
# Exact integer step: one largest-term walk for every budget
# ---------------------------------------------------------------------------

def _walk(values: Sequence[float], budget: int, give_bit: Callable[[int], tuple]) -> np.ndarray:
    """Give budget bits one at a time, each to the term of largest value, lowest index on ties.

    give_bit(k) hands term k one more bit and returns the entry that took it
    and the term's new value; the walk returns those entries in order.  When
    every term is nonincreasing in its own bits, each prefix of the walk
    minimizes the max over terms exactly at its own budget.
    """
    heap = [(-v, k) for k, v in enumerate(values)]
    heapq.heapify(heap)
    order = []
    for _ in range(budget):
        k = heap[0][1]
        entry, value = give_bit(k)
        order.append(entry)
        heapq.heapreplace(heap, (-value, k))
    order = np.array(order, dtype=np.intp)
    order.flags.writeable = False
    return order


def _max_term_order(const: np.ndarray, sizes: np.ndarray, budget: int) -> np.ndarray:
    """The walk for max_k const_k 2^(-b_k / sizes_k) from b = 0: the term given each bit."""
    consts, rates = const.tolist(), sizes.tolist()
    bits = [0] * len(consts)

    def give_bit(k: int) -> tuple:
        bits[k] += 1
        return k, consts[k] * 2.0 ** (-bits[k] / rates[k])

    return _walk(consts, budget, give_bit)


def _lp_order(c: np.ndarray, p: float, part: BlockPartition, budget: int) -> np.ndarray:
    """The walk for max_k sum_{m in M_k} c_m 2^(-p b_m): the coordinate given each bit.

    Each block's bits go to its coordinate of largest c_m 2^(-p b_m) (lowest
    index on ties), the optimal in-block split at every bit count for this
    separable convex sum; the blocks then share the budget by the walk.
    """
    consts = c.tolist()
    terms = list(consts)
    bits = [0] * part.n
    blocks = [range(part.offsets[k], part.offsets[k + 1]) for k in range(part.num_blocks)]
    heaps = [[(-terms[m], m) for m in block] for block in blocks]
    for heap in heaps:
        heapq.heapify(heap)

    def give_bit(k: int) -> tuple:
        m = heaps[k][0][1]
        bits[m] += 1
        terms[m] = consts[m] * 2.0 ** (-p * bits[m])
        heapq.heapreplace(heaps[k], (-terms[m], m))
        return m, math.fsum(terms[i] for i in blocks[k])

    return _walk([math.fsum(terms[m] for m in block) for block in blocks], budget, give_bit)


@dataclass(frozen=True, eq=False)
class RateFrontier:
    """Every budget's integer design of one family, from one walk from 0 bits.

    `order[j]` is the entry (a coordinate for scalar designs, a block for
    lattices) that took bit j; the walk's first b bits are budget b's design.
    """

    family: DesignConstants
    order: np.ndarray

    def allocation(self, b: int) -> RateAllocation:
        """Budget b's design, 0 <= b <= len(order): the walk's first b bits and their value."""
        if b not in range(len(self.order) + 1):
            raise ValueError(f"budget {b} is outside the frontier's 0..{len(self.order)}")
        bits = np.bincount(self.order[: int(b)], minlength=len(self.family.const))
        value = objective_for(self.family)(bits)[0]
        return RateAllocation(int(b), tuple(bits.tolist()), float(value), self.family)


# ---------------------------------------------------------------------------
# The three designs
# ---------------------------------------------------------------------------

def _check_budget(total_bits: int) -> int:
    if not (total_bits >= 0 and float(total_bits).is_integer()):
        raise ValueError(f"total rate must be a nonnegative integer, got {total_bits}")
    return int(total_bits)


def ticoq_frontier(
    part: BlockPartition, spec: NormSpec, box: BoxDomain, max_bits: int, mode: str
) -> RateFrontier:
    """Every "sq-wmax", "sq-lp" or "vq" design for budgets 0..max_bits, from one walk.

    Each bit goes to the term that sets the max (a coordinate for "sq-wmax",
    a block otherwise, lowest index on ties; inside an L_p block, the
    coordinate of largest term), which is exact at every prefix.  Lattices
    take the smallest L_p exponent.
    """
    max_bits = _check_budget(max_bits)
    if mode == "sq-lp":
        c, p = sq_lp_constants(part, spec, box)
        family = DesignConstants(mode, tuple(c), (1,) * part.n, p, part.block_sizes)
        return RateFrontier(family, _lp_order(c, p, part, max_bits))
    if mode == "sq-wmax":
        family = DesignConstants(mode, tuple(sq_wmax_constants(part, spec, box)), (1,) * part.n)
    elif mode == "vq":
        if not all(isinstance(norm, Lp) for norm in spec.per_block):
            raise ValueError("lattice designs require L_p block norms")
        p = min(norm.p for norm in spec.per_block)
        if not (p >= 2.0):
            raise ValueError(f"lattice designs require an L_p block norm with p >= 2, got p={p}")
        family = DesignConstants(mode, tuple(vq_constants(part, spec.block_weights, box)), part.block_sizes)
    else:
        raise ValueError(f"unknown design mode {mode!r}")
    order = _max_term_order(np.asarray(family.const), np.asarray(family.sizes, dtype=float), max_bits)
    return RateFrontier(family, order)


def ticoq_design(
    part: BlockPartition, spec: NormSpec, box: BoxDomain, total_bits: int, mode: str
) -> RateAllocation:
    """The "sq-wmax", "sq-lp" or "vq" design: the last row of its own frontier."""
    return ticoq_frontier(part, spec, box, total_bits, mode).allocation(total_bits)


def ticoq_sq_wmax(
    part: BlockPartition, spec: NormSpec, box: BoxDomain, total_bits: int
) -> RateAllocation:
    """Optimal scalar rate allocation under weighted-max block norms.

    Water-filling gives the relaxed optimum (value tau); the largest-term
    walk gives an integer optimum.
    """
    return ticoq_design(part, spec, box, total_bits, "sq-wmax")


def ticoq_sq_lp(
    part: BlockPartition, spec: NormSpec, box: BoxDomain, total_bits: int
) -> RateAllocation:
    """Optimal scalar rate allocation under L_p block norms.

    The relaxed problem is solved exactly by nested water-filling.  The
    integer optimum gives each bit to the block of largest error sum and,
    inside it, to the coordinate of largest term.
    """
    return ticoq_design(part, spec, box, total_bits, "sq-lp")


def ticoq_vq_lattice(
    part: BlockPartition,
    w: Sequence[float],
    box: BoxDomain,
    total_bits: int,
) -> RateAllocation:
    """Optimal per-block lattice rate allocation under L_p (p >= 2) block norms.

    The integer optimum gives each bit to the block of largest error
    d_k 2^(-L_k/n_k), whatever the block dimensions.
    """
    return ticoq_design(part, NormSpec(w, [Lp(2.0)] * part.num_blocks), box, total_bits, "vq")


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    allocation: tuple
    value: float
    ties: Optional[tuple] = None  # all optimal allocations, when requested


def _compositions_chunked(total: int, dims: int, chunk: int):
    """Yield (m, dims) arrays of all nonnegative compositions, in lex order."""
    slots = total + dims - 1
    bars_iter = itertools.combinations(range(slots), dims - 1)
    while True:
        block = list(itertools.islice(bars_iter, chunk))
        if not block:
            return
        bars = np.asarray(block, dtype=np.int64)
        allocs = np.empty((bars.shape[0], dims), dtype=np.int64)
        allocs[:, 0] = bars[:, 0]
        if dims > 2:
            allocs[:, 1:-1] = bars[:, 1:] - bars[:, :-1] - 1
        allocs[:, -1] = (slots - 1) - bars[:, -1]
        yield allocs


def allocation_oracle(
    objective: Callable[[np.ndarray], np.ndarray],
    dims: int,
    total_bits: int,
    return_ties: bool = False,
) -> OracleResult:
    """Exact minimum of the objective over all integer allocations of the budget.

    The objective receives an (m, dims) array and must return m values.
    Ties resolve to the lexicographically smallest allocation; pass
    return_ties=True to also collect every optimal allocation.
    """
    total_bits = _check_budget(total_bits)
    if dims < 1:
        raise ValueError(f"need at least one dimension, got {dims}")
    if dims == 1:
        alloc = (total_bits,)
        val = float(np.asarray(objective(np.array([[total_bits]])))[0])
        return OracleResult(alloc, val, ties=(alloc,) if return_ties else None)
    count = math.comb(total_bits + dims - 1, dims - 1)
    if count > _ORACLE_GUARD:
        raise ValueError(
            f"{count} allocations exceed the enumeration guard {_ORACLE_GUARD}"
        )

    best_value = math.inf
    best_alloc = None
    ties: list[tuple] = []
    for allocs in _compositions_chunked(total_bits, dims, chunk=200_000):
        values = np.asarray(objective(allocs), dtype=float)
        if values.shape != (allocs.shape[0],):
            raise ValueError("objective must return one value per allocation row")
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_value = float(values[i])
            best_alloc = tuple(int(b) for b in allocs[i])
            ties = []
        if return_ties:
            ties += [tuple(int(b) for b in allocs[j]) for j in np.flatnonzero(values == best_value)]
    # Deduplicate while preserving lex (= enumeration) order.
    return OracleResult(best_alloc, best_value, tuple(dict.fromkeys(ties)) if return_ties else None)


# ---------------------------------------------------------------------------
# High-rate tradeoff threshold and prefactor
# ---------------------------------------------------------------------------

def _log_terms(family: DesignConstants) -> tuple[np.ndarray, np.ndarray, float]:
    """(log2 constants, entry sizes, p) of the high-rate law.

    Past the threshold the relaxed optimum is 2^(sum_i s_i log_i / (p n)) *
    2^(-L/n) with n = sum_i s_i.  Max-term entries enter as they are, with
    p = 1; the L_p design weights coordinate m of block k by n_k and divides
    the exponent by p.
    """
    const, sizes = np.asarray(family.const), np.asarray(family.sizes, dtype=float)
    if family.kind == "sq-lp":
        blocks = np.asarray(family.blocks, dtype=int)
        return np.log2(np.repeat(blocks, blocks) * const), sizes, family.p
    return np.log2(const), sizes, 1.0


def tradeoff_threshold(family: DesignConstants) -> float:
    """Budget L' past which the relaxed optimum equals eta * 2^(-L/n).

    For weighted-max and lattice designs the threshold is tight.  For the
    L_p design it is intentionally conservative (the tight value would
    carry an extra 1/p factor), so the guarantee holds for every L >= L'.
    """
    logs, sizes, _ = _log_terms(family)
    return float(np.sum(sizes * logs) - np.sum(sizes) * np.min(logs))


def relaxed_eta(family: DesignConstants) -> float:
    """Prefactor eta of the high-rate law: relaxed optimum = eta * 2^(-L/n)."""
    logs, sizes, p = _log_terms(family)
    return float(2.0 ** (np.sum(sizes * logs) / (p * np.sum(sizes))))


# ---------------------------------------------------------------------------
# Baseline allocation and quantizer-bank assembly
# ---------------------------------------------------------------------------

def uniform_sq_allocation(n: int, total_bits: int) -> np.ndarray:
    """Equal split of the budget, leftovers to the lowest-indexed coordinates."""
    total_bits = _check_budget(total_bits)
    if n < 1:
        raise ValueError(f"need at least one coordinate, got {n}")
    base, extra = divmod(total_bits, n)
    bits = np.full(n, base, dtype=int)
    bits[:extra] += 1
    return bits


def make_sq_bank(part: BlockPartition, box: BoxDomain, bits: Sequence[int]) -> QuantizerBank:
    """Per-coordinate uniform scalar quantizers, checked once, sliced into block quantizers."""
    _check_box(part, box)
    whole = ScalarBlockQuantizer(box.lo, box.hi, bits)
    return QuantizerBank([whole._take(part.block_slice(k)) for k in range(part.num_blocks)])


def make_vq_bank(part: BlockPartition, box: BoxDomain, block_bits: Sequence[int]) -> QuantizerBank:
    """One dual-lattice quantizer per block at the given block rates."""
    _check_box(part, box)
    block_bits = np.asarray(block_bits)
    if block_bits.size != part.num_blocks:
        raise ValueError(f"{block_bits.size} rates for {part.num_blocks} blocks")
    blocks = []
    for k in range(part.num_blocks):
        sub = box.subbox(part.block_slice(k))
        blocks.append(LatticeQuantizer(sub.intervals(), block_bits[k]))
    return QuantizerBank(blocks)


def bank_for_allocation(
    part: BlockPartition, box: BoxDomain, alloc: RateAllocation
) -> QuantizerBank:
    if alloc.mode == "sq":
        return make_sq_bank(part, box, alloc.bits)
    return make_vq_bank(part, box, alloc.bits)
