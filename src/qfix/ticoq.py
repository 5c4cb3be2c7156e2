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

All three minimize one objective, max_k (sum_{m in M_k} c_m
2^(-p L_m / s_m))^(1/p): weighted-max and lattice designs are its
one-entry blocks at p = 1.  One exact integer walk serves all three:
every bit goes to the block that sets the max and, inside it, to the
entry of largest term, lowest index on ties (marginal analysis: Fox,
Management Science 13(3), 1966; Ibaraki & Katoh, Resource Allocation
Problems, 1988).  It is exact at every prefix, so one walk to B bits is
every budget's design up to B (`ticoq_frontier`).  A design's relaxed
optimum is computed when read, at exact water levels (Palomar &
Fonollosa, IEEE T-SP 53(2), 2005): the closed-form level of
`norms._water_level`, which `mimo.project_simplex` shares, or for L_p
blocks Newton's steps in log2 tau from the all-funded closed form.  The
exhaustive oracle over integer allocations (the tests' reference) and
the closed-form high-rate threshold L' (past which the relaxed optimum
decays exactly like eta * 2^(-L/n)) round out the module.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import QuantizerBank, _count
from .norms import BlockPartition, BoxDomain, Lp, NormSpec, WeightedMax, _Frozen, _water_level
from .squant import ScalarBlockQuantizer, _rate
from .vquant import LatticeQuantizer, covering_radius, lattice_scale

_ORACLE_GUARD = 10_000_000


class DesignConstants(_Frozen):
    """One design family: its entry constants and entry sizes, checked once.

    Every family minimizes max_k (sum_{m in M_k} const_m 2^(-p L_m / sizes_m))^(1/p) over
    the entry blocks of `blocks`.  kind selects the relaxation: "sq-wmax" (one entry per
    coordinate, size 1) and "vq" (one entry per block, of size n_k) keep the defaults, one-entry
    blocks at p = 1; "sq-lp" (one entry per coordinate) takes its p and coordinate blocks.
    """

    _fields = ("kind", "const", "sizes", "p", "blocks")

    def __init__(
        self, kind: str, const: tuple, sizes: tuple, p: float = 1.0, blocks: Optional[tuple] = None
    ):
        if kind not in ("sq-wmax", "sq-lp", "vq"):
            raise ValueError(f"unknown design kind {kind!r}")
        if len(const) != len(sizes):
            raise ValueError(f"{len(const)} constants for {len(sizes)} entry sizes")
        if not all(0 < v < math.inf for v in const):
            raise ValueError("all design constants must be positive and finite")
        if kind == "sq-lp" and not (p >= 1.0 and blocks is not None and sum(blocks) == len(const)):
            raise ValueError("sq-lp constants need p >= 1 and blocks covering every coordinate")
        self._set(kind=kind, const=const, sizes=sizes, p=p, blocks=blocks)

    @property
    def n(self) -> int:
        """Total quantized dimension."""
        return int(sum(self.sizes))

    @property
    def _counts(self) -> tuple:
        """Each block's entry count: `blocks`, or one entry each."""
        return self.blocks or (1,) * len(self.const)


class RateAllocation(_Frozen):
    """The integer bit allocation for one total budget, and its relaxed optimum.

    The relaxed optimum (`relaxed`, `relaxed_value` and the water levels
    `tau` and `tau_blocks`) is computed from `family` on first read: the
    integer design never needs it.
    """

    _fields = ("total_bits", "bits", "integer_value", "family")

    def __init__(self, total_bits: int, bits: tuple, integer_value: float, family: DesignConstants):
        """`bits` is the integer allocation actually used, and `integer_value` its objective."""
        if len(bits) != len(family.const):
            raise ValueError(f"{len(bits)} rates for {len(family.const)} entries")
        if any(b < 0 or b != int(b) for b in bits):
            raise ValueError("integer bits must be nonnegative integers")
        if sum(bits) != total_bits:
            raise ValueError(f"integer bits sum to {sum(bits)}, budget is {total_bits}")
        self._set(total_bits=total_bits, bits=bits, integer_value=integer_value, family=family)

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
# The objective (shared by the solvers and the oracle)
# ---------------------------------------------------------------------------

def objective_for(family: DesignConstants) -> Callable[[np.ndarray], np.ndarray]:
    """max_k (sum_{m in M_k} c_m 2^(-(p L_m) / s_m))^(1/p) over the rows of an allocation matrix."""
    cv, sv, p = np.asarray(family.const, dtype=float), np.asarray(family.sizes, dtype=float), family.p
    offsets = np.cumsum((0, *family._counts[:-1]))
    slices = [slice(o, o + m) for o, m in zip(offsets, family._counts) if m > 1]

    def f(allocs: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(allocs, dtype=float))
        terms = cv * 2.0 ** (-(p * a) / sv)
        for sl in slices:  # ascending, so a block's terms sum to one float wherever they sit
            terms[:, sl].sort(axis=1)
        return np.max(np.add.reduceat(terms, offsets, axis=1), axis=1) ** (1.0 / p)

    return f


# ---------------------------------------------------------------------------
# Design constants from a box + norm specification
# ---------------------------------------------------------------------------

def _quiet(builder):
    """A constant builder whose overflow gives inf and underflow 0, unwarned: DesignConstants refuses both."""
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")(builder)


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


@_quiet
def sq_wmax_constants(part: BlockPartition, spec: NormSpec, box: BoxDomain) -> np.ndarray:
    """c_m = |X_m| / (2 a_m w_k(m)) for weighted-max blocks."""
    spec.check_partition(part)
    lengths = _box_lengths(part, box)
    for k, norm_k in enumerate(spec.per_block):
        if not isinstance(norm_k, WeightedMax):
            raise ValueError(f"block {k} does not carry a weighted-max norm")
    a = np.concatenate([norm_k.a for norm_k in spec.per_block])
    return lengths / (2.0 * a * np.repeat(spec.block_weights, part.block_sizes))


@_quiet
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


@_quiet
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

def _order(family: DesignConstants, budget: int) -> np.ndarray:
    """The walk from 0 bits: the entry given each of `budget` bits.

    Each bit goes to the block of largest sum_{m in M_k} c_m 2^(-(p b_m) / s_m)
    and, inside it, to the entry of largest term, lowest index on ties: the
    optimal in-block split of a separable convex sum at every bit count.  As
    each block sum falls in its own bits, every prefix is exact at its budget.
    """
    consts, rates, p = np.asarray(family.const, dtype=float).tolist(), [float(s) for s in family.sizes], family.p
    terms, bits = list(consts), [0] * len(consts)
    blocks = [slice(end - m, end) for end, m in zip(itertools.accumulate(family._counts), family._counts)]
    # Sorted lists are heaps; every key is distinct, so the walk never depends on their layout.
    inner = [sorted((-terms[m], m) for m in range(b.start, b.stop)) for b in blocks]
    outer = sorted((-math.fsum(terms[b]), k) for k, b in enumerate(blocks))
    order = []
    for _ in range(budget):
        k = outer[0][1]
        m = inner[k][0][1]
        bits[m] += 1
        term = terms[m] = consts[m] * 2.0 ** (-(p * bits[m]) / rates[m])
        if len(inner[k]) > 1:  # a one-entry block's heap is that entry, and its sum is its term
            heapq.heapreplace(inner[k], (-term, m))
            term = math.fsum(terms[blocks[k]])
        heapq.heapreplace(outer, (-term, k))
        order.append(m)
    order = np.array(order, dtype=np.intp)
    order.flags.writeable = False
    return order


class RateFrontier(_Frozen):
    """Every budget's integer design of one family, from one walk from 0 bits.

    `order[j]` is the entry (a coordinate for scalar designs, a block for
    lattices) that took bit j; the walk's first b bits are budget b's design.
    A frontier equals only itself.
    """

    _fields = ("family", "order")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, family: DesignConstants, order: np.ndarray):
        self._set(family=family, order=order)

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


def _family(part: BlockPartition, spec: NormSpec, box: BoxDomain, mode: str) -> DesignConstants:
    """The "sq-wmax", "sq-lp" or "vq" constants of a box under a norm; lattices take the smallest L_p exponent."""
    if mode == "sq-lp":
        c, p = sq_lp_constants(part, spec, box)
        return DesignConstants(mode, tuple(c), (1,) * part.n, p, part.block_sizes)
    if mode == "sq-wmax":
        return DesignConstants(mode, tuple(sq_wmax_constants(part, spec, box)), (1,) * part.n)
    if mode != "vq":
        raise ValueError(f"unknown design mode {mode!r}")
    if not all(isinstance(norm, Lp) for norm in spec.per_block):
        raise ValueError("lattice designs require L_p block norms")
    p = min(norm.p for norm in spec.per_block)
    if not (p >= 2.0):
        raise ValueError(f"lattice designs require an L_p block norm with p >= 2, got p={p}")
    return DesignConstants(mode, tuple(vq_constants(part, spec.block_weights, box)), part.block_sizes)


def ticoq_frontier(
    part: BlockPartition, spec: NormSpec, box: BoxDomain, max_bits: int, mode: str
) -> RateFrontier:
    """Every "sq-wmax", "sq-lp" or "vq" design for budgets 0..max_bits, from one walk (`_order`).

    A bit goes to a coordinate for "sq-wmax", a lattice block for "vq", and an L_p block's coordinate.
    """
    max_bits = _check_budget(max_bits)
    family = _family(part, spec, box, mode)
    return RateFrontier(family, _order(family, max_bits))


def ticoq_design(
    part: BlockPartition, spec: NormSpec, box: BoxDomain, total_bits: int, mode: str
) -> RateAllocation:
    """The "sq-wmax", "sq-lp" or "vq" design: the last row of its own frontier.

    A bank takes below 1024 bits an entry (`squant._rate`).  A budget whose
    even split already puts more on an entry is refused before the walk; the
    walk's rates are checked after it, since terms that underflow to 0 tie
    and every further bit goes to the lowest index.
    """
    entries = part.n if mode in ("sq-wmax", "sq-lp") else part.num_blocks
    _rate(-(-_check_budget(total_bits) // entries))
    alloc = ticoq_frontier(part, spec, box, total_bits, mode).allocation(total_bits)
    _rate(alloc.bits)
    return alloc


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

class OracleResult(_Frozen):
    """The optimal allocation, its value and, when requested, every optimal allocation (`ties`)."""

    _fields = ("allocation", "value", "ties")

    def __init__(self, allocation: tuple, value: float, ties: Optional[tuple] = None):
        self._set(allocation=allocation, value=value, ties=ties)


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
    dims = _count(dims, "dims", 1)
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
    2^(-L/n) with n = sum_i s_i, where entry m of block M_k enters as
    log2(|M_k| c_m): log2 c_m for one-entry blocks.
    """
    counts = np.asarray(family._counts)
    logs = np.log2(np.repeat(counts, counts) * np.asarray(family.const))
    return logs, np.asarray(family.sizes, dtype=float), family.p


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
    n = _count(n, "n", 1)
    _rate(-(-total_bits // n))  # the largest share, refused before an array is filled with it
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
