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
Problems, 1988).  An exhaustive oracle over integer allocations, kept as
the reference the tests compare against, and the closed-form high-rate
threshold L' (past which the relaxed optimum decays exactly like
eta * 2^(-L/n)) round out the module.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import QuantizerBank
from .norms import BlockPartition, BoxDomain, Lp, NormSpec, WeightedMax
from .squant import ScalarBlockQuantizer, ScalarQuantizer
from .vquant import LatticeQuantizer, covering_radius, lattice_scale

_ORACLE_GUARD = 10_000_000
_SNAP_TOL = 1e-9
_SUM_TOL = 1e-12
_MAX_BISECT = 200


@dataclass(frozen=True)
class DesignConstants:
    """Per-coordinate (c) or per-block (d) error constants plus water levels.

    kind selects the design family: "sq-wmax", "sq-lp", or "vq".  tau is
    the global water level of the relaxed solution; tau_blocks holds the
    per-block levels of the L_p design (NaN for inactive blocks).
    """

    kind: str
    c: Optional[tuple] = None
    d: Optional[tuple] = None
    p: Optional[float] = None
    block_sizes: Optional[tuple] = None
    tau: float = math.nan
    tau_blocks: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("sq-wmax", "sq-lp", "vq"):
            raise ValueError(f"unknown design kind {self.kind!r}")
        if self.kind == "vq":
            if self.d is None or self.block_sizes is None:
                raise ValueError("vq constants need d and block_sizes")
            if any(v <= 0 for v in self.d):
                raise ValueError("all block constants must be positive")
        else:
            if self.c is None:
                raise ValueError("scalar constants need c")
            if any(v <= 0 for v in self.c):
                raise ValueError("all coordinate constants must be positive")
        if self.kind == "sq-lp":
            if self.p is None or not (self.p >= 1.0):
                raise ValueError("sq-lp constants need p >= 1")
            if self.block_sizes is None:
                raise ValueError("sq-lp constants need block_sizes")

    @property
    def n(self) -> int:
        """Total quantized dimension."""
        if self.kind == "vq":
            return int(sum(self.block_sizes))
        return len(self.c)


@dataclass(frozen=True)
class RateAllocation:
    """Relaxed and integer bit allocations for one total budget."""

    mode: str  # "sq": bits per coordinate; "vq": bits per block
    total_bits: int
    relaxed: tuple  # real-valued optimum
    bits: tuple  # integer allocation actually used
    relaxed_value: float
    integer_value: float
    constants: DesignConstants

    def __post_init__(self):
        if self.mode not in ("sq", "vq"):
            raise ValueError(f"unknown allocation mode {self.mode!r}")
        if len(self.bits) != len(self.relaxed):
            raise ValueError("relaxed and integer allocations differ in length")
        if any(b < 0 or b != int(b) for b in self.bits):
            raise ValueError("integer bits must be nonnegative integers")
        if sum(self.bits) != self.total_bits:
            raise ValueError(
                f"integer bits sum to {sum(self.bits)}, budget is {self.total_bits}"
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

def sq_wmax_objective(c: Sequence[float]) -> Callable[[np.ndarray], np.ndarray]:
    """max_m c_m 2^(-L_m) over rows of an allocation matrix."""
    cv = np.asarray(c, dtype=float)

    def f(allocs: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(allocs, dtype=float))
        return np.max(cv * 2.0 ** (-a), axis=1)

    return f


def sq_lp_objective(
    c: Sequence[float], p: float, part: BlockPartition
) -> Callable[[np.ndarray], np.ndarray]:
    """max_k (sum_{m in M_k} c_m 2^(-p L_m))^(1/p) over allocation rows."""
    cv = np.asarray(c, dtype=float)
    offsets = np.asarray(part.offsets[:-1], dtype=int)

    def f(allocs: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(allocs, dtype=float))
        terms = cv * 2.0 ** (-p * a)
        block_sums = np.add.reduceat(terms, offsets, axis=1)
        return np.max(block_sums, axis=1) ** (1.0 / p)

    return f


def vq_lattice_objective(
    d: Sequence[float], block_sizes: Sequence[int]
) -> Callable[[np.ndarray], np.ndarray]:
    """max_k d_k 2^(-L_k / n_k) over rows of per-block allocations."""
    dv = np.asarray(d, dtype=float)
    nv = np.asarray(block_sizes, dtype=float)

    def f(allocs: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(allocs, dtype=float))
        return np.max(dv * 2.0 ** (-a / nv), axis=1)

    return f


def objective_for(constants: DesignConstants, part: Optional[BlockPartition] = None):
    if constants.kind == "sq-wmax":
        return sq_wmax_objective(constants.c)
    if constants.kind == "sq-lp":
        if part is None:
            part = BlockPartition(constants.block_sizes)
        return sq_lp_objective(constants.c, constants.p, part)
    return vq_lattice_objective(constants.d, constants.block_sizes)


# ---------------------------------------------------------------------------
# Design constants from a box + norm specification
# ---------------------------------------------------------------------------

def _box_lengths(box: BoxDomain, n: int) -> np.ndarray:
    if box.n != n:
        raise ValueError(f"box dimension {box.n} != partition dimension {n}")
    lengths = box.lengths
    if np.any(lengths <= 0):
        raise ValueError("every interval must have positive length")
    return lengths


def sq_wmax_constants(part: BlockPartition, spec: NormSpec, box: BoxDomain) -> np.ndarray:
    """c_m = |X_m| / (2 a_m w_k(m)) for weighted-max blocks."""
    spec.check_partition(part)
    lengths = _box_lengths(box, part.n)
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
    lengths = _box_lengths(box, part.n)
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
    lengths = _box_lengths(box, part.n)
    d = np.empty(part.num_blocks)
    for k in range(part.num_blocks):
        scale = lattice_scale(lengths[part.block_slice(k)], 0)
        d[k] = scale * covering_radius(part.block_sizes[k]) / w[k]
    return d


# ---------------------------------------------------------------------------
# Relaxed solutions: water-filling by bisection on log2(tau)
# ---------------------------------------------------------------------------

def _bisect_log_tau(bits_of: Callable[[float], float], lo: float, hi: float, budget: float) -> float:
    """Monotone bisection for bits_of(t) = budget, t = log2(tau).

    bits_of is nonincreasing with bits_of(lo) >= budget >= bits_of(hi);
    the sum is piecewise linear in t, so bisection converges fast and we
    stop once the rate constraint holds to _SUM_TOL.
    """
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        s = bits_of(mid)
        if abs(s - budget) <= _SUM_TOL:
            return mid
        if s > budget:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _relax_weighted(log_const: np.ndarray, weights: np.ndarray, budget: int) -> tuple[np.ndarray, float]:
    """Solve sum_k weights_k (log_const_k - t)^+ = budget for t = log2 tau.

    Returns the relaxed per-entry bit counts weights_k*(log_const_k - t)^+
    and tau.  Covers both the per-coordinate (weights = 1) and per-block
    (weights = n_k) water-filling problems.
    """
    if budget == 0:
        return np.zeros(log_const.size), float(2.0 ** np.max(log_const))

    def bits_of(t: float) -> float:
        return float(np.sum(weights * np.maximum(log_const - t, 0.0)))

    lo = float(np.min(log_const)) - float(budget)
    hi = float(np.max(log_const))
    t = _bisect_log_tau(bits_of, lo, hi, float(budget))
    relaxed = weights * np.maximum(log_const - t, 0.0)
    return relaxed, float(2.0**t)


def _lp_block_level(c_sorted: np.ndarray, prefix: np.ndarray, tau: float) -> float:
    """Exact tau_k with sum_m min(c_m, tau_k) = tau for one active block."""
    nk = c_sorted.size
    for i in range(nk):
        t = (tau - prefix[i]) / (nk - i)
        left_ok = i == 0 or t >= c_sorted[i - 1] * (1.0 - 1e-15)
        if left_ok and t <= c_sorted[i] * (1.0 + 1e-15):
            return float(t)
    # tau >= sum of the block's constants: level saturates at the top.
    return float(c_sorted[-1])


def _relax_lp(c: np.ndarray, p: float, part: BlockPartition, budget: int):
    """Nested water-filling for the L_p scalar design.

    Outer level tau equalizes the active blocks' p-th-power error sums;
    inner levels tau_k split tau across each block's coordinates.  Blocks
    whose total constant sum_m c_m is already <= tau stay unquantized.
    Returns (relaxed bits, tau, per-block tau_k with NaN when inactive).
    """
    K = part.num_blocks
    sorted_c = []
    prefixes = []
    block_totals = np.empty(K)
    for k in range(K):
        ck = np.sort(c[part.block_slice(k)])
        sorted_c.append(ck)
        prefixes.append(np.concatenate(([0.0], np.cumsum(ck)[:-1])))
        block_totals[k] = float(np.sum(ck))

    def levels_for(tau: float) -> np.ndarray:
        out = np.full(K, np.nan)
        for k in range(K):
            if block_totals[k] > tau:
                out[k] = _lp_block_level(sorted_c[k], prefixes[k], tau)
        return out

    def bits_for(tau: float) -> float:
        total = 0.0
        for k, tk in enumerate(levels_for(tau)):
            if not math.isnan(tk):
                total += float(
                    np.sum(np.maximum(np.log2(sorted_c[k]) - math.log2(tk), 0.0))
                ) / p
        return total

    if budget == 0:
        tau = float(np.max(block_totals))
        return np.zeros(part.n), tau, levels_for(tau)

    hi = math.log2(float(np.max(block_totals)))
    lo, step = hi - 1.0, 1.0
    while bits_for(2.0**lo) < budget:
        lo -= step
        step *= 2.0
    t = _bisect_log_tau(lambda u: bits_for(2.0**u), lo, hi, float(budget))
    tau = 2.0**t
    levels = levels_for(tau)
    relaxed = np.zeros(part.n)
    for k in range(K):
        if not math.isnan(levels[k]):
            sl = part.block_slice(k)
            relaxed[sl] = np.maximum(np.log2(c[sl]) - math.log2(levels[k]), 0.0) / p
    return relaxed, tau, levels


# ---------------------------------------------------------------------------
# Exact integer step
# ---------------------------------------------------------------------------

def _snap_integers(relaxed: np.ndarray) -> np.ndarray:
    """Clear fractional parts within _SNAP_TOL of an integer."""
    snapped = relaxed.copy()
    near = np.abs(relaxed - np.round(relaxed)) <= _SNAP_TOL
    snapped[near] = np.round(relaxed[near])
    return np.maximum(snapped, 0.0)


def _walk(values: Sequence[float], budget: int, give_bit: Callable[[int], float]) -> None:
    """Give budget bits one at a time, each to the term of largest value.

    Ties go to the lowest term index.  give_bit(k) hands term k one more bit
    and returns its new value.  When every term is nonincreasing in its own
    bits, this minimizes the max over terms exactly: from any start at or
    below the fewest bits that reach the optimum, the term that sets the
    max needs the bit, so the walk reaches the optimum within the budget.
    """
    heap = [(-v, k) for k, v in enumerate(values)]
    heapq.heapify(heap)
    for _ in range(budget):
        k = heap[0][1]
        heapq.heapreplace(heap, (-give_bit(k), k))


def _max_term_bits(const: np.ndarray, sizes: np.ndarray, start: np.ndarray, budget: int) -> np.ndarray:
    """Minimize max_k const_k 2^(-b_k / sizes_k) over sum_k b_k = budget, b >= start."""
    consts, rates = const.tolist(), sizes.tolist()
    bits = [int(b) for b in start]

    def give_bit(k: int) -> float:
        bits[k] += 1
        return consts[k] * 2.0 ** (-bits[k] / rates[k])

    _walk([c * 2.0 ** (-b / r) for c, b, r in zip(consts, bits, rates)], budget - sum(bits), give_bit)
    return np.array(bits, dtype=int)


def _lp_bits(c: np.ndarray, p: float, part: BlockPartition, budget: int) -> np.ndarray:
    """Minimize max_k sum_{m in M_k} c_m 2^(-p b_m) over sum_m b_m = budget.

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

    def give_bit(k: int) -> float:
        m = heaps[k][0][1]
        bits[m] += 1
        terms[m] = consts[m] * 2.0 ** (-p * bits[m])
        heapq.heapreplace(heaps[k], (-terms[m], m))
        return math.fsum(terms[i] for i in blocks[k])

    _walk([math.fsum(terms[m] for m in block) for block in blocks], budget, give_bit)
    return np.array(bits, dtype=int)


# ---------------------------------------------------------------------------
# The three designs
# ---------------------------------------------------------------------------

def _check_budget(total_bits: int) -> int:
    if total_bits < 0 or total_bits != int(total_bits):
        raise ValueError(f"total rate must be a nonnegative integer, got {total_bits}")
    return int(total_bits)


def _allocate(constants: DesignConstants, part: BlockPartition, total_bits: int) -> RateAllocation:
    """Relax, round and value one design family's constants at a total budget.

    The relaxed optimum is nested water-filling for "sq-lp" and weighted
    water-filling otherwise.  The integer step is exact for every family:
    each bit goes to the term that sets the max (a coordinate for
    "sq-wmax", a block otherwise; lowest index on ties).  The closed-form
    families start the walk from a lower bound read off the relaxed rates.
    """
    entries = np.asarray(constants.d if constants.kind == "vq" else constants.c)
    if constants.kind == "sq-lp":
        relaxed, tau, levels = _relax_lp(entries, constants.p, part, total_bits)
        constants = replace(constants, tau=tau, tau_blocks=tuple(levels))
        relaxed_value = tau ** (1.0 / constants.p)
        bits = _lp_bits(entries, constants.p, part, total_bits)
    else:
        logs, sizes, _ = _log_terms(constants)
        relaxed, tau = _relax_weighted(logs, sizes, total_bits)
        constants = replace(constants, tau=tau)
        relaxed_value = tau
        # Flooring the relaxed rates shows tau* <= tau 2^(1/n_min), so no
        # entry needs fewer than r_k - n_k/n_min bits to reach the optimum.
        start = np.ceil(_snap_integers(relaxed - sizes / sizes.min()))
        bits = _max_term_bits(entries, sizes, start, total_bits)
    integer_value = float(objective_for(constants, part)(bits)[0])
    return RateAllocation(
        mode="vq" if constants.kind == "vq" else "sq",
        total_bits=total_bits,
        relaxed=tuple(relaxed),
        bits=tuple(int(b) for b in bits),
        relaxed_value=relaxed_value,
        integer_value=integer_value,
        constants=constants,
    )


def ticoq_sq_wmax(
    part: BlockPartition, spec: NormSpec, box: BoxDomain, total_bits: int
) -> RateAllocation:
    """Optimal scalar rate allocation under weighted-max block norms.

    Water-filling gives the relaxed optimum (value tau); the largest-term
    walk gives an integer optimum.
    """
    total_bits = _check_budget(total_bits)
    c = sq_wmax_constants(part, spec, box)
    return _allocate(DesignConstants(kind="sq-wmax", c=tuple(c)), part, total_bits)


def ticoq_sq_lp(
    part: BlockPartition, spec: NormSpec, box: BoxDomain, total_bits: int
) -> RateAllocation:
    """Optimal scalar rate allocation under L_p block norms.

    The relaxed problem is solved exactly by nested water-filling.  The
    integer optimum gives each bit to the block of largest error sum and,
    inside it, to the coordinate of largest term.
    """
    total_bits = _check_budget(total_bits)
    c, p = sq_lp_constants(part, spec, box)
    constants = DesignConstants(kind="sq-lp", c=tuple(c), p=p, block_sizes=part.block_sizes)
    return _allocate(constants, part, total_bits)


def ticoq_vq_lattice(
    part: BlockPartition,
    w: Sequence[float],
    box: BoxDomain,
    total_bits: int,
    p: float = 2.0,
) -> RateAllocation:
    """Optimal per-block lattice rate allocation under L_p (p >= 2) block norms.

    The integer optimum gives each bit to the block of largest error
    d_k 2^(-L_k/n_k), whatever the block dimensions.
    """
    total_bits = _check_budget(total_bits)
    if not (p >= 2.0):
        raise ValueError(f"lattice designs require an L_p block norm with p >= 2, got p={p}")
    d = vq_constants(part, w, box)
    constants = DesignConstants(kind="vq", d=tuple(d), block_sizes=part.block_sizes)
    return _allocate(constants, part, total_bits)


def ticoq_design(
    part: BlockPartition, spec: NormSpec, box: BoxDomain, total_bits: int, mode: str
) -> RateAllocation:
    """The "sq-wmax", "sq-lp" or "vq" design; lattices take the smallest L_p exponent."""
    if mode == "sq-wmax":
        return ticoq_sq_wmax(part, spec, box, total_bits)
    if mode == "sq-lp":
        return ticoq_sq_lp(part, spec, box, total_bits)
    if mode != "vq":
        raise ValueError(f"unknown design mode {mode!r}")
    if not all(isinstance(norm, Lp) for norm in spec.per_block):
        raise ValueError("lattice designs require L_p block norms")
    p = min(norm.p for norm in spec.per_block)
    return ticoq_vq_lattice(part, spec.block_weights, box, total_bits, p=p)


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
            if return_ties:
                ties = []
        if return_ties:
            for j in np.flatnonzero(values == best_value):
                t = tuple(int(b) for b in allocs[j])
                if t != best_alloc or not ties:
                    ties.append(t)
    # Deduplicate while preserving lex (= enumeration) order.
    if return_ties:
        seen = set()
        uniq = []
        for t in ties:
            if t not in seen:
                seen.add(t)
                uniq.append(t)
        ties = uniq
    return OracleResult(best_alloc, best_value, ties=tuple(ties) if return_ties else None)


# ---------------------------------------------------------------------------
# High-rate tradeoff threshold and prefactor
# ---------------------------------------------------------------------------

def _log_terms(constants: DesignConstants) -> tuple[np.ndarray, np.ndarray, float]:
    """(log2 constants, entry sizes, p) of the high-rate law.

    Past the threshold the relaxed optimum is 2^(sum_i s_i log_i / (p n)) *
    2^(-L/n) with n = sum_i s_i.  Scalar entries have size 1; the L_p design
    weights coordinate m of block k by n_k and divides the exponent by p;
    lattice entries are blocks of size n_k.
    """
    if constants.kind == "vq":
        return (
            np.log2(np.asarray(constants.d)),
            np.asarray(constants.block_sizes, dtype=float),
            1.0,
        )
    c = np.asarray(constants.c)
    if constants.kind == "sq-wmax":
        return np.log2(c), np.ones(c.size), 1.0
    sizes = np.asarray(constants.block_sizes, dtype=int)
    return np.log2(np.repeat(sizes, sizes) * c), np.ones(c.size), constants.p


def tradeoff_threshold(constants: DesignConstants) -> float:
    """Budget L' past which the relaxed optimum equals eta * 2^(-L/n).

    For weighted-max and lattice designs the threshold is tight.  For the
    L_p design it is intentionally conservative (the tight value would
    carry an extra 1/p factor), so the guarantee holds for every L >= L'.
    """
    logs, sizes, _ = _log_terms(constants)
    return float(np.sum(sizes * logs) - np.sum(sizes) * np.min(logs))


def relaxed_eta(constants: DesignConstants) -> float:
    """Prefactor eta of the high-rate law: relaxed optimum = eta * 2^(-L/n)."""
    logs, sizes, p = _log_terms(constants)
    return float(2.0 ** (np.sum(sizes * logs) / (p * np.sum(sizes))))


def tradeoff_value(constants: DesignConstants, total_bits: float) -> float:
    """eta * 2^(-L/n): the relaxed optimum for budgets past the threshold."""
    return relaxed_eta(constants) * 2.0 ** (-float(total_bits) / constants.n)


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
    """Per-coordinate uniform scalar quantizers grouped into block quantizers."""
    bits = np.asarray(bits, dtype=int)
    if bits.size != part.n:
        raise ValueError(f"{bits.size} rates for {part.n} coordinates")
    coords = [ScalarQuantizer(*iv, int(b)) for iv, b in zip(box.intervals(), bits, strict=True)]
    return QuantizerBank(
        [ScalarBlockQuantizer(coords[part.block_slice(k)]) for k in range(part.num_blocks)]
    )


def make_vq_bank(part: BlockPartition, box: BoxDomain, block_bits: Sequence[int]) -> QuantizerBank:
    """One dual-lattice quantizer per block at the given block rates."""
    block_bits = np.asarray(block_bits, dtype=int)
    if block_bits.size != part.num_blocks:
        raise ValueError(f"{block_bits.size} rates for {part.num_blocks} blocks")
    blocks = []
    for k in range(part.num_blocks):
        sub = box.subbox(part.block_slice(k))
        blocks.append(LatticeQuantizer(sub.intervals(), int(block_bits[k])))
    return QuantizerBank(blocks)


def bank_for_allocation(
    part: BlockPartition, box: BoxDomain, alloc: RateAllocation
) -> QuantizerBank:
    if alloc.mode == "sq":
        return make_sq_bank(part, box, alloc.bits)
    return make_vq_bank(part, box, alloc.bits)
