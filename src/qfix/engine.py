"""Fixed-point iteration under quantized message passing.

One loop runs block mappings in three update orders: Jacobi (every block
from the old iterate), Gauss-Seidel (a sweep over every block, later
blocks seeing the already-quantized earlier blocks of the new iterate)
and sequential (one block per step, k = t mod K, reading the current
iterate).  Every step copies x(t) into x(t+1) and updates a run of
groups of blocks in place, each group one evaluation and one bank pass:
a Jacobi step is one group of all blocks, a sequential tick one block,
and a Gauss-Seidel sweep the mapping's `sweep_groups`.  A mapping that
declares which blocks each block reads (`block_reads`, which
`affine_contraction` takes from A's zero blocks) sweeps blocks that read
none of each other's new values as one group, and the sweep equals the
block-by-block one; any other sweeps one block at a time.  The mapping
owns its update groups: it builds each group's record once, with its
coordinates, box bounds and evaluator, the function `group_fn(blocks)`
when it has `group_fn`, otherwise a slice of a full evaluation.  A run
looks up each distinct bank's quantizer for each group once.
`affine_contraction` keeps only A's nonzero entries and b: a row is the
left-to-right sum of its entries' products, and each group's function
holds its own rows' entries, so a node's update reads only the nodes it
depends on.  Maps and quantizers are deterministic, so a step from an
iterate, bank and tick phase that an earlier step of the run had repeats
it bit for bit and closes an orbit: the run copies it, and every later
step whose bank is the bank one orbit period earlier, from the orbit in
one gather, and computes nothing for them.  The loop records the
residuals e(t), and one formula bounds every run: sweeps of P steps (K
sequential ticks, else 1) shrink the distance to x* by alpha, and a
step's error passes through at most D updates of its sweep, a factor
(1 - alpha^D) / (1 - alpha): D = 1 for Jacobi, K for Gauss-Seidel and
sequential sweeps, inf for the asynchronous constant (bounds only, no
scheduler) and t for the worst-case horizon sum.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .norms import BlockPartition, BoxDomain, Lp, NormSpec, WeightedMax, block_norm, block_norms


class Scheme(enum.Enum):
    JACOBI = "jacobi"
    GAUSS_SEIDEL = "gauss-seidel"
    SEQUENTIAL = "sequential"
    ASYNC_BOUND_ONLY = "async-bound-only"


_FUSED_PER_BANK = 256  # a bank keeps max(this, K) group quantizers for K blocks


def group_quantizer(quantizers: Sequence) -> Callable[[np.ndarray], np.ndarray]:
    """v -> the quantized values of blocks whose values v concatenates in order.

    The type's `fuse(quantizers)` when every quantizer has one type that has
    `fuse` and it takes the group; otherwise a block-by-block loop over
    slices of the quantizers' sizes.
    """
    kind = type(quantizers[0])
    if hasattr(kind, "fuse") and all(type(q) is kind for q in quantizers):
        fused = kind.fuse(quantizers)
        if fused is not None:
            return fused
    ends = np.cumsum([q.size for q in quantizers]).tolist()
    pieces = [(q, slice(end - q.size, end)) for q, end in zip(quantizers, ends)]

    def loop(v: np.ndarray) -> np.ndarray:
        if v.shape != (ends[-1],):
            raise ValueError(f"{v.shape} values for blocks of {ends[-1]} coordinates")
        return np.concatenate([q.quantize(v[piece]) for q, piece in pieces])

    return loop


@dataclass(frozen=True)
class QuantizerBank:
    """One quantizer per block.

    A block quantizer has a `size` (its block's coordinate count),
    `quantize(v)` and `worst_case_block_error(norm)`, its bound on
    ||q(v) - v|| in the block's component norm.  Its type may offer
    `fuse(quantizers)`: a function v -> q(v) for several blocks, their
    values concatenated, or None.  A group quantizer is a function
    (`group_quantizer`): per-block bounds come from `bank.blocks`.
    `group_quantizers` and `worst_case_error` refuse a partition whose
    block sizes are not the quantizers' sizes.  Every quantizer is a
    deterministic function of its input: a run serves a step that repeats
    an earlier one from it (`run_iteration`).
    """

    blocks: tuple

    def __init__(self, blocks: Sequence):
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "_sizes", tuple(q.size for q in self.blocks))
        object.__setattr__(self, "_groups", {})  # blocks -> group quantizer

    def _check_blocks(self, part: BlockPartition) -> None:
        if self._sizes != part.block_sizes:
            raise ValueError(
                f"quantizers of block sizes {self._sizes} for blocks of sizes {part.block_sizes}"
            )

    def _group_quantizer(self, blocks):
        """The quantizer function of `blocks` (one block k, a tuple of blocks or None for all).

        Block k's own `quantize`; for a group, its `group_quantizer`, built
        once per bank and group.  One mapping's groups (at most K / 2 + 1)
        all fit.
        """
        if blocks is not None and not isinstance(blocks, tuple):
            return self.blocks[blocks].quantize
        quantizer = self._groups.get(blocks)
        if quantizer is None:
            if len(self._groups) >= max(_FUSED_PER_BANK, len(self.blocks)):
                self._groups.clear()  # a bank outlives many mappings' groups
            ks = range(len(self.blocks)) if blocks is None else blocks
            quantizer = self._groups[blocks] = group_quantizer([self.blocks[k] for k in ks])
        return quantizer

    def group_quantizers(self, part: BlockPartition, groups) -> list:
        """One function v -> q(v) per group of blocks in `groups`, v the group's values.

        A group is one block k, a tuple of blocks (their values concatenated
        in that order) or None for every block.  A group goes through one
        fused function when the bank's quantizer type has `fuse`, which
        must give the per-block results bit for bit (scalar quantizers are
        coordinate-wise, so one pass over the group's coordinates does);
        other banks quantize block by block.
        """
        self._check_blocks(part)
        return [self._group_quantizer(blocks) for blocks in groups]

    def worst_case_error(self, part: BlockPartition, spec: NormSpec) -> float:
        """Block-norm bound on any single-step quantization error e(t)."""
        spec.check_partition(part)
        self._check_blocks(part)
        worst = 0.0
        for q, norm_k, w_k in zip(self.blocks, spec.per_block, spec.block_weights):
            worst = max(worst, float(q.worst_case_block_error(norm_k)) / w_k)
        return worst


class _UpdateGroup:
    """Blocks updated together, with their coordinates, size, box bounds and evaluator built once.

    `blocks` is None (every block), one block k or a tuple of blocks;
    `index` is a slice, or a tuple's read-only coordinate array;
    `evaluate` is the mapping's `group_fn(blocks)`, or None for every block
    and for a mapping without `group_fn`.
    """

    __slots__ = ("blocks", "index", "size", "lo", "hi", "evaluate")

    def __init__(self, blocks, index, lo: np.ndarray, hi: np.ndarray, evaluate: Optional[Callable]):
        self.blocks, self.index, self.size, self.lo, self.hi = blocks, index, lo.size, lo, hi
        self.evaluate = evaluate


def sweep_groups_of(block_reads: np.ndarray) -> tuple:
    """A Gauss-Seidel sweep over blocks that read as `block_reads` says, as groups in order.

    block_reads[k, j] says that block k reads block j.  Each block lands in
    a later group than every earlier block it reads and in no earlier group
    than any earlier block that reads its old value, in the fewest groups
    that allow, so every block reads what it reads in the block-by-block
    sweep.  A group of one block is its int, a larger one an ascending
    tuple.
    """
    reads = np.asarray(block_reads, dtype=bool)
    K = reads.shape[0]
    # Each pair j < k that shares a read, in row-major order, so block j's
    # group is final before block k's: k goes one group past j if it
    # reads j's new value, else (j reads k's old value) no earlier than j.
    later, earlier = np.nonzero(np.tril(reads | reads.T, -1))
    lag = reads[later, earlier]
    level = [0] * K
    for k, j, d in zip(later.tolist(), earlier.tolist(), lag.tolist()):
        level[k] = max(level[k], level[j] + d)
    members = [[] for _ in range(max(level) + 1)]
    for k, g in enumerate(level):
        members[g].append(k)
    return tuple(m[0] if len(m) == 1 else tuple(m) for m in members)


@dataclass(frozen=True)
class BlockMapping:
    """Evaluable mapping T: X -> X with block structure and a declared modulus.

    `fn(x)` gives the whole raw map.  The optional `group_fn(k)` gives a
    function x -> block k of the raw map alone, which must equal
    `fn(x)[block k]` bit for bit.  Both are clamped into the box.  The
    optional `block_reads` is a K x K bool pattern: block k's value depends
    only on the blocks j with block_reads[k, j].  A mapping that declares it
    must also take a tuple of blocks in `group_fn` (their values
    concatenated, in that order), since a Gauss-Seidel sweep then evaluates
    blocks that read none of each other's new values in one call.  The
    mapping is the one owner of its update groups: the first time a group
    is asked for, it builds the group's record (coordinates, box bounds and
    `group_fn(blocks)`) and keeps it.  `fn` and the group functions are
    deterministic functions of their input: a run serves a step that
    repeats an earlier one from it (`run_iteration`).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    partition: BlockPartition
    domain: BoxDomain
    norm: NormSpec
    modulus: float
    group_fn: Optional[Callable[[Union[int, tuple]], Callable[[np.ndarray], np.ndarray]]] = None
    block_reads: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 <= self.modulus < 1.0):
            raise ValueError(f"modulus must lie in [0, 1), got {self.modulus}")
        if self.domain.n != self.partition.n:
            raise ValueError("domain dimension does not match partition")
        self.norm.check_partition(self.partition)
        if self.block_reads is not None:
            reads = np.array(self.block_reads, dtype=bool)
            K = self.partition.num_blocks
            if reads.shape != (K, K):
                raise ValueError(f"block_reads has shape {reads.shape}, expected ({K}, {K})")
            reads.flags.writeable = False
            object.__setattr__(self, "block_reads", reads)

    @cached_property
    def sweep_groups(self) -> tuple:
        """A Gauss-Seidel sweep as groups of blocks updated together, in order.

        The groups `sweep_groups_of` levels from `block_reads`; without
        `block_reads` every block is its own group.
        """
        if self.block_reads is None:
            return tuple(range(self.partition.num_blocks))
        return sweep_groups_of(self.block_reads)

    @cached_property
    def _update_groups(self) -> dict:
        """The record of every group asked for (None, a block k or a tuple of blocks)."""
        return {}

    def _update_group(self, blocks) -> _UpdateGroup:
        """The record of `blocks`, built the first time it is asked for."""
        group = self._update_groups.get(blocks)
        if group is None:
            index = self.partition.block_index(blocks)
            evaluate = None if blocks is None or self.group_fn is None else self.group_fn(blocks)
            group = _UpdateGroup(blocks, index, *self.domain.bounds(index), evaluate)
            self._update_groups[blocks] = group
        return group

    def eval_full(self, x: np.ndarray) -> np.ndarray:
        y = np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)
        if y.shape != (self.partition.n,):
            raise ValueError(f"mapping returned shape {y.shape}, expected ({self.partition.n},)")
        return self.domain.clamp(y)

    def eval_block(self, k: Union[int, tuple], x: np.ndarray) -> np.ndarray:
        """Block k of the map at x, or the blocks of a tuple k concatenated."""
        group = self._update_group(k)
        if group.evaluate is None:
            return self.eval_full(x)[group.index]
        y = np.asarray(group.evaluate(np.asarray(x, dtype=float)), dtype=float)
        if y.shape != (group.size,):
            raise ValueError(
                f"block {k} of the mapping has shape {y.shape}, expected ({group.size},)"
            )
        return np.minimum(np.maximum(y, group.lo), group.hi)

    def distance(self, x, y) -> float:
        return block_norm(np.asarray(x) - np.asarray(y), self.partition, self.norm)


@dataclass
class Trajectory:
    iterates: np.ndarray  # (steps+1, n)
    errors: np.ndarray  # (steps, n)
    error_norms: np.ndarray  # (steps,)
    scheme: Scheme
    dist_to_ref: Optional[np.ndarray] = None  # (steps+1,) when a reference was given
    reference: Optional[np.ndarray] = None
    dist_norm: Optional[tuple] = field(default=None, init=False, repr=False)  # (partition, norm)
    repeated_steps: int = field(default=0, init=False)  # steps served from an earlier step

    def __post_init__(self):
        if self.iterates.shape[0] != self.errors.shape[0] + 1:
            raise ValueError("iterates must contain exactly one more row than errors")

    @property
    def steps(self) -> int:
        return self.errors.shape[0]

    def final(self) -> np.ndarray:
        return self.iterates[-1]


BankOrSchedule = Union[QuantizerBank, Sequence[QuantizerBank], None]


def _count(value, name: str, least: int) -> int:
    """`value` as an int; ValueError naming `name` unless it is an integer >= least.

    As for rates (`squant._rate`), 3.0 is an integer and 2.5, NaN and inf are not.
    """
    if not (value >= least and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _bank_schedule(quantizers: BankOrSchedule, steps: int) -> list[Optional[QuantizerBank]]:
    if quantizers is None or isinstance(quantizers, QuantizerBank):
        return [quantizers] * steps
    banks = list(quantizers)
    if len(banks) != steps:
        raise ValueError(f"{len(banks)} per-step banks for {steps} steps")
    return banks


def run_iteration(
    mapping: BlockMapping,
    quantizers: BankOrSchedule,
    x0,
    steps: int,
    scheme: Scheme,
    reference=None,
) -> Trajectory:
    """Iterate x(t+1) = T(x(t)) + e(t) for `steps` steps.

    A run's groups are the one group of all blocks (Jacobi), the mapping's
    `sweep_groups` (Gauss-Seidel) or each block (sequential), and a sweep
    is P steps (`_sweep`).  Every step copies x(t) into x(t+1), then updates
    groups[t mod P :: P] in turn, each with one evaluation at x(t+1) and one
    bank pass: a Gauss-Seidel sweep every group, a sequential tick block
    t mod K.  A later group reads the *quantized* values of the earlier
    ones, so the quantized message — not the raw one — is what later
    blocks consume.  Jacobi's one group reads x(t+1) before it writes any
    of it, so it evaluates at x(t) bit for bit.  With quantizers=None the
    dynamics reduce to the exact iteration and e(t) = 0.

    A step depends only on x(t), its bank and, for sequential ticks, its
    phase t mod K.  So a step t whose (x(t)'s bytes, bank object, phase)
    an earlier step a had closes an orbit of period p = t - a, a multiple
    of the phase period: from t on, x(s) = x(s - p) for as long as
    `banks[s] is banks[s - p]`.  The run copies those steps' iterates and
    errors from rows a + (j mod p) in one gather, evaluates nothing, and
    goes on from the first step whose bank breaks the rule (a single bank
    never does).  The bytes are compared, so -0.0 and +0.0 differ and a
    hash collision cannot pass.  `Trajectory.repeated_steps` counts the
    copied steps.
    """
    if scheme == Scheme.ASYNC_BOUND_ONLY:
        raise ValueError(
            "the asynchronous scheme has bound calculators only; "
            "run Jacobi, Gauss-Seidel or sequential"
        )
    steps = _count(steps, "steps", 1)
    part = mapping.partition
    x = np.asarray(x0, dtype=float)
    if x.shape != (part.n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({part.n},)")
    if not mapping.domain.contains(x, tol=1e-9):
        raise ValueError("x0 lies outside the box domain")

    banks = _bank_schedule(quantizers, steps)
    K = part.num_blocks
    iterates = np.empty((steps + 1, part.n))
    errors = np.zeros((steps, part.n))
    iterates[0] = x

    if scheme == Scheme.JACOBI:
        groups = (None,)
    elif scheme == Scheme.SEQUENTIAL:
        groups = range(K)
    else:
        groups = mapping.sweep_groups
    records = [mapping._update_group(blocks) for blocks in groups]
    plans = {}  # id(bank) -> (group record, its quantizer) per group, resolved once per run
    period = _sweep(scheme, K)[0]
    first = {}  # (hash of x(t)'s bytes, id(bank), t mod period) -> the first step t with that key
    t = repeated = 0
    while t < steps:
        bank = banks[t]
        state = iterates[t].tobytes()
        a = first.setdefault((hash(state), id(bank), t % period), t)
        if a != t and iterates[a].tobytes() == state:  # step t repeats step a bit for bit
            # An orbit of period p = t - a closes: step s repeats step s - p for as long as
            # its bank is step s - p's.  Fill those steps from rows a + (j mod p) at once.
            p, end = t - a, t + 1
            while end < steps and banks[end] is banks[end - p]:
                end += 1
            src = a + np.arange(end - t) % p
            iterates[t + 1 : end + 1], errors[t:end] = iterates[src + 1], errors[src]
            repeated += end - t
            t = end
            continue
        plan = plans.get(id(bank))
        if plan is None:
            qs = [None] * len(records) if bank is None else bank.group_quantizers(part, groups)
            plan = plans[id(bank)] = list(zip(records, qs))
        y, e = iterates[t + 1], errors[t]
        y[:] = iterates[t]
        for group, quantizer in plan[t % period :: period]:
            if group.blocks is None:
                raw = mapping.eval_full(y)
            else:
                raw = mapping.eval_block(group.blocks, y)
            q = raw if quantizer is None else quantizer(raw)
            e[group.index] = q - raw
            y[group.index] = q
        t += 1

    traj = Trajectory(iterates, errors, _row_norms(mapping, errors), scheme)
    traj.repeated_steps = repeated
    if reference is not None:
        traj.reference = np.asarray(reference, dtype=float)
        traj.dist_to_ref = _row_norms(mapping, iterates, traj.reference)
        traj.dist_norm = (part, mapping.norm)
    return traj


_DISTANCE_CHUNK = 1 << 18  # entries per stacked pass over a run's rows (2 MiB of float64)


def _row_chunks(rows: np.ndarray) -> list:
    """A 2-D array's rows in order, in chunks of one row or more of about _DISTANCE_CHUNK entries.

    A stacked pass per chunk keeps its temporaries bounded however long the run is.
    """
    step = max(1, _DISTANCE_CHUNK // rows.shape[1])
    return [rows[i : i + step] for i in range(0, len(rows), step)]


def _row_norms(mapping: BlockMapping, rows: np.ndarray, ref=0.0) -> np.ndarray:
    """||x - ref|| in the mapping's block norm, for every row x of `rows`.

    One `block_norms` call per `_row_chunks` chunk; each row's norm equals
    `block_norm` of that row alone, bit for bit.
    """
    part, spec = mapping.partition, mapping.norm
    return np.concatenate([block_norms(chunk - ref, part, spec) for chunk in _row_chunks(rows)])


def _sweep(scheme: Scheme, num_blocks: Optional[int]) -> tuple:
    """(P, D): a sweep is P steps, and a step's error passes through at most D of its updates.

    Jacobi (1, 1), Gauss-Seidel (1, K), the asynchronous constant (1, inf)
    and sequential runs (K, K): K ticks, one per block in turn, are one
    Gauss-Seidel sweep.  A block count, where given, is at least 1.
    """
    if num_blocks is not None and not num_blocks >= 1:
        raise ValueError(f"block count must be >= 1, got {num_blocks}")
    if scheme == Scheme.JACOBI:
        return 1, 1
    if scheme == Scheme.ASYNC_BOUND_ONLY:
        return 1, math.inf
    if scheme != Scheme.GAUSS_SEIDEL and scheme != Scheme.SEQUENTIAL:
        raise ValueError(f"unknown scheme {scheme}")
    if num_blocks is None:
        raise ValueError("Gauss-Seidel bounds need the block count")
    return (num_blocks if scheme == Scheme.SEQUENTIAL else 1), num_blocks


def _geometric(alpha: float, depth: Union[int, float]) -> float:
    """(1 - alpha^D) / (1 - alpha), the sum of alpha^i over i < D; 1 / (1 - alpha) at D = inf."""
    return (1.0 - alpha**depth) / (1.0 - alpha)


def _scheme_factor(alpha: float, scheme: Scheme, num_blocks: Optional[int]) -> float:
    """`_geometric` at the depth of a scheme whose sweep is one step."""
    if scheme == Scheme.SEQUENTIAL:
        raise ValueError(
            "sequential runs have no per-tick closed-form error bound; "
            "bound_certificate certifies them sweep by sweep"
        )
    return _geometric(alpha, _sweep(scheme, num_blocks)[1])


def accumulated_error(
    alpha: float,
    error_norms: Sequence[float],
    scheme: Scheme = Scheme.JACOBI,
    num_blocks: Optional[int] = None,
) -> float:
    """Accumulated error E(t) from the recorded per-step ||e(l)||, l < t.

    The last value of `accumulated_error_series`, the one E(t) recurrence.
    """
    series = accumulated_error_series(alpha, error_norms, scheme, num_blocks)
    if series.size == 1:
        raise ValueError("need at least one error norm")
    return float(series[-1])


def accumulated_error_series(
    alpha: float,
    error_norms: Sequence[float],
    scheme: Scheme = Scheme.JACOBI,
    num_blocks: Optional[int] = None,
) -> np.ndarray:
    """E(t) = factor * S(t), t = 0..len(error_norms): S(0) = 0, S(t+1) = alpha S(t) + ||e(t)||."""
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    norms = np.asarray(error_norms, dtype=float)
    S = itertools.accumulate(norms.tolist(), lambda s, e: alpha * s + e, initial=0.0)
    return _scheme_factor(alpha, scheme, num_blocks) * np.fromiter(S, float, norms.size + 1)


def worst_case_error_bound(
    alpha: float,
    e_bar_norm: float,
    t: Union[int, float] = math.inf,
    scheme: Scheme = Scheme.JACOBI,
    num_blocks: Optional[int] = None,
) -> float:
    """Worst-case bound E-bar(t), its horizon sum `_geometric` at depth t (inf: the limit)."""
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if not t >= 0:
        raise ValueError(f"horizon must be >= 0, got {t}")
    if e_bar_norm < 0:
        raise ValueError("worst-case single-step error must be nonnegative")
    return _geometric(alpha, t) * e_bar_norm * _scheme_factor(alpha, scheme, num_blocks)


@dataclass(frozen=True)
class BoundCertificate:
    ok: np.ndarray  # (steps+1,) bool
    bound: np.ndarray  # (steps+1,)
    dist: np.ndarray  # (steps+1,)

    def all_ok(self) -> bool:
        return bool(np.all(self.ok))


def bound_certificate(traj: Trajectory, mapping: BlockMapping, x_star) -> BoundCertificate:
    """Check ||x(t)-x*|| <= bound(t) = alpha^s ||x(0)-x*|| + E(s) + spent(t) at every step.

    A run is sweeps of P steps (`_sweep`: K ticks for sequential runs, else
    1), and s = floor(t / P).  E(s) accumulates each sweep's largest step
    norm through the sweep factor (1 - alpha^D) / (1 - alpha).  spent(t)
    sums the norms of sweep s's steps before t, since a tick changes one
    block: d(t+1) <= max(d(t), alpha d(t) + eps_t) <= d(t) + eps_t.  With
    P = 1, spent = +0.0 and bound(t) = alpha^t d(0) + E(t).
    """
    if x_star is None:
        raise ValueError("a reference fixed point is required")
    ref = np.asarray(x_star, dtype=float)
    alpha = mapping.modulus
    d = traj.dist_to_ref  # measured by run_iteration, if in this norm and to this reference
    if traj.dist_norm != (mapping.partition, mapping.norm) or not np.array_equal(traj.reference, ref):
        d = _row_norms(mapping, traj.iterates, ref)
    ticks, depth = _sweep(traj.scheme, mapping.partition.num_blocks)
    steps, sweeps = traj.steps, traj.steps // ticks
    rows = np.zeros((sweeps + 1, ticks))  # row s: sweep s's step norms, padded with +0.0
    rows.reshape(-1)[:steps] = traj.error_norms
    # A sweep of depth D has the factor of a Gauss-Seidel sweep over D blocks.
    E = accumulated_error_series(alpha, rows[:sweeps].max(axis=1), Scheme.GAUSS_SEIDEL, depth)
    # spent[t]: the norms of t's sweep before t, added left to right; +0.0 at a sweep's start.
    spent = np.concatenate(([0.0], np.add.accumulate(rows, axis=1).reshape(-1)[:steps]))
    spent[::ticks] = 0.0
    s = np.arange(steps + 1) // ticks
    bound = alpha ** s.astype(float) * d[0] + E[s] + spent
    return BoundCertificate(ok=d <= bound + 1e-9, bound=bound, dist=d)


def reference_fixed_point(
    mapping: BlockMapping,
    x0=None,
    tol: float = 1e-12,
    max_steps: int = 100_000,
) -> np.ndarray:
    """Fixed point via the exact (unquantized) Jacobi iteration."""
    if x0 is None:
        x = 0.5 * (np.asarray(mapping.domain.lo) + np.asarray(mapping.domain.hi))
    else:
        x = np.asarray(x0, dtype=float).copy()
    for _ in range(max_steps):
        nxt = mapping.eval_full(x)
        if mapping.distance(nxt, x) < tol:
            return nxt
        x = nxt
    raise RuntimeError(f"fixed-point iteration did not reach residual {tol} in {max_steps} steps")


# ---------------------------------------------------------------------------
# Synthetic affine contractions with an exactly known modulus
# ---------------------------------------------------------------------------

class _AffineEntries:
    """T(x) = A x + b over A's nonzero entries, kept in row-major order, and b.

    Row r adds its products A[r, c] x[c], columns ascending, from +0.0
    through `np.bincount` (a plain sequential loop), then adds b[r].
    `group(k)` gives the function of a block, or a tuple of blocks, over
    its rows' entries renumbered to their places in the group, so it equals
    the same rows of the whole map bit for bit.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, part: BlockPartition):
        flat = np.flatnonzero(A != 0)
        self.row, self.col = np.divmod(flat, A.shape[1])
        self.val, self.b, self._part = A.ravel()[flat], b, part

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.row, self.val * x[self.col], minlength=self.b.size) + self.b

    def group(self, k: Union[int, tuple]) -> Callable[[np.ndarray], np.ndarray]:
        rows = np.arange(self.b.size)[self._part.block_index(k)]
        where = np.full(self.b.size, -1)
        where[rows] = np.arange(rows.size)
        at = where[self.row]
        mine = at >= 0
        at, col, val, b = at[mine], self.col[mine], self.val[mine], self.b[rows]
        return lambda x: np.bincount(at, val * x[col], minlength=b.size) + b


def affine_contraction(
    matrix: np.ndarray,
    offset: np.ndarray,
    part: BlockPartition,
    domain: BoxDomain,
    spec: NormSpec,
    modulus: float,
) -> BlockMapping:
    """T(x) = clamp(A x + b) as a BlockMapping with a declared modulus.

    The map keeps A's nonzero entries and b (`_AffineEntries`), so it holds
    O(nnz) numbers.  Row r of A x is the sum of A[r, c] x[c] over its
    nonzero c, ascending, added left to right from +0.0; no BLAS call is
    made, so a value depends on no BLAS build, on no count of rows per call
    and on no storage order.  Block k, or a tuple of blocks, evaluates
    natively as the same rows of the whole map bit for bit.  Block k reads
    block j unless A's block (k, j) is exactly zero.  Raises ValueError
    unless A is (n, n) and b is (n,) for the partition's n, both finite.
    """
    A = np.asarray(matrix, dtype=float)
    b = np.asarray(offset, dtype=float)
    n = part.n
    if A.shape != (n, n):
        raise ValueError(f"A has shape {A.shape}, expected ({n}, {n})")
    if b.shape != (n,):
        raise ValueError(f"b has shape {b.shape}, expected ({n},)")
    affine = _AffineEntries(A, b, part)
    if not np.isfinite(affine.val).all():
        raise ValueError("A has non-finite entries")
    if not np.isfinite(b).all():
        raise ValueError("b has non-finite entries")
    owner = np.repeat(np.arange(part.num_blocks), part.block_sizes)
    reads = np.zeros((part.num_blocks, part.num_blocks), dtype=bool)
    reads[owner[affine.row], owner[affine.col]] = True
    return BlockMapping(
        fn=affine, partition=part, domain=domain, norm=spec, modulus=modulus,
        group_fn=affine.group, block_reads=reads,
    )


def random_affine_contraction(
    part: BlockPartition,
    spec: NormSpec,
    domain: BoxDomain,
    alpha: float,
    rng=None,
) -> tuple[BlockMapping, np.ndarray]:
    """Random affine contraction whose block-norm modulus is *exactly* alpha.

    Block row k holds a single nonzero block B_k in column pi(k), where pi
    permutes blocks of identical size and norm kind.  Each B_k is a norm
    isometry (signed permutation, weight-rescaled for weighted-max blocks,
    orthogonal for p = 2) scaled by alpha * w_k / w_pi(k), which makes
    ||A x|| = alpha ||x|| hold with equality for every x.  The returned
    fixed point is placed in the interior of the box.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    rng = np.random.default_rng(rng)
    spec.check_partition(part)
    K = part.num_blocks
    n = part.n

    # Permute only among blocks sharing (size, norm kind).
    groups: dict[tuple, list[int]] = {}
    for k, norm_k in enumerate(spec.per_block):
        kind = ("wmax", norm_k.size) if isinstance(norm_k, WeightedMax) else ("lp", norm_k.p)
        groups.setdefault((part.block_sizes[k], kind), []).append(k)
    pi = np.empty(K, dtype=int)
    for members in groups.values():
        perm = rng.permutation(len(members))
        for pos, k in enumerate(members):
            pi[k] = members[perm[pos]]

    A = np.zeros((n, n))
    for k in range(K):
        src = int(pi[k])
        nk = part.block_sizes[k]
        norm_k = spec.per_block[k]
        if isinstance(norm_k, Lp) and norm_k.p == 2.0:
            core, _ = np.linalg.qr(rng.standard_normal((nk, nk)))
            if np.linalg.det(core) < 0:
                core[:, 0] = -core[:, 0]
        else:
            perm = rng.permutation(nk)
            signs = np.array([-1.0, 1.0])[rng.integers(0, 2, size=nk)]  # as rng.choice draws them
            core = np.zeros((nk, nk))
            core[np.arange(nk), perm] = signs
            if isinstance(norm_k, WeightedMax):
                a_src = np.asarray(spec.per_block[src].a)
                core[np.arange(nk), perm] *= np.asarray(norm_k.a) / a_src[perm]
        scale = alpha * spec.block_weights[k] / spec.block_weights[src]
        rows = part.block_slice(k)
        cols = part.block_slice(src)
        A[rows, cols] = scale * core

    lo = np.asarray(domain.lo)
    hi = np.asarray(domain.hi)
    u = rng.uniform(0.15, 0.85, size=n)
    x_star = lo + u * (hi - lo)
    b = x_star - A @ x_star
    return affine_contraction(A, b, part, domain, spec, alpha), x_star
