"""Time-varying rate schedules across a finite iteration horizon.

With a fixed per-iteration budget L, spending the same L bits at every
step wastes precision early (the iterate is still far from the fixed
point) and starves late steps.  The master problem splits a total of
T*L bits across the T stages to minimize the horizon-end error bound

    sum_t alpha^(-t) 2^(-L(t)/n),

whose relaxed solution is linear in t — later stages earn more bits at
a slope set by the contraction modulus.  Each stage then runs its own
time-invariant design at budget L(t).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .norms import BlockPartition, BoxDomain, NormSpec
from .ticoq import (
    DesignConstants,
    _round_by_fractions,
    _snap_integers,
    allocation_oracle,
    bank_for_allocation,
    sq_lp_constants,
    sq_wmax_constants,
    ticoq_design,
    tradeoff_threshold,
    vq_constants,
)

_FALLBACK_ORACLE_LIMIT = 100_000


@dataclass
class StageSchedule:
    """Per-stage sum rates (and optionally full designs) over a horizon."""

    alpha: float
    n: int
    per_stage_budget: int  # the L whose horizon total T*L is being split
    horizon: int
    rates: tuple  # integer L(t), t = 0..horizon-1
    relaxed_rates: tuple
    in_regime: bool  # closed-form validity condition held
    required_min_bits: float  # smallest per-stage budget the closed form needs
    objective_value: float  # sum_t alpha^(-t) 2^(-L(t)/n)
    tied_alternates: tuple = ()  # other integer schedules with the same objective
    allocations: Optional[tuple] = None  # per-stage RateAllocation (tvcoq_design)
    banks: Optional[tuple] = None  # per-stage QuantizerBank (tvcoq_design)
    e_stars: Optional[tuple] = None  # per-stage design optimum values

    def __post_init__(self):
        if len(self.rates) != self.horizon:
            raise ValueError(f"{len(self.rates)} stage rates for horizon {self.horizon}")
        if any(r < 0 or r != int(r) for r in self.rates):
            raise ValueError("stage rates must be nonnegative integers")
        total = self.horizon * self.per_stage_budget
        if sum(self.rates) != total:
            raise ValueError(f"stage rates sum to {sum(self.rates)}, expected {total}")

    def to_json(self) -> str:
        stages = []
        for t in range(self.horizon):
            stage = {"t": t, "L_t": int(self.rates[t])}
            if self.allocations is not None:
                stage["allocation"] = self.allocations[t].as_dict()
            if self.e_stars is not None:
                stage["e_star"] = self.e_stars[t]
            stages.append(stage)
        return json.dumps(
            {
                "alpha": self.alpha,
                "T": self.horizon,
                "L": self.per_stage_budget,
                "n": self.n,
                "in_regime": self.in_regime,
                "objective": self.objective_value,
                "stages": stages,
            },
            indent=2,
        )


def master_objective(alpha: float, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """sum_t alpha^(-t) 2^(-L_t/n) over rows of stage-rate matrices."""
    def f(allocs: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(allocs, dtype=float))
        t = np.arange(a.shape[1], dtype=float)
        return np.sum(alpha ** (-t) * 2.0 ** (-a / n), axis=1)

    return f


def _validate_master_args(alpha: float, n: int, per_stage_budget: int, horizon: int) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"modulus must lie in (0, 1) for the stage split, got {alpha}")
    if n < 1 or n != int(n):
        raise ValueError(f"dimension must be a positive integer, got {n}")
    if horizon < 1 or horizon != int(horizon):
        raise ValueError(f"horizon must be a positive integer, got {horizon}")
    if per_stage_budget < 0 or per_stage_budget != int(per_stage_budget):
        raise ValueError(f"per-stage budget must be a nonnegative integer, got {per_stage_budget}")


def _tied_swaps(bits: np.ndarray, fracs: np.ndarray, ceiled: np.ndarray) -> list[tuple]:
    """Schedules reachable by moving one ceil to an equal-fraction floored stage."""
    alternates = []
    floored = [t for t in range(bits.size) if t not in set(ceiled.tolist())]
    for i in ceiled:
        for j in floored:
            if abs(fracs[i] - fracs[j]) <= 1e-12:
                alt = bits.copy()
                alt[i] -= 1
                alt[j] += 1
                alternates.append(tuple(int(b) for b in alt))
    seen = set()
    uniq = []
    for t in alternates:
        if t not in seen:
            seen.add(t)
            uniq.append(t)
    return uniq


def tvcoq_master(
    alpha: float,
    n: int,
    per_stage_budget: int,
    horizon: int,
    l_prime: float = 0.0,
) -> StageSchedule:
    """Split horizon*L bits across stages to minimize the horizon-end bound.

    Inside the validity regime (budget large enough that even stage 0's
    relaxed rate clears l_prime) the relaxed solution is the closed form
    L(t) = L + n log2(alpha) ((horizon-1)/2 - t) and fractional-part
    rounding of it is integer-optimal.  Outside the regime the split
    falls back to exhaustive search (small instances) or a greedy
    stage-wise allocation, and is flagged accordingly.
    """
    _validate_master_args(alpha, n, per_stage_budget, horizon)
    if l_prime < 0:
        raise ValueError(f"threshold must be nonnegative, got {l_prime}")
    L, T = int(per_stage_budget), int(horizon)
    total = T * L
    slope = -n * math.log2(alpha)  # > 0: later stages get more bits
    required = l_prime + slope * (T - 1) / 2.0
    in_regime = L >= required - 1e-9

    t_idx = np.arange(T, dtype=float)
    relaxed = L + n * math.log2(alpha) * ((T - 1) / 2.0 - t_idx)
    objective = master_objective(alpha, n)

    alternates: list[tuple] = []
    if in_regime:
        # Ties at the cutoff prefer the larger snapped rate (the later
        # stage), which keeps the schedule lexicographically smallest.
        snapped = _snap_integers(relaxed)
        bits, ceiled = _round_by_fractions(relaxed, total, snapped)
        alternates = _tied_swaps(bits, snapped - np.floor(snapped), ceiled)
    elif math.comb(total + T - 1, T - 1) <= _FALLBACK_ORACLE_LIMIT:
        best = allocation_oracle(objective, T, total)
        bits = np.asarray(best.allocation, dtype=int)
    else:
        # Separable convex objective: place bits one at a time where the
        # current marginal reduction is largest.
        bits = np.zeros(T, dtype=int)
        t_pow = alpha ** (-t_idx)
        for _ in range(total):
            reduction = t_pow * (2.0 ** (-bits / n)) * (1.0 - 2.0 ** (-1.0 / n))
            bits[int(np.argmax(reduction))] += 1

    value = float(objective(bits)[0])
    return StageSchedule(
        alpha=alpha,
        n=n,
        per_stage_budget=L,
        horizon=T,
        rates=tuple(int(b) for b in bits),
        relaxed_rates=tuple(relaxed),
        in_regime=bool(in_regime),
        required_min_bits=float(required),
        objective_value=value,
        tied_alternates=tuple(alternates),
    )


def tvcoq_design(
    part: BlockPartition,
    spec: NormSpec,
    box: BoxDomain,
    per_stage_budget: int,
    horizon: int,
    alpha: float,
    mode: str,
) -> StageSchedule:
    """Master split plus one time-invariant design per stage.

    mode selects the per-stage solver: "sq-wmax", "sq-lp", or "vq".  The
    master problem uses the matching high-rate threshold, so stage rates
    stay inside the regime where the per-stage optimum follows the
    eta * 2^(-L(t)/n) law whenever the budget allows.
    """
    if mode == "sq-wmax":
        constants = DesignConstants(kind="sq-wmax", c=tuple(sq_wmax_constants(part, spec, box)))
    elif mode == "sq-lp":
        c, p = sq_lp_constants(part, spec, box)
        constants = DesignConstants(kind="sq-lp", c=tuple(c), p=p, block_sizes=part.block_sizes)
    elif mode == "vq":
        d = vq_constants(part, spec.block_weights, box)
        constants = DesignConstants(kind="vq", d=tuple(d), block_sizes=part.block_sizes)
    else:
        raise ValueError(f"unknown design mode {mode!r}")

    l_prime = tradeoff_threshold(constants)
    schedule = tvcoq_master(alpha, part.n, per_stage_budget, horizon, l_prime=l_prime)

    allocations = []
    banks = []
    e_stars = []
    for L_t in schedule.rates:
        alloc = ticoq_design(part, spec, box, int(L_t), mode)
        allocations.append(alloc)
        banks.append(bank_for_allocation(part, box, alloc))
        e_stars.append(alloc.integer_value)
    schedule.allocations = tuple(allocations)
    schedule.banks = tuple(banks)
    schedule.e_stars = tuple(e_stars)
    return schedule


def schedule_objective(schedule: StageSchedule) -> float:
    """alpha^(T-1) sum_t alpha^(-t) ||e*_t||: the design-time horizon bound."""
    if schedule.e_stars is None:
        raise ValueError("schedule has no per-stage designs; run tvcoq_design")
    alpha, T = schedule.alpha, schedule.horizon
    return float(
        alpha ** (T - 1)
        * sum(alpha ** (-t) * schedule.e_stars[t] for t in range(T))
    )


def tvcoq_error_bound(
    alpha: float,
    n: int,
    per_stage_budget: float,
    horizon: int,
    eta: float,
) -> float:
    """Horizon-end worst-case error bound T alpha^((T-1)/2) eta 2^(-L/n)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"modulus must lie in (0, 1), got {alpha}")
    if horizon < 1 or horizon != int(horizon):
        raise ValueError(f"horizon must be a positive integer, got {horizon}")
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if eta <= 0:
        raise ValueError(f"prefactor must be positive, got {eta}")
    T = int(horizon)
    return float(T * alpha ** ((T - 1) / 2.0) * eta * 2.0 ** (-per_stage_budget / n))
