"""Time-varying rate schedules across a finite iteration horizon.

With a fixed per-iteration budget L, spending the same L bits at every
step wastes precision early (the iterate is still far from the fixed
point) and starves late steps.  The master problem splits a total of
T*L bits across the T stages to minimize the horizon-end error bound

    sum_t alpha^(-t) 2^(-L(t)/n),

whose relaxed solution is linear in t — later stages earn more bits at
a slope set by the contraction modulus.  Each distinct stage rate L(t)
then gets one time-invariant design at that budget.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .norms import BlockPartition, BoxDomain, NormSpec
from .ticoq import (
    _max_term_bits,
    _snap_integers,
    bank_for_allocation,
    ticoq_design,
    tradeoff_threshold,
)


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


def _round_by_fractions(
    relaxed: np.ndarray, budget: int, rank_weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Floor everywhere, then ceil the entries with the largest fractional parts.

    The number of ceils is fixed by the budget (sum of fractional parts is
    an integer in exact arithmetic); ties at the cutoff prefer the entry
    with the larger rank weight, then the lower index.  Returns the integer
    allocation and the indices that were ceiled, in ceiling order.
    """
    snapped = _snap_integers(relaxed)
    floors = np.floor(snapped)
    fracs = snapped - floors
    extra = budget - int(np.round(float(np.sum(floors))))
    if extra < 0 or extra > relaxed.size:
        raise ValueError("relaxed solution violates the rate budget after snapping")
    order = sorted(
        range(relaxed.size), key=lambda m: (-fracs[m], -rank_weight[m], m)
    )
    ceiled = np.array(order[:extra], dtype=int)
    bits = floors.astype(int)
    bits[ceiled] += 1
    return bits, ceiled


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
    rounding of it is integer-optimal.  Outside the regime the split is
    flagged and made by marginal analysis: each bit goes to the stage of
    largest alpha^(-t) 2^(-L(t)/n), whose next bit saves the most, which is
    exact for this separable convex objective.
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
    else:
        bits = _max_term_bits(alpha ** (-t_idx), np.full(T, float(n)), np.zeros(T), total)

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
    """Master split plus one time-invariant design per distinct stage rate.

    mode selects the per-stage solver: "sq-wmax", "sq-lp", or "vq".  The
    master problem uses the threshold of the mode's constants, read from its
    0-bit design, so stage rates stay inside the regime where the per-stage
    optimum follows the eta * 2^(-L(t)/n) law whenever the budget allows.
    Stages with equal rates share one allocation and one bank.
    """
    base = ticoq_design(part, spec, box, 0, mode)
    l_prime = tradeoff_threshold(base.constants)
    schedule = tvcoq_master(alpha, part.n, per_stage_budget, horizon, l_prime=l_prime)

    designs = {}
    for L_t in schedule.rates:
        if L_t not in designs:
            alloc = base if L_t == 0 else ticoq_design(part, spec, box, L_t, mode)
            designs[L_t] = (alloc, bank_for_allocation(part, box, alloc))
    schedule.allocations = tuple(designs[L_t][0] for L_t in schedule.rates)
    schedule.banks = tuple(designs[L_t][1] for L_t in schedule.rates)
    schedule.e_stars = tuple(alloc.integer_value for alloc in schedule.allocations)
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
