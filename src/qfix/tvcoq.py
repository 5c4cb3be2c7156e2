"""Time-varying rate schedules across a finite iteration horizon.

With a fixed per-iteration budget L, spending the same L bits at every
step wastes precision early (the iterate is still far from the fixed
point) and starves late steps.  The master problem splits a total of
T*L bits across the T stages to minimize the horizon-end error bound

    sum_t alpha^(-t) 2^(-L(t)/n),

whose relaxed solution is linear in t on the stages it funds — later
stages earn more bits at a slope set by the contraction modulus — and 0
before them.  Every stage rate L(t) then reads its time-invariant design
off one rate frontier walked to the largest stage rate.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .engine import accumulated_error
from .norms import BlockPartition, BoxDomain, NormSpec
from .squant import _rate
from .ticoq import RateFrontier, _family, _order, bank_for_allocation, tradeoff_threshold

_TIED_LISTED = 64  # tied alternates a schedule lists; it counts them all


class StageSchedule:
    """Per-stage sum rates (and optionally full designs) over a horizon.

    per_stage_budget: the L whose horizon total T*L is being split
    rates: the integer L(t), t = 0..horizon-1
    in_regime: whether the closed form's validity condition held
    required_min_bits: the smallest per-stage budget the closed form needs
    objective_value: sum_t alpha^(-t) 2^(-L(t)/n)
    tied_alternates: other integer schedules with the same objective, the first _TIED_LISTED
    tied_alternates_total: how many there are (default: as many as listed)
    allocations, banks, e_stars: per stage, the RateAllocation, QuantizerBank and design
        optimum value (tvcoq_design)
    """

    def __init__(
        self, alpha: float, n: int, per_stage_budget: int, horizon: int, rates: tuple,
        relaxed_rates: tuple, in_regime: bool, required_min_bits: float, objective_value: float,
        tied_alternates: tuple = (), allocations: Optional[tuple] = None, banks: Optional[tuple] = None,
        e_stars: Optional[tuple] = None, tied_alternates_total: Optional[int] = None,
    ):
        if len(rates) != horizon:
            raise ValueError(f"{len(rates)} stage rates for horizon {horizon}")
        if any(r < 0 or r != int(r) for r in rates):
            raise ValueError("stage rates must be nonnegative integers")
        total = horizon * per_stage_budget
        if sum(rates) != total:
            raise ValueError(f"stage rates sum to {sum(rates)}, expected {total}")
        self.alpha, self.n, self.per_stage_budget, self.horizon = alpha, n, per_stage_budget, horizon
        self.rates, self.relaxed_rates, self.in_regime = rates, relaxed_rates, in_regime
        self.required_min_bits, self.objective_value = required_min_bits, objective_value
        if tied_alternates_total is None:
            tied_alternates_total = len(tied_alternates)
        self.tied_alternates, self.tied_alternates_total = tied_alternates, tied_alternates_total
        self.allocations, self.banks, self.e_stars = allocations, banks, e_stars

    def as_dict(self) -> dict:
        stages = []
        for t in range(self.horizon):
            stage = {"t": t, "L_t": int(self.rates[t])}
            if self.allocations is not None:
                stage["allocation"] = self.allocations[t].as_dict()
            if self.e_stars is not None:
                stage["e_star"] = self.e_stars[t]
            stages.append(stage)
        return {
            "alpha": self.alpha,
            "T": self.horizon,
            "L": self.per_stage_budget,
            "n": self.n,
            "in_regime": self.in_regime,
            "objective": self.objective_value,
            "stages": stages,
        }


def master_objective(alpha: float, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """sum_t alpha^(-t) 2^(-L_t/n) over rows of stage-rate matrices."""
    def f(allocs: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(allocs, dtype=float))
        t = np.arange(a.shape[1], dtype=float)
        return np.sum(alpha ** (-t) * 2.0 ** (-a / n), axis=1)

    return f


def _check_size_and_horizon(n: int, horizon: int) -> None:
    if not (n >= 1 and float(n).is_integer()):
        raise ValueError(f"dimension must be a positive integer, got {n}")
    if not (horizon >= 1 and float(horizon).is_integer()):
        raise ValueError(f"horizon must be a positive integer, got {horizon}")


def _validate_master_args(alpha: float, n: int, per_stage_budget: int, horizon: int) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"modulus must lie in (0, 1) for the stage split, got {alpha}")
    _check_size_and_horizon(n, horizon)
    # The objective's discounts sum to less than alpha^-(T-1) / (1 - alpha) = 2^this.
    if (horizon - 1) * -math.log2(alpha) - math.log2(1.0 - alpha) >= 1024:
        raise ValueError(f"horizon {horizon} at alpha = {alpha}: the stage discounts alpha^-t overflow float64")
    if not (per_stage_budget >= 0 and float(per_stage_budget).is_integer()):
        raise ValueError(f"per-stage budget must be a nonnegative integer, got {per_stage_budget}")


def horizon_total(per_stage_budget: int, horizon: int) -> int:
    """T * L; ValueError past 2^53, the last total whose float64 floors and sums are exact."""
    total = int(per_stage_budget) * int(horizon)
    if total > 2**53:
        raise ValueError(f"horizon total T * L = {horizon} * {per_stage_budget} = {total} bits is past 2^53, "
                         "where the stage split's float64 rates stop being exact integers")
    return total


def _round_by_fractions(relaxed: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Floor everywhere, then ceil the entries with the largest fractional parts.

    Fractional parts within 1e-9 of an integer are cleared first.  The
    number of ceils is fixed by the budget (sum of fractional parts is an
    integer in exact arithmetic); ties at the cutoff prefer the entry with
    the larger rate (the later stage), then the lower index.  Returns the
    integer allocation, the fractional parts and the indices that were
    ceiled, in ceiling order.
    """
    rounded = np.round(relaxed)
    snapped = np.maximum(np.where(np.abs(relaxed - rounded) <= 1e-9, rounded, relaxed), 0.0)
    floors = np.floor(snapped)
    fracs = snapped - floors
    extra = budget - int(np.round(float(np.sum(floors))))
    if extra < 0 or extra > relaxed.size:
        raise ValueError("relaxed solution violates the rate budget after snapping")
    ceiled = np.lexsort((-snapped, -fracs))[:extra]  # a stable sort: the lower index on full ties
    bits = floors.astype(int)
    bits[ceiled] += 1
    return bits, fracs, ceiled


def _tied_swaps(bits: np.ndarray, fracs: np.ndarray, ceiled: np.ndarray) -> tuple[list[tuple], int]:
    """Schedules reachable by moving one ceil to an equal-fraction floored stage, and their count.

    Each pair (ceiled stage i, floored stage j) with fractions within 1e-12
    gives one schedule, a distinct one since i != j.  They are listed by i in
    ceiling order, then j ascending, and only the first _TIED_LISTED are
    built: an evenly split horizon of T stages ties T^2 / 4 pairs.
    """
    floored = np.ones(bits.size, dtype=bool)
    floored[ceiled] = False
    floored = np.flatnonzero(floored)
    floored = floored[np.argsort(fracs[floored], kind="stable")]
    # Candidates within 2e-12 in sorted order hold every tie, so the work grows with the ties, not T^2.
    lo = np.searchsorted(fracs[floored], fracs[ceiled] - 2e-12)
    width = np.searchsorted(fracs[floored], fracs[ceiled] + 2e-12, "right") - lo
    rank = np.repeat(np.arange(ceiled.size), width)  # each candidate's i, in ceiling order
    j = floored[np.arange(rank.size) + np.repeat(lo + width - np.cumsum(width), width)]
    tied = np.abs(fracs[ceiled[rank]] - fracs[j]) <= 1e-12
    rank, j = rank[tied], j[tied]
    alternates = []
    for k in np.lexsort((j, rank))[:_TIED_LISTED]:
        alt = bits.copy()
        alt[ceiled[rank[k]]] -= 1
        alt[j[k]] += 1
        alternates.append(tuple(int(b) for b in alt))
    return alternates, int(rank.size)


def tvcoq_master(
    alpha: float,
    n: int,
    per_stage_budget: int,
    horizon: int,
    l_prime: float = 0.0,
) -> StageSchedule:
    """Split horizon*L bits across stages to minimize the horizon-end bound.

    The relaxed optimum is water-filling with a floor at zero.  With slope
    s = -n log2(alpha) it funds the last m stages at
    T L / m + s (t - (2T - m - 1) / 2), m the largest count whose first
    funded stage is nonnegative, and gives earlier stages 0.  In the regime
    (stage 0's relaxed rate clears l_prime) m = T: the paper's closed form
    L + n log2(alpha) ((T-1)/2 - t), bit for bit.  The integer optimum is
    ceil(s t - tau)^+ for a level tau within a bit of the relaxed one, so
    fractional-part rounding is exact in both regimes.
    """
    _validate_master_args(alpha, n, per_stage_budget, horizon)
    if not l_prime >= 0:
        raise ValueError(f"threshold must be nonnegative, got {l_prime}")
    L, T = int(per_stage_budget), int(horizon)
    total = horizon_total(L, T)
    slope = -n * math.log2(alpha)  # > 0: later stages get more bits
    required = l_prime + slope * (T - 1) / 2.0
    in_regime = L >= required - 1e-9

    t_idx = np.arange(T, dtype=float)  # m = t + 1 stages fit if T L / m >= s (m - 1) / 2, as in_regime
    m = int(np.count_nonzero(total / (t_idx + 1) >= slope * t_idx / 2.0 - 1e-9))
    relaxed = np.where(t_idx >= T - m, total / m + slope * (t_idx - (2 * T - m - 1) / 2.0), 0.0)
    bits, fracs, ceiled = _round_by_fractions(relaxed, total)
    alternates, tied_total = _tied_swaps(bits, fracs, ceiled)

    value = float(master_objective(alpha, n)(bits)[0])
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
        tied_alternates_total=tied_total,
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
    """Master split plus every stage's time-invariant design, from one walk.

    mode selects the per-stage family: "sq-wmax", "sq-lp", or "vq".  The
    master problem uses the threshold of the family's constants, so stage
    rates stay inside the regime where the per-stage optimum follows the
    eta * 2^(-L(t)/n) law whenever the budget allows.  One frontier walked
    to the largest stage rate yields every stage's design, since each prefix
    of the walk is its own budget's design.  Stages with equal rates share
    one allocation and one bank.  A stage rate whose even split puts 1024
    bits or more on an entry is left out of the walk and refused, as is a
    rate a bank refuses; either refusal names the first stage with its rate.
    """
    family = _family(part, spec, box, mode)
    schedule = tvcoq_master(alpha, part.n, per_stage_budget, horizon, l_prime=tradeoff_threshold(family))
    entries = len(family.const)
    walked = [L_t for L_t in schedule.rates if L_t <= 1023 * entries]  # even splits below 1024 bits an entry
    frontier = RateFrontier(family, _order(family, max(walked, default=0)))
    allocs = {L_t: frontier.allocation(L_t) for L_t in dict.fromkeys(walked)}
    banks = {}
    for t, L_t in enumerate(schedule.rates):
        if L_t not in banks:
            try:
                if L_t not in allocs:  # left out of the walk: its even split fails the cap
                    _rate(-(-L_t // entries))
                banks[L_t] = bank_for_allocation(part, box, allocs[L_t])
            except ValueError as e:
                T, L = schedule.horizon, schedule.per_stage_budget
                raise ValueError(f"stage {t} of T = {T} at L = {L}, with L(t) = {L_t} bits: {e}") from e
    schedule.allocations = tuple(allocs[L_t] for L_t in schedule.rates)
    schedule.banks = tuple(banks[L_t] for L_t in schedule.rates)
    schedule.e_stars = tuple(alloc.integer_value for alloc in schedule.allocations)
    return schedule


def schedule_objective(schedule: StageSchedule) -> float:
    """E(T) over the stage optima: sum_t alpha^(T-1-t) ||e*_t||, the design-time horizon bound."""
    if schedule.e_stars is None:
        raise ValueError("schedule has no per-stage designs; run tvcoq_design")
    return accumulated_error(schedule.alpha, schedule.e_stars)


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
    _check_size_and_horizon(n, horizon)
    if not (0.0 < eta < math.inf):
        raise ValueError(f"prefactor must be positive and finite, got {eta}")
    if not (0.0 <= per_stage_budget < math.inf):
        raise ValueError(f"per-stage budget must be nonnegative and finite, got {per_stage_budget}")
    T = int(horizon)
    return float(T * alpha ** ((T - 1) / 2.0) * eta * 2.0 ** (-per_stage_budget / n))
