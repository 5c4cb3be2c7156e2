import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import tied_swaps
from qfix import tvcoq
from qfix.engine import accumulated_error
from qfix.norms import BlockPartition, BoxDomain, Lp, NormSpec, WeightedMax
from qfix.ticoq import (
    DesignConstants,
    _order,
    allocation_oracle,
    relaxed_eta,
    ticoq_design,
    tradeoff_threshold,
)
from qfix.tvcoq import (
    master_objective,
    schedule_objective,
    tvcoq_design,
    tvcoq_error_bound,
    tvcoq_master,
)


def test_master_worked_instance():
    sched = tvcoq_master(0.5, 1, 3, 2)
    assert sched.rates == (2, 4)
    assert sched.objective_value == pytest.approx(0.375, rel=1e-12)
    assert sched.in_regime
    assert np.allclose(sched.relaxed_rates, [2.5, 3.5], atol=1e-12)
    # the alternate schedule with the same objective is surfaced
    assert (3, 3) in sched.tied_alternates
    alt_val = master_objective(0.5, 1)(np.array([3, 3]))[0]
    assert alt_val == pytest.approx(0.375, rel=1e-12)


def test_master_single_stage():
    sched = tvcoq_master(0.7, 2, 5, 1)
    assert sched.rates == (5,)
    assert sched.objective_value == pytest.approx(2.0 ** (-5 / 2), rel=1e-12)


def test_master_budget_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        alpha = float(rng.uniform(0.15, 0.95))
        n = int(rng.integers(1, 4))
        budget = int(rng.integers(0, 9))
        horizon = int(rng.integers(1, 7))
        sched = tvcoq_master(alpha, n, budget, horizon)
        assert sum(sched.rates) == horizon * budget
        assert all(r >= 0 for r in sched.rates)


def test_master_rates_nondecreasing_in_regime():
    rng = np.random.default_rng(1)
    for _ in range(40):
        alpha = float(rng.uniform(0.3, 0.9))
        n = int(rng.integers(1, 3))
        horizon = int(rng.integers(2, 7))
        slope = -n * math.log2(alpha)
        budget = int(math.ceil(slope * (horizon - 1) / 2)) + int(rng.integers(0, 4))
        sched = tvcoq_master(alpha, n, budget, horizon)
        assert sched.in_regime
        assert all(a <= b for a, b in zip(sched.rates, sched.rates[1:]))


def test_master_relaxed_rates_closed_form():
    alpha, n, budget, horizon = 0.4, 2, 7, 5
    sched = tvcoq_master(alpha, n, budget, horizon)
    t = np.arange(horizon, dtype=float)
    assert sched.relaxed_rates == tuple(budget + n * math.log2(alpha) * ((horizon - 1) / 2 - t))
    # arithmetic progression averaging to the per-stage budget
    assert np.mean(sched.relaxed_rates) == pytest.approx(budget, rel=1e-12)


@given(st.floats(0.05, 0.99), st.integers(1, 8), st.integers(0, 20), st.integers(1, 60))
def test_in_regime_relaxed_rates_are_the_papers_closed_form_bit_for_bit(alpha, n, extra, T):
    """Every stage is funded in regime, so the water-filled line is L + n log2(alpha) ((T-1)/2 - t)."""
    L = math.ceil(-n * math.log2(alpha) * (T - 1) / 2) + extra
    sched = tvcoq_master(alpha, n, L, T)
    closed = L + n * math.log2(alpha) * ((T - 1) / 2.0 - np.arange(T, dtype=float))
    assert sched.in_regime
    assert np.asarray(sched.relaxed_rates).tobytes() == closed.tobytes()
    assert np.all(np.abs(np.asarray(sched.rates) - closed) < 1 + 1e-9) and sum(sched.rates) == T * L


@given(st.floats(0.05, 0.99), st.integers(1, 4), st.integers(0, 30), st.integers(1, 60))
def test_master_split_equals_the_per_bit_walk_in_both_regimes(alpha, n, L, T):
    """Marginal analysis, each bit to the stage of largest alpha^-t 2^(-L(t)/n), is exact for this
    separable convex objective. The split matches its value to float rounding of exactly tied terms."""
    sched = tvcoq_master(alpha, n, L, T)
    t = np.arange(T, dtype=float)
    walk = np.bincount(_order(DesignConstants("vq", tuple(alpha ** -t), (n,) * T), T * L), minlength=T)
    value = master_objective(alpha, n)(walk)[0]
    assert abs(sched.objective_value - value) <= 4 * math.ulp(value)


def test_master_near_one_modulus_small_spread():
    sched = tvcoq_master(0.99, 1, 6, 8)
    spread = max(sched.rates) - min(sched.rates)
    assert spread <= 1 * (8 - 1) * abs(math.log2(0.99)) + 1.0


def test_master_out_of_regime_fallback():
    # steep slope, tiny budget: the closed form would go negative
    sched = tvcoq_master(0.3, 2, 1, 6)
    required = 2 * (-math.log2(0.3)) * (6 - 1) / 2
    assert sched.required_min_bits == pytest.approx(required, rel=1e-12)
    assert not sched.in_regime
    assert sum(sched.rates) == 6
    # the clipped split still matches the exhaustive optimum
    oracle = allocation_oracle(master_objective(0.3, 2), 6, 6)
    assert sched.objective_value == oracle.value


def test_master_matches_oracle_batch():
    rng = np.random.default_rng(2)
    for _ in range(60):
        alpha = float(rng.uniform(0.3, 0.9))
        n = int(rng.integers(1, 3))
        budget = int(rng.integers(0, 9))
        horizon = int(rng.integers(1, 6))
        sched = tvcoq_master(alpha, n, budget, horizon)
        oracle = allocation_oracle(master_objective(alpha, n), horizon, horizon * budget)
        assert sched.objective_value == oracle.value


def test_master_split_reads_an_ulp_above_the_oracle_where_terms_tie_exactly():
    """At alpha = 1/2 and n = 3, (1, 4, 8, 11) and (2, 5, 7, 10) have the same terms in exact
    arithmetic, 2^(-1/3) and 2^(-2/3) twice each; float64 rounds the two sums 1 ulp apart."""
    sched = tvcoq_master(0.5, 3, 6, 4)
    oracle = allocation_oracle(master_objective(0.5, 3), 4, 24)
    assert sched.in_regime and sched.rates == (1, 4, 8, 11) and oracle.allocation == (2, 5, 7, 10)
    assert (sched.objective_value, oracle.value) == (2.8473221018630728, 2.8473221018630723)
    assert sched.objective_value - oracle.value == math.ulp(oracle.value)


def test_master_splits_a_long_out_of_regime_horizon_in_one_pass():
    """At (0.99, 3, 400, 20000) the split funds the last 19,179 stages. Handing its 8,000,000 bits
    out one at a time took 11.5 s."""
    tvcoq_master(0.99, 3, 400, 20_000)  # warm
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        sched = tvcoq_master(0.99, 3, 400, 20_000)
        elapsed.append(time.perf_counter() - start)
    assert not sched.in_regime and sum(sched.rates) == 8_000_000
    assert sched.relaxed_rates[:821] == (0.0,) * 821 and sched.relaxed_rates[821] > 0
    assert all(a <= b for a, b in zip(sched.rates, sched.rates[1:]))
    assert min(elapsed) < 0.1


def test_master_validation():
    with pytest.raises(ValueError):
        tvcoq_master(1.0, 1, 3, 2)
    with pytest.raises(ValueError):
        tvcoq_master(0.5, 0, 3, 2)
    with pytest.raises(ValueError):
        tvcoq_master(0.5, 1, -1, 2)
    with pytest.raises(ValueError):
        tvcoq_master(0.5, 1, 3, 0)
    with pytest.raises(ValueError):
        tvcoq_master(0.5, 1, 3, 2, l_prime=-0.5)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 2.5])
def test_master_refuses_non_integer_sizes_with_its_own_message(bad):
    """An infinite size once raised OverflowError from int(), a NaN one "cannot convert"."""
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        tvcoq_master(0.5, bad, 3, 2)
    with pytest.raises(ValueError, match="per-stage budget must be a nonnegative integer"):
        tvcoq_master(0.5, 1, bad, 2)
    with pytest.raises(ValueError, match="horizon must be a positive integer"):
        tvcoq_master(0.5, 1, 3, bad)
    with pytest.raises(ValueError, match="horizon must be a positive integer"):
        tvcoq_error_bound(0.5, 1, 6, bad, 1.7)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0.5, 4, 8, 3, math.nan), "prefactor must be positive and finite, got nan"),
        ((0.5, 4, 8, 3, math.inf), "prefactor must be positive and finite, got inf"),
        ((0.5, 4, 8, 3, 0.0), "prefactor must be positive and finite, got 0.0"),
        ((0.5, math.nan, 8, 3, 1.7), "dimension must be a positive integer, got nan"),
        ((0.5, 2.5, 8, 3, 1.7), "dimension must be a positive integer, got 2.5"),
        ((0.5, 4, math.nan, 3, 1.7), "per-stage budget must be nonnegative and finite, got nan"),
        ((0.5, 4, math.inf, 3, 1.7), "per-stage budget must be nonnegative and finite, got inf"),
        ((0.5, 4, -1.0, 3, 1.7), "per-stage budget must be nonnegative and finite, got -1.0"),
    ],
)
def test_error_bound_refuses_nan_and_infinite_arguments(args, message):
    """NaN eta, n or budget once gave a NaN bound, and eta = inf an infinite one."""
    with pytest.raises(ValueError, match=re.escape(message)):
        tvcoq_error_bound(*args)


def test_master_refuses_a_nan_threshold():
    """A NaN threshold was once accepted and gave required_min_bits NaN."""
    with pytest.raises(ValueError, match="threshold must be nonnegative, got nan"):
        tvcoq_master(0.5, 1, 3, 2, l_prime=math.nan)


def _wmax_problem():
    part = BlockPartition([1, 1])
    spec = NormSpec((1.0, 1.0), (WeightedMax([1.0]), WeightedMax([1.0])))
    box = BoxDomain([(0.0, 1.0), (0.0, 4.0)])
    return part, spec, box


def test_design_end_to_end_wmax():
    part, spec, box = _wmax_problem()
    sched = tvcoq_design(part, spec, box, 6, 4, 0.5, "sq-wmax")
    assert len(sched.banks) == 4
    assert len(sched.allocations) == 4
    assert sum(sched.rates) == 24
    # per-stage designed errors follow the closed-form law above threshold
    alloc0 = sched.allocations[0]
    threshold = tradeoff_threshold(alloc0.family)
    eta = relaxed_eta(alloc0.family)
    for rate, e_star in zip(sched.rates, sched.e_stars):
        if rate >= threshold:
            relaxed_law = eta * 2.0 ** (-rate / part.n)
            assert e_star >= relaxed_law - 1e-12
            assert e_star <= relaxed_law * 2.0 ** (1 / part.n) + 1e-12


def test_design_objective_dominates_flat_schedule():
    part, spec, box = _wmax_problem()
    for mode in ("sq-wmax", "sq-lp"):
        spec_used = (
            spec if mode == "sq-wmax"
            else NormSpec((1.0, 1.0), (Lp(2.0), Lp(2.0)))
        )
        sched = tvcoq_design(part, spec_used, box, 5, 4, 0.6, mode)
        staged = schedule_objective(sched)
        flat = tvcoq_design(part, spec_used, box, 5, 1, 0.6, mode)
        flat_e = flat.e_stars[0]
        flat_total = sum(0.6 ** (4 - 1 - t) * flat_e for t in range(4))
        assert staged <= flat_total + 1e-12


def test_design_vq_mode():
    part = BlockPartition([2, 2])
    spec = NormSpec((1.0, 1.0), (Lp(2.0), Lp(2.0)))
    box = BoxDomain([(0.0, 1.0)] * 4)
    sched = tvcoq_design(part, spec, box, 6, 3, 0.5, "vq")
    assert len(sched.banks) == 3
    assert sum(sched.rates) == 18
    with pytest.raises(ValueError):
        wrong = NormSpec((1.0, 1.0), (WeightedMax([1.0, 1.0]), Lp(2.0)))
        tvcoq_design(part, wrong, box, 6, 3, 0.5, "vq")


@pytest.mark.parametrize(
    "mode, L, T, alpha",
    [("sq-lp", 6, 12, 0.95), ("sq-wmax", 1, 9, 0.3), ("vq", 0, 4, 0.5), ("vq", 8, 10, 0.8)],
)
def test_design_walks_one_frontier_for_every_distinct_rate(monkeypatch, mode, L, T, alpha):
    part = BlockPartition([2, 2])
    per_block = (Lp(2.0), Lp(2.0)) if mode != "sq-wmax" else (WeightedMax([1.0, 0.5]),) * 2
    spec = NormSpec((1.0, 2.0), per_block)
    box = BoxDomain([(0.0, 1.0), (-1.0, 3.0), (0.0, 2.0), (0.0, 0.5)])
    walks = []

    def counting(family, budget):
        walks.append(budget)
        return _order(family, budget)

    monkeypatch.setattr(tvcoq, "_order", counting)
    sched = tvcoq_design(part, spec, box, L, T, alpha, mode)
    assert walks == [max(sched.rates)]  # the threshold's constants need no walk
    for t, rate in enumerate(sched.rates):
        first = sched.rates.index(rate)
        assert sched.allocations[t] is sched.allocations[first]
        assert sched.banks[t] is sched.banks[first]
        fresh = ticoq_design(part, spec, box, rate, mode)
        assert sched.allocations[t].as_dict() == fresh.as_dict()
        assert sched.e_stars[t] == fresh.integer_value


def test_design_refuses_a_mode_before_the_master_split(monkeypatch):
    def master(*args, **kwargs):
        raise AssertionError("the master split ran")

    monkeypatch.setattr(tvcoq, "tvcoq_master", master)
    part = BlockPartition([2, 2])
    wrong = NormSpec((1.0, 1.0), (WeightedMax([1.0, 1.0]), Lp(2.0)))
    box = BoxDomain([(0.0, 1.0)] * 4)
    with pytest.raises(ValueError, match="lattice designs require L_p block norms"):
        tvcoq_design(part, wrong, box, 6, 3, 0.5, "vq")


def test_design_names_the_first_stage_whose_rate_no_bank_takes():
    """At T = L = 1000 and alpha = 0.5 one coordinate's stage rates run from 500 to 1,500 bits."""
    part, box = BlockPartition([1]), BoxDomain([(-1.0, 1.0)])
    spec = NormSpec((1.0,), (WeightedMax([1.0]),))
    message = (
        "stage 523 of T = 1000 at L = 1000, with L(t) = 1024 bits: "
        "rate must be a nonnegative integer below 1024, got 1024"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        tvcoq_design(part, spec, box, 1000, 1000, 0.5, "sq-wmax")
    # The cap is per coordinate: two coordinates share a stage rate of 1,500 bits.
    part, box = BlockPartition([1, 1]), BoxDomain([(-1.0, 1.0)] * 2)
    spec = NormSpec((1.0, 1.0), (WeightedMax([1.0]), WeightedMax([1.0])))
    assert max(tvcoq_design(part, spec, box, 1500, 2, 0.5, "sq-wmax").rates) >= 1500


def test_design_rejects_unknown_mode():
    part, spec, box = _wmax_problem()
    with pytest.raises(ValueError):
        tvcoq_design(part, spec, box, 4, 2, 0.5, "nope")


def test_error_bound_algebra():
    eta = 1.7
    b1 = tvcoq_error_bound(0.5, 1, 6, 1, eta)
    assert b1 == pytest.approx(eta * 2.0**-6, rel=1e-12)
    b2 = tvcoq_error_bound(0.5, 1, 6, 2, eta)
    assert b2 / b1 == pytest.approx(2 * 0.5**0.5, rel=1e-12)
    # vanishing in the horizon once the budget spread compensates the decay
    values = [tvcoq_error_bound(0.5, 1, 8, t, eta) for t in (4, 8, 16, 32)]
    assert all(b < a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        tvcoq_error_bound(0.5, 1, 6, 0, eta)


def test_schedule_objective_discounts_stage_errors():
    part, spec, box = _wmax_problem()
    sched = tvcoq_design(part, spec, box, 6, 3, 0.5, "sq-wmax")
    expected = sum(
        0.5 ** (3 - 1 - t) * e for t, e in enumerate(sched.e_stars)
    )
    assert schedule_objective(sched) == pytest.approx(expected, rel=1e-12)


def test_schedule_objective_is_the_accumulated_error():
    part, spec, box = _wmax_problem()
    for T, alpha in ((1, 0.5), (3, 0.5), (7, 0.9)):
        sched = tvcoq_design(part, spec, box, 6, T, alpha, "sq-wmax")
        assert schedule_objective(sched) == accumulated_error(sched.alpha, sched.e_stars)


@pytest.mark.parametrize("alpha, first", [(0.5, 1024), (0.9, 6716)])
def test_master_refuses_a_horizon_whose_discounts_overflow(alpha, first):
    """tvcoq_master(0.5, 4, 8, 1100) gave objective NaN and one stage 4,300 bits. At T = 1024
    the discounts 0.5^-t fit float64, but their sum, the objective at L = 0, did not."""
    part, spec, box = _wmax_problem()
    for horizon in (first, 2 * first):
        for L in (0, 8):
            with pytest.raises(ValueError, match=f"horizon {horizon} at alpha = {alpha}: the stage"):
                tvcoq_master(alpha, 4, L, horizon)
        with pytest.raises(ValueError, match="the stage discounts alpha\\^-t overflow float64"):
            tvcoq_design(part, spec, box, 8, horizon, alpha, "sq-wmax")
    assert 0 < tvcoq_master(alpha, 1, 0, first - 1).objective_value < math.inf


def test_master_refuses_a_horizon_total_past_2_to_the_53():
    """At T = 5 and L = 2^70 the split's floors overflowed the int cast, a RuntimeWarning. Every
    integer up to 2^53 is a float64, so the split rounds a total of 2^53 bits exactly."""
    part, spec, box = _wmax_problem()
    for L, horizon in ((2**70, 5), (2**52 + 1, 2), (2**53 + 1, 1)):
        with pytest.raises(ValueError, match=re.escape(f"horizon total T * L = {horizon} * {L} = ")):
            tvcoq_master(0.5, 3, L, horizon)
        with pytest.raises(ValueError, match="is past 2\\^53, where the stage split's float64 rates"):
            tvcoq_design(part, spec, box, L, horizon, 0.5, "sq-wmax")
    sched = tvcoq_master(0.5, 1, 2**52, 2)
    assert sched.rates == (2**52, 2**52) and sched.in_regime


def test_json_export_round_trip_fields():
    sched = tvcoq_master(0.5, 1, 3, 2)
    doc = sched.as_dict()
    assert doc["alpha"] == 0.5
    assert doc["T"] == 2
    assert doc["L"] == 3
    assert doc["in_regime"] is True
    assert [s["L_t"] for s in doc["stages"]] == [2, 4]


def _unbounded_tied_swaps(sched):
    """The oracle's lazy listing of every tied alternate of a schedule, in or out of regime."""
    total = sched.horizon * sched.per_stage_budget
    return tied_swaps(*tvcoq._round_by_fractions(np.asarray(sched.relaxed_rates), total))


def test_an_evenly_split_horizon_lists_64_tied_alternates_and_counts_all():
    """alpha = 1/2, n = 1, L = T = 400: every stage's relaxed rate ends in 1/2, so each of the 200
    ceiled stages ties with each of the 200 floored ones. The list used to hold all 40,000
    schedules of 400 ints and take about 1 s."""
    tvcoq_master(0.5, 1, 400, 400)  # warm
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        sched = tvcoq_master(0.5, 1, 400, 400)
        elapsed.append(time.perf_counter() - start)
    assert sched.in_regime and sched.tied_alternates_total == 40_000
    assert list(sched.tied_alternates) == list(itertools.islice(_unbounded_tied_swaps(sched), 64))
    assert min(elapsed) < 0.1


@given(
    st.sampled_from([0.5, 0.25, 2**-0.5, 0.3, 0.9]),
    st.integers(1, 3),
    st.integers(0, 40),
    st.integers(1, 30),
)
def test_tied_alternates_are_the_unbounded_listings_prefix(alpha, n, L, T):
    """Under the cap the list is the whole listing, unchanged; over it, its first 64."""
    sched = tvcoq_master(alpha, n, L, T)
    every = list(_unbounded_tied_swaps(sched))
    assert list(sched.tied_alternates) == every[:64]
    assert sched.tied_alternates_total == len(every)
