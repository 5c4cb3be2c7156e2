import math

import numpy as np
import pytest

from qfix import tvcoq
from qfix.norms import BlockPartition, BoxDomain, Lp, NormSpec, WeightedMax
from qfix.ticoq import allocation_oracle, relaxed_eta, ticoq_design, tradeoff_threshold
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
    for t, r in enumerate(sched.relaxed_rates):
        expected = budget + n * math.log2(alpha) * ((horizon - 1) / 2 - t)
        assert r == pytest.approx(expected, rel=1e-12)
    # arithmetic progression averaging to the per-stage budget
    assert np.mean(sched.relaxed_rates) == pytest.approx(budget, rel=1e-12)


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
    # fallback still matches the exhaustive optimum
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
    threshold = tradeoff_threshold(alloc0.constants)
    eta = relaxed_eta(alloc0.constants)
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
def test_design_runs_one_ticoq_design_per_distinct_rate(monkeypatch, mode, L, T, alpha):
    part = BlockPartition([2, 2])
    per_block = (Lp(2.0), Lp(2.0)) if mode != "sq-wmax" else (WeightedMax([1.0, 0.5]),) * 2
    spec = NormSpec((1.0, 2.0), per_block)
    box = BoxDomain([(0.0, 1.0), (-1.0, 3.0), (0.0, 2.0), (0.0, 0.5)])
    rates_designed = []

    def counting(part, spec, box, total_bits, mode):
        rates_designed.append(total_bits)
        return ticoq_design(part, spec, box, total_bits, mode)

    monkeypatch.setattr(tvcoq, "ticoq_design", counting)
    sched = tvcoq_design(part, spec, box, L, T, alpha, mode)
    distinct = set(sched.rates)
    assert sorted(rates_designed) == sorted(distinct | {0})
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


def test_json_export_round_trip_fields():
    sched = tvcoq_master(0.5, 1, 3, 2)
    import json

    doc = json.loads(sched.to_json())
    assert doc["alpha"] == 0.5
    assert doc["T"] == 2
    assert doc["L"] == 3
    assert doc["in_regime"] is True
    assert [s["L_t"] for s in doc["stages"]] == [2, 4]
