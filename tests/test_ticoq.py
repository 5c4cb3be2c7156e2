import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfix import ticoq, tvcoq
from qfix.mimo import game_box, game_norm_spec, game_partition, paper_style_game
from qfix.norms import BlockPartition, BoxDomain, Lp, NormSpec, WeightedMax
from qfix.ticoq import (
    DesignConstants,
    allocation_oracle,
    bank_for_allocation,
    make_sq_bank,
    make_vq_bank,
    objective_for,
    relaxed_eta,
    sq_lp_constants,
    sq_lp_objective,
    sq_wmax_constants,
    sq_wmax_objective,
    ticoq_design,
    ticoq_sq_lp,
    ticoq_sq_wmax,
    ticoq_vq_lattice,
    tradeoff_threshold,
    tradeoff_value,
    uniform_sq_allocation,
    vq_constants,
    vq_lattice_objective,
)
from qfix.tvcoq import tvcoq_design, tvcoq_master
from qfix.vquant import covering_radius, fundamental_volume


def _wmax_problem(c):
    """Build partition/spec/box whose per-coordinate constants equal c (w=1, a=1)."""
    n = len(c)
    part = BlockPartition([1] * n)
    spec = NormSpec(tuple([1.0] * n), tuple(WeightedMax([1.0]) for _ in range(n)))
    box = BoxDomain([(0.0, 2.0 * v) for v in c])
    return part, spec, box


def _random_wmax_problem(rng, max_n=6, max_blocks=3):
    num_blocks = int(rng.integers(1, max_blocks + 1))
    sizes = list(rng.integers(1, max(2, max_n // num_blocks) + 1, size=num_blocks))
    part = BlockPartition(sizes)
    w = tuple(float(v) for v in rng.uniform(0.5, 2.0, num_blocks))
    per = tuple(
        WeightedMax(list(rng.uniform(0.5, 2.0, size))) for size in sizes
    )
    spec = NormSpec(w, per)
    box = BoxDomain(
        [(float(lo), float(lo + span)) for lo, span in
         zip(rng.uniform(-2, 2, part.n), rng.uniform(0.2, 5.0, part.n))]
    )
    return part, spec, box


def test_wmax_worked_instance():
    part, spec, box = _wmax_problem([0.5, 2.0])
    alloc = ticoq_sq_wmax(part, spec, box, 2)
    assert np.allclose(sq_wmax_constants(part, spec, box), [0.5, 2.0])
    assert alloc.bits == (0, 2)
    assert alloc.integer_value == pytest.approx(0.5)
    assert alloc.constants.tau == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(alloc.relaxed, [0.0, 2.0], atol=1e-9)
    assert alloc.relaxed_value == pytest.approx(0.5, abs=1e-9)


def test_wmax_zero_budget():
    part, spec, box = _wmax_problem([0.5, 2.0, 1.25])
    alloc = ticoq_sq_wmax(part, spec, box, 0)
    assert alloc.bits == (0, 0, 0)
    assert alloc.integer_value == pytest.approx(2.0)


def test_wmax_symmetric_equal_split():
    part, spec, box = _wmax_problem([1.5, 1.5, 1.5])
    alloc = ticoq_sq_wmax(part, spec, box, 9)
    assert alloc.bits == (3, 3, 3)


def test_wmax_fraction_rounding_beats_value_ranking():
    # C = (8, 3), L = 3: ranking by relaxed value would put all 3 bits on the
    # first coordinate (objective 3); fractional rounding yields (2, 1),
    # objective 2, which exhaustive search confirms optimal.
    part, spec, box = _wmax_problem([8.0, 3.0])
    alloc = ticoq_sq_wmax(part, spec, box, 3)
    assert alloc.bits == (2, 1)
    assert alloc.integer_value == pytest.approx(2.0)
    oracle = allocation_oracle(sq_wmax_objective([8.0, 3.0]), 2, 3)
    assert alloc.integer_value == oracle.value


def test_wmax_budget_constraint_and_water_level():
    rng = np.random.default_rng(0)
    for _ in range(50):
        part, spec, box = _random_wmax_problem(rng)
        total = int(rng.integers(0, 13))
        alloc = ticoq_sq_wmax(part, spec, box, total)
        relaxed = np.asarray(alloc.relaxed)
        assert abs(relaxed.sum() - total) <= 1e-9
        assert sum(alloc.bits) == total
        c = sq_wmax_constants(part, spec, box)
        tau = alloc.constants.tau
        active = relaxed > 1e-9
        # every coordinate holding bits sits exactly at the water level
        assert np.allclose(c[active] * 2.0 ** -relaxed[active], tau, rtol=1e-9)
        assert np.all(c[~active] <= tau * (1 + 1e-9))


def test_wmax_matches_oracle_batch():
    rng = np.random.default_rng(1)
    for _ in range(50):
        part, spec, box = _random_wmax_problem(rng)
        total = int(rng.integers(0, 13))
        alloc = ticoq_sq_wmax(part, spec, box, total)
        c = sq_wmax_constants(part, spec, box)
        oracle = allocation_oracle(sq_wmax_objective(c), part.n, total)
        assert alloc.integer_value == oracle.value


def test_wmax_scaling_invariance():
    part, spec, box = _wmax_problem([0.4, 1.1, 2.2])
    ref = ticoq_sq_wmax(part, spec, box, 7)
    scaled_box = BoxDomain([(3.0 * lo, 3.0 * hi) for lo, hi in box.intervals()])
    scaled = ticoq_sq_wmax(part, spec, scaled_box, 7)
    assert scaled.bits == ref.bits
    assert scaled.integer_value == pytest.approx(3.0 * ref.integer_value, rel=1e-12)
    assert np.allclose(scaled.relaxed, ref.relaxed, atol=1e-8)


def test_wmax_value_monotone_in_budget():
    part, spec, box = _wmax_problem([0.7, 1.9, 3.1])
    values = [ticoq_sq_wmax(part, spec, box, total).integer_value for total in range(12)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def _random_lp_problem(rng, p=None, max_n=4, max_blocks=2):
    num_blocks = int(rng.integers(1, max_blocks + 1))
    sizes = list(rng.integers(1, max(2, max_n // num_blocks) + 1, size=num_blocks))
    part = BlockPartition(sizes)
    if p is None:
        p = float(rng.choice([1.0, 2.0, 3.0]))
    w = tuple(float(v) for v in rng.uniform(0.5, 2.0, num_blocks))
    spec = NormSpec(w, tuple(Lp(p) for _ in range(num_blocks)))
    box = BoxDomain(
        [(float(lo), float(lo + span)) for lo, span in
         zip(rng.uniform(-2, 2, part.n), rng.uniform(0.2, 5.0, part.n))]
    )
    return part, spec, box


def test_lp_single_block_symmetric_split():
    part = BlockPartition([3])
    spec = NormSpec((1.0,), (Lp(2.0),))
    box = BoxDomain([(0.0, 1.0)] * 3)
    alloc = ticoq_sq_lp(part, spec, box, 9)
    assert alloc.bits == (3, 3, 3)


def test_lp_relaxed_kkt_residuals():
    rng = np.random.default_rng(2)
    for _ in range(60):
        part, spec, box = _random_lp_problem(rng)
        total = int(rng.integers(0, 10))
        alloc = ticoq_sq_lp(part, spec, box, total)
        c, p = sq_lp_constants(part, spec, box)
        relaxed = np.asarray(alloc.relaxed)
        assert abs(relaxed.sum() - total) <= 1e-9
        tau = alloc.constants.tau
        tau_blocks = alloc.constants.tau_blocks
        for k in range(part.num_blocks):
            sl = part.block_slice(k)
            tau_k = tau_blocks[k]
            if math.isnan(tau_k):
                # inactive block: its unquantized error already sits below tau
                assert np.sum(c[sl]) <= tau * (1 + 1e-9)
                assert np.all(relaxed[sl] == 0.0)
            else:
                # active block: water level balances to the global level
                assert np.sum(np.minimum(c[sl], tau_k)) == pytest.approx(
                    tau, rel=1e-10, abs=1e-12
                )
                active = relaxed[sl] > 1e-9
                assert np.allclose(
                    c[sl][active] * 2.0 ** (-p * relaxed[sl][active]), tau_k, rtol=1e-8
                )


def test_lp_relaxed_value_is_tau_root():
    part, spec, box = _random_lp_problem(np.random.default_rng(3), p=2.0)
    alloc = ticoq_sq_lp(part, spec, box, 6)
    assert alloc.relaxed_value == pytest.approx(alloc.constants.tau ** 0.5, rel=1e-12)


def test_lp_integer_value_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(40):
        part, spec, box = _random_lp_problem(rng)
        total = int(rng.integers(0, 9))
        alloc = ticoq_sq_lp(part, spec, box, total)
        c, p = sq_lp_constants(part, spec, box)
        oracle = allocation_oracle(sq_lp_objective(c, p, part), part.n, total)
        # tied block sums may differ in the last ulp
        assert alloc.integer_value == pytest.approx(oracle.value, rel=1e-12, abs=0.0)


def test_lp_greedy_value_is_monotone_in_budget_on_the_mimo_box():
    game = paper_style_game(seed=0)
    part, spec, box = game_partition(game), game_norm_spec(game), game_box(game)
    values = [ticoq_sq_lp(part, spec, box, L).integer_value for L in range(31)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def _design_problem(data, mode):
    """A partition, norm spec and box for one design family, drawn by hypothesis."""
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4), label="sizes")
    part = BlockPartition(sizes)
    weights = tuple(data.draw(st.lists(
        st.floats(0.5, 2.0), min_size=part.num_blocks, max_size=part.num_blocks
    ), label="w"))
    if mode == "sq-wmax":
        per = tuple(WeightedMax([1.0] * size) for size in sizes)
    else:
        p = data.draw(st.sampled_from([2.0, 3.0] if mode == "vq" else [1.0, 1.5, 2.0, 3.0]))
        per = tuple(Lp(p) for _ in sizes)
    spans = data.draw(st.lists(st.floats(0.2, 5.0), min_size=part.n, max_size=part.n))
    box = BoxDomain([(0.0, span) for span in spans])
    return part, NormSpec(weights, per), box


@given(st.data(), st.sampled_from(["sq-wmax", "sq-lp", "vq"]), st.integers(0, 11))
@settings(max_examples=300)
def test_design_equals_the_oracle(data, mode, total):
    part, spec, box = _design_problem(data, mode)
    alloc = ticoq_design(part, spec, box, total, mode)
    dims = len(alloc.bits)
    assume(math.comb(total + dims - 1, dims - 1) <= 200_000)
    oracle = allocation_oracle(objective_for(alloc.constants, part), dims, total)
    if mode == "sq-lp":  # tied block sums may differ in the last ulp
        assert alloc.integer_value == pytest.approx(oracle.value, rel=1e-12, abs=0.0)
    else:
        assert alloc.integer_value == oracle.value


def test_tied_terms_give_the_odd_bit_to_the_lower_index():
    # one term per coordinate, per block, and per coordinate inside a block
    part, spec, box = _wmax_problem([1.5, 1.5])
    assert ticoq_sq_wmax(part, spec, box, 5).bits == (3, 2)
    unit = BoxDomain([(0.0, 1.0)] * 2)
    two_blocks = NormSpec((1.0, 1.0), (Lp(2.0), Lp(2.0)))
    assert ticoq_sq_lp(BlockPartition([1, 1]), two_blocks, unit, 5).bits == (3, 2)
    one_block = NormSpec((1.0,), (Lp(2.0),))
    assert ticoq_sq_lp(BlockPartition([2]), one_block, unit, 5).bits == (3, 2)
    lattice_box = BoxDomain([(0.0, 1.0)] * 4)
    assert ticoq_vq_lattice(BlockPartition([2, 2]), (1.0, 1.0), lattice_box, 7).bits == (4, 3)


def test_no_designer_calls_the_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a designer called allocation_oracle")

    monkeypatch.setattr(ticoq, "allocation_oracle", refuse)
    monkeypatch.setattr(tvcoq, "allocation_oracle", refuse, raising=False)
    game = paper_style_game(seed=0)
    part, spec, box = game_partition(game), game_norm_spec(game), game_box(game)
    for mode in ("sq-lp", "vq"):
        for L in (0, 5, 13):
            ticoq_design(part, spec, box, L, mode)
    wmax_part, wmax_spec, wmax_box = _wmax_problem([0.5, 2.0, 1.25])
    ticoq_design(wmax_part, wmax_spec, wmax_box, 9, "sq-wmax")
    tvcoq_design(part, spec, box, 4, 6, 0.5, "sq-lp")
    tvcoq_master(0.3, 2, 1, 6)  # out of regime


def test_vq_worked_instance():
    # two 2-D blocks over unit boxes, w = 1: D_k = (1/V2)^(1/2) * R2
    part = BlockPartition([2, 2])
    w = (1.0, 1.0)
    box = BoxDomain([(0.0, 1.0)] * 4)
    d = vq_constants(part, w, box)
    expected = (1.0 / fundamental_volume(2)) ** 0.5 * covering_radius(2)
    assert np.allclose(d, expected)
    assert expected == pytest.approx(0.62040, abs=5e-6)
    spec = NormSpec(w, (Lp(2.0), Lp(2.0)))
    alloc = ticoq_vq_lattice(part, w, box, 6)
    assert alloc.mode == "vq"
    assert alloc.bits == (3, 3)
    alloc0 = ticoq_vq_lattice(part, w, box, 0)
    assert alloc0.bits == (0, 0)
    assert alloc0.integer_value == pytest.approx(expected)


def test_vq_equal_blocks_match_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        num_blocks = int(rng.integers(1, 4))
        size = int(rng.integers(1, 4))
        part = BlockPartition([size] * num_blocks)
        w = tuple(float(v) for v in rng.uniform(0.5, 2.0, num_blocks))
        box = BoxDomain(
            [(0.0, float(s)) for s in rng.uniform(0.3, 4.0, part.n)]
        )
        total = int(rng.integers(0, 10))
        alloc = ticoq_vq_lattice(part, w, box, total)
        d = vq_constants(part, w, box)
        oracle = allocation_oracle(
            vq_lattice_objective(d, part.block_sizes), num_blocks, total
        )
        assert alloc.integer_value == oracle.value


def test_vq_unequal_blocks_match_oracle():
    part = BlockPartition([1, 3])
    w = (1.0, 1.0)
    box = BoxDomain([(0.0, 1.0)] * 4)
    alloc = ticoq_vq_lattice(part, w, box, 5)
    d = vq_constants(part, w, box)
    oracle = allocation_oracle(vq_lattice_objective(d, part.block_sizes), 2, 5)
    assert alloc.integer_value == oracle.value


def test_vq_rejects_low_p():
    part = BlockPartition([2])
    w = (1.0,)
    box = BoxDomain([(0.0, 1.0)] * 2)
    with pytest.raises(ValueError):
        ticoq_vq_lattice(part, w, box, 4, p=1.5)


def test_oracle_basics():
    obj = sq_wmax_objective([0.5, 2.0])
    res = allocation_oracle(obj, 2, 2)
    assert res.allocation == (0, 2)
    assert res.value == 0.5
    res1 = allocation_oracle(sq_wmax_objective([1.0]), 1, 7)
    assert res1.allocation == (7,)
    # constant objective: lexicographically smallest allocation wins
    flat = allocation_oracle(lambda a: np.zeros(np.atleast_2d(a).shape[0]), 3, 2)
    assert flat.allocation == (0, 0, 2)
    ties = allocation_oracle(
        lambda a: np.zeros(np.atleast_2d(a).shape[0]), 2, 1, return_ties=True
    )
    assert ties.ties == ((0, 1), (1, 0))


def test_oracle_refuses_a_row_only_objective():
    weights = np.array([1.0, 2.0])

    def row_only(alloc):  # float() of more than one row raises
        return float(2.0 ** -(alloc @ weights))

    with pytest.raises(TypeError):
        allocation_oracle(row_only, 2, 3)


def test_oracle_enumeration_guard():
    with pytest.raises(ValueError):
        allocation_oracle(sq_wmax_objective([1.0] * 12), 12, 40)


def test_threshold_worked_values():
    c_small = DesignConstants(kind="sq-wmax", c=(0.5, 2.0))
    assert tradeoff_threshold(c_small) == pytest.approx(2.0)
    c_equal = DesignConstants(kind="sq-wmax", c=(1.3, 1.3, 1.3))
    assert tradeoff_threshold(c_equal) == pytest.approx(0.0)
    c_vq = DesignConstants(kind="vq", d=(1.0, 2.0), block_sizes=(1, 1))
    assert tradeoff_threshold(c_vq) == pytest.approx(1.0)


def test_tradeoff_value_matches_solver_above_threshold():
    rng = np.random.default_rng(6)
    for _ in range(20):
        part, spec, box = _random_wmax_problem(rng, max_n=4)
        alloc0 = ticoq_sq_wmax(part, spec, box, 0)
        threshold = tradeoff_threshold(alloc0.constants)
        total = int(math.ceil(max(threshold, 0.0))) + int(rng.integers(0, 5))
        alloc = ticoq_sq_wmax(part, spec, box, total)
        eta = relaxed_eta(alloc.constants)
        assert alloc.relaxed_value == pytest.approx(
            eta * 2.0 ** (-total / part.n), rel=1e-8
        )
        assert tradeoff_value(alloc.constants, total) == pytest.approx(
            alloc.relaxed_value, rel=1e-8
        )


def test_objective_for_dispatch():
    cw = DesignConstants(kind="sq-wmax", c=(0.5, 2.0))
    part = BlockPartition([1, 1])
    a = np.array([[0, 2], [1, 1]])
    assert np.allclose(objective_for(cw)(a), sq_wmax_objective([0.5, 2.0])(a))
    cl = DesignConstants(kind="sq-lp", c=(1.0, 2.0), p=2.0, block_sizes=(2,))
    part2 = BlockPartition([2])
    assert np.allclose(
        objective_for(cl, part2)(a), sq_lp_objective([1.0, 2.0], 2.0, part2)(a)
    )


def test_bank_construction_consistency():
    part = BlockPartition([2, 2])
    box = BoxDomain([(0.0, 1.0)] * 4)
    sq_bank = make_sq_bank(part, box, [2, 3, 1, 0])
    spec = NormSpec((1.0, 1.0), (Lp(2.0), Lp(2.0)))
    assert sq_bank.worst_case_error(part, spec) > 0
    vq_bank = make_vq_bank(part, box, [4, 4])
    assert vq_bank.worst_case_error(part, spec) == pytest.approx(
        (1.0 / (16 * fundamental_volume(2))) ** 0.5 * covering_radius(2)
    )
    w = (1.0, 1.0)
    alloc = ticoq_vq_lattice(part, w, box, 8)
    bank = bank_for_allocation(part, box, alloc)
    assert bank.worst_case_error(part, spec) == pytest.approx(
        alloc.integer_value, rel=1e-12
    )


def test_sq_bank_error_matches_design_value():
    rng = np.random.default_rng(7)
    for _ in range(20):
        part, spec, box = _random_wmax_problem(rng, max_n=4)
        alloc = ticoq_sq_wmax(part, spec, box, int(rng.integers(0, 10)))
        bank = bank_for_allocation(part, box, alloc)
        assert bank.worst_case_error(part, spec) == pytest.approx(
            alloc.integer_value, rel=1e-12
        )


def test_uniform_allocation_remainder():
    assert list(uniform_sq_allocation(3, 7)) == [3, 2, 2]
    with pytest.raises(ValueError):
        uniform_sq_allocation(0, 3)
