import heapq
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
    sq_wmax_constants,
    ticoq_design,
    ticoq_frontier,
    ticoq_sq_lp,
    ticoq_sq_wmax,
    ticoq_vq_lattice,
    tradeoff_threshold,
    uniform_sq_allocation,
    vq_constants,
)
from qfix.tvcoq import tvcoq_design, tvcoq_master
from qfix.vquant import covering_radius, fundamental_volume


def _max_term(c, sizes=None):
    """max_i c_i 2^(-L_i / sizes_i) over allocation rows: one-entry blocks at p = 1."""
    return objective_for(DesignConstants("vq", tuple(c), (1,) * len(c) if sizes is None else tuple(sizes)))


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
    assert alloc.tau == pytest.approx(0.5, abs=1e-9)
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
    oracle = allocation_oracle(_max_term([8.0, 3.0]), 2, 3)
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
        tau = alloc.tau
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
        oracle = allocation_oracle(_max_term(c), part.n, total)
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
        tau = alloc.tau
        tau_blocks = alloc.tau_blocks
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
    assert alloc.relaxed_value == pytest.approx(alloc.tau ** 0.5, rel=1e-12)


def test_lp_integer_value_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(40):
        part, spec, box = _random_lp_problem(rng)
        total = int(rng.integers(0, 9))
        alloc = ticoq_sq_lp(part, spec, box, total)
        c, p = sq_lp_constants(part, spec, box)
        family = DesignConstants("sq-lp", tuple(c), (1,) * part.n, p, part.block_sizes)
        oracle = allocation_oracle(objective_for(family), part.n, total)
        assert alloc.integer_value == oracle.value


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
    oracle = allocation_oracle(objective_for(alloc.family), dims, total)
    if mode == "sq-lp":
        # Terms tied in exact arithmetic can round apart when p is not an integer
        # (sizes [2, 2], unit weights, spans (4, 0.5, 1, 0.5), p = 1.5, L = 11: 1 ulp).
        assert alloc.integer_value == pytest.approx(oracle.value, rel=1e-12, abs=0.0)
    else:
        assert alloc.integer_value == oracle.value


_SUM_ULPS = 16  # relaxed rates sum to L within this many ulps of L
_LEVEL_ULPS = 8  # log2 constant - scaled bits = log2 level, in ulps of the larger log
_BALANCE_ULPS = 4  # an active L_p block's sum_m min(c_m, tau_k) = tau, in ulps of tau


@given(st.data(), st.sampled_from(["sq-wmax", "sq-lp", "vq"]), st.integers(0, 60))
@settings(max_examples=300, deadline=None)
def test_relaxed_rates_sit_at_exact_water_levels(data, mode, total):
    part, spec, box = _design_problem(data, mode)
    alloc = ticoq_design(part, spec, box, total, mode)
    relaxed, k = np.asarray(alloc.relaxed), alloc.family
    assert abs(math.fsum(relaxed) - total) <= _SUM_ULPS * math.ulp(max(total, 1))
    if mode == "sq-lp":
        logs, spent = np.log2(k.const), k.p * relaxed
        levels = np.log2(np.repeat(alloc.tau_blocks, part.block_sizes))
        for tau_k, sl in zip(alloc.tau_blocks, map(part.block_slice, range(part.num_blocks))):
            block = np.asarray(k.const)[sl]
            if math.isnan(tau_k):  # inactive: no bits, and its whole error sits below tau
                assert not relaxed[sl].any() and math.fsum(block) <= alloc.tau + _BALANCE_ULPS * math.ulp(alloc.tau)
            else:
                assert abs(math.fsum(np.minimum(block, tau_k)) - alloc.tau) <= _BALANCE_ULPS * math.ulp(alloc.tau)
    else:
        sizes = np.asarray(k.sizes, float) if mode == "vq" else 1.0
        logs, spent = np.log2(k.const), relaxed / sizes
        levels = np.full(relaxed.size, math.log2(alloc.tau))
    funded = relaxed > 0
    scale = np.spacing(np.maximum(np.maximum(np.abs(logs), np.abs(levels)), 1.0))[funded]
    assert np.all(np.abs(logs - spent - levels)[funded] <= _LEVEL_ULPS * scale)
    live = ~funded & ~np.isnan(levels)  # unfunded entries of active blocks sit at or below the level
    assert np.all(logs[live] <= levels[live] + _LEVEL_ULPS * np.spacing(np.maximum(np.abs(levels[live]), 1.0)))


def _hex(values) -> list:
    """Floats as exact hex strings, so NaNs and signed zeros compare too."""
    return [float(v).hex() for v in np.ravel(values)]


def _relaxed_start_bits(alloc: ticoq.RateAllocation) -> list:
    """The largest-term walk from a lower bound read off the relaxed rates.

    The integer step that "sq-wmax" and "vq" designs used before the
    frontier: flooring the relaxed rates shows no entry needs fewer than
    r_k - n_k/n_min bits (fractions within 1e-9 of an integer snapped).
    """
    consts, sizes = list(alloc.family.const), list(alloc.family.sizes)
    low = np.asarray(alloc.relaxed) - np.asarray(sizes) / min(sizes)
    near = np.abs(low - np.round(low)) <= 1e-9
    low[near] = np.round(low[near])
    bits = [int(b) for b in np.ceil(np.maximum(low, 0.0))]
    heap = [(-v * 2.0 ** (-b / r), k) for k, (v, b, r) in enumerate(zip(consts, bits, sizes))]
    heapq.heapify(heap)
    for _ in range(alloc.total_bits - sum(bits)):
        k = heap[0][1]
        bits[k] += 1
        heapq.heapreplace(heap, (-consts[k] * 2.0 ** (-bits[k] / sizes[k]), k))
    return bits


_WMAX_21 = NormSpec([1.0, 1.0], [WeightedMax([1.0, 1.0]), WeightedMax([1.0])])


@pytest.mark.parametrize("mode, sizes, spec, box, order", [
    # equal constants: the bits go round the coordinates in index order
    ("sq-wmax", [2, 1], _WMAX_21, [(-1.0, 1.0)] * 3, [0, 1, 2, 0, 1, 2, 0, 1, 2]),
    # lattice blocks of 2, 1 and 2 coordinates: blocks 0 and 2 tie at every bit
    ("vq", [2, 1, 2], NormSpec([1.0] * 3, [Lp(2.0)] * 3), [(0.0, 1.0)] * 5, [0, 2, 1, 0, 2, 0, 2, 1, 0, 2, 0, 2]),
    # L_1.5 blocks whose sums tie, and whose terms tie inside them
    ("sq-lp", [2, 2], NormSpec([1.0, 1.0], [Lp(1.5)] * 2), [(0.0, 2.0)] * 4, [0, 2, 1, 3, 0, 2, 1, 3, 0, 2]),
    ("sq-lp", [1, 3], NormSpec([1.0, 2.0], [Lp(1.5)] * 2), [(0.0, 2.0), (0.0, 4.0), (0.0, 4.0), (-1.0, 1.0)],
     [1, 2, 1, 0, 2, 3, 3, 0, 1, 2]),
], ids=["sq-wmax-equal", "vq-blocks-2-1-2", "sq-lp-2-2", "sq-lp-1-3"])
def test_frontier_orders_on_exact_ties_are_pinned(mode, sizes, spec, box, order):
    """Every family's walk, bit by bit, on small problems whose terms and block sums tie exactly."""
    frontier = ticoq_frontier(BlockPartition(sizes), spec, BoxDomain(box), len(order), mode)
    assert frontier.order.tobytes() == np.array(order, dtype=np.intp).tobytes()


@given(st.data(), st.sampled_from(["sq-wmax", "sq-lp", "vq"]), st.integers(0, 40))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_frontier_rows_equal_each_budgets_design(data, mode, max_bits):
    part, spec, box = _design_problem(data, mode)
    frontier = ticoq_frontier(part, spec, box, max_bits, mode)
    assert len(frontier.order) == max_bits
    for b in range(max_bits + 1):
        row, alone = frontier.allocation(b), ticoq_design(part, spec, box, b, mode)
        assert row.bits == alone.bits and sum(row.bits) == b
        assert _hex(row.integer_value) == _hex(alone.integer_value)
        assert _hex(row.integer_value) == _hex(objective_for(alone.family)(row.bits))
        # relaxed fields, read only now, meet this budget and equal a fresh design's bit for bit
        assert math.fsum(row.relaxed) == pytest.approx(b, abs=1e-9)
        assert _hex(row.relaxed) == _hex(alone.relaxed)
        assert _hex(row.relaxed_value) == _hex(alone.relaxed_value)
        assert _hex(row.tau) == _hex(alone.tau)
        assert (row.tau_blocks is None) == (alone.tau_blocks is None)
        if row.tau_blocks is not None:
            assert _hex(row.tau_blocks) == _hex(alone.tau_blocks)
        if mode != "sq-lp":
            # the walk from 0 and the walk from the relaxed lower bound agree
            assert tuple(_relaxed_start_bits(row)) == row.bits
    with pytest.raises(ValueError):
        frontier.allocation(max_bits + 1)


def test_frontier_computes_the_relaxation_only_when_read(monkeypatch):
    game = paper_style_game(seed=0)
    part, spec, box = game_partition(game), game_norm_spec(game), game_box(game)
    calls = []
    relax = ticoq._relax_lp

    def counting(c, p, part, total_bits):
        calls.append(total_bits)
        return relax(c, p, part, total_bits)

    monkeypatch.setattr(ticoq, "_relax_lp", counting)
    sched = tvcoq_design(part, spec, box, 20, 30, 0.6, "sq-lp")
    assert calls == []
    alloc = sched.allocations[-1]
    assert alloc.relaxed_value > 0 and alloc.tau > 0 and len(alloc.relaxed) == part.n
    assert calls == [sched.rates[-1]]


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
            _max_term(d, part.block_sizes), num_blocks, total
        )
        assert alloc.integer_value == oracle.value


def test_vq_unequal_blocks_match_oracle():
    part = BlockPartition([1, 3])
    w = (1.0, 1.0)
    box = BoxDomain([(0.0, 1.0)] * 4)
    alloc = ticoq_vq_lattice(part, w, box, 5)
    d = vq_constants(part, w, box)
    oracle = allocation_oracle(_max_term(d, part.block_sizes), 2, 5)
    assert alloc.integer_value == oracle.value


def test_vq_rejects_low_p():
    part = BlockPartition([2])
    box = BoxDomain([(0.0, 1.0)] * 2)
    with pytest.raises(ValueError, match="lattice designs require an L_p block norm with p >= 2"):
        ticoq_design(part, NormSpec((1.0,), (Lp(1.5),)), box, 4, "vq")


def test_oracle_basics():
    obj = _max_term([0.5, 2.0])
    res = allocation_oracle(obj, 2, 2)
    assert res.allocation == (0, 2)
    assert res.value == 0.5
    res1 = allocation_oracle(_max_term([1.0]), 1, 7)
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
        allocation_oracle(_max_term([1.0] * 12), 12, 40)


def test_threshold_worked_values():
    c_small = DesignConstants("sq-wmax", (0.5, 2.0), (1, 1))
    assert tradeoff_threshold(c_small) == pytest.approx(2.0)
    c_equal = DesignConstants("sq-wmax", (1.3, 1.3, 1.3), (1, 1, 1))
    assert tradeoff_threshold(c_equal) == pytest.approx(0.0)
    c_vq = DesignConstants("vq", (1.0, 2.0), (1, 1))
    assert tradeoff_threshold(c_vq) == pytest.approx(1.0)


def test_tradeoff_value_matches_solver_above_threshold():
    rng = np.random.default_rng(6)
    for _ in range(20):
        part, spec, box = _random_wmax_problem(rng, max_n=4)
        alloc0 = ticoq_sq_wmax(part, spec, box, 0)
        threshold = tradeoff_threshold(alloc0.family)
        total = int(math.ceil(max(threshold, 0.0))) + int(rng.integers(0, 5))
        alloc = ticoq_sq_wmax(part, spec, box, total)
        eta = relaxed_eta(alloc.family)
        assert alloc.relaxed_value == pytest.approx(
            eta * 2.0 ** (-total / part.n), rel=1e-8
        )


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("sq", (1.0,), (1,)), {}, "unknown design kind 'sq'"),
        # two lattice constants over one entry size once gave n = 1
        (("vq", (1.0, 2.0), (1,)), {}, "2 constants for 1 entry sizes"),
        (("sq-wmax", (1.0, 0.0), (1, 1)), {}, "all design constants must be positive"),
        (("sq-wmax", (1.0, math.nan), (1, 1)), {}, "all design constants must be positive"),
        (("sq-lp", (1.0, 2.0), (1, 1)), {"p": 2.0}, "sq-lp constants need p >= 1 and blocks"),
        (("sq-lp", (1.0, 2.0), (1, 1)), {"p": 0.5, "blocks": (2,)}, "sq-lp constants need p >= 1"),
        # blocks of 5 coordinates over 2 constants once failed later with a numpy broadcast error
        (("sq-lp", (1.0, 2.0), (1, 1)), {"p": 2.0, "blocks": (5,)}, "sq-lp constants need p >= 1"),
        # a 1e-320 weighted-max weight once gave an infinite constant, then NaN rates
        (("sq-wmax", (1.0, math.inf), (1, 1)), {}, "all design constants must be positive and finite"),
    ],
)
def test_design_constants_refuse_inconsistent_records(args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        DesignConstants(*args, **kwargs)


def _sq_wmax_objective(c):
    """max_m c_m 2^(-L_m) over allocation rows: the weighted-max scalar objective in its own form."""
    cv = np.asarray(c, dtype=float)

    def f(allocs):
        a = np.atleast_2d(np.asarray(allocs, dtype=float))
        return np.max(cv * 2.0 ** (-a), axis=1)

    return f


@given(st.data(), st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=6))
def test_max_term_objective_at_unit_sizes_is_the_weighted_max_objective(data, c):
    rows = st.lists(st.integers(0, 1100), min_size=len(c), max_size=len(c))
    allocs = np.array(data.draw(st.lists(rows, min_size=1, max_size=5), label="allocs"))
    assert _hex(_max_term(c)(allocs)) == _hex(_sq_wmax_objective(c)(allocs))


@pytest.mark.parametrize("bad", [math.inf, math.nan, 2.5, -1])
def test_budgets_refuse_non_integers_with_their_own_message(bad):
    """An infinite budget once raised OverflowError from int(), a NaN one "cannot convert"."""
    part, spec, box = _wmax_problem([0.5, 2.0])
    with pytest.raises(ValueError, match="total rate must be a nonnegative integer"):
        ticoq_design(part, spec, box, bad, "sq-wmax")
    with pytest.raises(ValueError, match="total rate must be a nonnegative integer"):
        allocation_oracle(_max_term([0.5, 2.0]), 2, bad)
    with pytest.raises(ValueError, match="total rate must be a nonnegative integer"):
        uniform_sq_allocation(2, bad)


def test_allocation_counts_take_integral_floats():
    """A count of 2.0 once raised numpy's TypeError from np.full and math.comb."""
    objective = _max_term([0.5, 2.0])
    assert list(uniform_sq_allocation(2.0, 8)) == list(uniform_sq_allocation(2, 8)) == [4, 4]
    assert allocation_oracle(objective, 2.0, 4) == allocation_oracle(objective, 2, 4)


@pytest.mark.parametrize("bad", [2.5, math.nan, 0])
def test_allocation_counts_refuse_non_integers_and_zero(bad):
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        uniform_sq_allocation(bad, 8)
    with pytest.raises(ValueError, match="dims must be an integer >= 1"):
        allocation_oracle(_max_term([0.5, 2.0]), bad, 4)


@pytest.mark.parametrize("mode", ["sq-wmax", "sq-lp", "vq"])
def test_designs_refuse_a_box_of_another_dimension_with_the_banks_message(mode):
    part = BlockPartition([2, 2])
    if mode == "sq-wmax":
        spec = NormSpec((1.0, 1.0), (WeightedMax([1.0, 1.0]), WeightedMax([1.0, 1.0])))
    else:
        spec = NormSpec((1.0, 1.0), (Lp(2.0), Lp(2.0)))
    box = BoxDomain([(0.0, 1.0)] * 3)
    with pytest.raises(ValueError, match="a box of dimension 3 for a partition of dimension 4"):
        ticoq_design(part, spec, box, 4, mode)


def test_objective_for_dispatch():
    cw = DesignConstants("sq-wmax", (0.5, 2.0), (1, 1))
    a = np.array([[0, 2], [1, 1]])
    assert np.allclose(objective_for(cw)(a), _sq_wmax_objective([0.5, 2.0])(a))
    cl = DesignConstants("sq-lp", (1.0, 2.0), (1, 1), p=2.0, blocks=(2,))
    assert np.allclose(objective_for(cl)(a), np.sqrt(np.sum([1.0, 2.0] * 2.0 ** (-2.0 * a), axis=1)))


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


@pytest.mark.parametrize("dim", [3, 5])
def test_banks_refuse_a_box_of_another_dimension(dim):
    """A 3-interval box once gave a 1-dimensional lattice block, and a 5-interval one was cut."""
    part = BlockPartition([2, 2])
    box = BoxDomain([(0.0, 1.0)] * dim)
    message = f"a box of dimension {dim} for a partition of dimension 4"
    with pytest.raises(ValueError, match=message):
        make_sq_bank(part, box, [2] * 4)
    with pytest.raises(ValueError, match=message):
        make_vq_bank(part, box, [2, 2])


def test_banks_refuse_a_non_integer_rate():
    """A 1.5-bit rate was once cut to 1 bit without a word."""
    part = BlockPartition([2, 2])
    box = BoxDomain([(0.0, 1.0)] * 4)
    with pytest.raises(ValueError, match="nonnegative integer below 1024, got 1.5"):
        make_sq_bank(part, box, [2, 1.5, 2, 2])
    with pytest.raises(ValueError, match="nonnegative integer below 1024, got 1.5"):
        make_vq_bank(part, box, [1.5, 2])
    # integral float rates are their ints
    assert [q.bits for q in make_vq_bank(part, box, [1.0, 2.0]).blocks] == [1, 2]


@pytest.mark.parametrize("mode, total, got", [("sq-wmax", 4093, 1024), ("sq-lp", 2**70, 2**68), ("vq", 2047, 1024)])
def test_designs_refuse_a_budget_whose_even_split_no_bank_takes(mode, total, got):
    """Some entry of a budget above 1,023 bits an entry gets 1,024 or more; 2^70 bits never finished."""
    part = BlockPartition([2, 2])
    spec = NormSpec([1.0, 1.0], [WeightedMax([1.0, 1.0])] * 2 if mode == "sq-wmax" else [Lp(2.0)] * 2)
    with pytest.raises(ValueError, match=f"below 1024, got {got}$"):
        ticoq_design(part, spec, BoxDomain([(0.0, 1.0)] * 4), total, mode)


def test_a_design_refuses_the_rates_its_walk_gives_past_1023_bits():
    """A constant 2^997 ahead takes 1,075 bits at L = 3,000, where 2^-1075 underflows and bits tie."""
    part = BlockPartition([1, 1, 1])
    spec = NormSpec([1.0] * 3, [WeightedMax([2.0**-997]), WeightedMax([1.0]), WeightedMax([1.0])])
    box = BoxDomain([(0.0, 1.0)] * 3)
    with pytest.raises(ValueError, match="below 1024, got 1075$"):
        ticoq_design(part, spec, box, 3000, "sq-wmax")
    assert ticoq_design(part, spec, box, 1000, "sq-wmax").bits == (998, 1, 1)


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
