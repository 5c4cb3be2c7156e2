import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import reduceat_block_norms, uniform_l2_spec, uniform_wmax_spec, weighted_max_norm
from qfix.engine import BlockMapping
from qfix.norms import (
    BlockPartition,
    BoxDomain,
    Lp,
    NormSpec,
    WeightedMax,
    block_norm,
    block_norms,
    lp_norm,
)


def test_partition_layout():
    part = BlockPartition([2, 3, 1])
    assert part.n == 6
    assert part.num_blocks == 3
    assert part.offsets == (0, 2, 5, 6)
    assert part.block_slice(1) == slice(2, 5)
    x = np.arange(6.0)
    pieces = [x[part.block_slice(k)] for k in range(part.num_blocks)]
    assert [list(p) for p in pieces] == [[0.0, 1.0], [2.0, 3.0, 4.0], [5.0]]


def test_partition_rejects_bad_sizes():
    with pytest.raises(ValueError):
        BlockPartition([])
    with pytest.raises(ValueError):
        BlockPartition([2, 0])
    with pytest.raises(ValueError):
        BlockPartition([2, -1])


def test_partition_refuses_fractional_sizes_and_takes_integral_floats():
    """[1.5, 1] was once cut to [1, 1] without a word."""
    for sizes in ([1.5, 1], [2, math.inf], [math.nan]):
        with pytest.raises(ValueError, match="block sizes must be positive integers"):
            BlockPartition(sizes)
    part = BlockPartition([2.0, np.int64(1)])
    assert part.block_sizes == (2, 1) and all(type(s) is int for s in part.block_sizes)


def test_weighted_max_norm_hand_value():
    # max(|3|/1, |-4|/2, |1|/0.5) = max(3, 2, 2) = 3
    assert weighted_max_norm([3.0, -4.0, 1.0], [1.0, 2.0, 0.5]) == 3.0


def test_weighted_max_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        WeightedMax([1.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_weights_must_be_finite(bad):
    """NaN and infinite weights were once taken, and designs printed NaN and Infinity."""
    with pytest.raises(ValueError, match="weighted-max weights must be positive and finite"):
        WeightedMax([bad, 1.0])
    with pytest.raises(ValueError, match="block weights must be positive and finite"):
        NormSpec([bad, 1.0], [Lp(2.0), Lp(2.0)])


def test_lp_norm_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=rng.integers(1, 9))
        for p in (1.0, 2.0, 3.0, 7.5):
            assert lp_norm(x, p) == pytest.approx(
                np.linalg.norm(x, ord=p), rel=1e-12, abs=1e-14
            )


def test_lp_norm_large_p_approaches_max():
    x = np.array([0.3, -0.9, 0.5])
    assert lp_norm(x, 200.0) == pytest.approx(0.9, rel=1e-2)


def test_block_norm_mixed_blocks():
    part = BlockPartition([2, 2])
    spec = NormSpec((2.0, 1.0), (WeightedMax([1.0, 2.0]), Lp(2.0)))
    x = np.array([4.0, -4.0, 3.0, 4.0])
    # block 0: max(4, 2) / w=2 -> 2 ; block 1: 5 / 1 -> 5
    assert block_norm(x, part, spec) == 5.0


def test_an_lp_block_holding_inf_has_norm_inf():
    """Scaling by an infinite largest entry once gave inf / inf: NaN and a RuntimeWarning."""
    part = BlockPartition([2, 1])
    mixed = NormSpec([1, 1], [Lp(2), WeightedMax([1])])
    rows = np.array([[math.inf, 0.0, 1.0], [1.0, -math.inf, 1.0], [math.inf, math.nan, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [block_norm(row, part, mixed) for row in rows[:2]] == [math.inf, math.inf]
        assert math.isnan(block_norm(rows[2], part, mixed))  # a NaN in the block stays NaN
        got = block_norms(np.vstack([rows, [3.0, -4.0, 1.0]]), part, mixed)
        assert lp_norm([math.inf, 0.0], 2) == lp_norm([-math.inf, 1.0], 1.5) == math.inf
        assert math.isnan(lp_norm([math.inf, math.nan], 2))
    assert got[:2].tolist() == [math.inf, math.inf] and math.isnan(got[2]) and got[3] == 5.0


def test_norm_spec_partition_mismatch():
    part = BlockPartition([2, 2])
    spec = NormSpec((1.0,), (Lp(2.0),))
    with pytest.raises(ValueError):
        spec.check_partition(part)
    bad = NormSpec((1.0, 1.0), (WeightedMax([1.0, 1.0, 1.0]), Lp(2.0)))
    with pytest.raises(ValueError):
        bad.check_partition(part)


def test_norm_spec_from_json_reads_a_document():
    text = (
        '{"blocks": [2, 1], "w": [1.5, 2.0], "per_block": '
        '[{"kind": "wmax", "a": [1.0, 0.25]}, {"kind": "lp", "p": 3.0}]}'
    )
    part, spec = NormSpec.from_json(text)
    assert part == BlockPartition([2, 1])
    assert spec == NormSpec((1.5, 2.0), (WeightedMax([1.0, 0.25]), Lp(3.0)))


def test_norm_spec_json_rejects_unknown_kind():
    doc = {"blocks": [1], "w": [1.0], "per_block": [{"kind": "mystery"}]}
    with pytest.raises(ValueError):
        NormSpec.from_json(json.dumps(doc))


def test_uniform_specs():
    part = BlockPartition([2, 3])
    l2 = uniform_l2_spec(part)
    wm = uniform_wmax_spec(part)
    assert l2.block_weights == (1.0, 1.0)
    assert all(isinstance(b, Lp) and b.p == 2.0 for b in l2.per_block)
    assert all(isinstance(b, WeightedMax) for b in wm.per_block)
    x = np.array([3.0, 4.0, 0.0, 0.0, 12.0])
    assert block_norm(x, part, l2) == pytest.approx(12.0)
    assert block_norm(x, part, wm) == pytest.approx(12.0)


def test_box_domain_clamp_and_contains():
    box = BoxDomain([(-1.0, 1.0), (0.0, 2.0)])
    assert box.n == 2
    assert np.allclose(box.lengths, [2.0, 2.0])
    assert np.allclose(box.clamp([5.0, -3.0]), [1.0, 0.0])
    assert box.contains([0.0, 1.0])
    assert box.contains([1.0 + 1e-13, 2.0])  # within tolerance
    assert not box.contains([1.1, 1.0])


def test_box_domain_subbox():
    box = BoxDomain([(-1.0, 1.0), (0.0, 2.0), (3.0, 4.0)])
    sub = box.subbox(slice(1, 3))
    assert sub.intervals() == [(0.0, 2.0), (3.0, 4.0)]
    assert sub.n == 2


def test_box_domain_interval_validation():
    with pytest.raises(ValueError):
        BoxDomain([(2.0, 1.0)])
    # point intervals are legal (pinned coordinates)
    box = BoxDomain([(1.0, 1.0)])
    assert box.contains([1.0])
    assert box.clamp([5.0]) == pytest.approx([1.0])


@pytest.mark.parametrize("interval", [(-1.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf)])
def test_box_domain_refuses_infinite_endpoints(interval):
    """[-1, inf] once reached a simulation's traceback, and an L_p design's runtime warnings."""
    with pytest.raises(ValueError, match="interval 1 has an infinite endpoint"):
        BoxDomain([(0.0, 1.0), interval])


@pytest.mark.parametrize("interval", [{}, (0.0, 4.0, 9.0), (1.0,), 5.0])
def test_box_domain_refuses_an_interval_that_is_not_a_pair(interval):
    """{} once ended in a KeyError traceback, and a third number was dropped without a word."""
    with pytest.raises(ValueError, match="interval 1 is not a \\[lo, hi\\] pair"):
        BoxDomain([(0.0, 1.0), interval])


def test_block_norm_is_a_norm():
    rng = np.random.default_rng(3)
    part = BlockPartition([2, 3])
    spec = NormSpec((1.0, 2.0), (WeightedMax([1.0, 3.0]), Lp(2.0)))
    for _ in range(100):
        x = rng.normal(size=5)
        y = rng.normal(size=5)
        c = rng.normal()
        nx = block_norm(x, part, spec)
        assert nx >= 0.0
        assert block_norm(c * x, part, spec) == pytest.approx(abs(c) * nx, rel=1e-12)
        assert block_norm(x + y, part, spec) <= nx + block_norm(y, part, spec) + 1e-12
    assert block_norm(np.zeros(5), part, spec) == 0.0


def test_block_norm_checks_a_spec_against_a_partition_once(monkeypatch):
    calls = []
    check = NormSpec.check_partition

    def counted_check(spec, part):
        calls.append(part)
        check(spec, part)

    monkeypatch.setattr(NormSpec, "check_partition", counted_check)
    part = BlockPartition([2, 1])
    spec = NormSpec((1.0, 2.0), (WeightedMax([1.0, 0.5]), Lp(3.0)))
    for _ in range(3):
        block_norm(np.array([1.0, -2.0, 3.0]), part, spec)
    assert calls == [part]
    bad = BlockPartition([1, 2])
    for _ in range(2):
        with pytest.raises(ValueError):
            block_norm(np.zeros(3), bad, spec)
    assert calls == [part, bad, bad]


# Entries across 300 decades, with exact zeros (and so zero blocks).
_ENTRY = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, exponent: sign * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(-150.0, 150.0),
    ),
)


@st.composite
def _mixed_blocks(draw):
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    weight = st.floats(0.01, 100.0)
    per_block = [
        draw(
            st.one_of(
                st.builds(WeightedMax, st.lists(weight, min_size=size, max_size=size)),
                st.builds(Lp, st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.5])),
            )
        )
        for size in sizes
    ]
    spec = NormSpec([draw(weight) for _ in sizes], per_block)
    x = np.array([draw(_ENTRY) for _ in range(sum(sizes))])
    if draw(st.booleans()):
        k = draw(st.integers(0, len(sizes) - 1))
        x[sum(sizes[:k]) : sum(sizes[: k + 1])] = 0.0
    return BlockPartition(sizes), spec, x


@given(_mixed_blocks())
def test_block_norm_matches_per_block_reference(case):
    part, spec, x = case
    ref = 0.0
    for k, item in enumerate(spec.per_block):
        v = x[part.block_slice(k)]
        val = weighted_max_norm(v, item.a) if isinstance(item, WeightedMax) else lp_norm(v, item.p)
        ref = max(ref, val / spec.block_weights[k])
    assert block_norm(x, part, spec) == pytest.approx(ref, rel=1e-12, abs=0.0)


@given(_mixed_blocks(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_block_norms_of_a_stack_equal_each_row_alone(case, rows, seed):
    part, spec, x = case
    rng = np.random.default_rng(seed)
    stack = x * rng.uniform(0.0, 2.0, size=(rows, part.n))
    stack[0] = x
    alone = [block_norm(row, part, spec) for row in stack]
    assert block_norms(stack, part, spec).tobytes() == np.array(alone).tobytes()
    # weighted-max blocks take the largest weighted entry, with no rounding
    wmax = NormSpec(spec.block_weights, [WeightedMax([1.0] * s) for s in part.block_sizes])
    exact = [
        max(np.max(np.abs(row[part.block_slice(k)])) / w for k, w in enumerate(wmax.block_weights))
        for row in stack
    ]
    assert block_norms(stack, part, wmax).tolist() == exact
    with pytest.raises(ValueError):
        block_norms(stack[:, 1:], part, spec)


# Entries that stress the flat max: NaN, infinities, a negative zero, and magnitudes at
# the ends of the range, which the weights below push past overflow or into subnormals.
_EDGE_ENTRY = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e300, 1e-300, -1e-300]),
    st.floats(-1e3, 1e3),
)
_WIDE_WEIGHT = st.builds(lambda e: 10.0**e, st.floats(-200.0, 200.0))


@st.composite
def _edge_cases(draw):
    """A weighted-max-only, L_p-only or mixed spec over unequal blocks, and a row or a stack."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    kinds = draw(st.sampled_from(["wmax", "lp", "mixed"]))
    per_block = []
    for size in sizes:
        lp = kinds == "lp" or (kinds == "mixed" and draw(st.booleans()))
        if lp:
            per_block.append(Lp(draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))))
        else:
            weights = draw(st.lists(_WIDE_WEIGHT, min_size=size, max_size=size))
            per_block.append(WeightedMax(weights))
    spec = NormSpec([draw(_WIDE_WEIGHT) for _ in sizes], per_block)
    shape = draw(st.sampled_from([(), (1,), (4,)])) + (sum(sizes),)
    x = np.array(draw(st.lists(_EDGE_ENTRY, min_size=math.prod(shape), max_size=math.prod(shape))))
    return BlockPartition(sizes), spec, x.reshape(shape)


def _same_bits_or_both_nan(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal bytes where `want` is a number, and NaN exactly where it is NaN.

    A NaN's sign bit is not part of the contract: numpy's max reductions pick
    it by their SIMD path (the max of [NaN, inf, inf] is +NaN, of [inf, NaN]
    the NaN as given).
    """
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=400)
@given(_edge_cases())
def test_block_norms_equal_the_block_by_block_reduceat_formula(case):
    """The flat weighted-max max equals one max per block, then the division by w_k, bit for bit."""
    part, spec, x = case
    with np.errstate(all="ignore"):  # overflow past the weights is the point here
        got = np.asarray(block_norms(x, part, spec))
        want = np.asarray(reduceat_block_norms(x, part, spec))
        alone = np.array([block_norm(row, part, spec) for row in x.reshape(-1, part.n)])
    assert got.shape == want.shape == x.shape[:-1]
    assert _same_bits_or_both_nan(got, want)
    assert _same_bits_or_both_nan(alone, got.reshape(-1))
    if all(isinstance(item, WeightedMax) for item in spec.per_block):
        assert got.tobytes() == want.tobytes()  # a NaN entry's own NaN, sign cleared by |x|


def test_block_norms_of_a_tall_stack_over_one_lp_block():
    # One L_p block leaves one column of power sums; numpy may raise a lone
    # column to a power on another path than a single row's entries.
    rng = np.random.default_rng(0)
    for sizes, per_block in (([9], [Lp(2.0)]), ([1, 3], [Lp(3.0), WeightedMax([1.0, 2.0, 4.0])])):
        part = BlockPartition(sizes)
        spec = NormSpec([1.0] * len(sizes), per_block)
        stack = rng.standard_normal((500, part.n))
        alone = [block_norm(row, part, spec) for row in stack]
        assert block_norms(stack, part, spec).tobytes() == np.array(alone).tobytes()


# ±0, ±inf, ±1, ±2 and ±the smallest subnormal: the bounds; the inputs add NaN.
_CLAMP_BOUNDS = [0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 2.0, -2.0, 5e-324, -5e-324]


def test_the_clamp_form_equals_np_clip_byte_for_byte():
    """min(max(x, lo), hi), the form of `BoxDomain.clamp` and the block clip of `eval_block`,
    gives np.clip's bytes on every input against every bound pair lo <= hi: 616 cases."""
    pairs = np.array([(a, b) for a in _CLAMP_BOUNDS for b in _CLAMP_BOUNDS if a <= b])
    inputs = np.array(_CLAMP_BOUNDS + [math.nan])
    x, lo, hi = np.repeat(inputs, len(pairs)), *np.tile(pairs, (inputs.size, 1)).T
    assert x.size == 616
    assert np.minimum(np.maximum(x, lo), hi).tobytes() == np.clip(x, lo, hi).tobytes()
    for case in zip(x, lo, hi):  # one element at a time, off numpy's vector loops
        v, a, b = (np.array([c]) for c in case)
        assert np.minimum(np.maximum(v, a), b).tobytes() == np.clip(v, a, b).tobytes(), case
    # Through the box and a block evaluation, on the finite bound pairs a box takes.
    finite = pairs[np.isfinite(pairs).all(axis=1)]
    box = BoxDomain(finite)
    part = BlockPartition([len(finite)])
    mapping = BlockMapping(
        lambda v: v, part, box, NormSpec([1.0], [Lp(2.0)]), 0.5, group_fn=lambda k: lambda v: v
    )
    for value in inputs:
        v = np.full(part.n, value)
        expected = np.clip(v, finite[:, 0], finite[:, 1]).tobytes()
        assert box.clamp(v).tobytes() == expected
        assert mapping.eval_full(v).tobytes() == expected
        assert mapping.eval_block(0, v).tobytes() == expected
