import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import sq_worst_case_error
from qfix.squant import ScalarBlockQuantizer, _rate
from qfix.vquant import LatticeQuantizer


def _scalar(lo, hi, bits):
    """A one-coordinate quantizer, as a function of one float."""
    q = ScalarBlockQuantizer([lo], [hi], [bits])
    return lambda x: float(q.quantize(np.array([x]))[0])


def test_worst_case_error_formula():
    assert sq_worst_case_error((-1.0, 1.0), 0) == 1.0
    assert sq_worst_case_error((-1.0, 1.0), 1) == 0.5
    assert sq_worst_case_error((0.0, 8.0), 3) == 0.5
    assert sq_worst_case_error((0.0, 8.0), 3.0) == 0.5  # an integral float rate is its int
    assert sq_worst_case_error((0.0, 1.0), 4) == 1.0 / 32.0
    q = _scalar(0.0, 1.0, 4)
    assert len({q(x) for x in np.linspace(0.0, 1.0, 161)}) == 16  # 2^4 cells
    # cells of width 1/16: adjacent midpoints lie one cell apart
    assert q(0.07) - q(0.0) == pytest.approx(1.0 / 16.0)


def test_quantize_hits_cell_midpoints():
    q = _scalar(0.0, 1.0, 2)  # cells of width 0.25, midpoints 0.125..0.875
    assert q(0.0) == 0.125
    assert q(0.3) == 0.375
    assert q(1.0) == 0.875
    # a midpoint is its own quantization
    assert q(0.625) == 0.625


def test_quantize_error_bound_property():
    rng = np.random.default_rng(0)
    for _ in range(100):
        lo = rng.normal()
        hi = lo + 10.0 ** rng.uniform(-3, 2)
        bits = int(rng.integers(0, 9))
        q = ScalarBlockQuantizer(np.full(64, lo), np.full(64, hi), np.full(64, bits))
        xs = rng.uniform(lo, hi, size=64)
        errs = np.abs(q.quantize(xs) - xs)
        assert np.all(errs <= sq_worst_case_error((lo, hi), bits) * (1 + 1e-12) + 1e-15)


def test_encode_decode_round_trip():
    q = _scalar(-2.0, 2.0, 3)  # cells of width 0.5, midpoints -1.75..1.75
    midpoints = [-2.0 + (i + 0.5) * 0.5 for i in range(8)]
    for x in np.linspace(-2.5, 2.5, 41):
        assert q(x) in midpoints


def test_encode_clamps_out_of_range():
    # inputs far outside the interval land on the end cells' midpoints
    q = _scalar(0.0, 1.0, 2)
    assert q(-100.0) == 0.125
    assert q(100.0) == 0.875
    block = ScalarBlockQuantizer([0.0, -1.0], [1.0, 1.0], [2, 1])
    assert block.quantize(np.array([-100.0, 1e300])).tolist() == [0.125, 0.5]
    assert block.quantize(np.array([100.0, -1e300])).tolist() == [0.875, -0.5]


def test_zero_bits_single_level():
    q = _scalar(-1.0, 3.0, 0)
    assert {q(x) for x in (-5.0, -1.0, -0.7, 0.3, 3.0, 9.0)} == {1.0}  # the interval midpoint
    assert sq_worst_case_error((-1.0, 3.0), 0) == 2.0


def test_degenerate_interval():
    assert sq_worst_case_error((2.0, 2.0), 5) == 0.0
    q = _scalar(2.0, 2.0, 5)
    # a point interval decodes to its endpoint, from inside it or from anywhere else
    for x in (2.0, 7.0, -7.0):
        assert q(x) == 2.0
    block = ScalarBlockQuantizer([2.0, 2.0], [2.0, 2.0], [5, 5])
    assert block.quantize(np.array([7.0, -7.0])).tolist() == [2.0, 2.0]
    # ... with its signed zero
    zeros = ScalarBlockQuantizer([-0.0, 0.0], [-0.0, 0.0], [3, 0])
    assert zeros.quantize(np.array([5.0, -5.0])).tobytes() == np.array([-0.0, 0.0]).tobytes()


def test_rejects_bad_inputs():
    with pytest.raises(ValueError, match=r"empty interval \[1.0, 0.0\]"):
        ScalarBlockQuantizer([0.0, 1.0], [1.0, 0.0], [2, 2])
    for lo, hi in ((math.nan, 1.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="endpoints must be finite"):
            ScalarBlockQuantizer([lo], [hi], [2])
    for bits in (1.5, -1):
        with pytest.raises(ValueError, match="nonnegative integer"):
            ScalarBlockQuantizer([0.0, 0.0], [1.0, 1.0], [2, bits])
    with pytest.raises(ValueError, match="shapes"):
        ScalarBlockQuantizer([0.0, 0.0], [1.0], [2])
    # An integral float rate is its int, and the quantizer works.
    assert _rate(2.0) == 2 and type(_rate(2.0)) is int
    q = ScalarBlockQuantizer([0.0], [1.0], [2.0])
    assert q.quantize(np.array([0.3])).tolist() == [0.375]
    xs = np.linspace(-0.5, 1.5, 33)
    ints = ScalarBlockQuantizer(np.zeros(33), np.ones(33), np.full(33, 2))
    floats = ScalarBlockQuantizer(np.zeros(33), np.ones(33), np.full(33, 2.0))
    assert floats.quantize(xs).tobytes() == ints.quantize(xs).tobytes()
    assert floats.worst_case_errors().tobytes() == ints.worst_case_errors().tobytes()
    with pytest.raises(ValueError, match="non-finite"):
        q.quantize(np.array([float("nan")]))
    with pytest.raises(ValueError, match="non-finite"):
        ScalarBlockQuantizer([0.0, 0.0], [1.0, 1.0], [2, 2]).quantize(np.array([0.3, math.nan]))


@pytest.mark.parametrize("bits", [1024, 1024.0, 1100])
def test_refuses_a_rate_of_1024_bits_or_more(bits):
    """2.0 ** 1024 overflows a float, and every input would decode to lo: refused by one rule."""
    for build in (
        lambda: ScalarBlockQuantizer([0.0, 0.0], [1.0, 1.0], [2, bits]),
        lambda: LatticeQuantizer([(0.0, 1.0)], bits),
    ):
        with pytest.raises(ValueError, match="nonnegative integer below 1024, got 1"):
            build()
    # 1023 bits is the top rate: its cells are 2^-1023 wide, and 0.3 lands within half of one.
    assert abs(_scalar(0.0, 1.0, 1023)(0.3) - 0.3) <= 2.0**-1024
    assert sq_worst_case_error((0.0, 1.0), 1023) == 0.0  # 2^-1024 underflows


def test_block_quantizer_coordinatewise():
    block = ScalarBlockQuantizer([0.0, -1.0], [1.0, 1.0], [1, 2])
    assert block.size == 2
    out = block.quantize(np.array([0.9, -0.1]))
    assert out[0] == 0.75
    assert out[1] == -0.25
    assert np.allclose(block.worst_case_errors(), [0.25, 0.25])


def test_block_quantizer_shape_check():
    block = ScalarBlockQuantizer([0.0], [1.0], [1])
    with pytest.raises(ValueError):
        block.quantize(np.array([0.1, 0.2]))


def _loop_quantize(lo, hi, bits, x):
    """The per-coordinate clamp, cell index and midpoint, in Python floats."""
    if hi == lo:
        return lo
    levels = 1 << bits
    width = (hi - lo) / levels
    i = min(int((min(max(x, lo), hi) - lo) / width), levels - 1)
    return lo + (i + 0.5) * width


@st.composite
def _coordinates(draw):
    lo = draw(st.floats(-1e6, 1e6))
    span = draw(st.just(0.0) | st.floats(1e-9, 1e6))
    hi = lo + span
    # inside, on the endpoints, just outside and far outside the interval
    x = draw(
        st.floats(-1e9, 1e9)
        | st.sampled_from([lo, hi])
        | st.floats(-2.0, 3.0).map(lambda t: lo + t * span)
    )
    return (lo, hi, draw(st.integers(0, 20))), x


@given(st.lists(_coordinates(), min_size=1, max_size=12))
def test_block_quantize_matches_the_per_coordinate_loop_bit_for_bit(coords):
    block = ScalarBlockQuantizer(*zip(*(c for c, _ in coords)))
    v = np.array([x for _, x in coords])
    ref = np.array([_loop_quantize(*c, x) for c, x in coords])
    singles = [ScalarBlockQuantizer([lo], [hi], [bits]) for (lo, hi, bits), _ in coords]
    single = np.concatenate([q.quantize(np.array([x])) for q, (_, x) in zip(singles, coords)])
    assert block.quantize(v).tobytes() == ref.tobytes()
    assert single.tobytes() == ref.tobytes()
    # joined from one-coordinate quantizers, or sliced from the block, the arrays are the same
    assert ScalarBlockQuantizer.fuse(singles)(v).tobytes() == ref.tobytes()
    for q in (ScalarBlockQuantizer._join(singles), block._take(slice(None))):
        assert q.quantize(v).tobytes() == ref.tobytes()
        assert q.worst_case_errors().tobytes() == block.worst_case_errors().tobytes()
    for m, q in enumerate(singles):
        part = block._take(slice(m, m + 1))
        assert part.worst_case_errors().tobytes() == q.worst_case_errors().tobytes()
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            block.quantize(np.where(np.arange(v.size) == v.size - 1, bad, v))
