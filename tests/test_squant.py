import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfix.squant import ScalarBlockQuantizer, ScalarQuantizer, sq_worst_case_error


def test_worst_case_error_formula():
    assert sq_worst_case_error((-1.0, 1.0), 0) == 1.0
    assert sq_worst_case_error((-1.0, 1.0), 1) == 0.5
    assert sq_worst_case_error((0.0, 8.0), 3) == 0.5
    assert sq_worst_case_error((0.0, 8.0), 3.0) == 0.5  # an integral float rate is its int
    q = ScalarQuantizer(0.0, 1.0, 4)
    assert q.worst_case_error == 1.0 / 32.0
    assert q.levels == 16
    # cells of width 1/16: adjacent midpoints lie one cell apart
    assert q.quantize(0.07) - q.quantize(0.0) == pytest.approx(1.0 / 16.0)


def test_quantize_hits_cell_midpoints():
    q = ScalarQuantizer(0.0, 1.0, 2)  # cells of width 0.25, midpoints 0.125..0.875
    assert q.quantize(0.0) == 0.125
    assert q.quantize(0.3) == 0.375
    assert q.quantize(1.0) == 0.875
    # a midpoint is its own quantization
    assert q.quantize(0.625) == 0.625


def test_quantize_error_bound_property():
    rng = np.random.default_rng(0)
    for _ in range(100):
        lo = rng.normal()
        hi = lo + 10.0 ** rng.uniform(-3, 2)
        bits = int(rng.integers(0, 9))
        q = ScalarQuantizer(lo, hi, bits)
        xs = rng.uniform(lo, hi, size=64)
        errs = np.abs(np.array([q.quantize(x) for x in xs]) - xs)
        assert np.all(errs <= q.worst_case_error * (1 + 1e-12) + 1e-15)


def test_encode_decode_round_trip():
    q = ScalarQuantizer(-2.0, 2.0, 3)  # cells of width 0.5, midpoints -1.75..1.75
    midpoints = [-2.0 + (i + 0.5) * 0.5 for i in range(q.levels)]
    for x in np.linspace(-2.5, 2.5, 41):
        assert q.quantize(x) in midpoints


def test_encode_clamps_out_of_range():
    # inputs far outside the interval land on the end cells' midpoints
    q = ScalarQuantizer(0.0, 1.0, 2)
    assert q.quantize(-100.0) == 0.125
    assert q.quantize(100.0) == 0.875
    block = ScalarBlockQuantizer([q, ScalarQuantizer(-1.0, 1.0, 1)])
    assert block.quantize(np.array([-100.0, 1e300])).tolist() == [0.125, 0.5]
    assert block.quantize(np.array([100.0, -1e300])).tolist() == [0.875, -0.5]


def test_zero_bits_single_level():
    q = ScalarQuantizer(-1.0, 3.0, 0)
    assert q.levels == 1
    assert q.quantize(-0.7) == 1.0  # interval midpoint
    assert q.worst_case_error == 2.0


def test_degenerate_interval():
    q = ScalarQuantizer(2.0, 2.0, 5)
    assert q.worst_case_error == 0.0
    # a point interval decodes to its endpoint, from inside it or from anywhere else
    for x in (2.0, 7.0, -7.0):
        assert q.quantize(x) == 2.0
    assert ScalarBlockQuantizer([q, q]).quantize(np.array([7.0, -7.0])).tolist() == [2.0, 2.0]


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ScalarQuantizer(1.0, 0.0, 2)
    with pytest.raises(ValueError):
        ScalarQuantizer(0.0, 1.0, -1)
    for bits in (1.5, -1):
        with pytest.raises(ValueError, match="nonnegative integer"):
            ScalarQuantizer(0.0, 1.0, bits)
        with pytest.raises(ValueError, match="nonnegative integer"):
            sq_worst_case_error((0.0, 1.0), bits)
    # An integral float rate is stored as its int, and the quantizer works.
    q = ScalarQuantizer(0.0, 1.0, 2.0)
    assert q.bits == 2 and type(q.bits) is int
    assert (q.levels, q.quantize(0.3), q.worst_case_error) == (4, 0.375, 0.125)
    assert q == ScalarQuantizer(0.0, 1.0, 2)
    with pytest.raises(ValueError, match="non-finite"):
        q.quantize(float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        ScalarBlockQuantizer([q, q]).quantize(np.array([0.3, float("nan")]))


def test_block_quantizer_coordinatewise():
    block = ScalarBlockQuantizer(
        [ScalarQuantizer(0.0, 1.0, 1), ScalarQuantizer(-1.0, 1.0, 2)]
    )
    assert block.size == 2
    out = block.quantize(np.array([0.9, -0.1]))
    assert out[0] == 0.75
    assert out[1] == -0.25
    assert np.allclose(block.worst_case_errors(), [0.25, 0.25])


def test_block_quantizer_shape_check():
    block = ScalarBlockQuantizer([ScalarQuantizer(0.0, 1.0, 1)])
    with pytest.raises(ValueError):
        block.quantize(np.array([0.1, 0.2]))


def _loop_quantize(q, x):
    """The per-coordinate clamp, cell index and midpoint, in Python floats."""
    if q.hi == q.lo:
        return q.lo
    width = (q.hi - q.lo) / q.levels
    i = min(int((min(max(x, q.lo), q.hi) - q.lo) / width), q.levels - 1)
    return q.lo + (i + 0.5) * width


@st.composite
def _coordinates(draw):
    lo = draw(st.floats(-1e6, 1e6))
    span = draw(st.just(0.0) | st.floats(1e-9, 1e6))
    q = ScalarQuantizer(lo, lo + span, draw(st.integers(0, 20)))
    # inside, on the endpoints, just outside and far outside the interval
    x = draw(
        st.floats(-1e9, 1e9)
        | st.sampled_from([q.lo, q.hi])
        | st.floats(-2.0, 3.0).map(lambda t: q.lo + t * span)
    )
    return q, x


@given(st.lists(_coordinates(), min_size=1, max_size=12))
def test_block_quantize_matches_the_per_coordinate_loop_bit_for_bit(coords):
    block = ScalarBlockQuantizer([q for q, _ in coords])
    v = np.array([x for _, x in coords])
    ref = np.array([_loop_quantize(q, x) for q, x in coords])
    single = np.array([q.quantize(x) for q, x in coords])
    assert block.quantize(v).tobytes() == ref.tobytes()
    assert single.tobytes() == ref.tobytes()
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            block.quantize(np.where(np.arange(v.size) == v.size - 1, bad, v))
