import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _lattice_oracle import brute_nearest_distance, enumerate_codebook, scan_decode
from qfix.squant import sq_worst_case_error
from qfix.vquant import (
    LatticeQuantizer,
    _decode_batch,
    covering_radius,
    embedding_basis,
    fundamental_volume,
    glue_vectors,
    nearest_point_a_star,
    vq_decode,
    vq_design,
    vq_encode,
    vq_worst_case_error,
)


def is_lattice_member(point, scale, n, tol=1e-9):
    basis = embedding_basis(n)
    glue = glue_vectors(n)
    w = (np.asarray(point) / scale) @ basis
    if abs(w.sum()) > tol:
        return False
    for g in glue:
        f = w - g
        if np.all(np.abs(f - np.rint(f)) <= tol):
            return True
    return False


def test_geometry_constants():
    assert covering_radius(1) == pytest.approx(math.sqrt(1 / 8), rel=1e-15)
    assert covering_radius(2) == pytest.approx(math.sqrt(8 / 36), rel=1e-15)
    assert covering_radius(3) == pytest.approx(math.sqrt(15 / 48), rel=1e-15)
    assert fundamental_volume(1) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert fundamental_volume(2) == pytest.approx(math.sqrt(1 / 3), rel=1e-15)
    assert fundamental_volume(3) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError):
        covering_radius(0)


def test_worst_case_error_unit_square():
    # n=2, unit box, zero bits: (1 / sqrt(1/3))^(1/2) * sqrt(8/36)
    assert vq_worst_case_error([(0.0, 1.0), (0.0, 1.0)], 2, 0) == pytest.approx(
        0.6204032394013997, rel=1e-12
    )
    # each extra bit shrinks the error by 2^(-1/n)
    e4 = vq_worst_case_error([(0.0, 1.0), (0.0, 1.0)], 2, 4)
    e5 = vq_worst_case_error([(0.0, 1.0), (0.0, 1.0)], 2, 5)
    assert e5 / e4 == pytest.approx(2 ** (-1 / 2), rel=1e-12)


def test_dimension_one_matches_scalar_quantizer_error():
    # The 1-D dual lattice scaled by volume reduces to the uniform scalar grid.
    for bits in range(7):
        assert vq_worst_case_error([(0.0, 1.0)], 1, bits) == pytest.approx(
            sq_worst_case_error((0.0, 1.0), bits), rel=1e-12
        )


def test_basis_is_orthonormal_and_zero_sum():
    for n in (1, 2, 3, 4, 5):
        b = embedding_basis(n)
        assert np.allclose(b @ b.T, np.eye(n), atol=1e-13)
        assert np.allclose(b.sum(axis=1), 0.0, atol=1e-13)
        g = glue_vectors(n)
        assert np.allclose(g.sum(axis=1), 0.0, atol=1e-12)


def test_nearest_point_matches_brute_force():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        scale = float(rng.uniform(0.2, 2.0))
        y = rng.uniform(-3.0, 3.0, size=(2000, n))
        pts = nearest_point_a_star(y, scale)
        d = np.sqrt(np.sum((pts - y) ** 2, axis=1))
        d_ref = brute_nearest_distance(y, scale, n)
        assert np.max(np.abs(d - d_ref)) <= 1e-11


def test_nearest_point_is_lattice_member():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        y = rng.uniform(-2.0, 2.0, size=(50, n))
        pts = nearest_point_a_star(y, 0.7)
        for p in pts:
            assert is_lattice_member(p, 0.7, n)


def test_decode_distance_within_covering_radius():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 4):
        scale = 0.9
        y = rng.uniform(-1.0, 1.0, size=(3000, n))
        pts = nearest_point_a_star(y, scale)
        d = np.sqrt(np.sum((pts - y) ** 2, axis=1))
        assert np.max(d) <= scale * covering_radius(n) + 1e-12


def test_quantizer_scale_and_error():
    box = [(-1.0, 1.0), (0.0, 3.0)]
    q = vq_design(box, 2, 5)
    vol = 2.0 * 3.0
    expected_scale = (vol / (32 * fundamental_volume(2))) ** 0.5
    assert q.scale == pytest.approx(expected_scale, rel=1e-14)
    assert q.worst_case_error == pytest.approx(
        vq_worst_case_error(box, 2, 5), rel=1e-14
    )
    assert q.codebook_size > 0
    assert q.effective_bits == pytest.approx(math.log2(q.codebook_size))


@pytest.mark.parametrize(
    "box, bits",
    [
        ([(-1.0, 1.0)], 5),
        ([(-1.0, 1.0), (-1.0, 1.0)], 6),
        ([(0.0, 2.0), (-0.5, 0.5), (1.0, 4.0)], 7),
        ([(-1.0, 1.0), (0.0, 1.0), (-2.0, 0.0), (0.5, 1.5)], 8),
    ],
    ids=["n1", "n2", "n3", "n4"],
)
def test_quantizer_interior_points_hit_codebook(box, bits):
    rng = np.random.default_rng(3)
    q = LatticeQuantizer(box, bits)
    lo, hi = np.array(box).T
    inside = rng.uniform(lo, hi, size=(500, len(box)))
    # Out-of-box inputs clamp onto the box's faces, edges and corners.
    outside = rng.uniform(lo - 2.0 * (hi - lo), hi + 2.0 * (hi - lo), size=(500, len(box)))
    corners = np.array(list(itertools.product(*box)))
    xs = np.concatenate([inside, outside, corners])
    free = nearest_point_a_star(q.clamp(xs), q.scale)
    for x, ref in zip(xs, free):
        out = q.quantize(x)
        # encoding is exact: the codebook contains the true nearest point
        assert np.allclose(out, ref, atol=1e-11)
        assert np.linalg.norm(out - q.clamp(x)) <= q.worst_case_error + 1e-12
        idx = vq_encode(q, x)
        assert np.array_equal(vq_decode(q, idx), out)


def test_quantizer_clamps_far_inputs():
    q = LatticeQuantizer([(0.0, 1.0), (0.0, 1.0)], 3)
    out = q.quantize(np.array([50.0, -50.0]))
    # output is a codebook point near the box
    gaps = np.maximum(np.maximum(-out, out - 1.0), 0.0)
    assert np.linalg.norm(gaps) <= q.worst_case_error * (1 + 1e-9)


def test_json_round_trip_reproduces_codebook():
    q = LatticeQuantizer([(-0.5, 1.5), (0.0, 1.0)], 4)
    q2 = LatticeQuantizer.from_json(q.to_json())
    assert q2.codebook_size == q.codebook_size
    assert np.array_equal(q2.points, q.points)
    assert q2.keys == q.keys


def test_construction_is_deterministic():
    a = LatticeQuantizer([(-1.0, 2.0), (0.5, 2.5), (0.0, 1.0)], 5)
    b = LatticeQuantizer([(-1.0, 2.0), (0.5, 2.5), (0.0, 1.0)], 5)
    assert np.array_equal(a.points, b.points)


def test_enumeration_guard(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated before the guard")

    monkeypatch.setattr(np, "indices", no_grid)
    with pytest.raises(ValueError, match="guard"):
        LatticeQuantizer([(0.0, 1.0), (0.0, 1.0)], 48)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        LatticeQuantizer([], 3)
    with pytest.raises(ValueError):
        LatticeQuantizer([(0.0, 0.0)], 3)
    with pytest.raises(ValueError):
        LatticeQuantizer([(0.0, 1.0)], -1)
    q = LatticeQuantizer([(0.0, 1.0), (0.0, 1.0)], 2)
    with pytest.raises(ValueError):
        vq_encode(q, np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        vq_decode(q, q.codebook_size)
    with pytest.raises(ValueError):
        nearest_point_a_star(np.array([0.1, np.nan]), 1.0)


@st.composite
def _decode_rows(draw):
    """Random rows, midpoints of nearby lattice points (ties) and clamped rows."""
    n = draw(st.integers(1, 8))
    scale = draw(st.floats(0.05, 5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    basis, glue = embedding_basis(n), glue_vectors(n)

    def lattice_points(f):
        return scale * ((glue[rng.integers(0, n + 1, len(f))] + f) @ basis.T)

    f = rng.integers(-3, 4, size=(40, n + 1))
    step = rng.integers(-1, 2, size=(40, n + 1))
    f[:, -1] -= f.sum(axis=1)
    step[:, -1] -= step.sum(axis=1)
    ties = 0.5 * (lattice_points(f) + lattice_points(f + step))
    lo = rng.uniform(-3.0, 3.0, n)
    hi = lo + rng.uniform(0.1, 3.0, n)
    edges = np.clip(rng.uniform(2.0 * lo - hi, 2.0 * hi - lo, size=(40, n)), lo, hi)
    return np.concatenate([rng.uniform(-5.0, 5.0, size=(40, n)), ties, edges]), scale, n


@given(_decode_rows())
def test_stacked_decoder_equals_the_coset_scan(case):
    y, scale, n = case
    points, coset, f = _decode_batch(y, scale, embedding_basis(n), glue_vectors(n))
    ref_points, ref_coset, ref_f = scan_decode(y, scale, n)
    assert points.tobytes() == ref_points.tobytes()
    assert np.array_equal(coset, ref_coset)
    assert np.array_equal(f, ref_f)


@st.composite
def _boxes(draw):
    # Sides of one scale within a factor of 4 keep the enumeration small.
    scale = draw(st.floats(1e-2, 10.0))
    box = []
    for _ in range(draw(st.integers(1, 5))):
        lo = draw(st.floats(-10.0, 10.0))
        box.append((lo, lo + scale * draw(st.floats(0.5, 2.0))))
    return box, draw(st.integers(0, 11))


@settings(max_examples=40)
@given(_boxes())
def test_codebook_equals_the_reference_enumeration(case):
    q = LatticeQuantizer(*case)
    keys, points = enumerate_codebook(q)
    assert q.keys == keys
    assert q.points.tobytes() == points.tobytes()
    assert q.codebook_size == len(keys)
    assert q._index == {key: pos for pos, key in enumerate(keys)}
