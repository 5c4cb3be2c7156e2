import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _lattice_oracle import brute_nearest_distance, enumerate_codebook, scan_decode
from _oracles import sq_worst_case_error
from qfix import vquant
from qfix.vquant import (
    LatticeQuantizer,
    _decode_batch,
    covering_radius,
    embedding_basis,
    fundamental_volume,
    glue_vectors,
    lattice_scale,
    nearest_point_a_star,
    vq_design,
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
    assert lattice_scale([1.0, 1.0], 0) * covering_radius(2) == pytest.approx(
        0.6204032394013997, rel=1e-12
    )
    # each extra bit shrinks the error by 2^(-1/n)
    e4 = lattice_scale([1.0, 1.0], 4) * covering_radius(2)
    e5 = lattice_scale([1.0, 1.0], 5) * covering_radius(2)
    assert e5 / e4 == pytest.approx(2 ** (-1 / 2), rel=1e-12)
    # the quantizer's bound is this expression, at an integral float rate too
    assert LatticeQuantizer([(0.0, 1.0), (0.0, 1.0)], 4).worst_case_error == e4
    assert LatticeQuantizer([(0.0, 1.0), (0.0, 1.0)], 4.0).worst_case_error == e4


@pytest.mark.parametrize(
    "box", [[(1.0, 0.0)], [(1.0, 0.0), (0.0, 1.0)], [(0.0, 1.0), (2.0, 2.0)]]
)
def test_worst_case_error_refuses_a_degenerate_box(box):
    # an inverted interval would give a negative or complex error
    with pytest.raises(ValueError, match="degenerate box"):
        LatticeQuantizer(box, 0)


def test_dimension_one_matches_scalar_quantizer_error():
    # The 1-D dual lattice scaled by volume reduces to the uniform scalar grid.
    for bits in range(7):
        assert lattice_scale([1.0], bits) * covering_radius(1) == pytest.approx(
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
        lattice_scale([2.0, 3.0], 5) * covering_radius(2), rel=1e-14
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
        # the output is the decoder's point, and a codebook member: in reach of the box
        points, _, _ = _decode_batch(q.clamp(x)[None, :], q.scale, q.basis, q._glue)
        assert out.tobytes() == points[0].tobytes()
        assert q._in_reach(out[None, :])[0]


def test_quantizer_clamps_far_inputs():
    q = LatticeQuantizer([(0.0, 1.0), (0.0, 1.0)], 3)
    out = q.quantize(np.array([50.0, -50.0]))
    # output is a codebook point near the box
    gaps = np.maximum(np.maximum(-out, out - 1.0), 0.0)
    assert np.linalg.norm(gaps) <= q.worst_case_error * (1 + 1e-9)


def test_construction_is_deterministic():
    a = LatticeQuantizer([(-1.0, 2.0), (0.5, 2.5), (0.0, 1.0)], 5)
    b = LatticeQuantizer([(-1.0, 2.0), (0.5, 2.5), (0.0, 1.0)], 5)
    assert a.codebook_size == b.codebook_size
    for x in np.random.default_rng(4).uniform(-2.0, 3.0, size=(200, 3)):
        assert a.quantize(x).tobytes() == b.quantize(x).tobytes()


def test_quantize_refuses_a_decode_out_of_reach(monkeypatch):
    # Membership is distance to the box <= reach (1 + 1e-9), boundary included: a forged decode
    # at exactly that distance is returned, and one a float further is refused.  With hi = 0
    # the computed distance of a 1-D point r is r itself, since sqrt(r * r) == r in IEEE.
    q = LatticeQuantizer([(-1.0, 0.0)], 3)
    edge = q.worst_case_error * (1.0 + 1e-9)
    beyond = np.nextafter(edge, np.inf)
    monkeypatch.setattr(vquant, "_decode_batch", lambda *args: (np.array([[edge]]), None, None))
    assert q.quantize(np.array([0.0]))[0] == edge
    monkeypatch.setattr(vquant, "_decode_batch", lambda *args: (np.array([[beyond]]), None, None))
    with pytest.raises(ValueError, match="outside the codebook's reach"):
        q.quantize(np.array([0.0]))


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
    for bits in (1.5, -1):
        with pytest.raises(ValueError, match="nonnegative integer"):
            LatticeQuantizer([(0.0, 1.0)], bits)
    q = LatticeQuantizer([(0.0, 1.0), (0.0, 1.0)], 2.0)
    assert q.bits == 2 and type(q.bits) is int
    for bad in (np.array([0.1, 0.2, 0.3]), np.array([0.1, np.inf]), np.array([np.nan, 0.2])):
        with pytest.raises(ValueError, match="expected a finite length-2 vector"):
            q.quantize(bad)
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
@given(_boxes(), st.integers(0, 2**16))
def test_codebook_equals_the_reference_enumeration(case, seed):
    q = LatticeQuantizer(*case)
    keys, points = enumerate_codebook(q)
    assert q.codebook_size == len(keys)
    # Clamped inputs inside, outside and at the corners of the box decode to a codebook key,
    # and quantize returns that decode's point.
    rng = np.random.default_rng(seed)
    lo, hi = np.array(q.box).T
    xs = np.concatenate(
        [
            rng.uniform(lo, hi, size=(20, q.n)),
            rng.uniform(2.0 * lo - hi, 2.0 * hi - lo, size=(20, q.n)),
            np.array(list(itertools.product(*q.box))),
        ]
    )
    index = {key: pos for pos, key in enumerate(keys)}
    for x in xs:
        point, coset, f = _decode_batch(q.clamp(x)[None, :], q.scale, q.basis, q._glue)
        key = (int(coset[0]), *f[0].tolist())
        assert key in index
        ref = points[index[key]]
        assert np.max(np.abs(point[0] - ref)) <= 1e-12 * (q.scale + np.max(np.abs(ref)))
        assert q.quantize(x).tobytes() == point[0].tobytes()
