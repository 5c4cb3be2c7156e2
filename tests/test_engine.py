import gc
import itertools
import math
import re
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    IdentityQuantizer,
    adversarial_bank,
    sparse_contraction,
    uniform_l2_spec,
    uniform_wmax_spec,
)
from qfix import engine
from qfix.engine import (
    BlockMapping,
    QuantizerBank,
    Scheme,
    accumulated_error,
    accumulated_error_series,
    affine_contraction,
    bound_certificate,
    random_affine_contraction,
    reference_fixed_point,
    run_iteration,
    worst_case_error_bound,
)
from qfix.mimo import (
    ChannelSet,
    feasible_bank,
    game_box,
    game_mapping,
    game_norm_spec,
    game_partition,
    paper_style_game,
    profile_to_vec,
    random_feasible_profile,
)
from qfix.norms import (
    BlockPartition,
    BoxDomain,
    Lp,
    NormSpec,
    WeightedMax,
    block_norm,
)
from qfix.squant import ScalarBlockQuantizer
from qfix.ticoq import make_sq_bank, make_vq_bank, ticoq_sq_wmax, uniform_sq_allocation


def _halving_map(n=2):
    part = BlockPartition([1] * n)
    spec = uniform_wmax_spec(part)
    box = BoxDomain([(-1.0, 1.0)] * n)
    return affine_contraction(0.5 * np.eye(n), np.zeros(n), part, box, spec, 0.5)


def test_unquantized_halving_run():
    mapping = _halving_map()
    traj = run_iteration(mapping, None, np.array([1.0, 1.0]), 10, Scheme.JACOBI)
    assert traj.steps == 10
    assert np.allclose(traj.final(), [2.0**-10, 2.0**-10], atol=1e-15)
    assert np.all(np.asarray(traj.error_norms) == 0.0)


def test_quantized_errors_stay_below_bank_worst_case():
    mapping = _halving_map()
    part = mapping.partition
    bank = make_sq_bank(part, mapping.domain, [1, 1])
    spec = mapping.norm
    e_bar = bank.worst_case_error(part, spec)
    traj = run_iteration(mapping, bank, np.array([1.0, 1.0]), 20, Scheme.JACOBI)
    assert e_bar == pytest.approx(0.5)
    assert max(traj.error_norms) <= e_bar + 1e-15


def test_gauss_seidel_uses_updated_blocks():
    # T(x1, x2) = (0.5 x2, 0.5 x1) from (1, 0): S1 = 0, then S2 = 0.5 * S1 = 0.
    part = BlockPartition([1, 1])
    spec = uniform_wmax_spec(part)
    box = BoxDomain([(-1.0, 1.0)] * 2)
    a = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
    mapping = affine_contraction(a, np.zeros(2), part, box, spec, 0.5)
    traj = run_iteration(mapping, None, np.array([1.0, 0.0]), 1, Scheme.GAUSS_SEIDEL)
    assert np.allclose(traj.final(), [0.0, 0.0], atol=1e-15)
    # Jacobi from the same start lands elsewhere
    traj_j = run_iteration(mapping, None, np.array([1.0, 0.0]), 1, Scheme.JACOBI)
    assert np.allclose(traj_j.final(), [0.0, 0.5], atol=1e-15)


def test_schemes_share_fixed_point():
    rng = np.random.default_rng(4)
    for _ in range(10):
        part = BlockPartition(list(rng.integers(1, 3, size=rng.integers(1, 4))))
        spec = uniform_l2_spec(part)
        box = BoxDomain([(-2.0, 2.0)] * part.n)
        mapping, x_star = random_affine_contraction(part, spec, box, 0.6, rng=rng)
        x0 = np.zeros(part.n)
        tj = run_iteration(mapping, None, x0, 80, Scheme.JACOBI)
        tg = run_iteration(mapping, None, x0, 80, Scheme.GAUSS_SEIDEL)
        assert np.allclose(tj.final(), x_star, atol=1e-8)
        assert np.allclose(tg.final(), x_star, atol=1e-8)


def test_geometric_decay_at_declared_modulus():
    part = BlockPartition([2, 2])
    spec = uniform_l2_spec(part)
    box = BoxDomain([(-3.0, 3.0)] * 4)
    mapping, x_star = random_affine_contraction(part, spec, box, 0.7, rng=11)
    traj = run_iteration(mapping, None, np.full(4, 0.1), 30, Scheme.JACOBI, reference=x_star)
    d = np.asarray(traj.dist_to_ref)
    ratios = d[1:] / d[:-1]
    assert np.all(ratios <= 0.7 + 1e-9)


def test_accumulated_error_worked_values():
    # alpha=0.5, constant error 0.1, t=3: 0.25*0.1*(1+2+4)
    errs = [0.1, 0.1, 0.1]
    assert accumulated_error(0.5, errs) == pytest.approx(0.175, rel=1e-12)
    assert accumulated_error(0.5, errs, depth=2) == pytest.approx(0.2625, rel=1e-12)
    assert accumulated_error(0.9, [0.3]) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        accumulated_error(0.5, [])


def test_accumulated_error_series_matches_recurrence():
    rng = np.random.default_rng(5)
    errs = rng.uniform(0, 1, size=12)
    series = accumulated_error_series(0.55, errs)
    assert series[0] == 0.0
    for t in range(1, 13):
        assert series[t] == pytest.approx(accumulated_error(0.55, errs[:t]), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(0.0, 0.999),
    errs=st.lists(st.floats(0.0, 1e3, allow_nan=False), min_size=1, max_size=40),
    depth=st.integers(1, 8) | st.just(math.inf),
)
def test_accumulated_error_is_the_series_last_value(alpha, errs, depth):
    last = accumulated_error_series(alpha, errs, depth=depth)[-1]
    assert accumulated_error(alpha, errs, depth=depth) == last
    assert isinstance(accumulated_error(alpha, errs, depth=depth), float)


def test_worst_case_bound_worked_values():
    assert worst_case_error_bound(0.5, 0.1, math.inf) == pytest.approx(0.2)
    assert worst_case_error_bound(0.5, 0.1, math.inf, depth=2) == pytest.approx(0.3)
    assert worst_case_error_bound(0.5, 0.0, math.inf, depth=math.inf) == 0.0
    # finite-t Jacobi: (1 - alpha^t) / (1 - alpha) * e_bar
    assert worst_case_error_bound(0.5, 0.1, 3) == pytest.approx(0.175)
    # async limiting bound: e_bar / (1 - alpha)^2
    assert worst_case_error_bound(0.5, 0.1, math.inf, depth=math.inf) == pytest.approx(0.4)


def test_certificate_on_quantized_runs():
    rng = np.random.default_rng(6)
    for _ in range(20):
        sizes = list(rng.integers(1, 3, size=rng.integers(1, 4)))
        part = BlockPartition(sizes)
        spec = uniform_wmax_spec(part)
        box = BoxDomain([(-1.5, 1.5)] * part.n)
        alpha = float(rng.uniform(0.2, 0.85))
        mapping, x_star = random_affine_contraction(part, spec, box, alpha, rng=rng)
        alloc = ticoq_sq_wmax(part, spec, box, int(rng.integers(0, 12)))
        bank = make_sq_bank(part, box, alloc.bits)
        x0 = box.clamp(rng.uniform(-1.5, 1.5, part.n))
        scheme = Scheme.JACOBI if rng.random() < 0.5 else Scheme.GAUSS_SEIDEL
        traj = run_iteration(mapping, bank, x0, 25, scheme)
        cert = bound_certificate(traj, mapping, x_star)
        assert cert.all_ok()
        assert np.all(cert.dist <= cert.bound + 1e-9)


def test_sequential_ticks_replay_gauss_seidel_sweeps():
    part = BlockPartition([2, 1, 3])
    spec = uniform_l2_spec(part)
    box = BoxDomain([(-1.0, 1.0)] * part.n)
    mapping, x_star = random_affine_contraction(part, spec, box, 0.7, rng=3)
    bank = make_sq_bank(part, box, [3] * part.n)
    x0 = np.linspace(-0.9, 0.9, part.n)
    K, sweeps = part.num_blocks, 7
    gs = run_iteration(mapping, bank, x0, sweeps, Scheme.GAUSS_SEIDEL)
    seq = run_iteration(mapping, bank, x0, K * sweeps, Scheme.SEQUENTIAL)
    assert seq.scheme is Scheme.SEQUENTIAL
    assert np.array_equal(seq.iterates[::K], gs.iterates)
    # One block moves per tick; the others copy.
    for t in range(seq.steps):
        moved = np.flatnonzero(seq.iterates[t + 1] != seq.iterates[t])
        assert set(moved) <= set(range(*part.block_slice(t % K).indices(part.n)))
    assert bound_certificate(seq, mapping, x_star).all_ok()


def test_sequential_bound_counts_ticks_of_the_current_sweep():
    # Starting at x*, d(0) = 0 and the first tick moves the iterate by its
    # quantization error alone: d(1) = eps_0, which B(0) = 0 does not cover.
    part = BlockPartition([2, 2])
    spec = uniform_wmax_spec(part)
    box = BoxDomain([(-1.0, 1.0)] * part.n)
    mapping, x_star = random_affine_contraction(part, spec, box, 0.5, rng=1)
    bank = make_sq_bank(part, box, [1] * part.n)
    traj = run_iteration(mapping, bank, x_star, 6, Scheme.SEQUENTIAL)
    cert = bound_certificate(traj, mapping, x_star)
    assert cert.dist[1] == pytest.approx(traj.error_norms[0], rel=1e-12) and cert.dist[1] > 0
    assert cert.bound[1] == pytest.approx(traj.error_norms[0], rel=1e-12)
    assert cert.all_ok()


@pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5, math.inf, math.nan])
def test_bounds_refuse_a_modulus_outside_the_unit_interval(alpha):
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\), got"):
        accumulated_error_series(alpha, [0.1])
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\), got"):
        worst_case_error_bound(alpha, 0.1, 5)


def test_bounds_refuse_a_negative_worst_case_error():
    with pytest.raises(ValueError, match="worst-case single-step error must be nonnegative"):
        worst_case_error_bound(0.5, -1e-300, math.inf)


@pytest.mark.parametrize("depth", [0, -2, math.nan])
def test_bounds_refuse_a_block_count_below_one(depth):
    # The depth counts the blocks of a sweep an error passes through. A Gauss-Seidel block
    # count of 0 or -2 gave the zero bounds [0, 0, 0] and the negative [-0, -0.6, -0.9].
    with pytest.raises(ValueError, match="depth must be >= 1, got"):
        accumulated_error_series(0.5, [0.1, 0.1], depth=depth)
    with pytest.raises(ValueError, match="depth must be >= 1, got"):
        worst_case_error_bound(0.5, 0.1, 5, depth=depth)
    assert accumulated_error_series(0.5, [0.1, 0.1], depth=1).tolist() == [
        0.0, 0.1, 0.15000000000000002
    ]


@pytest.mark.parametrize("t", [-3, -1e-300, -math.inf, math.nan])
def test_worst_case_bound_refuses_a_negative_or_nan_horizon(t):
    # t = -3 gave the negative bound -1.4
    with pytest.raises(ValueError, match="horizon must be >= 0, got"):
        worst_case_error_bound(0.5, 0.1, t)
    assert worst_case_error_bound(0.5, 0.1, 0) == 0.0


@st.composite
def _contractions(draw, sparse=False, min_blocks=1):
    """(part, spec, box, mapping, x*): a block permutation with ||A x|| = alpha ||x|| on weighted-max
    and L2 blocks, or, if `sparse`, a map on weighted-max blocks whose rows read 1-3 blocks."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=min_blocks, max_size=6))
    part = BlockPartition(sizes)
    weight = st.floats(0.25, 4.0)
    per_block = [
        "wmax" if sparse else draw(st.sampled_from(["wmax", "l2"])) for _ in sizes
    ]
    spec = NormSpec(
        [draw(weight) for _ in sizes],
        [
            WeightedMax([draw(weight) for _ in range(size)]) if kind == "wmax" else Lp(2.0)
            for size, kind in zip(sizes, per_block)
        ],
    )
    box = BoxDomain([(-1.0, 1.0)] * part.n)
    alpha = draw(st.floats(0.05, 0.95))
    family = sparse_contraction if sparse else random_affine_contraction
    mapping, x_star = family(part, spec, box, alpha, rng=draw(st.integers(0, 2**32 - 1)))
    return part, spec, box, mapping, x_star


@st.composite
def _contraction_runs(draw):
    part, _, box, mapping, x_star = draw(_contractions())
    bits = draw(st.none() | st.lists(st.integers(0, 6), min_size=part.n, max_size=part.n))
    bank = None if bits is None else make_sq_bank(part, box, bits)
    x0 = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=part.n, max_size=part.n)))
    scheme = draw(st.sampled_from([Scheme.JACOBI, Scheme.GAUSS_SEIDEL, Scheme.SEQUENTIAL]))
    steps = draw(st.integers(1, 40))
    return mapping, x_star, bank, x0, scheme, steps


@given(_contraction_runs())
def test_certificate_holds_under_every_update_order(run):
    mapping, x_star, bank, x0, scheme, steps = run
    traj = run_iteration(mapping, bank, x0, steps, scheme)
    cert = bound_certificate(traj, mapping, x_star)
    assert cert.all_ok(), np.max(cert.dist - cert.bound)


@st.composite
def _worst_case_runs(draw):
    """A map of either family, a bank that pushes every coordinate its stated worst case away
    from x*, a start and a run length."""
    part, spec, _, mapping, x_star = draw(_contractions(sparse=draw(st.booleans())))
    bank = adversarial_bank(part, spec, draw(st.sampled_from([1e-3, 1e-2, 0.1])), center=x_star)
    x0 = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=part.n, max_size=part.n)))
    return mapping, x_star, bank, x0, draw(st.integers(1, 40))


@pytest.mark.parametrize("scheme", list(Scheme))
@given(_worst_case_runs())
def test_certificate_holds_under_worst_case_errors(scheme, run):
    """Every update order gets its own examples: the certificate holds when every coordinate
    errs by its stated worst case, on block permutations and on sparse maps."""
    mapping, x_star, bank, x0, steps = run
    traj = run_iteration(mapping, bank, x0, steps, scheme)
    cert = bound_certificate(traj, mapping, x_star)
    assert cert.all_ok(), np.max(cert.dist - cert.bound)


@st.composite
def _chained_worst_case_runs(draw):
    """A sparse map, a bank that pushes every coordinate its stated worst case away from x*, and a
    run length: a run from x* itself, where each block's error has the sign of the errors it reads,
    so the errors of a sweep add along every chain of reads."""
    part, spec, _, mapping, x_star = draw(_contractions(sparse=True, min_blocks=2))
    bank = adversarial_bank(part, spec, draw(st.sampled_from([1e-3, 1e-2, 0.1])), center=x_star)
    return mapping, x_star, bank, draw(st.integers(1, 40))


@given(_chained_worst_case_runs())
def test_gauss_seidel_certificate_holds_when_errors_add_along_chains_of_reads(run):
    """From d0 = 0 the bound is the sweep's error term alone, which a chain of two or more reads
    of new values exceeds unless the sweep is charged past depth 1."""
    mapping, x_star, bank, steps = run
    traj = run_iteration(mapping, bank, x_star, steps, Scheme.GAUSS_SEIDEL)
    cert = bound_certificate(traj, mapping, x_star)
    assert cert.all_ok(), np.max(cert.dist - cert.bound)


def test_a_chain_map_meets_its_gauss_seidel_bound():
    """Block k reads only block k - 1, with weight alpha, and every error is +rho along the chain.
    From x* = 0, one Gauss-Seidel sweep carries block K - 1 to rho (1 - alpha^K) / (1 - alpha), the
    depth-K bound itself: the certificate holds at every sweep and meets its bound at the first."""
    K, alpha, rho = 8, 0.9, 0.01
    part = BlockPartition([1] * K)
    spec = uniform_wmax_spec(part)
    mapping = affine_contraction(alpha * np.eye(K, k=-1), np.zeros(K), part, BoxDomain([(-1.0, 1.0)] * K),
                                 spec, alpha)
    assert len(mapping.sweep_groups) == K
    bank = adversarial_bank(part, spec, rho, direction=np.ones(K))
    traj = run_iteration(mapping, bank, np.zeros(K), 20, Scheme.GAUSS_SEIDEL)
    cert = bound_certificate(traj, mapping, np.zeros(K))
    assert cert.all_ok(), np.max(cert.dist - cert.bound)
    assert abs(cert.dist[1] - cert.bound[1]) <= 4 * np.spacing(cert.bound[1])
    assert cert.bound[1] > 5 * rho  # the depth-1 factor would bound it by rho


def test_certificate_fails_for_understated_modulus():
    part = BlockPartition([1])
    spec = uniform_wmax_spec(part)
    box = BoxDomain([(-1.0, 1.0)])
    # true ratio 0.9 but declared 0.2: alpha^t d0 decays far too fast
    honest = affine_contraction(np.array([[0.9]]), np.zeros(1), part, box, spec, 0.9)
    lying = BlockMapping(honest.fn, part, box, spec, 0.2)
    traj = run_iteration(lying, None, np.array([1.0]), 10, Scheme.JACOBI)
    cert = bound_certificate(traj, lying, np.zeros(1))
    assert not cert.all_ok()


@pytest.mark.parametrize(
    "scheme, bound",
    [
        # E(t) = S(t), S(t+1) = S(t) / 2 + 1/4: bound = 2^-t + S(t)
        (Scheme.JACOBI, [1.0, 0.75, 0.625, 0.5625, 0.53125]),
        # sweeps of 2 ticks: 2^-s + (3/2) S(s) + spent(t), s = t // 2, spent 1/4 on odd ticks
        (Scheme.SEQUENTIAL, [1.0, 1.25, 0.875, 1.125, 0.8125]),
    ],
    ids=["jacobi", "sequential"],
)
def test_certificate_flags_a_step_just_past_its_bound(scheme, bound):
    """A hand-made run whose distances sit at, just past and well past the bound."""
    mapping = _halving_map()
    dist = [bound[0], bound[1] + 2e-9, bound[2], 1.5 * bound[3], bound[4]]
    iterates = np.array([[d, 0.0] for d in dist])
    errors = np.tile([0.25, 0.0], (4, 1))
    traj = engine.Trajectory(iterates, errors, np.full(4, 0.25), scheme)
    cert = bound_certificate(traj, mapping, np.zeros(2))
    assert cert.bound.tolist() == bound
    assert cert.dist.tolist() == dist
    assert cert.ok.tolist() == [True, False, True, False, True]


def test_an_affine_map_is_freed_by_reference_counting():
    """No reference cycle holds a map that has built its group records."""
    part = BlockPartition([2] * 4)
    box = BoxDomain([(-1.0, 1.0)] * part.n)
    gc.disable()
    try:
        mapping, _ = random_affine_contraction(part, uniform_wmax_spec(part), box, 0.5, rng=0)
        for scheme in (Scheme.JACOBI, Scheme.GAUSS_SEIDEL, Scheme.SEQUENTIAL):
            run_iteration(mapping, None, np.zeros(part.n), 3, scheme)
        assert len(mapping._update_groups) > 1
        freed = weakref.ref(mapping)
        del mapping
        assert freed() is None
    finally:
        gc.enable()


def test_run_iteration_validation():
    mapping = _halving_map()
    with pytest.raises(ValueError):
        run_iteration(mapping, None, np.array([2.0, 0.0]), 5, Scheme.JACOBI)  # outside box
    with pytest.raises(ValueError):
        run_iteration(mapping, None, np.zeros(2), 0, Scheme.JACOBI)
    with pytest.raises(ValueError):
        run_iteration(mapping, None, np.zeros(3), 5, Scheme.JACOBI)
    bank = make_sq_bank(mapping.partition, mapping.domain, [1, 1])
    with pytest.raises(ValueError):
        run_iteration(mapping, [bank] * 3, np.zeros(2), 5, Scheme.JACOBI)


def test_per_step_quantizer_sequence():
    mapping = _halving_map()
    part = mapping.partition
    banks = [make_sq_bank(part, mapping.domain, [b, b]) for b in (1, 2, 3)]
    traj = run_iteration(mapping, banks, np.array([1.0, 1.0]), 3, Scheme.JACOBI)
    specs = mapping.norm
    for t, bank in enumerate(banks):
        assert traj.error_norms[t] <= bank.worst_case_error(part, specs) + 1e-15


def test_generator_schedule_runs_like_a_list():
    mapping = _halving_map()
    part = mapping.partition
    banks = [make_sq_bank(part, mapping.domain, [b, b]) for b in (1, 2, 3)]
    x0 = np.array([1.0, 1.0])
    listed = run_iteration(mapping, banks, x0, 3, Scheme.JACOBI)
    generated = run_iteration(mapping, (b for b in banks), x0, 3, Scheme.JACOBI)
    assert np.array_equal(generated.iterates, listed.iterates)
    assert np.array_equal(generated.error_norms, listed.error_norms)
    for steps in (2, 4):
        with pytest.raises(ValueError, match=f"3 per-step banks for {steps} steps"):
            run_iteration(mapping, (b for b in banks), x0, steps, Scheme.JACOBI)


def test_certificate_reuses_the_run_distances(monkeypatch):
    part = BlockPartition([2, 1, 3])
    spec = NormSpec([1.0, 2.0, 0.5], [WeightedMax([1.0, 2.0]), Lp(2.0), Lp(3.0)])
    box = BoxDomain([(-1.0, 1.0)] * part.n)
    mapping, x_star = random_affine_contraction(part, spec, box, 0.6, rng=4)
    bank = make_sq_bank(part, box, [3] * part.n)
    x0 = np.full(part.n, 0.9)
    plain = bound_certificate(run_iteration(mapping, bank, x0, 12, Scheme.JACOBI), mapping, x_star)

    calls = []
    row_norms = engine._row_norms

    def counted_distances(*args):
        if len(args) == 3:  # distances to a reference, not the run's error norms
            calls.append(args)
        return row_norms(*args)

    monkeypatch.setattr(engine, "_row_norms", counted_distances)
    traj = run_iteration(mapping, bank, x0, 12, Scheme.JACOBI, reference=x_star)
    cert = bound_certificate(traj, mapping, x_star)
    assert len(calls) == 1
    for field in ("ok", "bound", "dist"):
        assert np.array_equal(getattr(cert, field), getattr(plain, field))

    # another reference, or distances in another norm, are measured afresh
    bound_certificate(traj, mapping, x_star + 1e-3)
    l2 = BlockMapping(mapping.fn, part, box, uniform_l2_spec(part), mapping.modulus)
    cert_l2 = bound_certificate(traj, l2, x_star)
    assert len(calls) == 3
    assert np.array_equal(cert_l2.dist, [l2.distance(x, x_star) for x in traj.iterates])


@pytest.mark.parametrize("chunk", [1, 6, 7, 13, 1 << 18])
def test_distances_in_row_chunks_equal_each_row_alone(monkeypatch, chunk):
    part = BlockPartition([2, 1, 3])
    spec = NormSpec([1.0, 2.0, 0.5], [WeightedMax([1.0, 2.0]), Lp(2.0), Lp(3.0)])
    box = BoxDomain([(-1.0, 1.0)] * part.n)
    mapping, x_star = random_affine_contraction(part, spec, box, 0.6, rng=4)
    iterates = np.random.default_rng(5).normal(size=(40, part.n))
    alone = [mapping.distance(x, x_star) for x in iterates]
    # a chunk of 1, 1, 1, 2 or all 40 rows, ending inside or at a row's end
    monkeypatch.setattr(engine, "_DISTANCE_CHUNK", chunk)
    got = engine._row_norms(mapping, iterates, x_star)
    assert got.tobytes() == np.array(alone).tobytes()


def test_mapping_validation():
    part = BlockPartition([1, 1])
    spec = uniform_wmax_spec(part)
    box = BoxDomain([(-1.0, 1.0)] * 2)
    with pytest.raises(ValueError):
        BlockMapping(lambda x: 0.5 * x, part, box, spec, 1.0)  # modulus not < 1
    with pytest.raises(ValueError):
        BlockMapping(lambda x: 0.5 * x, part, BoxDomain([(-1.0, 1.0)]), spec, 0.5)


def test_random_affine_contraction_exact_modulus():
    rng = np.random.default_rng(7)
    for spec_maker in (uniform_wmax_spec, uniform_l2_spec):
        for _ in range(10):
            sizes = list(rng.integers(1, 4, size=rng.integers(1, 4)))
            part = BlockPartition(sizes)
            spec = spec_maker(part)
            box = BoxDomain([(-1.0, 2.0)] * part.n)
            alpha = float(rng.uniform(0.1, 0.9))
            mapping, x_star = random_affine_contraction(part, spec, box, alpha, rng=rng)
            assert box.contains(x_star)
            assert np.allclose(mapping.eval_full(x_star), x_star, atol=1e-12)
            for _ in range(20):
                x = rng.uniform(-1.0, 2.0, part.n)
                y = rng.uniform(-1.0, 2.0, part.n)
                lhs = block_norm(mapping.fn(x) - mapping.fn(y), part, spec)
                rhs = block_norm(x - y, part, spec)
                assert lhs == pytest.approx(alpha * rhs, rel=1e-10, abs=1e-13)


def test_random_affine_contraction_deterministic():
    part = BlockPartition([2, 2])
    spec = uniform_l2_spec(part)
    box = BoxDomain([(-1.0, 1.0)] * 4)
    m1, x1 = random_affine_contraction(part, spec, box, 0.5, rng=42)
    m2, x2 = random_affine_contraction(part, spec, box, 0.5, rng=42)
    assert np.array_equal(x1, x2)
    probe = np.array([0.3, -0.2, 0.9, 0.0])
    assert np.array_equal(m1.eval_full(probe), m2.eval_full(probe))


def _affine_draw_with_choice(part, spec, domain, alpha, rng):
    """A, b and x* drawn as `random_affine_contraction` once drew them, signs by `rng.choice`."""
    K, n = part.num_blocks, part.n
    groups = {}
    for k, norm_k in enumerate(spec.per_block):
        kind = ("wmax", norm_k.size) if isinstance(norm_k, WeightedMax) else ("lp", norm_k.p)
        groups.setdefault((part.block_sizes[k], kind), []).append(k)
    pi = np.empty(K, dtype=int)
    for members in groups.values():
        perm = rng.permutation(len(members))
        for pos, k in enumerate(members):
            pi[k] = members[perm[pos]]
    A = np.zeros((n, n))
    for k in range(K):
        src, nk, norm_k = int(pi[k]), part.block_sizes[k], spec.per_block[k]
        if isinstance(norm_k, Lp) and norm_k.p == 2.0:
            core, _ = np.linalg.qr(rng.standard_normal((nk, nk)))
            if np.linalg.det(core) < 0:
                core[:, 0] = -core[:, 0]
        else:
            perm = rng.permutation(nk)
            core = np.zeros((nk, nk))
            core[np.arange(nk), perm] = rng.choice([-1.0, 1.0], size=nk)
            if isinstance(norm_k, WeightedMax):
                a_src = np.asarray(spec.per_block[src].a)
                core[np.arange(nk), perm] *= np.asarray(norm_k.a) / a_src[perm]
        scale = alpha * spec.block_weights[k] / spec.block_weights[src]
        A[part.block_slice(k), part.block_slice(src)] = scale * core
    lo, hi = np.asarray(domain.lo), np.asarray(domain.hi)
    x_star = lo + rng.uniform(0.15, 0.85, size=n) * (hi - lo)
    return A, x_star - A @ x_star, x_star


def test_random_affine_contraction_draws_the_maps_of_the_choice_draw():
    """Signs indexed by `integers(0, 2)` are the signs, and the generator state, `choice` gives."""
    part = BlockPartition([4, 4, 2, 3, 3, 1, 2, 2])
    spec = NormSpec(
        [1.0, 2.0, 0.5, 1.0, 1.0, 3.0, 1.0, 1.0],
        [
            WeightedMax([1.0, 0.5, 2.0, 1.0]), WeightedMax([2.0, 1.0, 1.0, 0.25]),
            WeightedMax([1.0, 3.0]), Lp(2.0), Lp(2.0), WeightedMax([1.0]), Lp(1.0), Lp(1.0),
        ],
    )
    box = BoxDomain([(-1.0, 2.0)] * part.n)
    for seed in range(40):
        rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
        mapping, x_star = random_affine_contraction(part, spec, box, 0.7, rng=rng)
        A, b, x_old = _affine_draw_with_choice(part, spec, box, 0.7, old)
        entries = mapping.fn
        drawn = np.zeros((part.n, part.n))
        drawn[entries.row, entries.col] = entries.val
        assert drawn.tobytes() == A.tobytes()
        assert entries.b.tobytes() == b.tobytes()
        assert x_star.tobytes() == x_old.tobytes()
        assert rng.bit_generator.state == old.bit_generator.state


def test_reference_fixed_point():
    mapping = _halving_map()
    x_star = reference_fixed_point(mapping)
    assert np.allclose(x_star, 0.0, atol=1e-11)
    with pytest.raises(RuntimeError):
        reference_fixed_point(mapping, x0=np.array([1.0, 1.0]), max_steps=1, tol=1e-16)


def test_uniform_allocation_helper():
    assert list(uniform_sq_allocation(3, 8)) == [3, 3, 2]
    assert list(uniform_sq_allocation(4, 8)) == [2, 2, 2, 2]
    assert list(uniform_sq_allocation(2, 0)) == [0, 0]


# ---------------------------------------------------------------------------
# Block-native evaluation and the one-pass scalar bank
# ---------------------------------------------------------------------------

def _row_by_row(a, b, x):
    """A x + b as the affine contract states it, one row at a time.

    Row r adds a[r, c] * x[c] over its nonzero c, ascending, from 0.0, then
    adds b[r].
    """
    y = np.empty(len(b))
    for r in range(len(b)):
        acc = 0.0
        for c in np.flatnonzero(a[r]):
            acc = acc + a[r, c] * x[c]
        y[r] = acc + b[r]
    return y


@st.composite
def _affine_maps(draw):
    """An affine map on mixed blocks of unequal sizes, and a point in or out of its box."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=7))
    part = BlockPartition(sizes)
    per_block = [
        draw(
            st.one_of(
                st.just(WeightedMax([1.0] * size)),
                st.builds(Lp, st.sampled_from([1.0, 1.5, 2.0, 3.0])),
            )
        )
        for size in sizes
    ]
    spec = NormSpec([draw(st.floats(0.25, 4.0)) for _ in sizes], per_block)
    box = BoxDomain([(-1.0, 1.0)] * part.n)
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):  # one nonzero block per block row; its A and b as built
        with mock.patch.object(engine, "affine_contraction", wraps=affine_contraction) as spy:
            mapping, _ = random_affine_contraction(part, spec, box, 0.7, rng=seed)
        a, b = spy.call_args.args[:2]
    else:  # every row dense
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((part.n, part.n)) / part.n, rng.standard_normal(part.n)
        mapping = affine_contraction(a, b, part, box, spec, 0.5)
    scale = draw(st.sampled_from([1.0, 3.0]))  # inside the box, or mostly outside it
    x = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=part.n, max_size=part.n)))
    return mapping, x, (a, b)


@given(_affine_maps(), st.data())
def test_affine_blocks_equal_the_sliced_full_evaluation(case, data):
    mapping, x, _ = case
    part = mapping.partition
    full = mapping.eval_full(x)
    shuffled = data.draw(st.permutations(range(part.num_blocks)))
    other = tuple(shuffled[: data.draw(st.integers(1, part.num_blocks))])  # any blocks, any order
    for k in (*range(part.num_blocks), *mapping.sweep_groups, other):
        block = mapping.eval_block(k, x)
        assert block.tobytes() == full[part.block_index(k)].tobytes()


@given(_affine_maps(), st.data())
def test_affine_maps_follow_the_row_by_row_contract(case, data):
    mapping, x, (a, b) = case
    part = mapping.partition

    def check(m, a, b, x):
        raw = _row_by_row(a, b, x)
        assert m.fn(x).tobytes() == raw.tobytes()
        assert m.eval_full(x).tobytes() == np.clip(raw, -1.0, 1.0).tobytes()
        return raw

    check(mapping, a, b, x)
    # The same map with an all-zero row, a row of -0.0 products and a 1e-300 entry.
    zero, signed, tiny, col = (data.draw(st.integers(0, part.n - 1)) for _ in range(4))
    a, b, x = a.copy(), b.copy(), x.copy()
    a[tiny, col] = 1e-300
    a[zero] = 0.0
    if signed != zero:
        cols = np.flatnonzero(a[signed])
        x[cols] = np.copysign(0.0, -a[signed, cols])
        b[signed] = -0.0
    raw = check(affine_contraction(a, b, part, mapping.domain, mapping.norm, 0.5), a, b, x)
    assert raw[zero].tobytes() == b[zero].tobytes()  # +0.0 + b[r] is b[r]
    if signed != zero:
        assert raw[signed].tobytes() == np.float64(0.0).tobytes()  # +0.0 + -0.0 is +0.0


@pytest.mark.parametrize("game_id", [0, 1, 2, 3])
def test_game_blocks_equal_the_sliced_full_evaluation(game_id):
    game = paper_style_game(seed=game_id)
    mapping = game_mapping(ChannelSet.generate(game), 0.5)
    rng = np.random.default_rng(game_id)
    for _ in range(5):
        x = profile_to_vec(random_feasible_profile(game, rng))
        for point in (x, 1.5 * x):  # a feasible profile, and one beyond the power budget
            full = mapping.eval_full(point)
            for k in range(mapping.partition.num_blocks):
                block = mapping.eval_block(k, point)
                assert block.tobytes() == full[mapping.partition.block_slice(k)].tobytes()


def _counted(mapping):
    calls = {"fn": 0, "group": 0}

    def fn(x):
        calls["fn"] += 1
        return mapping.fn(x)

    def group_fn(k):
        evaluate = mapping.group_fn(k)

        def counted(x):
            calls["group"] += 1
            return evaluate(x)

        return counted

    counted = BlockMapping(
        fn, mapping.partition, mapping.domain, mapping.norm, mapping.modulus, group_fn=group_fn
    )
    return counted, calls


def test_block_updates_evaluate_one_block_each():
    part = BlockPartition([4] * 8)
    spec = uniform_wmax_spec(part)
    box = BoxDomain([(-1.0, 1.0)] * part.n)
    mapping, _ = random_affine_contraction(part, spec, box, 0.5, rng=3)
    bank = make_sq_bank(part, box, [6] * part.n)
    x0 = np.zeros(part.n)
    counted, calls = _counted(mapping)
    sweep = run_iteration(counted, bank, x0, 1, Scheme.GAUSS_SEIDEL)
    assert calls == {"fn": 0, "group": part.num_blocks}
    ticks = run_iteration(counted, bank, x0, part.num_blocks, Scheme.SEQUENTIAL)
    assert calls == {"fn": 0, "group": 2 * part.num_blocks}
    assert np.array_equal(ticks.final(), sweep.final())
    run_iteration(counted, bank, x0, 3, Scheme.JACOBI)
    assert calls == {"fn": 3, "group": 2 * part.num_blocks}
    # the same runs through sliced full evaluations
    sliced = BlockMapping(mapping.fn, part, box, spec, mapping.modulus)
    assert sliced.group_fn is None
    resliced = run_iteration(sliced, bank, x0, 1, Scheme.GAUSS_SEIDEL)
    assert resliced.final().tobytes() == sweep.final().tobytes()


def test_block_evaluation_checks_its_shape():
    part = BlockPartition([2, 1])
    spec = uniform_wmax_spec(part)
    box = BoxDomain([(-1.0, 1.0)] * 3)
    mapping = BlockMapping(
        lambda x: 0.5 * x, part, box, spec, 0.5, group_fn=lambda k: lambda x: 0.5 * x
    )
    with pytest.raises(ValueError, match="block 0 of the mapping has shape"):
        mapping.eval_block(0, np.zeros(3))
    with pytest.raises(ValueError, match="block 0 of the mapping has shape"):
        run_iteration(mapping, None, np.zeros(3), 1, Scheme.GAUSS_SEIDEL)
    # the block is clamped against its own slice of the box
    clamped = BlockMapping(
        lambda x: 3.0 * x, part, BoxDomain([(-1.0, 1.0), (-1.0, 1.0), (0.0, 0.5)]), spec, 0.5,
        group_fn=lambda k: lambda x: 3.0 * x[part.block_slice(k)],
    )
    assert clamped.eval_block(1, np.ones(3)).tolist() == [0.5]
    assert clamped.eval_block(0, -np.ones(3)).tolist() == [-1.0, -1.0]


def _loop_quantize_blocks(bank, x, part):
    """The per-block quantization loop."""
    return np.concatenate(
        [bank.blocks[k].quantize(x[part.block_slice(k)]) for k in range(part.num_blocks)]
    )


@st.composite
def _scalar_banks(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    part = BlockPartition(sizes)
    intervals = []
    for _ in range(part.n):
        lo = draw(st.floats(-10.0, 10.0))
        span = draw(st.just(0.0) | st.floats(1e-6, 10.0))  # point intervals too
        intervals.append((lo, lo + span))
    box = BoxDomain(intervals)
    # 0-bit coordinates too, and inputs beyond the box
    bits = draw(st.lists(st.integers(0, 12), min_size=part.n, max_size=part.n))
    x = np.array(draw(st.lists(st.floats(-30.0, 30.0), min_size=part.n, max_size=part.n)))
    return part, make_sq_bank(part, box, bits), x


@given(_scalar_banks())
def test_scalar_bank_quantizes_in_one_pass_bit_for_bit(case):
    part, bank, x = case
    (whole,) = bank.group_quantizers(part, (None,))
    assert whole(x).tobytes() == _loop_quantize_blocks(bank, x, part).tobytes()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            whole(np.where(np.arange(part.n) == part.n - 1, bad, x))


def test_scalar_bank_checks_block_sizes_and_mixed_banks_loop(monkeypatch):
    part = BlockPartition([2, 1])
    box = BoxDomain([(-1.0, 1.0)] * 3)
    bank = make_sq_bank(part, box, [2, 3, 4])
    x = np.array([0.3, -0.7, 0.9])
    with pytest.raises(ValueError):
        bank.group_quantizers(BlockPartition([1, 2]), (None,))[0](x)
    with pytest.raises(ValueError):
        bank.group_quantizers(part, (None,))[0](np.zeros(4))
    calls = []
    quantize = ScalarBlockQuantizer.quantize

    def counted(self, v):
        calls.append(self.size)
        return quantize(self, v)

    monkeypatch.setattr(ScalarBlockQuantizer, "quantize", counted)
    (whole,) = bank.group_quantizers(part, (None,))
    assert whole(x).tobytes() == _loop_quantize_blocks(bank, x, part).tobytes()
    assert calls[0] == 3  # the fused pass
    mixed = QuantizerBank([bank.blocks[0], IdentityQuantizer(1)])
    (group,) = mixed.group_quantizers(part, (None,))
    assert group(x).tolist() == list(bank.blocks[0].quantize(x[:2])) + [0.9]


def _group_banks(kind):
    """(part, spec, bank, x, block bound hex): a bank of two blocks and a value for each."""
    if kind == "scalar":
        part = BlockPartition([4, 4])
        box = BoxDomain([(-1.0, 1.0)] * 8)
        x = np.random.default_rng(3).uniform(-1.2, 1.2, 8)
        return part, uniform_l2_spec(part), make_sq_bank(part, box, [2] * 8), x, "0x1.0000000000040p-1"
    game = paper_style_game(seed=0)
    part, box = game_partition(game), game_box(game)
    x = profile_to_vec(random_feasible_profile(game, 5))
    if kind == "projected-lattice":
        inner, bound = make_vq_bank(part, box, [8, 8]), "0x1.666603dc59dc7p-9"
    else:
        inner, bound = make_sq_bank(part, box, [2] * part.n), "0x1.030dc4ea03ab0p-8"
    return part, game_norm_spec(game), feasible_bank(inner, game), x, bound


@pytest.mark.parametrize("kind", ["scalar", "projected-scalar", "projected-lattice"])
def test_a_group_quantizer_is_a_function_equal_to_the_block_loop(kind):
    """Every group's quantizer equals the block-by-block loop bit for bit, and bounds nothing.

    A fused group's bound would be the whole group's (0.7071 on L2 for the scalar bank):
    per-block bounds come from the bank's blocks alone, and the bank's is their max.
    """
    part, spec, bank, x, block_bound = _group_banks(kind)
    alone = [q.quantize(x[part.block_slice(k)]) for k, q in enumerate(bank.blocks)]
    for group in (None, (0, 1), (1, 0), (0,), (1,), 0, 1):
        ks = range(part.num_blocks) if group is None else np.atleast_1d(group).tolist()
        (quantizer,) = bank.group_quantizers(part, (group,))
        v = np.concatenate([x[part.block_slice(k)] for k in ks])
        assert quantizer(v).tobytes() == np.concatenate([alone[k] for k in ks]).tobytes()
        assert not hasattr(quantizer, "worst_case_block_error")
    for q in bank.blocks:
        assert q.worst_case_block_error(Lp(2.0)).hex() == block_bound
    assert bank.worst_case_error(part, spec).hex() == block_bound
    if kind == "scalar":
        for q in bank.blocks:
            assert q.worst_case_block_error(WeightedMax([1.0] * 4)).hex() == "0x1.0000000000020p-2"
        assert bank.worst_case_error(part, uniform_wmax_spec(part)).hex() == "0x1.0000000000020p-2"


def test_a_bank_refuses_a_partition_of_other_block_sizes():
    """A bank for blocks [2, 2] once gave an L2 bound of 0.3536 for blocks [1, 3], unrefused."""
    bank = make_sq_bank(BlockPartition([2, 2]), BoxDomain([(-1.0, 1.0)] * 4), [2] * 4)
    part = BlockPartition([1, 3])
    spec = NormSpec([1.0, 1.0], [Lp(2.0), Lp(2.0)])
    mapping, _ = random_affine_contraction(part, spec, BoxDomain([(-1.0, 1.0)] * 4), 0.5, rng=0)
    message = re.escape("quantizers of block sizes (2, 2) for blocks of sizes (1, 3)")
    for call in (
        lambda: bank.group_quantizers(part, (None,)),
        lambda: bank.worst_case_error(part, spec),
        lambda: run_iteration(mapping, bank, np.zeros(4), 1, Scheme.JACOBI),
        lambda: run_iteration(mapping, [bank], np.zeros(4), 1, Scheme.SEQUENTIAL),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    assert bank.worst_case_error(BlockPartition([2, 2]), spec).hex() == "0x1.6a09e667f3c1cp-2"


def test_jacobi_run_matches_the_per_block_loop():
    part = BlockPartition([3, 1, 2, 4])
    spec = NormSpec([1.0, 2.0, 0.5, 1.0], [WeightedMax([1.0, 2.0, 1.0]), Lp(2.0), Lp(3.0), Lp(2.0)])
    box = BoxDomain([(-1.0, 1.0)] * 5 + [(0.0, 0.0)] + [(-2.0, 2.0)] * 4)
    mapping, _ = random_affine_contraction(part, spec, box, 0.8, rng=9)
    bank = make_sq_bank(part, box, [0, 1, 2, 3, 4, 5, 6, 7, 0, 3])
    x = np.where(np.arange(part.n) == 5, 0.0, 0.2)
    traj = run_iteration(mapping, bank, x, 15, Scheme.JACOBI)
    for t in range(15):
        raw = mapping.eval_full(x)
        y = x.copy()
        e = np.zeros(part.n)
        for k in range(part.num_blocks):
            sl = part.block_slice(k)
            y[sl] = bank.blocks[k].quantize(raw[sl])
            e[sl] = y[sl] - raw[sl]
        x = y
        assert traj.iterates[t + 1].tobytes() == x.tobytes()
        assert traj.errors[t].tobytes() == e.tobytes()
        assert traj.error_norms[t] == block_norm(e, part, spec)


def _in_box(draw, n, lengths=st.floats(1e-3, 10.0)):
    box = []
    for _ in range(n):
        lo = draw(st.floats(-10.0, 10.0))
        box.append((lo, lo + draw(lengths)))
    v = np.array([min(lo + draw(st.floats(0.0, 1.0)) * (hi - lo), hi) for lo, hi in box])
    return box, v


_LP_AT_LEAST_2 = st.sampled_from([2.0, 2.5, 3.0, 8.0]).map(Lp)


@st.composite
def _scalar_blocks(draw):
    box, v = _in_box(draw, draw(st.integers(1, 4)))
    bits = draw(st.lists(st.integers(0, 8), min_size=len(box), max_size=len(box)))
    weights = st.lists(st.floats(0.1, 10.0), min_size=len(box), max_size=len(box))
    norms = st.one_of(_LP_AT_LEAST_2, st.sampled_from([1.0, 1.5]).map(Lp), weights.map(WeightedMax))
    return ScalarBlockQuantizer(*zip(*box), bits), v, draw(norms)


@st.composite
def _lattice_blocks(draw):
    from qfix.vquant import LatticeQuantizer

    # Boxes of one scale within a factor of 4 keep the codebook enumeration small.
    scale = draw(st.floats(1e-2, 10.0))
    box, v = _in_box(draw, draw(st.integers(1, 4)), st.floats(0.5, 2.0).map(lambda x: scale * x))
    return LatticeQuantizer(box, draw(st.integers(0, 8))), v, draw(_LP_AT_LEAST_2)


@st.composite
def _projected_blocks(draw):
    """Quantize-then-project on a feasible covariance of a paper-style game."""
    from qfix.mimo import ProjectedBlockQuantizer, mat_to_vec
    from qfix.vquant import LatticeQuantizer

    game = paper_style_game(seed=draw(st.integers(0, 3)))
    N, budget = game.num_antennas, float(game.budgets[0])
    box = [(0.0, budget)] * N + [(-budget, budget)] * (N * N - N)
    v = mat_to_vec(random_feasible_profile(game, draw(st.integers(0, 2**16))).covariances[0])
    bits = draw(st.integers(0, 8))
    if draw(st.booleans()):
        inner = LatticeQuantizer(box, bits)
    else:
        inner = ScalarBlockQuantizer(*zip(*box), [bits] * len(box))
    return ProjectedBlockQuantizer(inner, budget), v, draw(_LP_AT_LEAST_2)


@st.composite
def _identity_blocks(draw):
    box, v = _in_box(draw, draw(st.integers(1, 4)))
    return IdentityQuantizer(v.size), v, draw(st.sampled_from([1.0, 2.0, 3.0]).map(Lp))


def _assert_bound_holds(case):
    quantizer, v, norm = case
    e = quantizer.quantize(v) - v
    realized = block_norm(e, BlockPartition([e.size]), NormSpec([1.0], [norm]))
    assert realized <= quantizer.worst_case_block_error(norm)


@settings(max_examples=40)
@given(_lattice_blocks())
def test_lattice_worst_case_block_error_bounds_the_realized_error(case):
    _assert_bound_holds(case)


@given(_projected_blocks())
def test_projected_worst_case_block_error_bounds_the_realized_error(case):
    _assert_bound_holds(case)


@given(_projected_blocks())
def test_a_one_block_projection_equals_the_matrix_projection(case):
    """A one-block quantizer projects the (N, N) matrix; it equals the (1, N, N) stack, as fused."""
    from qfix.mimo import mat_to_vec, project_feasible, vec_to_mat

    quantizer, v, _ = case
    matrix = vec_to_mat(quantizer.inner.quantize(v))
    assert matrix.ndim == 2 and np.ndim(quantizer.budget) == 0
    expected = mat_to_vec(project_feasible(matrix[None], [quantizer.budget]))[0]
    assert quantizer.quantize(v).tobytes() == expected.tobytes()


@given(_identity_blocks())
def test_identity_worst_case_block_error_bounds_the_realized_error(case):
    _assert_bound_holds(case)


@given(_scalar_blocks())
def test_scalar_worst_case_block_error_bounds_the_realized_error(case):
    _assert_bound_holds(case)


@given(st.integers(0, 2**16), st.sampled_from(["sq", "vq"]))
def test_bank_worst_case_bounds_a_jacobi_step(seed, family):
    from qfix.ticoq import make_vq_bank

    part = BlockPartition([2, 3, 1])
    spec = NormSpec([1.0, 0.5, 2.0], [Lp(2.0), Lp(3.0), Lp(2.0)])
    box = BoxDomain([(-1.0, 1.0), (0.0, 2.0), (-3.0, 1.0), (-1.0, 1.0), (-0.5, 0.5), (0.0, 1.0)])
    mapping, _ = random_affine_contraction(part, spec, box, 0.7, rng=seed)
    rng = np.random.default_rng(seed)
    bank = make_sq_bank(part, box, rng.integers(0, 9, part.n)) if family == "sq" else (
        make_vq_bank(part, box, rng.integers(0, 9, part.num_blocks))
    )
    x0 = box.clamp(rng.uniform(-3.0, 2.0, part.n))
    traj = run_iteration(mapping, bank, x0, 1, Scheme.JACOBI)
    assert traj.error_norms[0] <= bank.worst_case_error(part, spec)


# ---------------------------------------------------------------------------
# Dependency-grouped Gauss-Seidel sweeps
# ---------------------------------------------------------------------------

_PATTERNS = ("diagonal", "permutation", "pairs", "lower", "upper", "random", "dense")


def _block_pattern(kind, K, rng):
    """Which blocks each block reads: a K x K bool pattern of the given kind."""
    if kind == "diagonal":
        return np.eye(K, dtype=bool)
    if kind == "permutation":
        return np.eye(K, dtype=bool)[rng.permutation(K)]
    if kind == "pairs":  # each odd block reads the block before it: even blocks sweep first
        return np.eye(K, k=-1, dtype=bool) & (np.arange(K) % 2 == 1)[:, None]
    if kind == "lower":
        return np.tril(np.ones((K, K), dtype=bool))
    if kind == "upper":
        return np.triu(np.ones((K, K), dtype=bool))
    if kind == "random":
        return rng.random((K, K)) < rng.uniform(0.1, 0.6)
    return np.ones((K, K), dtype=bool)


def _lattice_quantizer(size):
    from qfix.vquant import LatticeQuantizer

    return LatticeQuantizer([(-1.0, 1.0)] * size, 2 * size)


@st.composite
def _sparse_affine_runs(draw):
    """A block-sparse affine map with its A and b, a bank (or schedule) and a start point."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=7))
    part = BlockPartition(sizes)
    K = part.num_blocks
    kind = draw(st.sampled_from(_PATTERNS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pattern = _block_pattern(kind, K, rng)
    a = rng.standard_normal((part.n, part.n)) * np.repeat(np.repeat(pattern, sizes, 0), sizes, 1)
    if kind == "permutation":  # signed entries, as in random_affine_contraction
        a = np.sign(a)
    a /= part.n
    spec = uniform_wmax_spec(part)
    box = BoxDomain([(-1.0, 1.0)] * part.n)
    # Some entries of b are exactly zero, so a row's exact-zero sum and its sign show.
    b = rng.uniform(0.1, 0.5, part.n) * rng.choice([-1.0, 0.0, 1.0], part.n)
    mapping = affine_contraction(a, b, part, box, spec, 0.5)
    if draw(st.booleans()):  # block updates slice a full evaluation
        mapping = BlockMapping(mapping.fn, part, box, spec, 0.5, block_reads=mapping.block_reads)
    steps = draw(st.integers(1, 4))

    def bank(fusable):
        if fusable:
            return make_sq_bank(part, box, rng.integers(0, 9, part.n))
        return QuantizerBank(
            _lattice_quantizer(size) if rng.random() < 0.5 else IdentityQuantizer(size)
            for size in sizes
        )

    family = draw(st.sampled_from(["none", "scalar", "lattice-identity", "schedule"]))
    if family == "none":
        quantizers = None
    elif family == "schedule":  # per-step banks drawn from a pool, so banks repeat
        pool = [bank(True), bank(True), bank(False)]
        picks = draw(st.lists(st.integers(0, 2), min_size=steps, max_size=steps))
        quantizers = [pool[i] for i in picks]
    else:
        quantizers = bank(family == "scalar")
    x0 = rng.uniform(-1.0, 1.0, part.n)
    return mapping, pattern, (a, b), quantizers, x0, steps


def _block_by_block(part, raw_map, quantizers, x, steps, scheme):
    """Each block alone, from the clamped full map `raw_map`, through its own quantizer.

    Jacobi blocks read x(t); Gauss-Seidel and sequential blocks read the new
    iterate, whose earlier blocks already hold their quantized values.
    Every step is computed, repeated or not.
    """
    banks = quantizers if isinstance(quantizers, list) else [quantizers] * steps
    iterates, errors = [x], []
    for t, bank in enumerate(banks):
        y = x.copy()
        e = np.zeros(part.n)
        for k in (t % part.num_blocks,) if scheme == Scheme.SEQUENTIAL else range(part.num_blocks):
            sl = part.block_slice(k)
            at = x if scheme == Scheme.JACOBI else y
            raw = raw_map(at)[sl]
            q = raw if bank is None else bank.blocks[k].quantize(raw)
            e[sl] = q - raw
            y[sl] = q
        x = y
        iterates.append(x)
        errors.append(e)
    return np.array(iterates), np.array(errors)


def _clamped_affine(affine):
    a, b = affine
    return lambda x: np.clip(_row_by_row(a, b, x), -1.0, 1.0)


def _with_counted_evaluations(mapping):
    """The mapping with its block pattern kept and every evaluation recorded.

    An fn call records None, a group function's call its blocks.
    """
    calls = []

    def fn(x):
        calls.append(None)
        return mapping.fn(x)

    def group_fn(k):
        evaluate = mapping.group_fn(k)

        def counted(x):
            calls.append(k)
            return evaluate(x)

        return counted

    counted = BlockMapping(
        fn, mapping.partition, mapping.domain, mapping.norm, mapping.modulus,
        group_fn=None if mapping.group_fn is None else group_fn, block_reads=mapping.block_reads,
    )
    return counted, calls


def _new_keys(iterates, quantizers, scheme, K):
    """How many steps of a run start from a (state's bytes, bank, phase) no earlier step had.

    The phase is t mod K for sequential ticks and 0 otherwise; the rest
    repeat an earlier step bit for bit and are served from it.
    """
    steps = len(iterates) - 1
    banks = quantizers if isinstance(quantizers, list) else [quantizers] * steps
    period = K if scheme == Scheme.SEQUENTIAL else 1
    return len({(iterates[t].tobytes(), id(bank), t % period) for t, bank in enumerate(banks)})


@given(_sparse_affine_runs())
def test_runs_equal_the_block_by_block_loop(case):
    mapping, pattern, affine, quantizers, x0, steps = case
    part = mapping.partition
    K = part.num_blocks
    assert np.array_equal(mapping.block_reads, pattern)
    groups = mapping.sweep_groups
    group_of = {}
    for g, blocks in enumerate(groups):
        members = (blocks,) if isinstance(blocks, int) else blocks
        assert isinstance(blocks, int) or (len(blocks) > 1 and list(blocks) == sorted(blocks))
        group_of.update((k, g) for k in members)
    assert sorted(group_of) == list(range(K))
    reads = mapping.block_reads
    for k in range(K):
        for j in range(k):
            if reads[k, j]:  # k reads the new value of an earlier block
                assert group_of[k] > group_of[j]
            if reads[j, k]:  # an earlier block reads k's old value
                assert group_of[k] >= group_of[j]
    raw_map, iterates_of = _clamped_affine(affine), {}
    for scheme in (Scheme.JACOBI, Scheme.GAUSS_SEIDEL, Scheme.SEQUENTIAL):
        traj = run_iteration(mapping, quantizers, x0, steps, scheme)
        iterates, errors = _block_by_block(part, raw_map, quantizers, x0, steps, scheme)
        iterates_of[scheme] = iterates
        assert traj.iterates.tobytes() == iterates.tobytes()
        assert traj.errors.tobytes() == errors.tobytes()
        assert traj.error_norms.tobytes() == np.array(
            [block_norm(e, part, mapping.norm) for e in errors]
        ).tobytes()
    if mapping.group_fn is not None:
        counted, calls = _with_counted_evaluations(mapping)
        run_iteration(counted, quantizers, x0, steps, Scheme.GAUSS_SEIDEL)
        # Every sweep from a new (x(t), bank) evaluates each group once, in order;
        # a sweep that repeats an earlier one evaluates nothing.
        sweeps = _new_keys(iterates_of[Scheme.GAUSS_SEIDEL], quantizers, Scheme.GAUSS_SEIDEL, K)
        assert calls == list(groups) * sweeps


# ---------------------------------------------------------------------------
# Repeated steps
# ---------------------------------------------------------------------------

@st.composite
def _orbit_runs(draw):
    """A small map under coarse banks (0 to 2 bits), whose runs soon close an orbit.

    The map is a block-sparse affine one with small entries, or a signed
    one that flips some rows' signs and adds a step where a coordinate's
    sign bit is set, so that a state and its copy with a zero of the other
    sign have different successors.  Schedules revisit a state under
    another bank ([A] * m + [B] + [A] * m) or draw each step's bank.
    Returns the mapping, its clamped full map, the banks, x(0) and the
    step count.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    part = BlockPartition(sizes)
    n = part.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pattern = _block_pattern(draw(st.sampled_from(_PATTERNS)), part.num_blocks, rng)
    mask = np.repeat(np.repeat(pattern, sizes, 0), sizes, 1)
    a = rng.standard_normal((n, n)) * mask * draw(st.sampled_from([0.1, 0.3])) / n
    b = rng.uniform(0.1, 0.5, n) * rng.choice([-1.0, 0.0, 1.0], n)
    spec = uniform_wmax_spec(part)
    box = BoxDomain([(-1.0, 1.0)] * n)
    if draw(st.booleans()):
        flip, kick = rng.choice([-1.0, 1.0], n), rng.uniform(0.1, 0.5, n)
        b = b if draw(st.booleans()) else np.zeros(n)  # zero rows at x = 0 give signed zeros

        def fn(x):
            return flip * (_row_by_row(a, b, x) + kick * np.signbit(x))

        mapping = BlockMapping(fn, part, box, spec, 0.5)
        raw_map = lambda x: np.clip(fn(x), -1.0, 1.0)  # noqa: E731
    else:
        mapping = affine_contraction(a, b, part, box, spec, 0.5)
        raw_map = _clamped_affine((a, b))

    def bank():
        sq = make_sq_bank(part, box, rng.integers(0, 3, n))
        if draw(st.booleans()):
            return sq
        return QuantizerBank(IdentityQuantizer(q.size) if rng.random() < 0.5 else q for q in sq.blocks)

    family = draw(st.sampled_from(["none", "flat", "revisit", "drawn"]))
    if family == "none":
        steps = draw(st.integers(1, 12))
        quantizers = None
    elif family == "flat":
        steps = draw(st.integers(1, 12))
        quantizers = bank()
    elif family == "revisit":
        A, B, m = bank(), bank(), draw(st.integers(1, 5))
        steps = 2 * m + 1
        quantizers = [A] * m + [B] + [A] * m
    else:
        pool = [bank(), bank(), None]
        picks = draw(st.lists(st.integers(0, 2), min_size=1, max_size=12))
        steps = len(picks)
        quantizers = [pool[i] for i in picks]
    x0 = draw(st.sampled_from([rng.uniform(-1.0, 1.0, n), np.zeros(n), np.full(n, -0.0)]))
    return mapping, raw_map, quantizers, x0, steps


@settings(max_examples=300)
@given(_orbit_runs(), st.booleans())
def test_repeated_steps_equal_the_block_by_block_loop(case, collide):
    mapping, raw_map, quantizers, x0, steps = case
    part = mapping.partition
    K = part.num_blocks
    for scheme in (Scheme.JACOBI, Scheme.GAUSS_SEIDEL, Scheme.SEQUENTIAL):
        counted, calls = _with_counted_evaluations(mapping)
        with pytest.MonkeyPatch.context() as mp:
            if collide:  # every state hashes alike: only the bytes check tells states apart
                mp.setattr(engine, "hash", lambda state: 0, raising=False)
            traj = run_iteration(counted, quantizers, x0, steps, scheme)
        iterates, errors = _block_by_block(part, raw_map, quantizers, x0, steps, scheme)
        assert traj.iterates.tobytes() == iterates.tobytes()
        assert traj.errors.tobytes() == errors.tobytes()
        assert traj.error_norms.tobytes() == np.array(
            [block_norm(e, part, mapping.norm) for e in errors]
        ).tobytes()
        per_step = len(mapping.sweep_groups) if scheme == Scheme.GAUSS_SEIDEL else 1
        evaluated = steps - traj.repeated_steps
        assert len(calls) == per_step * evaluated
        if not collide:
            assert evaluated == _new_keys(iterates, quantizers, scheme, K)


_ORBIT_PART = BlockPartition([1, 1, 1])
_ORBIT_BOX = BoxDomain([(-1.0, 1.0)] * 3)
_ORBIT_BANK = make_sq_bank(_ORBIT_PART, _ORBIT_BOX, [2, 2, 2])  # cell midpoints +-0.25, +-0.75


def _orbit_map(perm):
    """0.9 x[perm], which the 2-bit bank takes from one set of cell midpoints to its permutation."""
    return BlockMapping(
        lambda x: 0.9 * x[list(perm)], _ORBIT_PART, _ORBIT_BOX, uniform_wmax_spec(_ORBIT_PART), 0.9
    )


@pytest.mark.parametrize(
    "perm, scheme, banks, repeated",
    [
        ((0, 1, 2), Scheme.JACOBI, [_ORBIT_BANK] * 8, 7),  # period 1
        ((1, 0, 2), Scheme.JACOBI, [_ORBIT_BANK] * 9, 7),  # period 2
        ((1, 2, 0), Scheme.JACOBI, [_ORBIT_BANK] * 12, 9),  # period 3
        ((1, 2, 0), Scheme.GAUSS_SEIDEL, [_ORBIT_BANK] * 12, 9),  # period 2 from x(1)
        ((0, 1, 2), Scheme.SEQUENTIAL, [_ORBIT_BANK] * 10, 7),  # period K = 3 ticks
        # An unquantized step in the middle of the orbit: the fill stops there, the loop
        # evaluates that step and the next, and fills again from the orbit it is back on.
        ((1, 2, 0), Scheme.JACOBI, [_ORBIT_BANK] * 7 + [None] + [_ORBIT_BANK] * 12, 15),
        ((1, 2, 0), Scheme.SEQUENTIAL, [_ORBIT_BANK] * 7 + [None] + [_ORBIT_BANK] * 12, None),
    ],
)
def test_a_closed_orbit_fills_its_steps_at_once(perm, scheme, banks, repeated):
    mapping = _orbit_map(perm)
    x0 = np.array([0.75, -0.25, 0.25])
    steps = len(banks)
    single = all(bank is banks[0] for bank in banks)
    quantizers = banks[0] if single else banks
    counted, calls = _with_counted_evaluations(mapping)
    hashed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "hash", lambda state: hashed.append(state) or hash(state), raising=False)
        traj = run_iteration(counted, quantizers, x0, steps, scheme)
    raw_map = mapping.eval_full
    iterates, errors = _block_by_block(_ORBIT_PART, raw_map, quantizers, x0, steps, scheme)
    assert traj.iterates.tobytes() == iterates.tobytes()
    assert traj.errors.tobytes() == errors.tobytes()
    assert np.any(errors[1:] != 0.0)  # the orbit's steps carry quantization errors
    evaluated = _new_keys(iterates, quantizers, scheme, 3)
    assert traj.repeated_steps == steps - evaluated
    if repeated is not None:
        assert traj.repeated_steps == repeated
    per_step = len(mapping.sweep_groups) if scheme == Scheme.GAUSS_SEIDEL else 1
    assert len(calls) == per_step * evaluated
    if single:  # the first repeat fills the whole tail
        assert len(hashed) == evaluated + 1


def test_a_state_differing_only_in_a_zero_sign_is_not_a_repeat():
    part = BlockPartition([1, 1])
    box = BoxDomain([(-1.0, 1.0)] * 2)

    def fn(x):
        return np.array([-0.5 * x[0], 0.25 if np.signbit(x[0]) else 0.5])

    mapping = BlockMapping(fn, part, box, uniform_wmax_spec(part), 0.5)
    x0 = np.array([0.0, 0.5])
    expected = [x0]
    for _ in range(6):
        expected.append(mapping.eval_full(expected[-1]))
    expected = np.array(expected)
    # x(1) = (-0.0, 0.5) equals x(0) but for its zero's sign, and its successor differs;
    # x(3) = x(1) and x(4) = x(2) do repeat, bit for bit.
    assert np.array_equal(expected[1], expected[0])
    assert expected[1].tobytes() != expected[0].tobytes()
    assert expected[2].tobytes() != expected[1].tobytes()
    for collide, repeated in ((False, 3), (True, 0)):
        with pytest.MonkeyPatch.context() as mp:
            if collide:  # every state hashes alike: x(1) finds x(0)'s step, and must not take it
                mp.setattr(engine, "hash", lambda state: 0, raising=False)
            traj = run_iteration(mapping, None, x0, 6, Scheme.JACOBI)
        assert traj.iterates.tobytes() == expected.tobytes()
        assert traj.errors.tobytes() == np.zeros((6, 2)).tobytes()
        assert traj.repeated_steps == repeated


def test_a_run_builds_each_group_quantizer_once(monkeypatch):
    K = 600
    part = BlockPartition([1] * K)
    box = BoxDomain([(-1.0, 1.0)] * K)
    a = np.zeros((K, K))
    a[np.arange(2, K), np.arange(K - 2)] = 0.5  # block k reads block k - 2
    mapping = affine_contraction(a, np.full(K, 0.25), part, box, uniform_wmax_spec(part), 0.5)
    assert mapping.sweep_groups == tuple((k, k + 1) for k in range(0, K, 2))
    bank = make_sq_bank(part, box, [4] * K)
    fuse = ScalarBlockQuantizer.fuse
    built = []

    def counted(quantizers):
        built.append(tuple(q.size for q in quantizers))
        return fuse(quantizers)

    monkeypatch.setattr(ScalarBlockQuantizer, "fuse", staticmethod(counted))
    run_iteration(mapping, bank, np.zeros(K), 10, Scheme.GAUSS_SEIDEL)
    assert len(built) == K // 2
    # The bank keeps all 300 groups (more than 256), so later runs build none.
    for _ in range(2):
        run_iteration(mapping, bank, np.zeros(K), 10, Scheme.GAUSS_SEIDEL)
    assert len(built) == K // 2


def test_a_bank_keeps_at_most_its_cap_of_groups_and_quantizes_every_group_alike():
    K = 12
    part = BlockPartition([1, 2] * (K // 2))
    box = BoxDomain([(-1.0, 1.0)] * part.n)
    bank = make_sq_bank(part, box, np.arange(part.n) % 7)
    x = np.random.default_rng(3).uniform(-1.2, 1.2, part.n)
    groups = list(itertools.combinations(range(K), 2)) + list(itertools.combinations(range(K), 3))
    assert len(groups) > engine._FUSED_PER_BANK >= K  # 286 groups for a cap of max(256, K)
    for _ in range(2):  # the second pass rebuilds the groups that the clear dropped
        for group in groups:
            v = np.concatenate([x[part.block_slice(k)] for k in group])
            got = bank.group_quantizers(part, (group,))[0](v)
            assert len(bank._groups) <= engine._FUSED_PER_BANK
            fresh = QuantizerBank(bank.blocks).group_quantizers(part, (group,))[0](v)
            assert got.tobytes() == fresh.tobytes()
            alone = [bank.blocks[k].quantize(x[part.block_slice(k)]) for k in group]
            assert got.tobytes() == np.concatenate(alone).tobytes()
    assert len(bank._groups) < len(groups)


def test_affine_map_holds_its_rows_once():
    """A map holds A's nonzero entries, not its dense rows: O(nnz) bytes, not O(n^2)."""
    part = BlockPartition([4] * 64)
    box = BoxDomain([(-1.0, 1.0)] * part.n)
    spec = uniform_wmax_spec(part)
    x0 = np.zeros(part.n)
    matrix_bytes = part.n * part.n * 8

    def build_and_run(seed):
        mapping = random_affine_contraction(part, spec, box, 0.5, rng=seed)[0]
        run_iteration(mapping, None, x0, 2, Scheme.GAUSS_SEIDEL)  # every sweep group evaluated
        run_iteration(mapping, None, x0, 2, Scheme.JACOBI)
        return mapping

    build_and_run(3)  # lazy imports and module caches fill outside the measurement
    tracemalloc.start()
    try:
        mapping = build_and_run(4)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < matrix_bytes / 8  # 256 entries, b, the sweep groups' entries and bounds
    store = mapping.group_fn.__self__
    assert store.val.size == part.n
    assert any(isinstance(g, tuple) for g in mapping.sweep_groups)
    x = np.linspace(-1.0, 1.0, part.n)
    full = mapping.eval_full(x)
    for blocks in (*range(part.num_blocks), *mapping.sweep_groups, (1, 0)):
        assert mapping.eval_block(blocks, x).tobytes() == full[part.block_index(blocks)].tobytes()
    # the mapping keeps one record per group asked for; the store keeps no groups of its own
    assert set(mapping._update_groups) == {
        None, *range(part.num_blocks), *mapping.sweep_groups, (1, 0)
    }
    assert vars(store).keys() == {"row", "col", "val", "b", "_part"}


@given(st.integers(1, 9), st.integers(0, 2**16))
def test_dense_and_undeclared_patterns_sweep_one_block_at_a_time(K, seed):
    part = BlockPartition([2] * K)
    box = BoxDomain([(-1.0, 1.0)] * part.n)
    rng = np.random.default_rng(seed)
    dense = rng.uniform(0.5, 1.0, (part.n, part.n)) / part.n
    mapping = affine_contraction(dense, np.zeros(part.n), part, box, uniform_wmax_spec(part), 0.5)
    undeclared = BlockMapping(mapping.fn, part, box, mapping.norm, 0.5, group_fn=mapping.group_fn)
    assert undeclared.block_reads is None
    assert mapping.sweep_groups == undeclared.sweep_groups == tuple(range(K))


def test_block_pattern_comes_from_the_exact_zero_blocks():
    part = BlockPartition([2, 1, 3])
    box = BoxDomain([(-1.0, 1.0)] * part.n)
    a = np.zeros((part.n, part.n))
    a[0, 5] = 1e-300  # block (0, 2): one tiny entry reads
    a[2, 2] = -0.0  # block (1, 1): a negative zero does not
    a[4, 0] = 0.5  # block (2, 0)
    mapping = affine_contraction(a, np.ones(part.n), part, box, uniform_wmax_spec(part), 0.5)
    assert mapping.block_reads.tolist() == [
        [False, False, True], [False, False, False], [True, False, False]
    ]
    assert not mapping.block_reads.flags.writeable
    # block 2 reads block 0's new value; block 0 reads block 2's old one
    assert mapping.sweep_groups == ((0, 1), 2)
    with pytest.raises(ValueError, match="block_reads has shape"):
        BlockMapping(mapping.fn, part, box, mapping.norm, 0.5, block_reads=np.ones((2, 2)))


def test_affine_values_depend_on_no_blas():
    # A signed permutation block, dense blocks whose sums round by order, and a zero row.
    part = BlockPartition([2, 3, 1])
    a = np.zeros((6, 6))
    a[0, 3], a[1, 2] = 0.5, -0.5
    a[2:5, :5] = [
        [0.1, 0.2, 0.3, -0.1, 0.2], [-0.3, 0.7, 0.1, 0.1, 0.1], [0.6, 0.1, -0.2, 0.3, 0.3]
    ]
    b = np.array([0.1, 0.2, 0.3, -0.4, 0.05, 0.25])
    box = BoxDomain([(-1.0, 1.0)] * part.n)
    mapping = affine_contraction(a, b, part, box, uniform_wmax_spec(part), 0.5)
    x = np.array([0.3, -0.7, 1 / 3, 0.9, -0.2, 0.6])
    # Rows 2 and 3 are added left to right; a BLAS product may give ...147bp-3 and ...740dp-1.
    expected = [
        "0x1.199999999999ap-1", "0x1.1111111111114p-5", "0x1.47ae147ae147ap-3",
        "-0x1.c0da740da740ep-1", "0x1.369d0369d036ap-2", "0x1.0000000000000p-2",
    ]
    assert [float(v).hex() for v in mapping.eval_full(x)] == expected
    for blocks in (0, 1, 2, (2, 0), (1, 2)):
        rows = np.arange(part.n)[part.block_index(blocks)]
        got = [float(v).hex() for v in mapping.eval_block(blocks, x)]
        assert got == [expected[r] for r in rows]


@pytest.mark.parametrize(
    "a, b, match",
    [
        (0.5 * np.eye(5), np.zeros(4), r"A has shape \(5, 5\), expected \(4, 4\)"),
        (0.5 * np.eye(4), np.zeros(3), r"b has shape \(3,\), expected \(4,\)"),
        (np.diag([0.5, np.inf, 0.5, 0.5]), np.zeros(4), "A has non-finite entries"),
        (0.5 * np.eye(4), np.array([0.0, np.nan, 0.0, 0.0]), "b has non-finite entries"),
    ],
    ids=["A-shape", "b-shape", "A-inf", "b-nan"],
)
def test_affine_contraction_refuses_malformed_input(a, b, match):
    part = BlockPartition([2, 2])
    box = BoxDomain([(-1.0, 1.0)] * part.n)
    with pytest.raises(ValueError, match=match):
        affine_contraction(a, b, part, box, uniform_wmax_spec(part), 0.5)


def test_grouped_block_evaluation_checks_its_shape():
    part = BlockPartition([2, 1])
    box = BoxDomain([(-1.0, 1.0)] * 3)
    mapping = BlockMapping(
        lambda x: 0.5 * x, part, box, uniform_wmax_spec(part), 0.5,
        group_fn=lambda k: lambda x: 0.5 * x[:2], block_reads=np.eye(2, dtype=bool),
    )
    assert mapping.sweep_groups == ((0, 1),)
    with pytest.raises(ValueError, match=r"block \(0, 1\) of the mapping has shape"):
        run_iteration(mapping, None, np.zeros(3), 1, Scheme.GAUSS_SEIDEL)


# The bound layer as separate closed forms, one per scheme: the oracle that
# the one-formula certificate must match hex for hex.


def _oracle_factor(alpha, depth):
    """The factor's closed form at D = 1 (Jacobi), K (Gauss-Seidel) and inf (asynchronous)."""
    if depth == 1:
        return 1.0
    if math.isinf(depth):
        return 1.0 / (1.0 - alpha)  # the asynchronous constant
    return (1.0 - alpha**depth) / (1.0 - alpha)


def _oracle_worst_case(alpha, e_bar, t, depth):
    geo = 1.0 / (1.0 - alpha) if math.isinf(t) else (1.0 - alpha**t) / (1.0 - alpha)
    return geo * e_bar * _oracle_factor(alpha, depth)


def _oracle_series(alpha, norms, factor):
    out = np.zeros(len(norms) + 1)
    acc = 0.0
    for t, norm in enumerate(norms):
        acc = alpha * acc + norm
        out[t + 1] = factor * acc
    return out


def _loop_sequential_bound(traj, alpha, d0, K):
    """The sequential certificate's bound with `spent` summed tick by tick."""
    eps = traj.error_norms
    sweeps = traj.steps // K
    sweep_max = eps[: sweeps * K].reshape(sweeps, K).max(axis=1)
    E = _oracle_series(alpha, sweep_max, _oracle_factor(alpha, K))
    spent = np.zeros(traj.steps + 1)
    for t in range(1, traj.steps + 1):
        if t % K:
            spent[t] = spent[t - 1] + eps[t - 1]
    sweep = np.arange(traj.steps + 1) // K
    return alpha ** sweep.astype(float) * d0 + E[sweep] + spent


@given(
    st.integers(1, 5),
    st.integers(1, 40),
    st.lists(st.floats(0.0, 1e3) | st.just(0.0), min_size=40, max_size=40),
)
def test_sequential_spent_equals_the_tick_loop(K, steps, norms):
    if K > 1 and steps % K == 0:
        steps += 1  # the last sweep is partial
    mapping = _halving_map(K)
    eps = np.array(norms[:steps] + [0.0] * max(0, steps - len(norms)))
    iterates = np.random.default_rng(steps).uniform(-1.0, 1.0, (steps + 1, K))
    traj = engine.Trajectory(iterates, np.zeros((steps, K)), eps, Scheme.SEQUENTIAL)
    x_star = np.zeros(K)
    cert = bound_certificate(traj, mapping, x_star)
    expected = _loop_sequential_bound(traj, mapping.modulus, cert.dist[0], K)
    assert cert.bound.tobytes() == expected.tobytes()


def _oracle_certificate(traj, alpha, d, K):
    """(bound, ok): alpha^t d0 + E(t) per step, or per sweep of K sequential ticks plus `spent`."""
    if traj.scheme == Scheme.SEQUENTIAL:
        bound = _loop_sequential_bound(traj, alpha, d[0], K)
    else:
        depth = 1 if traj.scheme == Scheme.JACOBI else K
        E = _oracle_series(alpha, traj.error_norms, _oracle_factor(alpha, depth))
        bound = alpha ** np.arange(traj.steps + 1, dtype=float) * d[0] + E
    return bound, d <= bound + 1e-9


_ALPHAS = st.just(0.0) | st.just(1.0 - 2.0**-53) | st.floats(0.0, 1.0 - 2.0**-53)


@st.composite
def _runs_to_certify(draw):
    K = draw(st.integers(1, 4))
    part = BlockPartition(draw(st.lists(st.integers(1, 2), min_size=K, max_size=K)))
    spec = draw(st.sampled_from([uniform_wmax_spec, uniform_l2_spec]))(part)
    box = BoxDomain([(-1.0, 1.0)] * part.n)
    alpha = draw(_ALPHAS)
    mapping, x_star = random_affine_contraction(
        part, spec, box, alpha, rng=draw(st.integers(0, 2**32 - 1))
    )
    bits = draw(st.none() | st.lists(st.integers(0, 6), min_size=part.n, max_size=part.n))
    bank = None if bits is None else make_sq_bank(part, box, bits)
    x0 = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=part.n, max_size=part.n)))
    scheme = draw(st.sampled_from([Scheme.JACOBI, Scheme.GAUSS_SEIDEL, Scheme.SEQUENTIAL]))
    return run_iteration(mapping, bank, x0, draw(st.integers(1, 40)), scheme), mapping, x_star


@settings(max_examples=300, deadline=None)
@given(_runs_to_certify())
def test_certificates_equal_the_per_scheme_closed_forms(run):
    traj, mapping, x_star = run
    cert = bound_certificate(traj, mapping, x_star)
    bound, ok = _oracle_certificate(traj, mapping.modulus, cert.dist, mapping.partition.num_blocks)
    assert cert.bound.tobytes() == bound.tobytes()
    assert cert.ok.tobytes() == ok.tobytes()


@settings(max_examples=500, deadline=None)
@given(
    _ALPHAS,
    st.integers(1, 300).flatmap(lambda K: st.sampled_from([1, K, math.inf])),
    st.sampled_from([math.inf, 0, 1, 3, 17, 2.5]) | st.integers(0, 400) | st.floats(0.0, 400.0),
    st.floats(0.0, 1e3),
)
def test_factors_and_horizon_sums_equal_the_per_scheme_closed_forms(alpha, depth, t, e_bar):
    assert engine._geometric(alpha, depth).hex() == _oracle_factor(alpha, depth).hex()
    assert (
        worst_case_error_bound(alpha, e_bar, t, depth=depth).hex()
        == _oracle_worst_case(alpha, e_bar, t, depth).hex()
    )


def test_run_iteration_takes_an_integral_step_count():
    """steps=3.0 once failed in the bank schedule (a list times a float); 2.5 is refused."""
    mapping = _halving_map()
    bank = make_sq_bank(mapping.partition, mapping.domain, [2, 2])
    x0 = np.array([0.9, -0.7])
    for quantizers in (None, bank):
        whole = run_iteration(mapping, quantizers, x0, 3, Scheme.JACOBI)
        given = run_iteration(mapping, quantizers, x0, 3.0, Scheme.JACOBI)
        assert given.steps == 3 and given.iterates.tobytes() == whole.iterates.tobytes()
    for steps in (2.5, math.nan, math.inf, 0):
        with pytest.raises(ValueError, match="^steps must be an integer >= 1"):
            run_iteration(mapping, bank, x0, steps, Scheme.JACOBI)
