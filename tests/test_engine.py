import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfix import engine
from qfix.engine import (
    BlockMapping,
    IdentityQuantizer,
    QuantizerBank,
    Scheme,
    accumulated_error,
    accumulated_error_series,
    affine_contraction,
    bound_certificate,
    random_affine_contraction,
    reference_fixed_point,
    run_iteration,
    stationary_probe,
    worst_case_error_bound,
)
from qfix.mimo import (
    ChannelSet,
    game_mapping,
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
    uniform_l2_spec,
    uniform_wmax_spec,
)
from qfix.squant import ScalarBlockQuantizer, ScalarQuantizer
from qfix.ticoq import make_sq_bank, ticoq_sq_wmax, uniform_sq_allocation


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
    assert accumulated_error(0.5, errs, Scheme.JACOBI) == pytest.approx(0.175, rel=1e-12)
    assert accumulated_error(
        0.5, errs, Scheme.GAUSS_SEIDEL, num_blocks=2
    ) == pytest.approx(0.2625, rel=1e-12)
    assert accumulated_error(0.9, [0.3], Scheme.JACOBI) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        accumulated_error(0.5, [], Scheme.JACOBI)


def test_accumulated_error_series_matches_recurrence():
    rng = np.random.default_rng(5)
    errs = rng.uniform(0, 1, size=12)
    series = accumulated_error_series(0.55, errs, Scheme.JACOBI)
    assert series[0] == 0.0
    for t in range(1, 13):
        assert series[t] == pytest.approx(
            accumulated_error(0.55, errs[:t], Scheme.JACOBI), rel=1e-12
        )


def test_worst_case_bound_worked_values():
    assert worst_case_error_bound(0.5, 0.1, math.inf, Scheme.JACOBI) == pytest.approx(0.2)
    assert worst_case_error_bound(
        0.5, 0.1, math.inf, Scheme.GAUSS_SEIDEL, num_blocks=2
    ) == pytest.approx(0.3)
    assert worst_case_error_bound(0.5, 0.0, math.inf, Scheme.ASYNC_BOUND_ONLY) == 0.0
    # finite-t Jacobi: (1 - alpha^t) / (1 - alpha) * e_bar
    assert worst_case_error_bound(0.5, 0.1, 3, Scheme.JACOBI) == pytest.approx(0.175)
    # async limiting bound: e_bar / (1 - alpha)^2
    assert worst_case_error_bound(
        0.5, 0.1, math.inf, Scheme.ASYNC_BOUND_ONLY
    ) == pytest.approx(0.4)


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


def test_sequential_has_no_closed_form_bound():
    with pytest.raises(ValueError, match="bound_certificate"):
        accumulated_error(0.5, [0.1], Scheme.SEQUENTIAL, num_blocks=2)
    with pytest.raises(ValueError, match="bound_certificate"):
        worst_case_error_bound(0.5, 0.1, 5, Scheme.SEQUENTIAL, num_blocks=2)


@st.composite
def _contraction_runs(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    part = BlockPartition(sizes)
    weight = st.floats(0.25, 4.0)
    per_block = [
        draw(st.sampled_from(["wmax", "l2"])) for _ in sizes
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
    mapping, x_star = random_affine_contraction(
        part, spec, box, alpha, rng=draw(st.integers(0, 2**32 - 1))
    )
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


def test_run_iteration_validation():
    mapping = _halving_map()
    with pytest.raises(ValueError):
        run_iteration(mapping, None, np.array([2.0, 0.0]), 5, Scheme.JACOBI)  # outside box
    with pytest.raises(ValueError):
        run_iteration(mapping, None, np.zeros(2), 0, Scheme.JACOBI)
    with pytest.raises(ValueError):
        run_iteration(mapping, None, np.zeros(3), 5, Scheme.JACOBI)
    with pytest.raises(ValueError):
        run_iteration(mapping, None, np.zeros(2), 5, Scheme.ASYNC_BOUND_ONLY)
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
    distances = engine._distances

    def counted_distances(*args):
        calls.append(args)
        return distances(*args)

    monkeypatch.setattr(engine, "_distances", counted_distances)
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
    got = engine._distances(mapping, iterates, x_star)
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


def test_reference_fixed_point():
    mapping = _halving_map()
    x_star = reference_fixed_point(mapping)
    assert np.allclose(x_star, 0.0, atol=1e-11)
    with pytest.raises(RuntimeError):
        reference_fixed_point(mapping, x0=np.array([1.0, 1.0]), max_steps=1, tol=1e-16)


def test_stationary_probe_identity_quantizer():
    mapping = _halving_map()
    bank = QuantizerBank([IdentityQuantizer(), IdentityQuantizer()])
    report = stationary_probe(mapping, bank, samples=50, radius=0.5, x_star=np.zeros(2), rng=0)
    assert report.fixed_point_found
    assert any(np.allclose(c, 0.0, atol=1e-12) for c in report.stationary)


def test_stationary_probe_one_bit_example():
    # T(x) = 0.5 x on [-1, 1] with a 1-bit quantizer (outputs -0.5 and 0.5):
    # Q(T(-0.5)) = Q(-0.25) = -0.5 and Q(T(0.5)) = 0.5, so both outputs are stationary.
    part = BlockPartition([1])
    spec = uniform_wmax_spec(part)
    box = BoxDomain([(-1.0, 1.0)])
    mapping = affine_contraction(0.5 * np.eye(1), np.zeros(1), part, box, spec, 0.5)
    bank = QuantizerBank([ScalarBlockQuantizer([ScalarQuantizer(-1.0, 1.0, 1)])])
    report = stationary_probe(mapping, bank, samples=200, radius=1.0, x_star=np.zeros(1), rng=1)
    assert report.fraction == pytest.approx(1.0)
    assert len(report.candidates) == 2


def test_stationary_probe_empty_ball():
    part = BlockPartition([1])
    spec = uniform_wmax_spec(part)
    box = BoxDomain([(-1.0, 1.0)])
    mapping = affine_contraction(0.5 * np.eye(1), np.zeros(1), part, box, spec, 0.5)
    bank = QuantizerBank([ScalarBlockQuantizer([ScalarQuantizer(-1.0, 1.0, 1)])])
    # radius 0 around x*=0, which is not a quantizer output
    report = stationary_probe(mapping, bank, samples=20, radius=0.0, x_star=np.zeros(1), rng=2)
    assert len(report.candidates) == 0
    assert "no stationary point sampled" in report.message


def test_trajectory_csv_export():
    part = BlockPartition([1, 1])
    spec = uniform_wmax_spec(part)
    box = BoxDomain([(-1.0, 1.0)] * 2)
    mapping, x_star = random_affine_contraction(part, spec, box, 0.5, rng=3)
    traj = run_iteration(mapping, None, np.zeros(2), 4, Scheme.JACOBI)
    buf = io.StringIO()
    traj.to_csv(buf, mapping=mapping, x_star=x_star)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,err_to_ref,e_norm,bound,certified"
    assert len(lines) == 6  # header + t = 0..4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[4] == "1"
    # byte-identical re-export
    buf2 = io.StringIO()
    traj.to_csv(buf2, mapping=mapping, x_star=x_star)
    assert buf2.getvalue() == buf.getvalue()


def test_uniform_allocation_helper():
    assert list(uniform_sq_allocation(3, 8)) == [3, 3, 2]
    assert list(uniform_sq_allocation(4, 8)) == [2, 2, 2, 2]
    assert list(uniform_sq_allocation(2, 0)) == [0, 0]


# ---------------------------------------------------------------------------
# Block-native evaluation and the one-pass scalar bank
# ---------------------------------------------------------------------------

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
    if draw(st.booleans()):
        mapping, _ = random_affine_contraction(part, spec, box, 0.7, rng=seed)
    else:  # every row dense
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((part.n, part.n)) / part.n
        mapping = affine_contraction(a, rng.standard_normal(part.n), part, box, spec, 0.5)
    scale = draw(st.sampled_from([1.0, 3.0]))  # inside the box, or mostly outside it
    x = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=part.n, max_size=part.n)))
    return mapping, x


@given(_affine_maps())
def test_affine_blocks_equal_the_sliced_full_evaluation(case):
    mapping, x = case
    full = mapping.eval_full(x)
    for k in range(mapping.partition.num_blocks):
        block = mapping.eval_block(k, x)
        assert block.tobytes() == full[mapping.partition.block_slice(k)].tobytes()


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
    calls = {"fn": 0, "fn_block": 0}

    def fn(x):
        calls["fn"] += 1
        return mapping.fn(x)

    def fn_block(k, x):
        calls["fn_block"] += 1
        return mapping.fn_block(k, x)

    counted = BlockMapping(
        fn, mapping.partition, mapping.domain, mapping.norm, mapping.modulus, fn_block=fn_block
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
    assert calls == {"fn": 0, "fn_block": part.num_blocks}
    ticks = run_iteration(counted, bank, x0, part.num_blocks, Scheme.SEQUENTIAL)
    assert calls == {"fn": 0, "fn_block": 2 * part.num_blocks}
    assert np.array_equal(ticks.final(), sweep.final())
    run_iteration(counted, bank, x0, 3, Scheme.JACOBI)
    assert calls == {"fn": 3, "fn_block": 2 * part.num_blocks}
    # the same runs through sliced full evaluations
    sliced = BlockMapping(mapping.fn, part, box, spec, mapping.modulus)
    assert sliced.fn_block is None
    resliced = run_iteration(sliced, bank, x0, 1, Scheme.GAUSS_SEIDEL)
    assert resliced.final().tobytes() == sweep.final().tobytes()


def test_block_evaluation_checks_its_shape():
    part = BlockPartition([2, 1])
    spec = uniform_wmax_spec(part)
    box = BoxDomain([(-1.0, 1.0)] * 3)
    mapping = BlockMapping(
        lambda x: 0.5 * x, part, box, spec, 0.5, fn_block=lambda k, x: 0.5 * x
    )
    with pytest.raises(ValueError, match="block 0 of the mapping has shape"):
        mapping.eval_block(0, np.zeros(3))
    with pytest.raises(ValueError, match="block 0 of the mapping has shape"):
        run_iteration(mapping, None, np.zeros(3), 1, Scheme.GAUSS_SEIDEL)
    # the block is clamped against its own slice of the box
    clamped = BlockMapping(
        lambda x: 3.0 * x, part, BoxDomain([(-1.0, 1.0), (-1.0, 1.0), (0.0, 0.5)]), spec, 0.5,
        fn_block=lambda k, x: 3.0 * x[part.block_slice(k)],
    )
    assert clamped.eval_block(1, np.ones(3)).tolist() == [0.5]
    assert clamped.eval_block(0, -np.ones(3)).tolist() == [-1.0, -1.0]


def _loop_quantize_full(bank, x, part):
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
    assert bank.quantize_full(x, part).tobytes() == _loop_quantize_full(bank, x, part).tobytes()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            bank.quantize_full(np.where(np.arange(part.n) == part.n - 1, bad, x), part)


def test_scalar_bank_checks_block_sizes_and_mixed_banks_loop(monkeypatch):
    part = BlockPartition([2, 1])
    box = BoxDomain([(-1.0, 1.0)] * 3)
    bank = make_sq_bank(part, box, [2, 3, 4])
    x = np.array([0.3, -0.7, 0.9])
    with pytest.raises(ValueError):
        bank.quantize_full(x, BlockPartition([1, 2]))
    with pytest.raises(ValueError):
        bank.quantize_full(np.zeros(4), part)
    calls = []
    quantize = ScalarBlockQuantizer.quantize

    def counted(self, v):
        calls.append(self.size)
        return quantize(self, v)

    monkeypatch.setattr(ScalarBlockQuantizer, "quantize", counted)
    assert bank.quantize_full(x, part).tobytes() == _loop_quantize_full(bank, x, part).tobytes()
    assert calls[0] == 3  # the fused pass
    mixed = QuantizerBank([bank.blocks[0], IdentityQuantizer()])
    assert mixed.quantize_full(x, part).tolist() == list(bank.blocks[0].quantize(x[:2])) + [0.9]


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
    coords = (ScalarQuantizer(lo, hi, b) for (lo, hi), b in zip(box, bits))
    return ScalarBlockQuantizer(coords), v, draw(norms)


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
        inner = ScalarBlockQuantizer(ScalarQuantizer(lo, hi, bits) for lo, hi in box)
    return ProjectedBlockQuantizer(inner, budget), v, draw(_LP_AT_LEAST_2)


@st.composite
def _identity_blocks(draw):
    box, v = _in_box(draw, draw(st.integers(1, 4)))
    return IdentityQuantizer(), v, draw(st.sampled_from([1.0, 2.0, 3.0]).map(Lp))


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
