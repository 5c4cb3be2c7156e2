import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qfix.engine import Scheme, bound_certificate
from qfix.mimo import (
    ChannelSet,
    GameConfig,
    ProjectedBlockQuantizer,
    StrategyProfile,
    dbm_to_watts,
    default_noise_power,
    estimate_modulus,
    feasible_bank,
    game_box,
    game_mapping,
    game_norm_spec,
    game_partition,
    interference_covariance,
    iwfa_run,
    mat_to_vec,
    nash_reference,
    paper_style_game,
    profile_to_vec,
    project_feasible,
    project_simplex,
    random_feasible_profile,
    sum_throughput,
    throughput,
    uniform_profile,
    vec_to_mat,
    vec_to_profile,
    waterfill,
)
from qfix.norms import Lp, WeightedMax, block_norm
from qfix.ticoq import (
    make_sq_bank,
    make_vq_bank,
    ticoq_sq_lp,
    ticoq_vq_lattice,
    uniform_sq_allocation,
)

# Entries below 1e-100 would only probe the underflow of squared norms.
_ENTRIES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False).filter(
    lambda x: x == 0.0 or abs(x) >= 1e-100
)


def _identity_channel_game(num_links=1, num_antennas=2, power_dbm=30.0, noise=1.0):
    game = GameConfig(
        num_links=num_links,
        num_antennas=num_antennas,
        distances=[[1.0] * num_links for _ in range(num_links)],
        gamma=2.0,
        power_dbm=power_dbm,
        noise_power=noise,
        seed=0,
    )
    h = np.zeros((num_links, num_links, num_antennas, num_antennas), dtype=complex)
    for j in range(num_links):
        for k in range(num_links):
            h[j, k] = np.eye(num_antennas)
    return game, ChannelSet(game, h)


def test_unit_conversions():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    # thermal floor at 10 MHz with the default noise figure
    assert default_noise_power() == pytest.approx(10 ** (-13.4), rel=1e-12)


def test_game_config_validation():
    with pytest.raises(ValueError):
        GameConfig(0, 2, [[1.0]], 3.5, 10.0)
    with pytest.raises(ValueError):
        GameConfig(1, 2, [[1.0, 2.0]], 3.5, 10.0)  # distances not 1x1
    with pytest.raises(ValueError):
        GameConfig(1, 2, [[1.0]], -1.0, 10.0)
    with pytest.raises(ValueError):
        GameConfig(1, 2, [[1.0]], 3.5, 10.0, noise_power=0.0)


def test_channel_generation_deterministic():
    game = paper_style_game(seed=3)
    a = ChannelSet.generate(game)
    b = ChannelSet.generate(game)
    assert np.array_equal(a.h, b.h)
    c = ChannelSet.generate(game, seed=4)
    assert not np.array_equal(a.h, c.h)


def test_channel_pathloss_scaling():
    # statistical check over many draws: E|h|^2 proportional to d^-gamma;
    # entry [j, k] spans distances[j][k] (100 direct, 200 and 500 cross)
    direct, cross_short, cross_long = [], [], []
    for seed in range(60):
        hh = ChannelSet.generate(paper_style_game(seed=seed)).h
        direct.append(np.mean(np.abs(hh[1, 1]) ** 2))
        cross_short.append(np.mean(np.abs(hh[0, 1]) ** 2))
        cross_long.append(np.mean(np.abs(hh[1, 0]) ** 2))
    assert np.mean(cross_short) / np.mean(direct) == pytest.approx(
        (200.0 / 100.0) ** -3.5, rel=0.5
    )
    assert np.mean(cross_long) / np.mean(direct) == pytest.approx(
        (500.0 / 100.0) ** -3.5, rel=0.5
    )


def test_project_simplex_kkt():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        v = rng.normal(scale=2.0, size=n)
        budget = float(rng.uniform(0.1, 5.0))
        x = project_simplex(v, budget)
        assert np.all(x >= 0)
        assert np.sum(x) == pytest.approx(budget, rel=1e-12)
        # Euclidean projection: no feasible point is closer
        for _ in range(20):
            z = rng.uniform(0, 1, n)
            z = budget * z / np.sum(z)
            assert np.sum((x - v) ** 2) <= np.sum((z - v) ** 2) + 1e-10


def test_project_simplex_edge_cases():
    assert np.allclose(project_simplex(np.array([1.0, 2.0]), 0.0), 0.0)
    x = project_simplex(np.array([-5.0, 3.0]), 1.0)
    assert np.allclose(x, [0.0, 1.0])
    with pytest.raises(ValueError):
        project_simplex(np.array([1.0]), -1.0)


def test_waterfill_identity_channel_equal_split():
    game, ch = _identity_channel_game(power_dbm=30.0, noise=1.0)  # budget 1 W
    prof = uniform_profile(game)
    best = waterfill(ch, prof, 0)
    assert np.allclose(best, 0.5 * np.eye(2), atol=1e-12)


def test_waterfill_uneven_channel_prefers_strong_mode():
    game, ch = _identity_channel_game(power_dbm=30.0, noise=1.0)
    h = ch.h.copy()
    h[0, 0] = np.diag([2.0, 0.5])
    ch2 = ChannelSet(game, h)
    prof = uniform_profile(game)
    best = waterfill(ch2, prof, 0)
    lam = np.sort(np.linalg.eigvalsh(best))
    assert lam[-1] > lam[0]
    assert np.trace(best).real == pytest.approx(1.0, rel=1e-12)
    # classic single-user waterfilling: p_i = (mu - sigma^2/g_i)^+ with the
    # level set by the active modes; here 1/g = (0.25, 4) and budget 1, so
    # the weak mode shuts off and all power rides the strong one.
    assert np.allclose(np.sort(np.diag(best).real), [0.0, 1.0], atol=1e-10)


def test_waterfill_refuses_singular_direct_channel():
    game, ch = _identity_channel_game(num_links=2, power_dbm=30.0, noise=1.0)
    h = ch.h.copy()
    h[1, 1] = np.array([[1.0, 2.0], [0.5, 1.0]])  # rank 1
    ch2 = ChannelSet(game, h)
    prof = uniform_profile(game)
    for _ in range(2):  # the guard reads a per-channel-set cache; ask twice
        with pytest.raises(ValueError, match="link 1 is ill-conditioned"):
            waterfill(ch2, prof, 1)
        best = waterfill(ch2, prof, 0)
        assert np.trace(best).real == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.eigvalsh(best)[0] >= -1e-12
    assert ch2.direct_cond[0] == pytest.approx(1.0, rel=1e-12)


def test_single_antenna_shannon_rate():
    game, ch = _identity_channel_game(num_antennas=1, power_dbm=30.0, noise=0.5)
    prof = StrategyProfile((np.array([[1.0 + 0j]]),))
    rate = throughput(ch, prof, 0)
    assert rate == pytest.approx(math.log2(1 + 1.0 / 0.5), rel=1e-12)


def test_waterfill_is_best_response():
    game = paper_style_game(seed=1)
    ch = ChannelSet.generate(game)
    rng = np.random.default_rng(2)
    prof = random_feasible_profile(game, rng)
    for k in range(game.num_links):
        best = waterfill(ch, prof, k)
        covs = list(prof.covariances)
        covs[k] = best
        best_rate = throughput(ch, StrategyProfile(tuple(covs)), k)
        for _ in range(50):
            alt = random_feasible_profile(game, rng).covariances[k]
            covs[k] = alt
            alt_rate = throughput(ch, StrategyProfile(tuple(covs)), k)
            assert best_rate >= alt_rate - 1e-8


def test_interference_covariance_psd():
    game = paper_style_game(seed=5)
    ch = ChannelSet.generate(game)
    prof = uniform_profile(game)
    for k in range(game.num_links):
        r = interference_covariance(ch, prof, k)
        lam = np.linalg.eigvalsh(r)
        assert np.all(lam > 0)
        assert np.allclose(r, r.conj().T)


def test_vec_mat_round_trip_preserves_frobenius():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = 0.5 * (a + a.conj().T)
        v = mat_to_vec(a)
        assert v.shape == (n * n,)
        assert np.linalg.norm(v) == pytest.approx(
            np.linalg.norm(a, "fro"), rel=1e-12
        )
        back = vec_to_mat(v)
        assert np.allclose(back, a, atol=1e-12)


@given(
    st.integers(1, 4).flatmap(
        lambda n: hnp.arrays(np.float64, (2, n, n), elements=_ENTRIES)
    )
)
def test_mat_to_vec_is_frobenius_isometry(parts):
    a = parts[0] + 1j * parts[1]
    a = 0.5 * (a + a.conj().T)
    n = a.shape[0]
    v = mat_to_vec(a)
    assert v.shape == (n * n,)
    fro = np.linalg.norm(a, "fro")
    assert abs(np.linalg.norm(v) - fro) <= 1e-14 * fro
    assert np.max(np.abs(vec_to_mat(v) - a)) <= 1e-15 * np.max(np.abs(a))
    w = np.concatenate([parts[0].ravel(), parts[1].ravel()])[: n * n]
    assert np.max(np.abs(mat_to_vec(vec_to_mat(w)) - w)) <= 1e-15 * np.max(np.abs(w))


def test_profile_vec_round_trip():
    game = paper_style_game(seed=6)
    rng = np.random.default_rng(4)
    prof = random_feasible_profile(game, rng)
    x = profile_to_vec(prof)
    part = game_partition(game)
    assert x.shape == (part.n,)
    back = vec_to_profile(x, game)
    for p, q in zip(prof.covariances, back.covariances):
        assert np.allclose(p, q, atol=1e-12)
    # feasible profiles live inside the declared box
    assert game_box(game).contains(x)


def test_project_feasible_properties():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = 0.5 * (a + a.conj().T)
        q = project_feasible(a, 2.0)
        lam = np.linalg.eigvalsh(q)
        assert np.all(lam >= -1e-12)
        assert np.trace(q).real == pytest.approx(2.0, rel=1e-10)
        assert np.allclose(q, q.conj().T)


def test_projected_quantizer_folds_infeasibility():
    game = paper_style_game(seed=7)
    part = game_partition(game)
    box = game_box(game)
    spec = game_norm_spec(game)
    bank = make_sq_bank(part, box, uniform_sq_allocation(part.n, 64))
    fb = feasible_bank(bank, game)
    rng = np.random.default_rng(6)
    prof = random_feasible_profile(game, rng)
    x = profile_to_vec(prof)
    for k in range(part.num_blocks):
        sl = part.block_slice(k)
        q = fb.blocks[k]
        assert isinstance(q, ProjectedBlockQuantizer)
        out = q.quantize(x[sl])
        mat = vec_to_mat(out)
        lam = np.linalg.eigvalsh(mat)
        assert np.all(lam >= -1e-10)
        assert np.trace(mat).real == pytest.approx(game.budgets[k], rel=1e-9)
        # projection of a feasible input's quantization stays within the
        # inner quantizer's worst case
        err = np.linalg.norm(out - x[sl])
        inner_worst = q.worst_case_block_error(spec.per_block[k])
        assert err <= inner_worst * (1 + 1e-9) + 1e-12


def _feasible_banks(game):
    """A 3-bit-per-coordinate scalar bank and an 8-bit-per-block lattice bank, projected."""
    part = game_partition(game)
    box = game_box(game)
    sq = feasible_bank(make_sq_bank(part, box, uniform_sq_allocation(part.n, 3 * part.n)), game)
    vq = feasible_bank(make_vq_bank(part, box, [8] * part.num_blocks), game)
    return sq, vq


def test_projected_bound_is_inner_l2_bound():
    game = paper_style_game(seed=0)
    for bank in _feasible_banks(game):
        for q in bank.blocks:
            inner = q.inner.worst_case_block_error(Lp(2.0))
            assert q.worst_case_block_error(Lp(2.0)) == inner
            # ||.||_p <= ||.||_2 for p >= 2, so the L2 bound serves there too.
            assert q.worst_case_block_error(Lp(4.0)) == inner
        assert feasible_bank(bank, game).blocks == bank.blocks  # already projected


def test_projected_scalar_bank_refuses_weighted_max():
    # The inner bank's weighted-max bound is 0.0025; the projection is
    # nonexpansive only in the Frobenius norm, so the wrapper used to report
    # the smaller L2 value 0.00198 here.
    sq, _ = _feasible_banks(paper_style_game(seed=0))
    norm = WeightedMax([0.5] * 4)
    assert sq.blocks[0].inner.worst_case_block_error(norm) == pytest.approx(0.0025, rel=1e-12)
    with pytest.raises(ValueError, match="p >= 2"):
        sq.blocks[0].worst_case_block_error(norm)


def test_projected_lattice_bank_refuses_l1():
    _, vq = _feasible_banks(paper_style_game(seed=0))
    with pytest.raises(ValueError, match="p >= 2"):
        vq.blocks[0].inner.worst_case_block_error(Lp(1.0))
    with pytest.raises(ValueError, match="p >= 2"):
        vq.blocks[0].worst_case_block_error(Lp(1.0))


def test_modulus_estimate_single_link_is_zero():
    game, ch = _identity_channel_game(num_links=1)
    est = estimate_modulus(ch, samples=20, rng=0)
    assert est.alpha_hat == 0.0
    assert est.certified


def test_modulus_estimate_dominates_samples():
    game = paper_style_game(seed=0)
    ch = ChannelSet.generate(game)
    est = estimate_modulus(ch, samples=40, rng=1)
    assert est.alpha_hat == pytest.approx(1.05 * est.max_ratio, rel=1e-12)
    assert est.samples == 40
    with pytest.raises(ValueError):
        estimate_modulus(ch, samples=1)


def test_nash_reference_is_simultaneous_fixed_point():
    game = paper_style_game(seed=0)
    ch = ChannelSet.generate(game)
    est = estimate_modulus(ch, samples=50, rng=0)
    ref = nash_reference(ch, est.alpha_hat)
    prof = vec_to_profile(ref, game)
    for k in range(game.num_links):
        br = waterfill(ch, prof, k)
        assert np.linalg.norm(br - prof.covariances[k], "fro") < 1e-8


def test_iwfa_modes_agree_and_certify():
    game = paper_style_game(seed=0)
    ch = ChannelSet.generate(game)
    est = estimate_modulus(ch, samples=50, rng=0)
    ref = nash_reference(ch, est.alpha_hat)
    sim = iwfa_run(ch, mode="simultaneous", steps=60, modulus=est.alpha_hat, reference=ref)
    seq = iwfa_run(ch, mode="sequential", steps=120, modulus=est.alpha_hat, reference=ref)
    assert sim.trajectory.scheme is Scheme.JACOBI
    assert seq.trajectory.scheme is Scheme.SEQUENTIAL
    assert np.allclose(sim.trajectory.final(), seq.trajectory.final(), atol=1e-6)
    assert sim.trajectory.dist_to_ref[-1] < 1e-9
    assert bound_certificate(seq.trajectory, seq.mapping, ref).all_ok()
    # throughput series settles at the equilibrium sum rate
    prof = vec_to_profile(ref, game)
    assert sim.throughputs[-1] == pytest.approx(sum_throughput(ch, prof), rel=1e-9)
    # A quantized sequential run carries a certificate that holds too.
    part, spec, box = game_partition(game), game_norm_spec(game), game_box(game)
    bank = make_sq_bank(part, box, ticoq_sq_lp(part, spec, box, 96).bits)
    qseq = iwfa_run(
        ch, quantizers=bank, mode="sequential", steps=120,
        modulus=est.alpha_hat, reference=ref,
    )
    assert qseq.trajectory.scheme is Scheme.SEQUENTIAL
    assert np.any(qseq.trajectory.error_norms > 0)
    assert bound_certificate(qseq.trajectory, qseq.mapping, ref).all_ok()


def test_iwfa_iterates_are_feasible_profiles():
    checked = 0
    for g in range(4):
        game = paper_style_game(seed=g)
        ch = ChannelSet.generate(game)
        est = estimate_modulus(ch, samples=50, rng=g)
        if not est.certified:
            continue
        part, spec, box = game_partition(game), game_norm_spec(game), game_box(game)
        banks = (
            None,
            make_sq_bank(part, box, ticoq_sq_lp(part, spec, box, 20).bits),
            make_vq_bank(part, box, ticoq_vq_lattice(part, spec.block_weights, box, 20).bits),
        )
        for bank in banks:
            for mode in ("simultaneous", "sequential"):
                res = iwfa_run(ch, quantizers=bank, mode=mode, steps=30, modulus=est.alpha_hat)
                for x in res.trajectory.iterates:
                    vec_to_profile(x, game).validate(game)
                    checked += 1
    # Games 0-3 are all certified: 4 games x 3 banks x 2 modes x 31 iterates.
    assert checked == 744


def test_iwfa_quantized_run_certificate():
    game = paper_style_game(seed=2)
    ch = ChannelSet.generate(game)
    est = estimate_modulus(ch, samples=50, rng=2)
    ref = nash_reference(ch, est.alpha_hat)
    part = game_partition(game)
    spec = game_norm_spec(game)
    box = game_box(game)
    alloc = ticoq_sq_lp(part, spec, box, 96)
    bank = make_sq_bank(part, box, alloc.bits)
    res = iwfa_run(
        ch, quantizers=bank, mode="simultaneous", steps=40,
        modulus=est.alpha_hat, reference=ref,
    )
    cert = bound_certificate(res.trajectory, res.mapping, ref)
    assert cert.all_ok()


def test_iwfa_rejects_uncertified_modulus():
    game = paper_style_game(seed=0)
    ch = ChannelSet.generate(game)
    with pytest.raises(ValueError):
        iwfa_run(ch, mode="simultaneous", steps=5, modulus=1.2)


def test_game_mapping_matches_waterfill_blocks():
    game = paper_style_game(seed=8)
    ch = ChannelSet.generate(game)
    mapping = game_mapping(ch, 0.5)
    rng = np.random.default_rng(7)
    prof = random_feasible_profile(game, rng)
    x = profile_to_vec(prof)
    out = mapping.eval_full(x)
    part = game_partition(game)
    for k in range(game.num_links):
        expected = waterfill(ch, prof, k)
        assert np.allclose(out[part.block_slice(k)], mat_to_vec(expected), atol=1e-10)


def test_iwfa_accepts_per_step_bank_schedule():
    from qfix.tvcoq import tvcoq_design

    game = paper_style_game(seed=2)
    ch = ChannelSet.generate(game)
    est = estimate_modulus(ch, samples=50, rng=2)
    ref = nash_reference(ch, est.alpha_hat)
    part = game_partition(game)
    spec = game_norm_spec(game)
    box = game_box(game)
    sched = tvcoq_design(part, spec, box, 40, 4, est.alpha_hat, "sq-lp")
    res = iwfa_run(
        ch, quantizers=list(sched.banks), mode="simultaneous", steps=4,
        modulus=est.alpha_hat, reference=ref,
    )
    cert = bound_certificate(res.trajectory, res.mapping, ref)
    assert cert.all_ok()
    # Later stages quantize finer, so the recorded error norms shrink.
    assert res.trajectory.error_norms[-1] < res.trajectory.error_norms[0]
    with pytest.raises(ValueError, match="simultaneous"):
        iwfa_run(ch, quantizers=list(sched.banks), mode="sequential", steps=4,
                 modulus=est.alpha_hat)
