import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import IdentityQuantizer, validate_profile
from qfix import engine, mimo, norms
from qfix.engine import QuantizerBank, Scheme, bound_certificate
from qfix.linalg import herm_eig
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
from qfix.norms import BlockPartition, BoxDomain, Lp, NormSpec, WeightedMax, block_norm
from qfix.squant import ScalarBlockQuantizer
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


def test_budgets_are_built_once_and_read_only():
    game = GameConfig(2, 2, [[100.0, 200.0], [500.0, 100.0]], 3.5, [10.0, 20.0])
    assert game.budgets is game.budgets
    assert not game.budgets.flags.writeable
    assert game.budgets.tolist() == [dbm_to_watts(10.0), dbm_to_watts(20.0)]
    same = GameConfig(2, 2, [[100.0, 200.0], [500.0, 100.0]], 3.5, [10.0, 20.0])
    assert game == same and hash(game) == hash(same)


def test_channel_generation_deterministic():
    game = paper_style_game(seed=3)
    a = ChannelSet.generate(game)
    b = ChannelSet.generate(game)
    assert np.array_equal(a.h, b.h)
    c = ChannelSet.generate(paper_style_game(seed=4))
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
    # a budget below half an ulp of the largest entry goes wholly on it
    assert project_simplex(np.array([1e20, 0.0]), 1.0).tolist() == [1.0, 0.0]
    assert project_simplex(np.array([0.0, -3e20, -3e20]), 1e-300).tolist() == [1e-300, 0.0, 0.0]


@given(
    hnp.arrays(float, st.tuples(st.integers(1, 3), st.integers(1, 6)), elements=st.floats(
        -1e150, 1e150, allow_nan=False, allow_infinity=False
    ).filter(lambda x: x == 0.0 or abs(x) >= 1e-150)),
    st.lists(st.floats(0.0, 1e150).filter(lambda x: x == 0.0 or x >= 1e-150), min_size=3, max_size=3),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_project_simplex_places_every_positive_budget(v, budgets):
    budget = np.array(budgets[: v.shape[0]])
    x = project_simplex(v, budget)
    assert np.all(x >= 0)
    n = v.shape[1]
    for row, b, v_row in zip(x, budget, v):
        assert (row.sum() > 0) == (b > 0)
        scale = max(b, np.abs(v_row).max()) * n
        assert abs(row.sum() - b) <= 4 * n * np.spacing(scale)
        assert project_simplex(v_row, b).tobytes() == row.tobytes()  # a stack row = the row alone


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


def test_a_singular_direct_channel_still_serves_interference_and_the_other_links():
    """The direct channels' inverses are built apart from the interference operands: a set
    with a singular H_11 sums every receiver's interference and best-responds for link 0."""
    game, ch = _identity_channel_game(num_links=2, power_dbm=30.0, noise=1.0)
    h = ch.h.copy()
    h[1, 1] = np.array([[1.0, 2.0], [0.5, 1.0]])  # rank 1
    singular = ChannelSet(game, h)
    prof = uniform_profile(game)
    for k in range(2):  # before any best response builds the inverses
        assert np.allclose(interference_covariance(singular, prof, k), 1.5 * np.eye(2), rtol=0, atol=1e-15)
    best = waterfill(singular, prof, 0)
    assert best.tobytes() == waterfill(ch, prof, 0).tobytes()  # H_00 = I in both sets
    for call in (lambda: waterfill(singular, prof, 1), lambda: game_mapping(singular, 0.5).eval_full(
            profile_to_vec(prof))):
        with pytest.raises(ValueError, match="link 1 is ill-conditioned"):
            call()


@pytest.mark.parametrize("cond", [1e4, 1e6, 1e9, 1e11])
def test_a_badly_conditioned_direct_channel_under_the_guard_is_served(cond):
    """H_00 = diag(1, 1/cond) makes G_0 = H_00^-1 R H_00^-H as ill-conditioned as cond^2 while
    R = 1.5 I is not; the floor, carried through the congruence, still serves the link: all the
    budget on the strong mode, as the solve against R gave."""
    game, ch = _identity_channel_game(num_links=2, power_dbm=30.0, noise=1.0)
    h = ch.h.copy()
    h[0, 0] = np.diag([1.0, 1.0 / cond])
    prof = uniform_profile(game)
    best = waterfill(ChannelSet(game, h), prof, 0)
    assert np.array_equal(best, np.diag([1.0, 0.0]).astype(complex))


def test_an_in_box_profile_with_indefinite_interference_is_refused():
    """Off-diagonal entries far above the noise power make a profile in the box indefinite, and
    so R_{-k}; a best response against it is refused by the positive-definite floor."""
    game = paper_style_game(seed=0)
    ch = ChannelSet.generate(game)
    N, b = game.num_antennas, game.budgets[0]
    x = np.tile(np.r_[np.zeros(N), np.full(N * N - N, b)], game.num_links)  # zero diagonal
    assert game_box(game).contains(x) and b > 1e10 * game.noise_power
    mapping = game_mapping(ch, 0.5)
    for call in [lambda k=k: waterfill(ch, vec_to_profile(x, game), k) for k in range(game.num_links)] + [
        lambda: mapping.eval_full(x), lambda: mapping.eval_block(1, x),
    ]:
        with pytest.raises(ValueError, match="not positive definite"):
            call()


def _mp_best_response(mpmath, ch, covariances, k):
    """Link k's best response at 50 digits, from the definition: the eigenvalues lam of
    M = H_kk^H R^-1 H_kk, then -1/lam projected onto the budget simplex in M's eigenbasis."""
    with mpmath.workdps(50):
        N = ch.game.num_antennas

        def mat(a):
            return mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in a])

        R = mpmath.mpf(ch.game.noise_power) * mpmath.eye(N)
        for j in range(ch.game.num_links):
            if j != k:
                R += mat(ch.h[j, k]) * mat(covariances[j]) * mat(ch.h[j, k]).H
        M = mat(ch.h[k, k]).H * mpmath.inverse(R) * mat(ch.h[k, k])
        lam, U = mpmath.eighe((M + M.H) / 2)
        v = [-1 / lam[i] for i in range(N)]
        top = sorted(v, reverse=True)
        active = max(m for m in range(1, N + 1) if top[m - 1] > (sum(top[:m]) - ch.game.budgets[k]) / m)
        level = (sum(top[:active]) - ch.game.budgets[k]) / active
        Q = U * mpmath.diag([max(x - level, 0) for x in v]) * U.H
        return np.array([[complex(Q[i, j]) for j in range(N)] for i in range(N)])


def test_waterfill_is_accurate_to_a_50_digit_evaluation():
    """Both links of four random feasible profiles of games 0-7, one at a time and stacked,
    within 1e-14 relative (Frobenius) of the best response evaluated at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for seed in range(8):
        game = paper_style_game(seed)
        ch = ChannelSet.generate(game)
        rng = np.random.default_rng(100 + seed)
        profiles = [random_feasible_profile(game, rng) for _ in range(4)]
        stacked = mimo._waterfill(ch, np.array([p.covariances for p in profiles]), slice(None))
        for i, prof in enumerate(profiles):
            for k in range(game.num_links):
                exact = _mp_best_response(mpmath, ch, prof.covariances, k)
                for got in (waterfill(ch, prof, k), stacked[i, k]):
                    worst = max(worst, np.linalg.norm(got - exact) / np.linalg.norm(exact))
    assert worst <= 1e-14


def _mp_rate(mpmath, ch, covariances, k):
    """Link k's rate log2 det(I + H_kk^H R^-1 H_kk P_k) at 50 digits, from its definition."""
    with mpmath.workdps(50):
        N = ch.game.num_antennas

        def mat(a):
            return mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in a])

        R = mpmath.mpf(ch.game.noise_power) * mpmath.eye(N)
        for j in range(ch.game.num_links):
            if j != k:
                R += mat(ch.h[j, k]) * mat(covariances[j]) * mat(ch.h[j, k]).H
        D = mat(ch.h[k, k])
        A = mpmath.eye(N) + D.H * mpmath.inverse(R) * D * mat(covariances[k])
        return float(mpmath.log(mpmath.det(A).real, 2))


def _rate_errors(mpmath, ch, profiles):
    """Each link's rate, one profile at a time and stacked, with its absolute error in bits."""
    stack = np.array([p.covariances for p in profiles])
    rates, errors = [], []
    for k in range(ch.game.num_links):
        stacked = throughput(ch, stack, k)
        for i, prof in enumerate(profiles):
            exact = _mp_rate(mpmath, ch, prof.covariances, k)
            for got in (throughput(ch, prof, k), stacked[i]):
                rates.append(got)
                errors.append(abs(got - exact))
    return np.array(rates), np.array(errors)


def test_rates_are_accurate_to_a_50_digit_evaluation():
    """log2 det(R + H P H^H) - log2 det(R), clamped at 0, against the definition at 50 digits, one
    profile at a time and stacked: within 1e-11 bits on both links of four random feasible profiles of
    games 0-7 and of a set with a singular H_11 (finite there: the identity inverts no H_kk), and within
    1e-13 bits, never negative, on game 0's uniform profile from -200 to -30 dBm."""
    mpmath = pytest.importorskip("mpmath")
    for seed in range(8):
        game = paper_style_game(seed)
        rng = np.random.default_rng(100 + seed)
        profiles = [random_feasible_profile(game, rng) for _ in range(4)]
        _, errors = _rate_errors(mpmath, ChannelSet.generate(game), profiles)
        assert errors.max() <= 1e-11
    game, ch = _identity_channel_game(num_links=2, power_dbm=30.0, noise=1.0)
    h = ch.h.copy()
    h[1, 1] = np.array([[1.0, 2.0], [0.5, 1.0]])  # rank 1
    profiles = [uniform_profile(game), random_feasible_profile(game, 7)]
    rates, errors = _rate_errors(mpmath, ChannelSet(game, h), profiles)
    assert np.isfinite(rates).all() and errors.max() <= 1e-11
    for dbm in (-200.0, -150.0, -100.0, -60.0, -30.0):
        game = GameConfig(2, 2, [[100.0, 200.0], [500.0, 100.0]], 3.5, dbm, seed=0)
        rates, errors = _rate_errors(mpmath, ChannelSet.generate(game), [uniform_profile(game)])
        assert (rates >= 0).all() and errors.max() <= 1e-13


def _complex_path_congruence(ch, covariances, k):
    """G_k by the complex path: R = noise I + sum_j H_jk P_j H_jk^H, then H_kk^-1 R H_kk^-H."""
    R = ch.game.noise_power * np.eye(ch.game.num_antennas, dtype=complex)
    for j in range(ch.game.num_links):
        if j != k:
            R = R + ch.h[j, k] @ covariances[j] @ ch.h[j, k].conj().T
    inv = np.linalg.inv(ch.h[k, k])
    return inv @ R @ inv.conj().T


def _kernel_congruences(monkeypatch, ch, x):
    """The (..., K, N, N) matrices G_k that the best-response kernel decomposes for vectors x."""
    seen = []

    def spy(a):
        seen.append(np.array(a))
        return herm_eig(a)

    with monkeypatch.context() as patch:
        patch.setattr(mimo, "herm_eig", spy)
        mimo._best_responses(ch, x)
    (G,) = seen
    return G


_THREE_LINKS = GameConfig(3, 3, [[100, 300, 400], [350, 100, 300], [500, 250, 100]], 3.5, 10.0, seed=5)


@pytest.mark.parametrize("game", [paper_style_game(seed) for seed in range(32)] + [_THREE_LINKS],
                         ids=[f"game{seed}" for seed in range(32)] + ["three-links"])
def test_the_congruence_map_equals_the_complex_path(monkeypatch, game):
    """G_k from the real-linear map is within 1e-13 relative (Frobenius) of the complex path on
    four random feasible profiles, one at a time and stacked; a stack member equals its single call."""
    ch = ChannelSet.generate(game)
    P = mimo._random_covariances(game, np.random.default_rng(200 + game.seed), 4)
    x = profile_to_vec(P)
    stacked = _kernel_congruences(monkeypatch, ch, x)
    for i in range(len(P)):
        single = _kernel_congruences(monkeypatch, ch, x[i])
        assert single.tobytes() == stacked[i].tobytes()
        for k in range(game.num_links):
            ref = _complex_path_congruence(ch, P[i], k)
            assert np.linalg.norm(single[k] - ref) <= 1e-13 * np.linalg.norm(ref)


def test_no_best_response_calls_vec_to_mat_or_the_interference_sum(monkeypatch):
    """Once a channel set has built its congruence operands, the map, a group function and waterfill
    call neither vec_to_mat (profile vectors are unpacked in one gather) nor the interference sum."""
    game = paper_style_game(seed=4)
    ch = ChannelSet.generate(game)
    ch.congruence
    prof = random_feasible_profile(game, np.random.default_rng(3))
    x = profile_to_vec(prof)
    expected = [game_mapping(ch, 0.5).eval_full(x), waterfill(ch, prof, 1)]

    def refuse(*args):
        raise AssertionError("called on the best-response path")

    monkeypatch.setattr(mimo, "vec_to_mat", refuse)
    monkeypatch.setattr(mimo, "_interference", refuse)
    mapping = game_mapping(ch, 0.5)
    assert mapping.eval_full(x).tobytes() == expected[0].tobytes()
    assert mapping.eval_block(1, x).tobytes() == expected[0][4:].tobytes()
    assert waterfill(ch, prof, 1).tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("N", [16, 32])
def test_a_best_response_allocates_on_the_order_of_the_channels(N):
    """Building the congruence operands and one map evaluation at N antennas allocate a few times
    the channel set's own N^2-sized matrices, not an N^4 map (at N = 32 that map alone is 32 MB)."""
    game = GameConfig(2, N, [[100.0, 200.0], [500.0, 100.0]], 3.5, 10.0, seed=1)
    ch = ChannelSet.generate(game)
    tracemalloc.start()
    try:
        ch.congruence
        best = mimo._best_responses(ch, game._space.start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * ch.h.nbytes
    assert best.shape == (2 * N * N,) and np.isfinite(best).all()


def test_waterfill_refuses_a_covariance_that_is_not_hermitian():
    """The profile's vector keeps each covariance's upper triangle, so a lower entry off its mirror
    would be dropped silently; waterfill refuses the profile instead, as herm_eig would."""
    game = paper_style_game(seed=0)
    ch = ChannelSet.generate(game)
    covs = list(uniform_profile(game).covariances)
    covs[1] = covs[1] + np.array([[0.0, 0.0], [0.5 * game.budgets[1], 0.0]])
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        waterfill(ch, StrategyProfile(covs), 0)


def test_a_rate_reads_its_own_covariance_through_the_received_power():
    """P_k enters a rate only as H_kk P_k H_kk^H, so herm_eig's check on the received sum refuses a
    skew there past its 1e-10 gate (0.5 budget at 10 dBm), and reads a smaller one (1e-3 budget, which
    the old rate kernel's herm_eig on P_k refused) as P_k's Hermitian part."""
    game = paper_style_game(seed=0)
    ch = ChannelSet.generate(game)
    covs = list(uniform_profile(game).covariances)
    skew = np.array([[0.0, 0.0], [game.budgets[0], 0.0]])
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        throughput(ch, StrategyProfile([covs[0] + 0.5 * skew, covs[1]]), 0)
    skewed = StrategyProfile([covs[0] + 1e-3 * skew, covs[1]])
    hermitian = StrategyProfile([covs[0] + 0.5e-3 * (skew + skew.T), covs[1]])
    assert throughput(ch, skewed, 0) == pytest.approx(throughput(ch, hermitian, 0), rel=0, abs=1e-12)


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


@given(
    st.integers(1, 4), st.integers(1, 3), st.booleans(), st.integers(0, 2**16), st.data()
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_grouped_projection_equals_each_block_bit_for_bit(links, antennas, lattice, seed, data):
    antennas = min(antennas, 2) if lattice else antennas  # keeps lattice codebooks small
    powers = data.draw(st.lists(st.floats(-10.0, 30.0), min_size=links, max_size=links))
    game = GameConfig(links, antennas, np.full((links, links), 100.0), 3.5, powers)
    part, box = game_partition(game), game_box(game)
    if lattice:
        bits = data.draw(st.lists(st.integers(0, 8), min_size=links, max_size=links))
        bank = feasible_bank(make_vq_bank(part, box, bits), game)
    else:
        bits = data.draw(st.lists(st.integers(0, 6), min_size=part.n, max_size=part.n))
        bank = feasible_bank(make_sq_bank(part, box, bits), game)
    rng = np.random.default_rng(seed)
    x = profile_to_vec(random_feasible_profile(game, rng))
    x = box.clamp(x + rng.normal(scale=data.draw(st.sampled_from([0.0, 1e-3, 0.3])), size=x.size) * x)
    alone = [q.quantize(x[part.block_slice(k)]) for k, q in enumerate(bank.blocks)]
    (whole,) = bank.group_quantizers(part, (None,))
    assert whole(x).tobytes() == np.concatenate(alone).tobytes()
    group = tuple(sorted(data.draw(st.sets(st.integers(0, links - 1), min_size=1))))
    if len(group) > 1:
        v = np.concatenate([x[part.block_slice(k)] for k in group])
        expected = np.concatenate([alone[k] for k in group])
        assert bank.group_quantizers(part, (group,))[0](v).tobytes() == expected.tobytes()
        # the group is one stacked projection onto its blocks' budgets, not a block loop
        for blocks, values in ((group, v), (None, x)):
            (quantizer,) = bank.group_quantizers(part, (blocks,))
            with mock.patch.object(mimo, "project_feasible", wraps=mimo.project_feasible) as spy:
                quantizer(values)
            ((stack, budgets), _), = spy.call_args_list
            assert stack.shape == (len(blocks or range(links)), antennas, antennas)
            assert budgets.tolist() == game.budgets[list(blocks or range(links))].tolist()


def test_projected_blocks_of_two_sizes_quantize_a_group_block_by_block():
    """2 x 2 and 3 x 3 blocks do not fuse (`fuse` gives None): the group loops over its blocks."""
    games = [GameConfig(1, N, [[100.0]], 3.5, [10.0]) for N in (2, 3)]
    part = BlockPartition([4, 9])
    rng = np.random.default_rng(5)
    blocks, values = [], []
    for game in games:
        box = game_box(game)
        bits = rng.integers(0, 6, box.n)
        inner = ScalarBlockQuantizer(box.lo, box.hi, bits)
        blocks.append(ProjectedBlockQuantizer(inner, game.budgets[0]))
        values.append(profile_to_vec(random_feasible_profile(game, rng)) * rng.uniform(0.9, 1.1))
    assert ProjectedBlockQuantizer.fuse(blocks) is None
    bank = QuantizerBank(blocks)
    alone = np.concatenate([q.quantize(v) for q, v in zip(blocks, values)])
    whole, reverse = bank.group_quantizers(part, (None, (1, 0)))
    assert whole(np.concatenate(values)).tobytes() == alone.tobytes()
    backwards = reverse(np.concatenate(values[::-1]))
    assert backwards.tobytes() == np.concatenate([alone[4:], alone[:4]]).tobytes()


def test_a_quantized_jacobi_step_projects_once(monkeypatch):
    game = paper_style_game(seed=0)
    channels = ChannelSet.generate(game)
    shapes = []
    project = mimo.project_feasible

    def counting(P, budget):
        shapes.append(np.shape(P))
        return project(P, budget)

    mapping = game_mapping(channels, 0.5)
    banks = _feasible_banks(game)
    # The plain loop's states: a step from a state an earlier step started from repeats it.
    new_states = []
    for bank in banks:
        x, states = profile_to_vec(uniform_profile(game)), set()
        for _ in range(5):
            states.add(x.tobytes())
            x = bank.group_quantizers(mapping.partition, (None,))[0](mapping.eval_full(x))
        new_states.append(len(states))
    monkeypatch.setattr(mimo, "project_feasible", counting)
    for bank, evaluated in zip(banks, new_states):
        shapes.clear()
        iwfa_run(channels, quantizers=bank, steps=5, modulus=0.5)
        assert shapes == [(2, 2, 2)] * evaluated


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
                    validate_profile(vec_to_profile(x, game), game)
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


def test_iwfa_wraps_each_distinct_bank_of_a_schedule_once(monkeypatch):
    from qfix.tvcoq import tvcoq_design

    game = paper_style_game(seed=0)
    ch = ChannelSet.generate(game)
    part, spec, box = game_partition(game), game_norm_spec(game), game_box(game)
    banks = list(tvcoq_design(part, spec, box, 20, 30, 0.6, "sq-lp").banks)
    distinct = {id(b) for b in banks}
    assert len(distinct) < len(banks)  # stages with equal rates share a bank
    per_stage = [feasible_bank(b, game) for b in banks]  # one fresh wrapper per stage

    wrapped = []
    wrap = mimo.feasible_bank

    def spying(bank, g):
        wrapped.append(id(bank))
        return wrap(bank, g)

    monkeypatch.setattr(mimo, "feasible_bank", spying)
    shared = iwfa_run(ch, quantizers=banks, steps=30, modulus=0.6)
    assert sorted(wrapped) == sorted(distinct)
    alone = iwfa_run(ch, quantizers=per_stage, steps=30, modulus=0.6)
    assert len(wrapped) == len(distinct) + len(banks)
    for a, b in (
        (shared.trajectory.iterates, alone.trajectory.iterates),
        (shared.trajectory.errors, alone.trajectory.errors),
        (shared.trajectory.error_norms, alone.trajectory.error_norms),
        (shared.throughputs, alone.throughputs),
    ):
        assert a.tobytes() == b.tobytes()


def _pairwise_modulus(ch, samples, rng):
    """estimate_modulus as one best-response pair at a time, per link."""
    game = ch.game
    part, spec = game_partition(game), game_norm_spec(game)
    rng = np.random.default_rng(rng)

    def best_responses(x):
        prof = vec_to_profile(x, game)
        return np.concatenate([mat_to_vec(waterfill(ch, prof, k)) for k in range(game.num_links)])

    worst = 0.0
    for _ in range(samples):
        x = profile_to_vec(random_feasible_profile(game, rng))
        y = profile_to_vec(random_feasible_profile(game, rng))
        dist = block_norm(x - y, part, spec)
        if dist >= 1e-12:
            diff = best_responses(x) - best_responses(y)
            worst = max(worst, block_norm(diff, part, spec) / dist)
    return worst


@pytest.mark.parametrize("g", [0, 1, 2, 3, 9])
def test_stacked_modulus_equals_the_pairwise_loop(g):
    ch = ChannelSet.generate(paper_style_game(seed=g))
    est = estimate_modulus(ch, samples=50, rng=g)
    worst = _pairwise_modulus(ch, 50, g)
    assert (est.max_ratio, est.alpha_hat, est.certified, est.samples, est.safety) == (
        worst, 1.05 * worst, 1.05 * worst < 1.0, 50, 1.05
    )
    assert est.certified == (g != 9)


@pytest.mark.parametrize("mode", ["simultaneous", "sequential"])
def test_run_throughputs_equal_each_iterate_alone(monkeypatch, mode):
    game = paper_style_game(seed=2)
    ch = ChannelSet.generate(game)
    stacked = []  # the profiles in each stacked pass
    monkeypatch.setattr(
        mimo, "sum_throughput", lambda c, P: stacked.append(len(P)) or sum_throughput(c, P)
    )
    # 8 entries a row: all 41 rows in one chunk, or 2 rows a chunk and 1 last
    for chunk, rows in ((1 << 18, [41]), (20, [2] * 20 + [1])):
        monkeypatch.setattr(engine, "_DISTANCE_CHUNK", chunk)
        res = iwfa_run(ch, mode=mode, steps=40, modulus=0.9)
        alone = [sum_throughput(ch, vec_to_profile(x, game)) for x in res.trajectory.iterates]
        assert all(isinstance(r, float) for r in alone)
        stacked.clear()
        assert res.throughputs.tobytes() == np.array(alone).tobytes()
        assert stacked == rows


def _mat_to_vec_loop(P):
    parts = [P.diagonal().real.astype(float)]
    for i in range(P.shape[0]):
        for j in range(i + 1, P.shape[0]):
            parts.append([math.sqrt(2.0) * P[i, j].real, math.sqrt(2.0) * P[i, j].imag])
    return np.concatenate(parts)


def _vec_to_mat_loop(v):
    """Entry by entry, Re = v_a / d_a and Im = v_b / d_b: a diagonal's Im is v_i / inf, and a lower
    entry's Im divisor is -sqrt(2), so every zero keeps the sign its source's quotient gives."""
    N = int(round(math.sqrt(v.size)))
    P = np.zeros((N, N), dtype=complex)
    for i in range(N):
        P[i, i] = complex(v[i] / 1.0, v[i] / math.inf)
    pos = N
    for i in range(N):
        for j in range(i + 1, N):
            P[i, j] = complex(v[pos] / math.sqrt(2.0), v[pos + 1] / math.sqrt(2.0))
            P[j, i] = complex(v[pos] / math.sqrt(2.0), v[pos + 1] / -math.sqrt(2.0))
            pos += 2
    return P


_SIGNED = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), _ENTRIES)


@given(
    st.integers(1, 4).flatmap(
        lambda n: hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.just(2), st.just(n), st.just(n)),
            elements=_SIGNED,
        )
    )
)
def test_stacked_vec_mat_equal_the_per_matrix_loops(parts):
    mats = parts[:, 0] + 1j * parts[:, 1]
    vecs = parts[:, 0].reshape(len(parts), -1)
    to_vec, to_mat = mat_to_vec(mats), vec_to_mat(vecs)
    for i in range(len(parts)):
        assert to_vec[i].tobytes() == _mat_to_vec_loop(mats[i]).tobytes()
        assert to_vec[i].tobytes() == mat_to_vec(mats[i]).tobytes()
        assert to_mat[i].tobytes() == _vec_to_mat_loop(vecs[i]).tobytes()
        assert to_mat[i].tobytes() == vec_to_mat(vecs[i]).tobytes()
    # A stack of profiles converts like each profile alone.
    profiles = to_mat.reshape((1,) + to_mat.shape)
    alone = profile_to_vec(StrategyProfile(to_mat))
    assert profile_to_vec(profiles)[0].tobytes() == alone.tobytes()


def test_per_link_calls_on_a_profile_stack_equal_each_profile_alone():
    game = GameConfig(3, 3, [[100, 300, 400], [350, 100, 300], [500, 250, 100]], 3.5, 10.0, seed=5)
    ch = ChannelSet.generate(game)
    rng = np.random.default_rng(11)
    profiles = [random_feasible_profile(game, rng) for _ in range(6)]
    stack = np.array([p.covariances for p in profiles]).reshape(2, 3, 3, 3, 3)
    rates = sum_throughput(ch, stack).ravel()
    for k in range(game.num_links):
        cov = interference_covariance(ch, stack, k).reshape(6, 3, 3)
        best = waterfill(ch, stack, k).reshape(6, 3, 3)
        rate = throughput(ch, stack, k).ravel()
        for i, prof in enumerate(profiles):
            # Noise first, then each interferer in ascending order.
            ref = game.noise_power * np.eye(3, dtype=complex)
            for j in range(game.num_links):
                if j != k:
                    ref = ref + ch.h[j, k] @ prof.covariances[j] @ ch.h[j, k].conj().T
            ref = 0.5 * (ref + ref.conj().T)
            assert cov[i].tobytes() == ref.tobytes()
            assert cov[i].tobytes() == interference_covariance(ch, prof, k).tobytes()
            assert best[i].tobytes() == waterfill(ch, prof, k).tobytes()
            assert rate[i] == throughput(ch, prof, k)
            assert rates[i] == sum_throughput(ch, prof) == sum(
                throughput(ch, prof, j) for j in range(game.num_links)
            )
    assert profile_to_vec(stack).reshape(6, -1).tobytes() == np.array(
        [profile_to_vec(p) for p in profiles]
    ).tobytes()


def test_run_computes_throughputs_when_first_read(monkeypatch):
    game = paper_style_game(seed=2)
    ch = ChannelSet.generate(game)
    calls = []
    real = mimo.sum_throughput

    def spy(channels, profile):
        calls.append(np.ndim(profile))
        return real(channels, profile)

    monkeypatch.setattr(mimo, "sum_throughput", spy)
    res = iwfa_run(ch, steps=12, modulus=0.9)
    assert calls == []
    rates = res.throughputs
    assert calls and all(ndim == 4 for ndim in calls)  # stacked passes only
    made = len(calls)
    alone = [real(ch, vec_to_profile(x, game)) for x in res.trajectory.iterates]
    assert rates.tobytes() == np.array(alone).tobytes()
    assert res.throughputs is rates
    assert len(calls) == made


def test_iwfa_run_requires_its_modulus():
    ch = ChannelSet.generate(paper_style_game(seed=0))
    with pytest.raises(TypeError):
        iwfa_run(ch, steps=5)
    with pytest.raises(TypeError):
        iwfa_run(ch, None, "simultaneous", 5, 0.5)  # the modulus is keyword-only


def _per_profile_draws(game, rng, count):
    """`count` profiles drawn one link at a time: rank, then Re and Im of G, scaled alone."""
    N, profiles = game.num_antennas, []
    for _ in range(count):
        mats = []
        for b in game.budgets:
            rank = int(rng.integers(1, N + 1))
            G = (rng.standard_normal((N, rank)) + 1j * rng.standard_normal((N, rank))) / math.sqrt(2)
            W = G @ G.conj().T
            mats.append(W * (b / float(np.trace(W).real)))
        profiles.append(mats)
    return np.array(profiles)


@settings(max_examples=60, deadline=None)
@given(
    links=st.integers(1, 3),
    antennas=st.integers(1, 4),
    count=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_profile_draws_equal_the_per_profile_loop(links, antennas, count, seed):
    game = GameConfig(
        links, antennas, np.full((links, links), 100.0), 3.5, np.linspace(0.0, 20.0, links)
    )
    loop_rng, stack_rng, one_rng = (np.random.default_rng(seed) for _ in range(3))
    expected = _per_profile_draws(game, loop_rng, count)
    stacked = mimo._random_covariances(game, stack_rng, count)
    one_at_a_time = np.array(
        [random_feasible_profile(game, one_rng).covariances for _ in range(count)]
    )
    assert stacked.tobytes() == expected.tobytes()
    assert one_at_a_time.tobytes() == expected.tobytes()
    # The same draws, in the same order: the generators end in one state.
    assert stack_rng.bit_generator.state == loop_rng.bit_generator.state
    assert one_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("pos", [0, 2, 3, 5])  # block 0's diagonal, Re and Im; block 1's diagonal
def test_a_non_finite_profile_is_refused_without_warnings(bad, pos):
    game = paper_style_game(seed=0)
    ch = ChannelSet.generate(game)
    mapping, part = game_mapping(ch, 0.5), game_partition(game)
    x = profile_to_vec(uniform_profile(game))
    x[pos] = bad
    k = pos // game.num_antennas**2
    size = game.num_antennas**2
    projected = ProjectedBlockQuantizer(IdentityQuantizer(size), game.budgets[k])
    grouped = feasible_bank(QuantizerBank([IdentityQuantizer(size)] * game.num_links), game)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would escape pytest.raises
        for call in (
            lambda: mapping.eval_full(x),
            lambda: mapping.eval_block(0, x),
            lambda: mapping.eval_block(1, x),
            lambda: projected.quantize(x[part.block_slice(k)]),
            lambda: grouped.group_quantizers(part, (None,))[0](x),
        ):
            with pytest.raises(ValueError, match="non-finite"):
                call()


@pytest.mark.parametrize("form", ["none", "bank", "schedule"])
def test_iwfa_run_checks_the_mode_first(form):
    game = paper_style_game(seed=0)
    ch = ChannelSet.generate(game)
    bank = make_sq_bank(game_partition(game), game_box(game), [2] * game_partition(game).n)
    quantizers = {"none": None, "bank": bank, "schedule": [bank] * 3}[form]
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        iwfa_run(ch, quantizers=quantizers, mode="bogus", steps=3, modulus=0.5)


_TWO_LINKS = dict(distances=[[100.0, 200.0], [500.0, 100.0]], gamma=3.5, power_dbm=10.0)


_BAD_GAME_PARAMETERS = [
    (dict(gamma=np.nan), "pathloss exponent must be positive and finite"),
    (dict(gamma=np.inf), "pathloss exponent must be positive and finite"),
    (dict(distances=[[100.0, np.nan], [500.0, 100.0]]), "distances must be a positive, finite"),
    (dict(distances=[[100.0, np.inf], [500.0, 100.0]]), "distances must be a positive, finite"),
    (dict(power_dbm=np.inf), "budgets must be finite dBm values"),
    (dict(power_dbm=[10.0, -np.inf]), "budgets must be finite dBm values"),
    (dict(power_dbm=np.nan), "budgets must be finite dBm values"),
    # 10,000 dBm ended in an OverflowError from 10^997 W
    (dict(power_dbm=[10.0, 10000.0]), "budgets must have finite watts"),
    # a gain of inf ended in a failed SVD, and a gain of 0 in an ill-conditioned channel
    (dict(distances=[[1e-200, 200.0], [500.0, 100.0]]), "pathloss gains d\\^-gamma must be positive and finite"),
    (dict(distances=[[1e200, 200.0], [500.0, 100.0]]), "pathloss gains d\\^-gamma must be positive and finite"),
    (dict(noise_power=np.inf), "noise power must be positive and finite"),
    (dict(noise_power=np.nan), "noise power must be positive and finite"),
    (dict(num_links=2.7), "num_links must be an integer >= 1, got 2.7"),
    (dict(num_antennas=2.7), "num_antennas must be an integer >= 1, got 2.7"),
    (dict(num_antennas=np.nan), "num_antennas must be an integer >= 1"),
    (dict(num_antennas=0), "num_antennas must be an integer >= 1, got 0"),
]


@pytest.mark.parametrize(
    "over, message",
    _BAD_GAME_PARAMETERS,
    ids=[",".join(f"{k}={v}" for k, v in over.items()) for over, _ in _BAD_GAME_PARAMETERS],
)
def test_game_config_refuses_non_finite_and_non_integral_parameters(over, message):
    """gamma = NaN ended in an SVD failure, inf in an ill-conditioned channel, and N = 2.7 was 2."""
    args = {**_TWO_LINKS, "num_links": 2, "num_antennas": 2, **over}
    with pytest.raises(ValueError, match=message):
        GameConfig(**args)


def test_game_config_takes_integral_counts_as_integers():
    game = GameConfig(num_links=2.0, num_antennas=np.float64(2.0), **_TWO_LINKS)
    assert type(game.num_links) is int and type(game.num_antennas) is int
    assert game == GameConfig(num_links=2, num_antennas=2, **_TWO_LINKS)


def test_run_and_sample_counts_are_integers():
    ch = ChannelSet.generate(paper_style_game(seed=0))
    for call, name in (
        (lambda: iwfa_run(ch, steps=2.5, modulus=0.5), "steps"),
        (lambda: iwfa_run(ch, mode="sequential", steps=np.nan, modulus=0.5), "steps"),
        (lambda: estimate_modulus(ch, samples=2.5), "samples"),
        (lambda: estimate_modulus(ch, samples=np.inf), "samples"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()
    # An integral float is that integer: the same run, the same estimate.
    for mode in ("simultaneous", "sequential"):
        whole = iwfa_run(ch, mode=mode, steps=3, modulus=0.5).trajectory
        given = iwfa_run(ch, mode=mode, steps=3.0, modulus=0.5).trajectory
        assert given.iterates.tobytes() == whole.iterates.tobytes()
    assert estimate_modulus(ch, samples=4.0) == estimate_modulus(ch, samples=4)


def test_a_game_keeps_one_shared_profile_space():
    game = paper_style_game(seed=5)
    assert game_partition(game) is game_partition(game)
    assert game_norm_spec(game) is game_norm_spec(game)
    assert game_box(game) is game_box(game)
    # The shared objects equal freshly built ones.
    N, K, budgets = game.num_antennas, game.num_links, game.budgets
    assert game_partition(game) == BlockPartition([N * N] * K)
    assert game_norm_spec(game) == NormSpec([1.0] * K, [Lp(2.0)] * K)
    intervals = [
        iv for b in budgets for iv in [(0.0, float(b))] * N + [(-float(b), float(b))] * (N * N - N)
    ]
    assert game_box(game) == BoxDomain(intervals)
    # The start vector is the uniform profile's, read-only.
    start = game._space.start
    assert not start.flags.writeable
    assert start.tobytes() == profile_to_vec(uniform_profile(game)).tobytes()
    # Equal games share nothing but are equal: the space depends on the config alone.
    other = paper_style_game(seed=5)
    assert game_box(other) is not game_box(game) and game_box(other) == game_box(game)


def test_a_game_builds_one_block_layout(monkeypatch):
    """One modulus estimate, one Nash reference and two runs share one spec's layout."""
    built = []

    class CountedLayout(norms._BlockLayout):
        def __init__(self, spec, part):
            built.append(spec)
            super().__init__(spec, part)

    monkeypatch.setattr(norms, "_BlockLayout", CountedLayout)
    ch = ChannelSet.generate(paper_style_game(seed=0))
    alpha = estimate_modulus(ch, samples=10, rng=0).alpha_hat
    ref = nash_reference(ch, alpha)
    iwfa_run(ch, mode="simultaneous", steps=5, modulus=alpha, reference=ref)
    iwfa_run(ch, mode="sequential", steps=10, modulus=alpha, reference=ref)
    assert built == [game_norm_spec(ch.game)]
