"""MIMO interference game solved by iterative waterfilling.

K transmitter-receiver pairs share a band; each link k picks a transmit
covariance P_k (PSD, trace = power budget) maximizing its own rate
against the interference-plus-noise it sees.  The simultaneous /
sequential best-response iterations are block fixed-point iterations of
the waterfilling map, so they plug directly into the engine — including
quantized message passing, where each covariance travels as an N^2-real
vector whose L2 norm equals the Frobenius norm of the matrix.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .engine import (
    BankOrSchedule,
    BlockMapping,
    QuantizerBank,
    Scheme,
    Trajectory,
    _count,
    _row_chunks,
    group_quantizer,
    reference_fixed_point,
    run_iteration,
)
from .linalg import IllConditioned, _require_pd, conj_t, herm_eig, logdet_psd
from .norms import BlockPartition, BoxDomain, Lp, NormSpec, _Frozen, _water_level, block_norms

THERMAL_NOISE_DBM_PER_HZ = -174.0
DEFAULT_BANDWIDTH_HZ = 10e6
_COND_GUARD = 1e12
_MODULUS_SAFETY = 1.05
_SQRT2 = math.sqrt(2.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def default_noise_power() -> float:
    """Thermal noise floor k_B*T*B over the default band, through the -174 dBm/Hz constant."""
    return dbm_to_watts(THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(DEFAULT_BANDWIDTH_HZ))


class GameConfig(_Frozen):
    """Static parameters of one K-pair, N-antenna interference game.

    distances[j][k] is the transmitter-j to receiver-k distance in meters;
    channel gains scale as distance^(-gamma/2).  Budgets are given in dBm
    and used in linear watts; the noise covariance is noise_power * I.
    Every parameter is checked once: the counts are integers (2.0 is one),
    gamma, the distances, the budgets and the noise power are finite, and
    so are the gains d^-gamma (and positive) and the budgets in watts.
    """

    _fields = ("num_links", "num_antennas", "distances", "gamma", "power_dbm", "noise_power", "seed")

    def __init__(
        self,
        num_links: int,
        num_antennas: int,
        distances,
        gamma: float,
        power_dbm,
        noise_power: Optional[float] = None,
        seed: int = 0,
    ):
        num_links = _count(num_links, "num_links", 1)
        num_antennas = _count(num_antennas, "num_antennas", 1)
        if not 0 < gamma < math.inf:
            raise ValueError(f"pathloss exponent must be positive and finite, got {gamma}")
        d = np.asarray(distances, dtype=float)
        if d.shape != (num_links, num_links) or not np.all((d > 0) & (d < math.inf)):
            raise ValueError("distances must be a positive, finite KxK matrix")
        with np.errstate(over="ignore", under="ignore"):
            gains = d ** -float(gamma)
        if not np.all((gains > 0) & (gains < math.inf)):
            raise ValueError(f"pathloss gains d^-gamma must be positive and finite, got {gains.tolist()}")
        if np.isscalar(power_dbm):
            power_dbm = (float(power_dbm),) * num_links
        else:
            power_dbm = tuple(float(v) for v in power_dbm)
            if len(power_dbm) != num_links:
                raise ValueError(f"{len(power_dbm)} budgets for {num_links} links")
        if not all(map(math.isfinite, power_dbm)):
            raise ValueError(f"budgets must be finite dBm values, got {power_dbm}")
        try:
            budgets = np.array([dbm_to_watts(v) for v in power_dbm])
        except OverflowError:  # 10^((dBm - 30) / 10) past float64's range
            raise ValueError(f"budgets must have finite watts, got {power_dbm} dBm") from None
        if noise_power is None:
            noise_power = default_noise_power()
        if not 0 < noise_power < math.inf:
            raise ValueError(f"noise power must be positive and finite, got {noise_power}")
        budgets.flags.writeable = False
        self._set(
            num_links=num_links, num_antennas=num_antennas, distances=tuple(tuple(row) for row in d),
            gamma=float(gamma), power_dbm=power_dbm, noise_power=float(noise_power), seed=int(seed),
            _budgets=budgets,
        )

    @property
    def budgets(self) -> np.ndarray:
        """Per-link transmit power budgets in watts (read-only, built once)."""
        return self._budgets

    @cached_property
    def _space(self) -> "_ProfileSpace":
        """The game's profile space, built the first time it is asked for and then shared."""
        return _profile_space(self)


def paper_style_game(seed: int = 0) -> GameConfig:
    """Two-pair, two-antenna geometry with weak cross links, at 10 dBm per link."""
    return GameConfig(
        num_links=2, num_antennas=2, distances=[[100.0, 200.0], [500.0, 100.0]],
        gamma=3.5, power_dbm=10.0, seed=seed,
    )


class ChannelSet(_Frozen):
    """All cross/direct channel matrices H_jk for one fading draw.

    h is (K, K, N, N) complex; h[j, k] maps tx j to rx k.  A channel set equals only itself.
    """

    _fields = ("game", "h")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, game: GameConfig, h: np.ndarray):
        self._set(game=game, h=h)

    @staticmethod
    def generate(game: GameConfig) -> "ChannelSet":
        """Pathloss-scaled i.i.d. standard complex Gaussian entries, drawn from the game's seed.

        The draw order is fixed (j outer, k inner, real before imaginary)
        so regeneration from the same seed is bit-identical.
        """
        rng = np.random.default_rng(game.seed)
        K, N = game.num_links, game.num_antennas
        d = np.asarray(game.distances)
        h = np.empty((K, K, N, N), dtype=complex)
        for j in range(K):
            for k in range(K):
                re = rng.standard_normal((N, N))
                im = rng.standard_normal((N, N))
                h[j, k] = math.sqrt(d[j, k] ** (-game.gamma)) * (re + 1j * im) / math.sqrt(2.0)
        return ChannelSet(game=game, h=h)

    @cached_property
    def direct_cond(self) -> np.ndarray:
        """2-norm condition number of each direct channel H_kk, computed once."""
        K = self.game.num_links
        return np.linalg.cond(self.h[range(K), range(K)])

    @cached_property
    def ill_conditioned(self) -> dict:
        """{link: why} for the links refused a best response, found once: a direct channel past the guard
        (its operands are NaN), or a G_k that can overflow.  On the box an entry of F P F^H is at most
        N budget ||F||_F^2, so N^2 (sum |c_k| + N sum_j budget_j ||F_jk||_F^2) bounds G_k's eigenvalues."""
        F, _, c = self.congruence
        N, budgets = self.game.num_antennas, self.game.budgets[self.operands[0]]
        with np.errstate(over="ignore"):
            F2 = (np.abs(F) ** 2).sum(axis=(2, 3))
            bound = N * N * (np.abs(c).sum(axis=(1, 2)) + N * (budgets * F2).sum(axis=1))
        return {k: f"direct channel of link {k} is ill-conditioned" if not self.direct_cond[k] <= _COND_GUARD
                else f"whitened interference G_k of link {k} can overflow float64"
                for k in np.flatnonzero(~np.isfinite(bound)).tolist()}

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # an overflow gives inf, which `ill_conditioned` flags
    def congruence(self) -> tuple:
        """(F, F^H, c), built once: G_k = H_kk^-1 R_{-k} H_kk^-H = c_k + sum_j F_jk P_j F_jk^H, j in tx[k],
        F_jk = H_kk^-1 H_jk, c_k = noise_power H_kk^-1 H_kk^-H (H's sizes); an ill H_kk's are NaN."""
        _, H, _, D, *_ = self.operands
        inv = np.full_like(D, np.nan)
        ok = np.flatnonzero(self.direct_cond <= _COND_GUARD)
        inv[ok] = np.linalg.inv(D[ok])
        F = inv[:, None] @ H  # (K, K - 1, N, N)
        return F, conj_t(F), self.game.noise_power * inv @ conj_t(inv)

    @cached_property
    def operands(self) -> tuple:
        """(tx, H_jk, H_jk^H, H_kk, H_kk^H, noise_power * I); tx[k]: rx k's other txs, ascending."""
        K = self.game.num_links
        tx = np.nonzero(~np.eye(K, dtype=bool))[1].reshape(K, K - 1)
        H, D = self.h[tx, np.arange(K)[:, None]], self.h[range(K), range(K)]
        noise = self.game.noise_power * np.eye(self.game.num_antennas) + 0j
        return tx, H, conj_t(H), D, conj_t(D), noise


class StrategyProfile(_Frozen):
    """One transmit covariance per link: K complex (N, N) arrays.  A profile equals only itself."""

    _fields = ("covariances",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, covariances: Sequence[np.ndarray]):
        self._set(covariances=tuple(np.asarray(P, dtype=complex) for P in covariances))


def uniform_profile(game: GameConfig) -> StrategyProfile:
    """Equal power on every antenna: P_k = (budget/N) I."""
    N = game.num_antennas
    return StrategyProfile([b / N * np.eye(N, dtype=complex) for b in game.budgets])


def random_feasible_profile(game: GameConfig, rng) -> StrategyProfile:
    """Random PSD covariances scaled to the trace budget (full or low rank)."""
    return StrategyProfile(_random_covariances(game, np.random.default_rng(rng), 1)[0])


def _random_covariances(game: GameConfig, rng, count: int) -> np.ndarray:
    """(count, K, N, N) profiles, drawn as `count` one-profile draws: per link, the rank r, then
    Re and Im of G (N x r) in one (2, N, r) call, the same stream as Re's call then Im's;
    W = G G^H is scaled to its budget on stacks of equal rank."""
    K, N = game.num_links, game.num_antennas
    ranks, parts = np.empty(count * K, dtype=int), []
    for i in range(count * K):
        r = ranks[i] = rng.integers(1, N + 1)
        parts.append(rng.standard_normal((2, N, r)))
    out, budgets = np.empty((count * K, N, N), dtype=complex), np.tile(game.budgets, count)
    for r in set(ranks.tolist()):  # not np.unique, which imports numpy.ma (about 1 MB)
        idx = np.flatnonzero(ranks == r)
        stack = np.array([parts[i] for i in idx])  # (m, 2, N, r): Re, then Im
        G = (stack[:, 0] + 1j * stack[:, 1]) / _SQRT2
        W = G @ conj_t(G)
        out[idx] = W * (budgets[idx] / np.trace(W, axis1=-2, axis2=-1).real)[:, None, None]
    return out.reshape(count, K, N, N)


# ---------------------------------------------------------------------------
# Best response.  The kernels serve a slice of links for a (..., K, N, N) stack
# of profiles in one numpy call per step; each matrix gets the LAPACK and BLAS
# calls it would get alone, so a member equals the one-profile result bit for bit.
# ---------------------------------------------------------------------------

def _as_stack(profile) -> np.ndarray:
    """(..., K, N, N) covariances of a StrategyProfile or of a profile stack."""
    return np.asarray(getattr(profile, "covariances", profile), dtype=complex)


def _congruence_sum(base: np.ndarray, A: np.ndarray, P: np.ndarray, AH: np.ndarray) -> np.ndarray:
    """base + sum_i A_i P_i A_i^H over axis -3 of (..., L, K - 1, N, N) stacks, added in ascending i."""
    terms = A @ P @ AH
    S = base + (terms[..., 0, :, :] if terms.shape[-3] else np.zeros(terms.shape[:-3] + (1, 1)))
    for i in range(1, terms.shape[-3]):
        S = S + terms[..., i, :, :]
    return S


def _interference(channels: ChannelSet, P: np.ndarray, links: slice) -> np.ndarray:
    """(..., L, N, N) noise plus interference at each receiver of `links`, not symmetrized."""
    tx, H, HH, _, _, noise = channels.operands
    return _congruence_sum(noise, H[links], P[..., tx[links], :, :], HH[links])


def _waterfill(channels: ChannelSet, P: np.ndarray, links: slice) -> np.ndarray:
    """(..., L, N, N) best responses of the links in `links`, from one eigendecomposition of
    G_k = H_kk^-1 R_{-k} H_kk^-H = c_k + sum_j F_jk P_j F_jk^H (`congruence`).  As ||G|| <= ||H^-1||^2 ||R||
    and min eig G >= min eig R / ||H||^2, an R_{-k} above the floor gives a G_k above it over cond(H_kk)^2."""
    if channels.ill_conditioned:  # empty for most games, which then build no link range
        ill = channels.ill_conditioned.keys() & range(channels.game.num_links)[links]
        if ill:
            raise IllConditioned(channels.ill_conditioned[min(ill)])
    F, FH, c = channels.congruence
    others = P[..., channels.operands[0][links], :, :]  # (..., L, K - 1, N, N)
    g, U = herm_eig(_congruence_sum(c[links], F[links], others, FH[links]))
    _require_pd(g, channels.direct_cond[links] ** -2.0)
    powers = project_simplex(-g, channels.game.budgets[links])
    Q = (U * powers[..., None, :]) @ conj_t(U)
    return 0.5 * (Q + conj_t(Q))


def _rates(channels: ChannelSet, P: np.ndarray, links: slice) -> np.ndarray:
    """(..., L) rates log2 det(I + H^H R^-1 H P_k) of `links`, as log2 det(R + H P_k H^H) - log2 det(R), >= 0."""
    _, _, _, D, DH, _ = channels.operands
    R = _interference(channels, P, links)
    rates = logdet_psd(R + D[links] @ P[..., links, :, :] @ DH[links]) - logdet_psd(R)
    return np.maximum(rates, 0.0) / math.log(2.0)


def interference_covariance(channels: ChannelSet, profile, k: int) -> np.ndarray:
    """Noise plus received multi-user interference at receiver k."""
    R = _interference(channels, _as_stack(profile), slice(k, k + 1))[..., 0, :, :]
    return 0.5 * (R + conj_t(R))


def project_simplex(v: np.ndarray, budget) -> np.ndarray:
    """Euclidean projection of each row of v onto {x >= 0, sum x = budget}, exactly.

    The water level theta comes in closed form (`norms._water_level`), so the
    result satisfies the KKT conditions x_i = max(v_i - theta, 0) with
    sum x = budget to floating-point accuracy.  A positive budget too small
    to move a row's level (below half an ulp of its largest entry) goes
    wholly on that entry, the lowest index among equals.  `budget` is one
    number or one per row."""
    v, budget = np.asarray(v, dtype=float), np.asarray(budget, dtype=float)
    if budget.min() < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    theta, peak = _water_level(v, budget)
    x = np.maximum(v - theta[..., None], 0.0)
    if (theta >= peak).any():  # a row with every entry at or below its level
        lost = (theta >= peak) & (budget > 0)
        top = np.argmax(v, axis=-1)[..., None]
        kept = np.take_along_axis(x, top, axis=-1)[..., 0]
        np.put_along_axis(x, top, np.where(lost, budget, kept)[..., None], axis=-1)
    return x


def waterfill(channels: ChannelSet, profile, k: int) -> np.ndarray:
    """Rate-optimal covariance for link k against the rest of the profile.

    Diagonalizes G = H_kk^-1 R_{-k} H_kk^-H = M^-1, the inverse of the
    whitened channel M = H_kk^H R_{-k}^-1 H_kk, and projects the eigenvalues
    of -G onto the trace simplex; the projection shares G's eigenbasis,
    which turns the matrix projection into a vector one.
    """
    return _waterfill(channels, _as_stack(profile), slice(k, k + 1))[..., 0, :, :]


def throughput(channels: ChannelSet, profile, k: int):
    """Link-k rate log2 det(I + H^H R^-1 H P_k) in bits per channel use; covariances Hermitian PSD (README)."""
    return _rates(channels, _as_stack(profile), slice(k, k + 1))[..., 0][()]


def sum_throughput(channels: ChannelSet, profile):
    """Sum of the link rates, added in link order."""
    rates = _rates(channels, _as_stack(profile), slice(None))
    return np.asarray(sum(np.moveaxis(rates, -1, 0)))[()]


# ---------------------------------------------------------------------------
# Vectorization: covariance matrices <-> real block vectors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _vec_layout(N: int) -> tuple:
    """(gather, scale, unpack, divisor): `gather` picks from a row-major N x N matrix's real view the diagonal
    real parts, then (Re, Im) of each upper entry; `scale` holds the sqrt(2)s; a vector's entries at `unpack`
    over `divisor` are that real view (a diagonal's Im is v_i / inf, a lower entry's v_b / -sqrt(2))."""
    iu, ju = np.triu_indices(N, 1)
    order = np.concatenate([np.arange(N) * (N + 1), iu * N + ju, ju * N + iu])
    gather = np.concatenate([2 * order[:N], (2 * (iu * N + ju)[:, None] + [0, 1]).ravel()])
    scatter, re = np.argsort(order), np.concatenate([np.arange(N)] + [np.arange(N, N * N, 2)] * 2)
    unpack = np.stack([re, re + (re >= N)], axis=-1)[scatter].ravel()  # (Re, Im) sources, entry by entry
    divisor = np.repeat([[1.0, np.inf], [_SQRT2, _SQRT2], [_SQRT2, -_SQRT2]], [N, iu.size, iu.size], axis=0)
    return gather, np.repeat([1.0, _SQRT2], [N, 2 * iu.size]), unpack, divisor[scatter].ravel()


def mat_to_vec(P: np.ndarray) -> np.ndarray:
    """Real vector [diag; sqrt(2) Re upper; sqrt(2) Im upper] of a Hermitian P, or (..., N^2).

    The sqrt(2) on off-diagonal pairs makes the vector's L2 norm the matrix's Frobenius norm."""
    P = np.ascontiguousarray(P, dtype=complex)
    N = P.shape[-1]
    gather, scale, *_ = _vec_layout(N)
    return P.reshape(P.shape[:-2] + (N * N,)).view(float)[..., gather] * scale


def _unpack(v: np.ndarray, N: int) -> np.ndarray:
    """(..., N, N) matrices of (..., N^2) vectors in one gather and one division; refuses non-finite entries."""
    if not np.isfinite(v).all():  # inf would turn into NaN, with warnings, before herm_eig sees it
        raise ValueError("non-finite entries")
    _, _, unpack, divisor = _vec_layout(N)
    m = np.take(v, unpack, axis=-1) / divisor
    return m.view(complex).reshape(m.shape[:-1] + (N, N))


def vec_to_mat(v: np.ndarray) -> np.ndarray:
    """Inverse of mat_to_vec, for one vector or a (..., N^2) stack; refuses non-finite entries."""
    v = np.asarray(v, dtype=float)
    N = math.isqrt(v.shape[-1])
    if N * N != v.shape[-1]:
        raise ValueError(f"vector of length {v.shape[-1]} is not an N^2 parameterization")
    return _unpack(v, N)


class _ProfileSpace(NamedTuple):
    """A game's profile space: constants of the game, built once and shared (`GameConfig._space`)."""

    partition: BlockPartition
    norm: NormSpec
    box: BoxDomain
    start: np.ndarray  # the uniform profile's vector, read-only


def _profile_space(game: GameConfig) -> _ProfileSpace:
    N, K = game.num_antennas, game.num_links
    intervals = []
    for b in game.budgets:
        intervals.extend([(0.0, float(b))] * N)
        intervals.extend([(-float(b), float(b))] * (N * N - N))
    start = profile_to_vec(uniform_profile(game))
    start.flags.writeable = False
    return _ProfileSpace(
        partition=BlockPartition([N * N] * K),
        norm=NormSpec(block_weights=[1.0] * K, per_block=[Lp(2.0) for _ in range(K)]),
        box=BoxDomain(intervals),
        start=start,
    )


def game_partition(game: GameConfig) -> BlockPartition:
    """One N^2-coordinate block per link (the game's shared partition)."""
    return game._space.partition


def game_norm_spec(game: GameConfig) -> NormSpec:
    """Unit-weight L2 block norms: block distance = Frobenius distance (the game's shared spec)."""
    return game._space.norm


def game_box(game: GameConfig) -> BoxDomain:
    """Coordinate bounds: diagonals in [0, P_k], off-diagonal coords in [-P_k, P_k] (shared)."""
    return game._space.box


def profile_to_vec(profile) -> np.ndarray:
    """The block vector of a StrategyProfile, or (..., K N^2) for a (..., K, N, N) stack."""
    v = mat_to_vec(_as_stack(profile))
    return v.reshape(v.shape[:-2] + (-1,))


def _vec_to_stack(x: np.ndarray, game: GameConfig) -> np.ndarray:
    """(..., K, N, N) covariances of profile vectors x (..., K N^2), block by block as vec_to_mat."""
    x, N = np.asarray(x, dtype=float), game.num_antennas
    return _unpack(x.reshape(x.shape[:-1] + (game.num_links, N * N)), N)


def vec_to_profile(x: np.ndarray, game: GameConfig) -> StrategyProfile:
    return StrategyProfile(_vec_to_stack(x, game))


def project_feasible(P: np.ndarray, budget) -> np.ndarray:
    """Frobenius projection of P (or each of a stack) onto {PSD, trace = budget}."""
    lam, U = herm_eig(0.5 * (P + conj_t(P)))
    Q = (U * project_simplex(lam, budget)[..., None, :]) @ conj_t(U)
    return 0.5 * (Q + conj_t(Q))


class ProjectedBlockQuantizer:
    """Quantize a vectorized N x N covariance through `inner`, then project it onto `budget`.

    Decoded points are generally slightly infeasible; projecting them back
    onto the strategy set is nonexpansive, so the end-to-end error of
    quantize-then-project never exceeds the inner quantizer's worst case
    (the map input is itself feasible and hence a projection fixed point).
    """

    def __init__(self, inner, budget):
        self.inner = inner
        self.budget = float(budget)
        self.size = inner.size

    def quantize(self, v: np.ndarray) -> np.ndarray:
        q = self.inner.quantize(np.asarray(v, dtype=float))
        return mat_to_vec(project_feasible(vec_to_mat(q), self.budget))

    @staticmethod
    def fuse(quantizers) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        """v -> the blocks' quantized values, or None unless every block is N x N for one N.

        The inners' group quantizes v, and one `project_feasible` call projects
        the (m, N, N) stack, each matrix onto its budget as when projected alone.
        """
        if len({q.size for q in quantizers}) != 1:
            return None
        inner = group_quantizer([q.inner for q in quantizers])
        budgets = np.array([q.budget for q in quantizers])

        def quantize(v: np.ndarray) -> np.ndarray:
            q = inner(np.asarray(v, dtype=float)).reshape(budgets.size, -1)
            return mat_to_vec(project_feasible(vec_to_mat(q), budgets)).ravel()

        return quantize

    def worst_case_block_error(self, norm) -> float:
        """The inner quantizer's Frobenius (L2) bound, valid for L_p with p >= 2.

        The projection is nonexpansive only in the Frobenius norm, and
        ||.||_p <= ||.||_2 when p >= 2; no other block norm is bounded.
        """
        if not (isinstance(norm, Lp) and norm.p >= 2.0):
            raise ValueError(
                "the feasibility projection bounds the error only in L_p block norms with p >= 2"
            )
        return self.inner.worst_case_block_error(Lp(2.0))


def feasible_bank(bank: QuantizerBank, game: GameConfig) -> QuantizerBank:
    """Wrap each block quantizer with the feasibility projection.

    Quantizers that already project are kept as they are.
    """
    return QuantizerBank(
        q if isinstance(q, ProjectedBlockQuantizer) else ProjectedBlockQuantizer(q, budget)
        for q, budget in zip(bank.blocks, game.budgets)
    )


def _best_responses(channels: ChannelSet, x: np.ndarray) -> np.ndarray:
    """Every link's waterfill against the profile x (..., K N^2), as vectors."""
    return profile_to_vec(_waterfill(channels, _vec_to_stack(x, channels.game), slice(None)))


def game_mapping(channels: ChannelSet, modulus: float) -> BlockMapping:
    """The simultaneous best-response map as an engine BlockMapping.

    Block k is link k's waterfill alone, so a sequential tick computes one
    best response, not K.
    """
    game = channels.game
    return BlockMapping(
        fn=lambda x: _best_responses(channels, x),
        partition=game_partition(game),
        domain=game_box(game),
        norm=game_norm_spec(game),
        modulus=modulus,
        group_fn=lambda k: lambda x: mat_to_vec(waterfill(channels, _vec_to_stack(x, game), k)),
    )


# ---------------------------------------------------------------------------
# Contraction modulus estimate
# ---------------------------------------------------------------------------

class ModulusEstimate(_Frozen):
    """alpha_hat, the sampled ratio max `max_ratio` inflated by the `safety` factor, over
    `samples` pairs; `certified` when alpha_hat < 1, so bounds and designs may use it."""

    _fields = ("alpha_hat", "certified", "max_ratio", "samples", "safety")

    def __init__(self, alpha_hat: float, certified: bool, max_ratio: float, samples: int, safety: float):
        self._set(
            alpha_hat=alpha_hat, certified=certified, max_ratio=max_ratio, samples=samples, safety=safety
        )


def estimate_modulus(channels: ChannelSet, samples: int = 50, rng=0) -> ModulusEstimate:
    """Sampled lower bound on the best-response Lipschitz modulus.

    Draws feasible profile pairs, measures the block-norm ratio
    ||WF(x) - WF(y)|| / ||x - y||, and inflates the maximum by the 1.05
    safety factor.  A value >= 1 means the game is not certifiably contractive
    (designs still run, but bounds should be treated as uncertified).
    """
    samples = _count(samples, "samples", 2)
    part, spec = game_partition(channels.game), game_norm_spec(channels.game)
    # Pair s is (x, y) = profiles (2s, 2s + 1), drawn in that order.
    X = profile_to_vec(_random_covariances(channels.game, np.random.default_rng(rng), 2 * samples))
    dist = block_norms(X[0::2] - X[1::2], part, spec)
    F = _best_responses(channels, X)
    kept = dist >= 1e-12
    ratios = block_norms(F[0::2] - F[1::2], part, spec)[kept] / dist[kept]
    worst = float(ratios.max(initial=0.0))
    alpha_hat = _MODULUS_SAFETY * worst
    return ModulusEstimate(
        alpha_hat=alpha_hat,
        certified=bool(alpha_hat < 1.0),
        max_ratio=worst,
        samples=samples,
        safety=_MODULUS_SAFETY,
    )


# ---------------------------------------------------------------------------
# Iterative waterfilling runs
# ---------------------------------------------------------------------------

class IwfaResult:
    def __init__(self, trajectory: Trajectory, mapping: BlockMapping, channels: ChannelSet):
        self.trajectory, self.mapping, self.channels = trajectory, mapping, channels

    @cached_property
    def throughputs(self) -> np.ndarray:
        """(steps+1,) sum throughput per iterate, computed when first read in stacked chunks."""
        ch, chunks = self.channels, _row_chunks(self.trajectory.iterates)
        return np.concatenate([sum_throughput(ch, _vec_to_stack(X, ch.game)) for X in chunks])


_MODE_SCHEMES = {"simultaneous": Scheme.JACOBI, "sequential": Scheme.SEQUENTIAL}


def iwfa_run(
    channels: ChannelSet,
    quantizers: BankOrSchedule = None,
    mode: str = "simultaneous",
    steps: int = 50,
    *,
    modulus: float,
    reference: Optional[np.ndarray] = None,
) -> IwfaResult:
    """Run (quantized) iterative waterfilling from the uniform profile (the game's shared vector).

    Simultaneous mode updates every link per step (`Scheme.JACOBI`);
    sequential mode is `Scheme.SEQUENTIAL`: link t mod K best-responds per
    tick, all others copying their covariance unchanged.  Quantizer banks
    are wrapped with the feasibility projection automatically, each
    distinct bank of a schedule once.  `BlockMapping` refuses a modulus outside [0, 1).
    """
    if mode not in _MODE_SCHEMES:
        raise ValueError(f"unknown mode {mode!r}")
    game = channels.game
    mapping = game_mapping(channels, modulus)
    if isinstance(quantizers, QuantizerBank):
        quantizers = feasible_bank(quantizers, game)
    elif quantizers is not None:
        if mode != "simultaneous":
            raise ValueError("per-step quantizer schedules require simultaneous mode")
        schedule = list(quantizers)  # keeps every bank alive, so no id is reused
        distinct = {id(bank): bank for bank in schedule}.values()
        wrapped = {id(bank): feasible_bank(bank, game) for bank in distinct}
        quantizers = [wrapped[id(bank)] for bank in schedule]

    start = game._space.start
    traj = run_iteration(mapping, quantizers, start, steps, _MODE_SCHEMES[mode], reference=reference)
    return IwfaResult(trajectory=traj, mapping=mapping, channels=channels)


def nash_reference(channels: ChannelSet, modulus: float) -> np.ndarray:
    """Unquantized fixed point of the simultaneous best-response map, to 1e-12, from the uniform
    profile (the game's shared vector)."""
    mapping = game_mapping(channels, modulus)
    return reference_fixed_point(mapping, x0=channels.game._space.start, tol=1e-12)
