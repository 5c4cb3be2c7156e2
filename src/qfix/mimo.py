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

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .engine import (
    BankOrSchedule,
    BlockMapping,
    QuantizerBank,
    Scheme,
    Trajectory,
    reference_fixed_point,
    run_iteration,
)
from .linalg import herm_eig, logdet_psd, psd_solve
from .norms import BlockPartition, BoxDomain, Lp, NormSpec, block_norm

THERMAL_NOISE_DBM_PER_HZ = -174.0
DEFAULT_BANDWIDTH_HZ = 10e6
_COND_GUARD = 1e12


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def default_noise_power(bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ) -> float:
    """Thermal noise floor k_B*T*B expressed through the -174 dBm/Hz constant."""
    return dbm_to_watts(THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz))


@dataclass(frozen=True)
class GameConfig:
    """Static parameters of one K-pair, N-antenna interference game.

    distances[j][k] is the transmitter-j to receiver-k distance in meters;
    channel gains scale as distance^(-gamma/2).  Budgets are given in dBm
    and used in linear watts; the noise covariance is noise_power * I.
    """

    num_links: int
    num_antennas: int
    distances: tuple
    gamma: float
    power_dbm: tuple
    noise_power: float
    seed: int = 0

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
        if num_links < 1 or num_antennas < 1:
            raise ValueError("need at least one link and one antenna")
        if gamma <= 0:
            raise ValueError(f"pathloss exponent must be positive, got {gamma}")
        d = np.asarray(distances, dtype=float)
        if d.shape != (num_links, num_links) or np.any(d <= 0):
            raise ValueError("distances must be a positive KxK matrix")
        if np.isscalar(power_dbm):
            power_dbm = (float(power_dbm),) * num_links
        else:
            power_dbm = tuple(float(v) for v in power_dbm)
            if len(power_dbm) != num_links:
                raise ValueError(f"{len(power_dbm)} budgets for {num_links} links")
        if noise_power is None:
            noise_power = default_noise_power()
        if noise_power <= 0:
            raise ValueError(f"noise power must be positive, got {noise_power}")
        object.__setattr__(self, "num_links", int(num_links))
        object.__setattr__(self, "num_antennas", int(num_antennas))
        object.__setattr__(self, "distances", tuple(tuple(row) for row in d))
        object.__setattr__(self, "gamma", float(gamma))
        object.__setattr__(self, "power_dbm", power_dbm)
        object.__setattr__(self, "noise_power", float(noise_power))
        object.__setattr__(self, "seed", int(seed))

    @property
    def budgets(self) -> np.ndarray:
        """Per-link transmit power budgets in watts."""
        return np.array([dbm_to_watts(v) for v in self.power_dbm])

    def to_json(self) -> str:
        return json.dumps(
            {
                "K": self.num_links,
                "N": self.num_antennas,
                "distances": [list(r) for r in self.distances],
                "gamma": self.gamma,
                "power_dbm": list(self.power_dbm),
                "noise": self.noise_power,
                "seed": self.seed,
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "GameConfig":
        obj = json.loads(text)
        return GameConfig(
            num_links=obj["K"],
            num_antennas=obj["N"],
            distances=obj["distances"],
            gamma=obj["gamma"],
            power_dbm=obj["power_dbm"],
            noise_power=obj.get("noise"),
            seed=obj.get("seed", 0),
        )


def paper_style_game(seed: int = 0, power_dbm: float = 10.0) -> GameConfig:
    """Two-pair, two-antenna geometry with weak cross links."""
    return GameConfig(
        num_links=2,
        num_antennas=2,
        distances=[[100.0, 200.0], [500.0, 100.0]],
        gamma=3.5,
        power_dbm=power_dbm,
        seed=seed,
    )


@dataclass(frozen=True)
class ChannelSet:
    """All cross/direct channel matrices H_jk for one fading draw."""

    game: GameConfig
    h: np.ndarray  # (K, K, N, N) complex; h[j, k] maps tx j to rx k

    @staticmethod
    def generate(game: GameConfig, seed: Optional[int] = None) -> "ChannelSet":
        """Pathloss-scaled i.i.d. standard complex Gaussian entries.

        The draw order is fixed (j outer, k inner, real before imaginary)
        so regeneration from the same seed is bit-identical.
        """
        rng = np.random.default_rng(game.seed if seed is None else seed)
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


@dataclass(frozen=True)
class StrategyProfile:
    """One transmit covariance per link."""

    covariances: tuple  # K complex (N, N) arrays

    def __init__(self, covariances: Sequence[np.ndarray]):
        object.__setattr__(
            self, "covariances", tuple(np.asarray(P, dtype=complex) for P in covariances)
        )

    def validate(self, game: GameConfig, eig_tol: float = 1e-10, trace_rtol: float = 1e-9) -> None:
        budgets = game.budgets
        for k, P in enumerate(self.covariances):
            lam, _ = herm_eig(P)
            if lam[0] < -eig_tol * max(1.0, float(lam[-1])):
                raise ValueError(f"link {k} covariance has eigenvalue {lam[0]:.3e} < 0")
            tr = float(np.trace(P).real)
            if abs(tr - budgets[k]) > trace_rtol * budgets[k]:
                raise ValueError(f"link {k} trace {tr} != budget {budgets[k]}")


def uniform_profile(game: GameConfig) -> StrategyProfile:
    """Equal power on every antenna: P_k = (budget/N) I."""
    N = game.num_antennas
    return StrategyProfile([b / N * np.eye(N, dtype=complex) for b in game.budgets])


def random_feasible_profile(game: GameConfig, rng) -> StrategyProfile:
    """Random PSD covariances scaled to the trace budget (full or low rank)."""
    rng = np.random.default_rng(rng)
    N = game.num_antennas
    mats = []
    for b in game.budgets:
        rank = int(rng.integers(1, N + 1))
        G = (rng.standard_normal((N, rank)) + 1j * rng.standard_normal((N, rank))) / math.sqrt(2)
        W = G @ G.conj().T
        mats.append(W * (b / float(np.trace(W).real)))
    return StrategyProfile(mats)


# ---------------------------------------------------------------------------
# Best response
# ---------------------------------------------------------------------------

def interference_covariance(channels: ChannelSet, profile: StrategyProfile, k: int) -> np.ndarray:
    """Noise plus received multi-user interference at receiver k."""
    game = channels.game
    N = game.num_antennas
    R = game.noise_power * np.eye(N, dtype=complex)
    for j in range(game.num_links):
        if j == k:
            continue
        Hjk = channels.h[j, k]
        R = R + Hjk @ profile.covariances[j] @ Hjk.conj().T
    return 0.5 * (R + R.conj().T)


def project_simplex(v: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection of v onto {x >= 0, sum x = budget}, exactly.

    Sorted cumulative sums give the water level in closed form, so the
    result satisfies the KKT conditions x_i = max(v_i - theta, 0) with
    sum x = budget to floating-point accuracy.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    v = np.asarray(v, dtype=float)
    if budget == 0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    cum = np.cumsum(u)
    rho_idx = np.nonzero(u * np.arange(1, v.size + 1) > (cum - budget))[0]
    rho = int(rho_idx[-1]) + 1
    theta = (cum[rho - 1] - budget) / rho
    return np.maximum(v - theta, 0.0)


def waterfill(channels: ChannelSet, profile: StrategyProfile, k: int) -> np.ndarray:
    """Rate-optimal covariance for link k against the rest of the profile.

    Diagonalizes M = H_kk^H R_{-k}^{-1} H_kk and projects the eigenvalues
    of -M^{-1} onto the trace simplex; the projection shares M's
    eigenbasis, which turns the matrix projection into a vector one.
    """
    game = channels.game
    Hkk = channels.h[k, k]
    if channels.direct_cond[k] > _COND_GUARD:
        raise ValueError(f"direct channel of link {k} is ill-conditioned")
    R = interference_covariance(channels, profile, k)
    M = Hkk.conj().T @ psd_solve(R, Hkk)
    M = 0.5 * (M + M.conj().T)
    lam, U = herm_eig(M)
    if np.any(lam <= 0):
        raise ValueError(f"link {k} effective channel is singular")
    sigma = -1.0 / lam
    powers = project_simplex(sigma, float(game.budgets[k]))
    P = (U * powers) @ U.conj().T
    return 0.5 * (P + P.conj().T)


def throughput(channels: ChannelSet, profile: StrategyProfile, k: int) -> float:
    """Link-k rate log2 det(I + H^H R^{-1} H P_k) in bits per channel use."""
    game = channels.game
    N = game.num_antennas
    Hkk = channels.h[k, k]
    R = interference_covariance(channels, profile, k)
    M = Hkk.conj().T @ psd_solve(R, Hkk)
    M = 0.5 * (M + M.conj().T)
    lam, U = herm_eig(profile.covariances[k])
    S = (U * np.sqrt(np.maximum(lam, 0.0))) @ U.conj().T
    A = np.eye(N, dtype=complex) + S @ M @ S
    return logdet_psd(0.5 * (A + A.conj().T)) / math.log(2.0)


def sum_throughput(channels: ChannelSet, profile: StrategyProfile) -> float:
    return sum(throughput(channels, profile, k) for k in range(channels.game.num_links))


# ---------------------------------------------------------------------------
# Vectorization: covariance matrices <-> real block vectors
# ---------------------------------------------------------------------------

def mat_to_vec(P: np.ndarray) -> np.ndarray:
    """Real vector [diag; sqrt(2) Re upper; sqrt(2) Im upper] of a Hermitian P.

    The sqrt(2) on off-diagonal pairs makes the L2 norm of the vector equal
    the Frobenius norm of the matrix exactly.
    """
    P = np.asarray(P)
    N = P.shape[0]
    parts = [P.diagonal().real.astype(float)]
    for i in range(N):
        for j in range(i + 1, N):
            parts.append([math.sqrt(2.0) * P[i, j].real, math.sqrt(2.0) * P[i, j].imag])
    return np.concatenate(parts)


def vec_to_mat(v: np.ndarray) -> np.ndarray:
    """Inverse of mat_to_vec."""
    v = np.asarray(v, dtype=float)
    N = int(round(math.sqrt(v.size)))
    if N * N != v.size:
        raise ValueError(f"vector of length {v.size} is not an N^2 parameterization")
    P = np.zeros((N, N), dtype=complex)
    P[np.diag_indices(N)] = v[:N]
    pos = N
    for i in range(N):
        for j in range(i + 1, N):
            re = v[pos] / math.sqrt(2.0)
            im = v[pos + 1] / math.sqrt(2.0)
            P[i, j] = re + 1j * im
            P[j, i] = re - 1j * im
            pos += 2
    return P


def game_partition(game: GameConfig) -> BlockPartition:
    return BlockPartition([game.num_antennas**2] * game.num_links)


def game_norm_spec(game: GameConfig) -> NormSpec:
    """Unit-weight L2 block norms: block distance = Frobenius distance."""
    return NormSpec(
        block_weights=[1.0] * game.num_links,
        per_block=[Lp(2.0) for _ in range(game.num_links)],
    )


def game_box(game: GameConfig) -> BoxDomain:
    """Coordinate bounds: diagonals in [0, P_k], off-diagonal coords in [-P_k, P_k]."""
    N = game.num_antennas
    intervals = []
    for b in game.budgets:
        intervals.extend([(0.0, float(b))] * N)
        intervals.extend([(-float(b), float(b))] * (N * N - N))
    return BoxDomain(intervals)


def profile_to_vec(profile: StrategyProfile) -> np.ndarray:
    return np.concatenate([mat_to_vec(P) for P in profile.covariances])


def vec_to_profile(x: np.ndarray, game: GameConfig) -> StrategyProfile:
    part = game_partition(game)
    return StrategyProfile(
        [vec_to_mat(x[part.block_slice(k)]) for k in range(game.num_links)]
    )


def project_feasible(P: np.ndarray, budget: float) -> np.ndarray:
    """Frobenius projection onto {PSD, trace = budget} via eigenvalue projection."""
    lam, U = herm_eig(0.5 * (P + np.asarray(P).conj().T))
    powers = project_simplex(lam, budget)
    Q = (U * powers) @ U.conj().T
    return 0.5 * (Q + Q.conj().T)


class ProjectedBlockQuantizer:
    """Quantize a vectorized covariance, then restore PSD/trace feasibility.

    Decoded points are generally slightly infeasible; projecting them back
    onto the strategy set is nonexpansive, so the end-to-end error of
    quantize-then-project never exceeds the inner quantizer's worst case
    (the map input is itself feasible and hence a projection fixed point).
    """

    def __init__(self, inner, budget: float):
        self.inner = inner
        self.budget = float(budget)

    def quantize(self, v: np.ndarray) -> np.ndarray:
        q = self.inner.quantize(np.asarray(v, dtype=float))
        return mat_to_vec(project_feasible(vec_to_mat(q), self.budget))

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
    budgets = game.budgets
    return QuantizerBank(
        [
            q if isinstance(q, ProjectedBlockQuantizer) else ProjectedBlockQuantizer(q, budgets[k])
            for k, q in enumerate(bank.blocks)
        ]
    )


def _best_responses(channels: ChannelSet, x: np.ndarray) -> np.ndarray:
    """Every link's waterfill against the profile x, as one vector."""
    profile = vec_to_profile(x, channels.game)
    return np.concatenate(
        [mat_to_vec(waterfill(channels, profile, k)) for k in range(channels.game.num_links)]
    )


def game_mapping(channels: ChannelSet, modulus: float) -> BlockMapping:
    """The simultaneous best-response map as an engine BlockMapping.

    Block k is link k's waterfill alone, so a sequential tick computes one
    best response, not K.
    """
    game = channels.game

    def fn_block(k: int, x: np.ndarray) -> np.ndarray:
        return mat_to_vec(waterfill(channels, vec_to_profile(x, game), k))

    return BlockMapping(
        fn=lambda x: _best_responses(channels, x),
        partition=game_partition(game),
        domain=game_box(game),
        norm=game_norm_spec(game),
        modulus=modulus,
        fn_block=fn_block,
    )


# ---------------------------------------------------------------------------
# Contraction modulus estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModulusEstimate:
    alpha_hat: float  # sampled ratio max, inflated by the safety factor
    certified: bool  # alpha_hat < 1: bounds/designs may use it
    max_ratio: float  # raw sampled maximum
    samples: int


def estimate_modulus(
    channels: ChannelSet, samples: int = 100, rng=0, safety: float = 1.05
) -> ModulusEstimate:
    """Sampled lower bound on the best-response Lipschitz modulus.

    Draws feasible profile pairs, measures the block-norm ratio
    ||WF(x) - WF(y)|| / ||x - y||, and inflates the maximum by a safety
    factor.  A value >= 1 means the game is not certifiably contractive
    (designs still run, but bounds should be treated as uncertified).
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    game = channels.game
    part = game_partition(game)
    spec = game_norm_spec(game)
    rng = np.random.default_rng(rng)
    worst = 0.0
    for _ in range(samples):
        x = profile_to_vec(random_feasible_profile(game, rng))
        y = profile_to_vec(random_feasible_profile(game, rng))
        dist = block_norm(x - y, part, spec)
        if dist < 1e-12:
            continue
        diff = _best_responses(channels, x) - _best_responses(channels, y)
        worst = max(worst, block_norm(diff, part, spec) / dist)
    alpha_hat = safety * worst
    return ModulusEstimate(
        alpha_hat=alpha_hat,
        certified=bool(alpha_hat < 1.0),
        max_ratio=worst,
        samples=samples,
    )


# ---------------------------------------------------------------------------
# Iterative waterfilling runs
# ---------------------------------------------------------------------------

@dataclass
class IwfaResult:
    trajectory: Trajectory
    throughputs: np.ndarray  # (steps+1,) sum throughput per iterate
    mapping: BlockMapping
    modulus: float
    mode: str
    reference: Optional[np.ndarray] = None


_MODE_SCHEMES = {"simultaneous": Scheme.JACOBI, "sequential": Scheme.SEQUENTIAL}


def iwfa_run(
    channels: ChannelSet,
    quantizers: BankOrSchedule = None,
    mode: str = "simultaneous",
    steps: int = 50,
    modulus: Optional[float] = None,
    x0: Optional[np.ndarray] = None,
    reference: Optional[np.ndarray] = None,
) -> IwfaResult:
    """Run (quantized) iterative waterfilling and record rates.

    Simultaneous mode updates every link per step (`Scheme.JACOBI`);
    sequential mode is `Scheme.SEQUENTIAL`: link t mod K best-responds per
    tick, all others copying their covariance unchanged.  Quantizer banks
    are wrapped with the feasibility projection automatically.
    """
    game = channels.game
    if modulus is None:
        modulus = estimate_modulus(channels, samples=50, rng=game.seed).alpha_hat
    if not (0.0 <= modulus < 1.0):
        raise ValueError(
            f"modulus {modulus:.4f} is not in [0, 1): the game is not certified "
            "contractive; pass an explicit modulus to proceed"
        )
    mapping = game_mapping(channels, modulus)
    if isinstance(quantizers, QuantizerBank):
        quantizers = feasible_bank(quantizers, game)
    elif quantizers is not None:
        if mode != "simultaneous":
            raise ValueError("per-step quantizer schedules require simultaneous mode")
        quantizers = [feasible_bank(bank, game) for bank in quantizers]
    if x0 is None:
        x0 = profile_to_vec(uniform_profile(game))
    if mode not in _MODE_SCHEMES:
        raise ValueError(f"unknown mode {mode!r}")

    traj = run_iteration(mapping, quantizers, x0, steps, _MODE_SCHEMES[mode], reference=reference)
    rates = np.array(
        [
            sum_throughput(channels, vec_to_profile(traj.iterates[t], game))
            for t in range(steps + 1)
        ]
    )
    return IwfaResult(
        trajectory=traj,
        throughputs=rates,
        mapping=mapping,
        modulus=modulus,
        mode=mode,
        reference=traj.reference,
    )


def nash_reference(channels: ChannelSet, modulus: float, tol: float = 1e-12) -> np.ndarray:
    """Unquantized fixed point of the simultaneous best-response map."""
    mapping = game_mapping(channels, modulus)
    x0 = profile_to_vec(uniform_profile(channels.game))
    return reference_fixed_point(mapping, x0=x0, tol=tol)
