"""System-level acceptance gate.

Eleven end-to-end checks: exact oracle equality for the closed-form rate
designs, KKT residuals for the relaxed L_p design, certified error bounds
for quantized runs under both update schemes, the high-rate scaling law,
vanishing error under time-varying rate schedules, lattice covering
geometry, and equilibrium behaviour of (quantized) iterative waterfilling.

Every test prints one summary line with its measured quantities and
asserts the stated wall-clock ceiling; run with

    pytest tests/test_acceptance.py -v -s

to see the lines on passing runs too.  All randomness is seeded, so a
green run stays green.
"""

import math
import time

import numpy as np
import pytest

from _lattice_oracle import brute_nearest_distance
from qfix.engine import (
    Scheme,
    bound_certificate,
    random_affine_contraction,
    run_iteration,
)
from qfix.mimo import (
    ChannelSet,
    GameConfig,
    estimate_modulus,
    game_box,
    game_mapping,
    game_norm_spec,
    game_partition,
    iwfa_run,
    nash_reference,
    paper_style_game,
    random_feasible_profile,
    throughput,
    vec_to_profile,
    waterfill,
)
from qfix.norms import BlockPartition, BoxDomain, Lp, NormSpec, WeightedMax
from qfix.ticoq import (
    DesignConstants,
    allocation_oracle,
    bank_for_allocation,
    make_sq_bank,
    objective_for,
    relaxed_eta,
    ticoq_sq_lp,
    ticoq_sq_wmax,
    ticoq_vq_lattice,
    uniform_sq_allocation,
)
from qfix.tvcoq import master_objective, tvcoq_design, tvcoq_master
from qfix.vquant import covering_radius, nearest_point_a_star


def _finish(label: str, t0: float, limit: float, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    print(f"\n{label} PASS — {detail} [{elapsed:.1f}s / limit {limit:.0f}s]")
    assert elapsed <= limit, f"{label} exceeded its {limit:.0f}s ceiling: {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Random problem instances
# ---------------------------------------------------------------------------

def _random_partition(rng, max_n: int, max_blocks: int) -> BlockPartition:
    n = int(rng.integers(1, max_n + 1))
    K = int(rng.integers(1, min(max_blocks, n) + 1))
    if K == 1:
        return BlockPartition([n])
    cuts = np.sort(rng.choice(np.arange(1, n), size=K - 1, replace=False))
    sizes = np.diff(np.concatenate([[0], cuts, [n]])).astype(int)
    return BlockPartition(sizes.tolist())


def _random_box(rng, n: int) -> BoxDomain:
    lo = rng.uniform(-2.0, 2.0, size=n)
    hi = lo + rng.uniform(0.2, 5.0, size=n)
    return BoxDomain(np.stack([lo, hi], axis=1))


def _random_wmax_spec(rng, part: BlockPartition) -> NormSpec:
    weights = rng.uniform(0.5, 2.0, size=part.num_blocks)
    per_block = [WeightedMax(rng.uniform(0.5, 2.0, size=sz)) for sz in part.block_sizes]
    return NormSpec(weights, per_block)


def _random_lp_spec(rng, part: BlockPartition) -> NormSpec:
    weights = rng.uniform(0.5, 2.0, size=part.num_blocks)
    p = float(rng.choice([2.0, 3.0, 4.0]))
    return NormSpec(weights, [Lp(p) for _ in part.block_sizes])


def _unit_wmax_pair():
    """Two scalar blocks on [-1, 1]^2: per-coordinate constants exactly 1."""
    part = BlockPartition([1, 1])
    spec = NormSpec((1.0, 1.0), (WeightedMax((1.0,)), WeightedMax((1.0,))))
    box = BoxDomain([(-1.0, 1.0), (-1.0, 1.0)])
    return part, spec, box


# ---------------------------------------------------------------------------
# 1-3: exact oracle equality for the closed-form designs
# ---------------------------------------------------------------------------

def test_c01_wmax_rate_design_matches_exhaustive_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    for i in range(200):
        part = _random_partition(rng, max_n=6, max_blocks=3)
        spec = _random_wmax_spec(rng, part)
        box = _random_box(rng, part.n)
        L = int(rng.integers(0, 13))
        alloc = ticoq_sq_wmax(part, spec, box, L)
        oracle = allocation_oracle(
            objective_for(DesignConstants("sq-wmax", alloc.family.const, (1,) * part.n)), part.n, L
        )
        # Bit-level equality of the optimal max-error value.
        assert alloc.integer_value == oracle.value, (
            f"instance {i} (n={part.n}, L={L}): "
            f"{alloc.integer_value!r} != oracle {oracle.value!r}"
        )
        assert sum(alloc.bits) == L and min(alloc.bits) >= 0
    _finish("C1", t0, 60.0, "200/200 weighted-max designs bit-identical to the oracle")


def test_c02_lattice_rate_design_matches_exhaustive_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260818)
    for i in range(100):
        K = int(rng.integers(1, 4))
        size = int(rng.integers(1, 4))
        part = BlockPartition([size] * K)
        w = rng.uniform(0.5, 2.0, size=K)
        box = _random_box(rng, part.n)
        L = int(rng.integers(0, 10))
        alloc = ticoq_vq_lattice(part, w, box, L)
        oracle = allocation_oracle(
            objective_for(DesignConstants("vq", alloc.family.const, part.block_sizes)),
            part.num_blocks,
            L,
        )
        assert alloc.integer_value == oracle.value, (
            f"instance {i} (K={K}, n_k={size}, L={L}): "
            f"{alloc.integer_value!r} != oracle {oracle.value!r}"
        )
        assert sum(alloc.bits) == L
    _finish("C2", t0, 60.0, "100/100 equal-size lattice designs bit-identical to the oracle")


def test_c03_stage_split_matches_exhaustive_oracle():
    t0 = time.perf_counter()
    # Worked instance: 2 stages x 3 bits at alpha=1/2 splits as (2, 4),
    # tied with (3, 3), at objective value 3/8 exactly.
    worked = tvcoq_master(0.5, 1, 3, 2)
    assert worked.rates == (2, 4)
    assert worked.objective_value == 0.375
    assert (3, 3) in worked.tied_alternates

    rng = np.random.default_rng(20260819)
    for i in range(100):
        horizon = int(rng.integers(1, 6))
        L = int(rng.integers(0, 9))
        n = int(rng.integers(1, 3))
        alpha = float(rng.uniform(0.3, 0.9))
        sched = tvcoq_master(alpha, n, L, horizon)
        oracle = allocation_oracle(master_objective(alpha, n), horizon, horizon * L)
        assert sched.objective_value == oracle.value, (
            f"instance {i} (T={horizon}, L={L}, n={n}, alpha={alpha:.3f}): "
            f"{sched.objective_value!r} != oracle {oracle.value!r}"
        )
    _finish("C3", t0, 30.0, "100/100 stage splits bit-identical to the oracle; "
            "worked tie (2,4)/(3,3) at 0.375 confirmed")


# ---------------------------------------------------------------------------
# 4: L_p relaxation optimality conditions and integer rounding quality
# ---------------------------------------------------------------------------

def test_c04_lp_relaxation_kkt_and_integer_optimum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260820)
    worst_resid = 0.0
    off_oracle = []
    for _ in range(100):
        part = _random_partition(rng, max_n=4, max_blocks=3)
        spec = _random_lp_spec(rng, part)
        box = _random_box(rng, part.n)
        L = int(rng.integers(0, 9))
        alloc = ticoq_sq_lp(part, spec, box, L)
        c = np.asarray(alloc.family.const)
        p = alloc.family.p
        relaxed = np.asarray(alloc.relaxed)
        tau = alloc.tau

        # Primal feasibility: rates sum to the budget.
        resid = abs(relaxed.sum() - L) / max(1.0, L)
        worst_resid = max(worst_resid, resid)
        for k in range(part.num_blocks):
            sl = part.block_slice(k)
            tau_k = alloc.tau_blocks[k]
            if math.isnan(tau_k):
                # Inactive block: already below the water level with no bits.
                assert np.all(relaxed[sl] == 0.0)
                assert np.sum(c[sl]) <= tau * (1.0 + 1e-10)
            else:
                # Active block balances exactly to the global level ...
                resid = abs(np.sum(np.minimum(c[sl], tau_k)) - tau) / max(tau, 1e-300)
                worst_resid = max(worst_resid, resid)
                # ... and every funded coordinate sits at the block level.
                funded = relaxed[sl] > 1e-9
                if np.any(funded):
                    lv = c[sl][funded] * 2.0 ** (-p * relaxed[sl][funded])
                    resid = float(np.max(np.abs(lv - tau_k))) / tau_k
                    worst_resid = max(worst_resid, resid)

        family = DesignConstants("sq-lp", tuple(c), (1,) * part.n, p, part.block_sizes)
        oracle = allocation_oracle(objective_for(family), part.n, L)
        if alloc.integer_value != oracle.value:
            off_oracle.append((alloc.integer_value, oracle.value))

    assert worst_resid <= 1e-10, f"KKT residual {worst_resid:.3e} exceeds 1e-10"
    # Block sums are taken in ascending order, so ties in exact arithmetic tie in floats too.
    assert off_oracle == [], f"integer values off the oracle's bit for bit: {off_oracle}"
    _finish("C4", t0, 60.0,
            f"100 instances: max KKT residual {worst_resid:.2e}, every integer value "
            "equal to the oracle's bit for bit")


# ---------------------------------------------------------------------------
# 5: certified error bounds on quantized runs, both schemes
# ---------------------------------------------------------------------------

def test_c05_certified_bounds_hold_for_quantized_schemes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260821)
    certified = 0
    for i in range(100):
        part = _random_partition(rng, max_n=6, max_blocks=3)
        use_wmax = bool(rng.integers(0, 2))
        spec = _random_wmax_spec(rng, part) if use_wmax else _random_lp_spec(rng, part)
        box = _random_box(rng, part.n)
        alpha = float(rng.uniform(0.15, 0.9))
        L = int(rng.integers(0, 13))
        design = ticoq_sq_wmax if use_wmax else ticoq_sq_lp
        bank = make_sq_bank(part, box, design(part, spec, box, L).bits)
        mapping, x_star = random_affine_contraction(part, spec, box, alpha, rng=rng)
        x0 = rng.uniform(np.asarray(box.lo), np.asarray(box.hi))
        for scheme in (Scheme.JACOBI, Scheme.GAUSS_SEIDEL):
            traj = run_iteration(mapping, bank, x0, 30, scheme, reference=x_star)
            cert = bound_certificate(traj, mapping, x_star)
            assert cert.all_ok(), (
                f"instance {i} ({scheme}): bound violated at "
                f"t={int(np.argmin(cert.ok))}"
            )
            certified += 1
    _finish("C5", t0, 60.0,
            f"{certified}/200 quantized runs certified at every step (tol 1e-9)")


# ---------------------------------------------------------------------------
# 6: steady error follows the high-rate law eta * 2^(-L/n)
# ---------------------------------------------------------------------------

def test_c06_steady_error_follows_high_rate_law():
    t0 = time.perf_counter()
    part, spec, box = _unit_wmax_pair()
    alpha, n = 0.3, part.n
    budgets = [8, 16, 24, 32]
    measured = []
    bounds = []
    for L in budgets:
        alloc = ticoq_sq_wmax(part, spec, box, L)
        eta = relaxed_eta(alloc.family)
        bank = make_sq_bank(part, box, alloc.bits)
        bound = (1.0 / (1.0 - alpha)) * eta * 2.0 ** (-L / n)
        vals = []
        for seed in range(20):
            mapping, x_star = random_affine_contraction(
                part, spec, box, alpha, rng=1000 * L + seed
            )
            # Start at the fixed point: the tail is pure quantization noise.
            traj = run_iteration(mapping, bank, x_star, 60, Scheme.JACOBI,
                                 reference=x_star)
            vals.append(float(np.mean(traj.dist_to_ref[30:])))
        m = float(np.mean(vals))
        measured.append(m)
        bounds.append(bound)
        assert bound / 3.0 <= m <= 3.0 * bound, (
            f"L={L}: steady error {m:.3e} not within 3x of bound {bound:.3e}"
        )
    slope = float(np.polyfit(budgets, np.log2(measured), 1)[0])
    assert -0.65 <= slope <= -0.35, f"fitted slope {slope:.3f} outside -1/n +/- 30%"
    ratios = ", ".join(f"{m / b:.2f}" for m, b in zip(measured, bounds))
    _finish("C6", t0, 120.0,
            f"slope {slope:.3f} (target -0.50), steady/bound ratios [{ratios}]")


# ---------------------------------------------------------------------------
# 7: time-varying schedules drive the error down; flat designs plateau
# ---------------------------------------------------------------------------

def test_c07_time_varying_error_vanishes_while_flat_plateaus():
    t0 = time.perf_counter()
    part, spec, box = _unit_wmax_pair()
    alpha, L = 0.5, 32
    horizons = [4, 8, 16, 32]
    seeds = range(200)

    flat_bank = make_sq_bank(part, box, ticoq_sq_wmax(part, spec, box, L).bits)
    schedules = {}
    for T in horizons:
        sched = tvcoq_design(part, spec, box, L, T, alpha, "sq-wmax")
        assert sched.in_regime, f"T={T} left the closed-form regime"
        schedules[T] = list(sched.banks)

    flat_sums = {T: 0.0 for T in horizons}
    tv_sums = {T: 0.0 for T in horizons}
    for seed in seeds:
        mapping, x_star = random_affine_contraction(part, spec, box, alpha, rng=seed)
        traj = run_iteration(mapping, flat_bank, x_star, max(horizons),
                             Scheme.JACOBI, reference=x_star)
        for T in horizons:
            # Short time-average to damp per-tick noise in the plateau read.
            flat_sums[T] += float(np.mean(traj.dist_to_ref[T - 2:T + 1]))
            tv = run_iteration(mapping, schedules[T], x_star, T,
                               Scheme.JACOBI, reference=x_star)
            tv_sums[T] += float(tv.dist_to_ref[-1])
    flat_means = [flat_sums[T] / len(seeds) for T in horizons]
    tv_means = [tv_sums[T] / len(seeds) for T in horizons]

    for a, b in zip(tv_means, tv_means[1:]):
        assert b < a, f"time-varying error failed to decrease: {tv_means}"
    floor = flat_means[-1]
    for T, m in zip(horizons, flat_means):
        assert abs(m - floor) <= 0.1 * floor, (
            f"flat design at T={T} strayed {abs(m - floor) / floor:.1%} from its floor"
        )
    drop = tv_means[0] / tv_means[-1]
    _finish("C7", t0, 120.0,
            f"time-varying error fell {drop:.0f}x over T=4..32 while the flat "
            f"design stayed within {max(abs(m / floor - 1) for m in flat_means):.1%} "
            "of its floor")


# ---------------------------------------------------------------------------
# 8: lattice covering radius and nearest-point correctness
# ---------------------------------------------------------------------------

def test_c08_lattice_covering_and_nearest_point():
    t0 = time.perf_counter()
    scale = 0.75
    rng = np.random.default_rng(20260822)
    details = []
    for n in (2, 3, 4):
        y = rng.uniform(-3.0, 3.0, size=(100_000, n))
        pts = nearest_point_a_star(y, scale)
        dist = np.linalg.norm(y - pts, axis=1)
        reach = scale * covering_radius(n) + 1e-12
        assert float(dist.max()) <= reach, (
            f"n={n}: decode distance {dist.max():.12f} exceeds s*R={reach:.12f}"
        )
        ref = brute_nearest_distance(y[:10_000], scale, n)
        gap = float(np.max(np.abs(dist[:10_000] - ref)))
        assert gap <= 1e-11, f"n={n}: decoder disagrees with brute force by {gap:.2e}"
        details.append(f"n={n} max {dist.max():.4f}<=R {scale * covering_radius(n):.4f}")
    _finish("C8", t0, 60.0, "covering and brute-force agreement hold: " + "; ".join(details))


# ---------------------------------------------------------------------------
# 9: both waterfilling schedules reach the same equilibrium
# ---------------------------------------------------------------------------

def test_c09_iwfa_reaches_equilibrium_both_modes():
    t0 = time.perf_counter()
    converged, excluded = 0, []
    for seed in range(20):
        game = paper_style_game(seed=seed)
        ch = ChannelSet.generate(game)
        est = estimate_modulus(ch, samples=50, rng=seed)
        if not est.certified:
            excluded.append((seed, est.alpha_hat))
            continue
        alpha = est.alpha_hat
        ref = nash_reference(ch, alpha)
        mapping = game_mapping(ch, alpha)
        d0 = max(mapping.distance(np.zeros(ref.size), ref), 1e-6)
        steps = int(np.clip(math.ceil(math.log(d0 / 1e-9) / -math.log(alpha)), 20, 4000))

        sim = iwfa_run(ch, mode="simultaneous", steps=steps, modulus=alpha,
                       reference=ref)
        seq = iwfa_run(ch, mode="sequential", steps=game.num_links * steps,
                       modulus=alpha, reference=ref)
        # Profile vectors are Frobenius-isometric to the covariance stacks.
        frob_gap = float(np.linalg.norm(sim.trajectory.final() - seq.trajectory.final()))
        prof = vec_to_profile(sim.trajectory.final(), game)
        residual = max(
            float(np.linalg.norm(waterfill(ch, prof, k) - prof.covariances[k]))
            for k in range(game.num_links)
        )
        if frob_gap <= 1e-6 and residual < 1e-8:
            converged += 1
    assert converged >= 18, (
        f"only {converged} of 20 seeds converged (excluded: {excluded})"
    )
    _finish("C9", t0, 120.0,
            f"{converged}/20 seeds reached one equilibrium in both modes "
            f"(gap<=1e-6, residual<1e-8); excluded {excluded or 'none'}")


# ---------------------------------------------------------------------------
# 10: quantizer families order as designed at the equilibrium
# ---------------------------------------------------------------------------

def test_c10_quantizer_family_ordering_at_equilibrium():
    t0 = time.perf_counter()
    L, horizon = 20, 4
    game0 = paper_style_game(seed=0)
    part = game_partition(game0)
    spec = game_norm_spec(game0)
    box = game_box(game0)
    # The box depends only on the power budgets, so flat designs are shared.
    uniform_bank = make_sq_bank(part, box, uniform_sq_allocation(part.n, L))
    sq_bank = bank_for_allocation(part, box, ticoq_sq_lp(part, spec, box, L))
    vq_bank = bank_for_allocation(
        part, box, ticoq_vq_lattice(part, spec.block_weights, box, L)
    )

    finals = {"uniform": [], "sq": [], "vq": [], "tv": []}
    usable = 0
    for seed in range(20):
        game = paper_style_game(seed=seed)
        ch = ChannelSet.generate(game)
        est = estimate_modulus(ch, samples=50, rng=seed)
        if not est.certified:
            continue
        usable += 1
        alpha = est.alpha_hat
        ref = nash_reference(ch, alpha)
        sched = tvcoq_design(part, spec, box, L, horizon, alpha, "sq-lp")
        runs = {
            "uniform": uniform_bank,
            "sq": sq_bank,
            "vq": vq_bank,
            "tv": list(sched.banks),
        }
        for name, bank in runs.items():
            res = iwfa_run(ch, quantizers=bank, mode="simultaneous",
                           steps=horizon, modulus=alpha, reference=ref)
            finals[name].append(float(res.trajectory.dist_to_ref[-1]))

    assert usable >= 15, f"only {usable} of 20 seeds were certifiably contractive"
    med = {name: float(np.median(v)) for name, v in finals.items()}
    assert med["tv"] <= med["vq"] <= med["sq"] <= med["uniform"], (
        f"median ordering violated: {med}"
    )
    _finish("C10", t0, 300.0,
            f"median error over {usable} seeds: time-varying {med['tv']:.2e} <= "
            f"lattice {med['vq']:.2e} <= scalar {med['sq']:.2e} <= "
            f"uniform {med['uniform']:.2e}")


# ---------------------------------------------------------------------------
# 11: waterfilling is the global best response
# ---------------------------------------------------------------------------

def test_c11_waterfill_is_global_best_response():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    checked = 0
    for g in range(10):
        K = int(rng.integers(1, 4))
        N = int(rng.integers(1, 4))
        dist = rng.uniform(100.0, 1000.0, size=(K, K))
        np.fill_diagonal(dist, rng.uniform(50.0, 150.0, size=K))
        game = GameConfig(
            num_links=K,
            num_antennas=N,
            distances=dist.tolist(),
            gamma=float(rng.uniform(3.0, 4.0)),
            power_dbm=10.0,
            seed=g,
        )
        ch = ChannelSet.generate(game)
        others = random_feasible_profile(game, rng)
        for k in range(K):
            best = waterfill(ch, others, k)
            lam = np.linalg.eigvalsh(best)
            assert lam.min() >= -1e-12, f"game {g} link {k}: response not PSD"
            assert abs(np.trace(best).real - game.budgets[k]) <= 1e-9 * game.budgets[k]
            covs = [P.copy() for P in others.covariances]
            covs[k] = best
            v_star = throughput(ch, type(others)(covs), k)
            for _ in range(100):
                alt = random_feasible_profile(game, rng).covariances[k]
                covs[k] = alt
                v_alt = throughput(ch, type(others)(covs), k)
                assert v_alt <= v_star + 1e-8, (
                    f"game {g} link {k}: alternative beats the response by "
                    f"{v_alt - v_star:.2e}"
                )
                checked += 1
    _finish("C11", t0, 30.0,
            f"{checked} random alternatives never beat the response "
            "(tol 1e-8); PSD and trace invariants hold")
