"""The benchmark's three workloads.

A workload builds every input from the workload seed when it is
constructed (that is the timed set-up) and then serves one closed-loop
operation, `op(i)`, on input i.  Each op checks its own outputs and
returns an `OpResult` whose digest hashes the final iterates and the
certificate flags, so two runs over the same inputs can be compared bit
for bit.  Workloads reach qfix only through the module namespace `q`
passed in, looked up at call time, so an installed tracer sees every call.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class OpResult:
    digest: str
    refused: bool = False
    problems: list = field(default_factory=list)


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                arr = np.ascontiguousarray(item)
                self._h.update(str((arr.dtype.str, arr.shape)).encode())
                self._h.update(arr.tobytes())
            else:
                self._h.update(repr(item).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _check_budget(problems: list, what: str, bits, budget: int) -> None:
    total = int(sum(int(b) for b in bits))
    if total != budget:
        problems.append(f"{what}: bits sum to {total}, budget is {budget}")


def _seeds(seed: int, count: int) -> list[int]:
    """`count` independent integer seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


class SyntheticN256:
    """Quantized Jacobi and Gauss-Seidel runs on exact-modulus affine maps.

    n = 256 in 64 blocks of 4 with weighted-max block norms, alpha = 0.5,
    box [-1, 1]^n, and one `ticoq_sq_wmax` scalar bank at 8 bits per
    coordinate built in set-up.  One op runs 30 Jacobi steps and 30
    Gauss-Seidel sweeps on one map and certifies both trajectories.
    """

    name = "synthetic-n256"
    PROBE = "dense"  # host-speed probe kind, see hostspeed.py
    BLOCKS, BLOCK_SIZE, ALPHA, STEPS, BITS_PER_COORD, MAPS = 64, 4, 0.5, 30, 8, 8

    def __init__(self, q, seed: int):
        self.q = q
        part = q.norms.BlockPartition([self.BLOCK_SIZE] * self.BLOCKS)
        spec = q.norms.NormSpec(
            [1.0] * self.BLOCKS, [q.norms.WeightedMax([1.0] * self.BLOCK_SIZE)] * self.BLOCKS
        )
        box = q.norms.BoxDomain([(-1.0, 1.0)] * part.n)
        budget = self.BITS_PER_COORD * part.n
        alloc = q.ticoq.ticoq_sq_wmax(part, spec, box, budget)
        problems: list = []
        _check_budget(problems, "ticoq_sq_wmax", alloc.bits, budget)
        if problems:
            raise RuntimeError("; ".join(problems))
        self.bank = q.ticoq.make_sq_bank(part, box, alloc.bits)
        self.inputs = [
            q.engine.random_affine_contraction(part, spec, box, self.ALPHA, rng=s)
            for s in _seeds(seed, self.MAPS)
        ]
        self.x0 = np.zeros(part.n)
        self.facts = {}

    def op(self, i: int) -> OpResult:
        q = self.q
        mapping, x_star = self.inputs[i]
        digest, problems = _Digest(), []
        for scheme in (q.engine.Scheme.JACOBI, q.engine.Scheme.GAUSS_SEIDEL):
            traj = q.engine.run_iteration(mapping, self.bank, self.x0, self.STEPS, scheme)
            cert = q.engine.bound_certificate(traj, mapping, x_star)
            if not cert.all_ok():
                bad = int(np.argmin(cert.ok))
                problems.append(
                    f"{scheme.value}: certificate fails at t={bad} "
                    f"(distance {cert.dist[bad]:.3e} > bound {cert.bound[bad]:.3e})"
                )
            digest.add(scheme.value, traj.final(), traj.error_norms, cert.ok)
        return OpResult(digest.hexdigest(), problems=problems)


def _game_pool(q, seed: int, games: int) -> list[tuple]:
    """(game id, channels) for `paper_style_game(g)`, g < games, in seed order.

    The list of games is fixed and only its order follows the workload
    seed.  An op's cost is set by the game's convergence horizon, which
    follows the sampled modulus; that estimate moves by up to 0.3 between
    sampling streams of the same game, so seed-drawn games or streams made
    the median op latency differ by 20% between seeds.  Each game's modulus
    is therefore sampled with the game's own seed, as in acceptance check C9.
    """
    order = np.random.default_rng(seed).permutation(games)
    return [
        (int(g), q.mimo.ChannelSet.generate(q.mimo.paper_style_game(seed=int(g))))
        for g in order
    ]


class MimoNash:
    """Solve one MIMO interference game to a certified Nash equilibrium.

    As acceptance check C9: estimate the modulus (50 samples), compute the
    Nash reference, run simultaneous best responses to the horizon where
    alpha^t * d0 <= 1e-9 and sequential ones for K times as many ticks,
    certify the simultaneous trajectory and check the equilibrium.  Games
    the modulus estimate does not certify are refused, not failed.
    """

    name = "mimo-nash"
    PROBE = "small-complex"
    GAMES, MODULUS_SAMPLES = 32, 50
    GAP_TOL, RESIDUAL_TOL = 1e-6, 1e-8

    def __init__(self, q, seed: int):
        self.q = q
        self.inputs = _game_pool(q, seed, self.GAMES)
        self.refused_games: set = set()
        self.facts = {"mimo.refused": 0}

    def op(self, i: int) -> OpResult:
        q = self.q
        g, ch = self.inputs[i]
        game = ch.game
        digest, problems = _Digest(), []
        est = q.mimo.estimate_modulus(ch, samples=self.MODULUS_SAMPLES, rng=g)
        digest.add(g, est.alpha_hat, est.certified)
        if not est.certified:
            self.refused_games.add(g)
            self.facts["mimo.refused"] = len(self.refused_games)
            return OpResult(digest.hexdigest(), refused=True)
        alpha = est.alpha_hat
        ref = q.mimo.nash_reference(ch, alpha)
        mapping = q.mimo.game_mapping(ch, alpha)
        d0 = max(mapping.distance(np.zeros(ref.size), ref), 1e-6)
        steps = int(np.clip(math.ceil(math.log(d0 / 1e-9) / -math.log(alpha)), 20, 4000))
        sim = q.mimo.iwfa_run(ch, mode="simultaneous", steps=steps, modulus=alpha, reference=ref)
        seq = q.mimo.iwfa_run(
            ch, mode="sequential", steps=game.num_links * steps, modulus=alpha, reference=ref
        )
        cert = q.engine.bound_certificate(sim.trajectory, sim.mapping, ref)
        if not cert.all_ok():
            problems.append(f"game {g}: simultaneous certificate fails")
        gap = float(np.linalg.norm(sim.trajectory.final() - seq.trajectory.final()))
        prof = q.mimo.vec_to_profile(sim.trajectory.final(), game)
        residual = max(
            float(np.linalg.norm(q.mimo.waterfill(ch, prof, k) - prof.covariances[k]))
            for k in range(game.num_links)
        )
        if not gap <= self.GAP_TOL:
            problems.append(f"game {g}: sim/seq gap {gap:.3e} > {self.GAP_TOL}")
        if not residual < self.RESIDUAL_TOL:
            problems.append(f"game {g}: best-response residual {residual:.3e} >= {self.RESIDUAL_TOL}")
        digest.add(steps, ref, sim.trajectory.final(), seq.trajectory.final(), cert.ok)
        return OpResult(digest.hexdigest(), problems=problems)


class MimoQuantized:
    """Certified quantized waterfilling with four quantizer families.

    Set-up prepares, per game, the channels, `estimate_modulus` and
    `nash_reference`, plus the flat banks shared by every game (uniform,
    `ticoq_sq_lp` and `ticoq_vq_lattice` at L = 20 bits per stage, as in
    acceptance check C10).  One op designs the time-varying `tvcoq_design`
    ("sq-lp") schedule at the game's alpha, then runs four quantized
    simultaneous `iwfa_run`s over T = 30 steps (uniform, scalar, lattice,
    time-varying) and certifies each.
    """

    name = "mimo-quantized"
    PROBE = "small-complex"
    GAMES, MODULUS_SAMPLES, L, T = 8, 50, 20, 30

    def __init__(self, q, seed: int):
        self.q = q
        game0 = q.mimo.paper_style_game(seed=0)
        # The box depends only on the power budgets, so flat designs are shared.
        self.part = part = q.mimo.game_partition(game0)
        self.spec = spec = q.mimo.game_norm_spec(game0)
        self.box = box = q.mimo.game_box(game0)
        problems: list = []
        uniform_bits = q.ticoq.uniform_sq_allocation(part.n, self.L)
        _check_budget(problems, "uniform", uniform_bits, self.L)
        sq_alloc = q.ticoq.ticoq_sq_lp(part, spec, box, self.L)
        _check_budget(problems, "ticoq_sq_lp", sq_alloc.bits, self.L)
        vq_alloc = q.ticoq.ticoq_vq_lattice(part, spec.block_weights, box, self.L)
        _check_budget(problems, "ticoq_vq_lattice", vq_alloc.bits, self.L)
        if problems:
            raise RuntimeError("; ".join(problems))
        vq_bank = q.ticoq.bank_for_allocation(part, box, vq_alloc)
        self.flat_banks = {
            "uniform": q.ticoq.make_sq_bank(part, box, uniform_bits),
            "sq": q.ticoq.bank_for_allocation(part, box, sq_alloc),
            "vq": vq_bank,
        }
        ratios = [qz.effective_bits / qz.bits for qz in vq_bank.blocks if qz.bits > 0]
        refused = 0
        self.inputs = []
        for g, ch in _game_pool(q, seed, self.GAMES):
            est = q.mimo.estimate_modulus(ch, samples=self.MODULUS_SAMPLES, rng=g)
            if not est.certified:
                refused += 1
                continue
            ref = q.mimo.nash_reference(ch, est.alpha_hat)
            self.inputs.append((g, ch, est.alpha_hat, ref))
        if not self.inputs:
            raise RuntimeError("no game of the pool is certified contractive")
        self.facts = {
            "mimo.refused": refused,
            "vquant.effective_bits_ratio": float(np.mean(ratios)) if ratios else 0.0,
        }

    def op(self, i: int) -> OpResult:
        q = self.q
        g, ch, alpha, ref = self.inputs[i]
        digest, problems = _Digest(), []
        sched = q.tvcoq.tvcoq_design(self.part, self.spec, self.box, self.L, self.T, alpha, "sq-lp")
        _check_budget(problems, f"game {g}: tvcoq schedule", sched.rates, self.T * self.L)
        for t, (rate, alloc) in enumerate(zip(sched.rates, sched.allocations)):
            _check_budget(problems, f"game {g}: stage {t} design", alloc.bits, int(rate))
        runs = dict(self.flat_banks, tv=list(sched.banks))
        for family, bank in runs.items():
            res = q.mimo.iwfa_run(
                ch, quantizers=bank, mode="simultaneous", steps=self.T, modulus=alpha, reference=ref
            )
            cert = q.engine.bound_certificate(res.trajectory, res.mapping, ref)
            if not cert.all_ok():
                problems.append(f"game {g}: {family} certificate fails")
            digest.add(family, res.trajectory.final(), res.trajectory.error_norms, cert.ok)
        digest.add(g, sched.rates)
        return OpResult(digest.hexdigest(), problems=problems)


WORKLOADS = {w.name: w for w in (SyntheticN256, MimoNash, MimoQuantized)}
