"""Command-line front end: quantizer designs, simulation runs, tradeoff sweeps.

Subcommands
    design    solve one rate-allocation problem, emit a JSON report
    simulate  run a (quantized) iteration, emit a per-step CSV
    tradeoff  sweep the budget L or the horizon T, emit a summary CSV

Configs are JSON with a "schema": 1 field.  Exit codes: 0 success,
1 malformed config (the message names the offending field), 2 design
outside the closed-form regime or an uncertified game.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import engine, mimo, norms, ticoq, tvcoq
from .engine import Scheme


class ConfigError(Exception):
    """Raised with a message that names the offending config field."""


_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_REGIME = 2


def _fmt(v) -> str:
    return repr(float(v))


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    if cfg.get("schema") != 1:
        raise ConfigError('schema: expected "schema": 1')
    return cfg


def _need(cfg: dict, key: str, kinds, what: str = "") -> object:
    if key not in cfg:
        raise ConfigError(f"{key}: missing required field")
    val = cfg[key]
    if kinds is not None and not isinstance(val, kinds):
        raise ConfigError(f"{key}: expected {what or kinds}, got {type(val).__name__}")
    return val


def _need_int(cfg: dict, key: str, minimum: int = 0) -> int:
    val = _need(cfg, key, (int,), "an integer")
    if isinstance(val, bool) or val < minimum:
        raise ConfigError(f"{key}: expected an integer >= {minimum}, got {val!r}")
    return int(val)


def _norm_and_box(cfg: dict):
    norm_obj = _need(cfg, "norm", dict, "a norm object")
    try:
        part, spec = norms.NormSpec.from_json(json.dumps(norm_obj))
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"norm: {e}")
    box_obj = _need(cfg, "box", list, "a list of [lo, hi] pairs")
    try:
        box = norms.BoxDomain(box_obj)
    except (ValueError, TypeError, IndexError) as e:
        raise ConfigError(f"box: {e}")
    if box.n != part.n:
        raise ConfigError(f"box: {box.n} intervals for dimension {part.n}")
    return part, spec, box


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _need_alpha(cfg: dict) -> float:
    alpha = _need(cfg, "alpha", (int, float), "a number in [0, 1)")
    if isinstance(alpha, bool) or not (0.0 <= alpha < 1.0):
        raise ConfigError(f"alpha: expected a number in [0, 1), got {alpha!r}")
    return float(alpha)


def _seed_list(args, cfg: dict, default=(0,)) -> list[int]:
    if args.seed_list:
        try:
            seeds = [int(s) for s in args.seed_list.split(",") if s.strip() != ""]
        except ValueError:
            seeds = []
        if not seeds:
            raise ConfigError(f"--seed-list: expected comma-separated integers, got {args.seed_list!r}")
        return seeds
    seeds = cfg.get("seeds", list(default))
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    ):
        raise ConfigError("seeds: expected a nonempty list of integers")
    return [int(s) for s in seeds]


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

_DESIGN_KINDS = ("ticoq-wmax", "ticoq-lp", "ticoq-vq", "tvcoq")


def _design_report(cfg: dict) -> tuple[dict, int]:
    kind = _need(cfg, "kind", str, "one of " + "|".join(_DESIGN_KINDS))
    if kind not in _DESIGN_KINDS:
        raise ConfigError(f"kind: expected one of {_DESIGN_KINDS}, got {kind!r}")
    total_bits = _need_int(cfg, "L")
    part, spec, box = _norm_and_box(cfg)

    if kind == "tvcoq":
        alpha = _need(cfg, "alpha", (int, float), "a number in (0, 1)")
        horizon = _need_int(cfg, "T", minimum=1)
        mode = _need(cfg, "mode", str, '"sq-wmax" | "sq-lp" | "vq"')
        try:
            schedule = tvcoq.tvcoq_design(part, spec, box, total_bits, horizon, float(alpha), mode)
        except ValueError as e:
            raise ConfigError(f"tvcoq: {e}")
        report = json.loads(schedule.to_json())
        report["required_min_bits"] = schedule.required_min_bits
        report["tied_alternates"] = [list(a) for a in schedule.tied_alternates]
        return report, (_EXIT_OK if schedule.in_regime else _EXIT_REGIME)

    mode = {"ticoq-wmax": "sq-wmax", "ticoq-lp": "sq-lp", "ticoq-vq": "vq"}[kind]
    try:
        alloc = ticoq.ticoq_design(part, spec, box, total_bits, mode)
    except ValueError as e:
        raise ConfigError(f"{kind}: {e}")

    threshold = ticoq.tradeoff_threshold(alloc.constants)
    report = alloc.as_dict()
    report["kind"] = kind
    report["threshold"] = threshold
    report["eta"] = ticoq.relaxed_eta(alloc.constants)
    report["in_regime"] = bool(total_bits >= threshold - 1e-9)
    return report, _EXIT_OK


def _cmd_design(args) -> int:
    cfg = _load_config(args.config)
    report, code = _design_report(cfg)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return code


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_QUANT_STRATEGIES = ("none", "uniform", "ticoq", "tvcoq")


def _design_mode(cfg: dict, spec: norms.NormSpec) -> str:
    mode = cfg.get("design")
    if mode is None:
        mode = "sq-wmax" if isinstance(spec.per_block[0], norms.WeightedMax) else "sq-lp"
    if mode not in ("sq-wmax", "sq-lp", "vq"):
        raise ConfigError(f'design: expected "sq-wmax" | "sq-lp" | "vq", got {mode!r}')
    return mode


def _banks_for(
    strategy: str,
    mode: str,
    part: norms.BlockPartition,
    spec: norms.NormSpec,
    box: norms.BoxDomain,
    total_bits: int,
    steps: int,
    alpha: float,
):
    """Quantizer bank (or per-step list) for one run. None = perfect passing."""
    if strategy == "none":
        return None
    if strategy == "uniform":
        return ticoq.make_sq_bank(part, box, ticoq.uniform_sq_allocation(part.n, total_bits))
    if strategy == "ticoq":
        alloc = ticoq.ticoq_design(part, spec, box, total_bits, mode)
        return ticoq.bank_for_allocation(part, box, alloc)
    schedule = tvcoq.tvcoq_design(part, spec, box, total_bits, steps, alpha, mode)
    return list(schedule.banks)


def _simulate_synthetic(cfg: dict, seeds: list[int]) -> tuple[list[str], int]:
    part, spec, box = _norm_and_box(cfg)
    alpha = _need_alpha(cfg)
    steps = _need_int(cfg, "T", minimum=1)
    strategy = _need(cfg, "quantizer", str, "|".join(_QUANT_STRATEGIES))
    if strategy not in _QUANT_STRATEGIES:
        raise ConfigError(f"quantizer: expected one of {_QUANT_STRATEGIES}, got {strategy!r}")
    scheme_name = cfg.get("scheme", "jacobi")
    if scheme_name not in ("jacobi", "gauss-seidel"):
        raise ConfigError(f'scheme: expected "jacobi" | "gauss-seidel", got {scheme_name!r}')
    scheme = Scheme.JACOBI if scheme_name == "jacobi" else Scheme.GAUSS_SEIDEL
    total_bits = _need_int(cfg, "L") if strategy != "none" else 0
    mode = _design_mode(cfg, spec) if strategy in ("ticoq", "tvcoq") else ""
    if strategy == "tvcoq" and not (0.0 < alpha < 1.0):
        raise ConfigError("alpha: stage splitting needs alpha in (0, 1)")

    lo = np.asarray(box.lo)
    x0 = cfg.get("x0")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (part.n,):
            raise ConfigError(f"x0: expected {part.n} coordinates")
    else:
        x0 = lo + 0.9 * box.lengths

    try:
        banks = _banks_for(strategy, mode, part, spec, box, total_bits, steps, alpha)
    except ValueError as e:
        raise ConfigError(f"quantizer: {e}")

    errs = np.zeros(steps + 1)
    bounds = np.zeros(steps + 1)
    ok = np.ones(steps + 1, dtype=bool)
    for seed in seeds:
        mapping, x_star = engine.random_affine_contraction(
            part, spec, box, alpha, rng=seed
        )
        traj = engine.run_iteration(mapping, banks, x0, steps, scheme)
        cert = engine.bound_certificate(traj, mapping, x_star)
        errs += cert.dist
        bounds += cert.bound
        ok &= cert.ok
    errs /= len(seeds)
    bounds /= len(seeds)

    lines = ["t,err,bound,certified"]
    for t in range(steps + 1):
        lines.append(f"{t},{_fmt(errs[t])},{_fmt(bounds[t])},{1 if ok[t] else 0}")
    return lines, _EXIT_OK


def _simulate_mimo(cfg: dict, seeds: list[int]) -> tuple[list[str], int]:
    game_obj = _need(cfg, "game", dict, "a game object")
    steps = _need_int(cfg, "T", minimum=1)
    strategy = _need(cfg, "quantizer", str, "|".join(_QUANT_STRATEGIES))
    if strategy not in _QUANT_STRATEGIES:
        raise ConfigError(f"quantizer: expected one of {_QUANT_STRATEGIES}, got {strategy!r}")
    run_mode = cfg.get("scheme", "simultaneous")
    if run_mode not in ("simultaneous", "sequential"):
        raise ConfigError(f'scheme: expected "simultaneous" | "sequential", got {run_mode!r}')
    if run_mode == "sequential" and strategy == "tvcoq":
        raise ConfigError("scheme: per-stage schedules require the simultaneous scheme")
    total_bits = _need_int(cfg, "L") if strategy != "none" else 0

    errs = np.zeros(steps + 1)
    bounds = np.zeros(steps + 1)
    rates = np.zeros(steps + 1)
    ok = np.ones(steps + 1, dtype=bool)
    for seed in seeds:
        try:
            game = mimo.GameConfig(
                num_links=game_obj["K"],
                num_antennas=game_obj["N"],
                distances=game_obj["distances"],
                gamma=game_obj["gamma"],
                power_dbm=game_obj["power_dbm"],
                noise_power=game_obj.get("noise"),
                seed=seed,
            )
        except (KeyError, ValueError, TypeError) as e:
            raise ConfigError(f"game: {e}")
        channels = mimo.ChannelSet.generate(game)
        estimate = mimo.estimate_modulus(channels, samples=50, rng=seed)
        if not estimate.certified:
            sys.stderr.write(
                f"seed {seed}: sampled modulus {estimate.alpha_hat:.4f} >= 1; "
                "game not certifiably contractive\n"
            )
            return [], _EXIT_REGIME
        alpha = estimate.alpha_hat

        part = mimo.game_partition(game)
        spec = mimo.game_norm_spec(game)
        box = mimo.game_box(game)
        mode = _design_mode(cfg, spec) if strategy in ("ticoq", "tvcoq") else ""
        try:
            banks = _banks_for(strategy, mode, part, spec, box, total_bits, steps, alpha)
        except ValueError as e:
            raise ConfigError(f"quantizer: {e}")

        reference = mimo.nash_reference(channels, alpha)
        result = mimo.iwfa_run(
            channels,
            quantizers=banks,
            mode=run_mode,
            steps=steps,
            modulus=alpha,
            reference=reference,
        )
        cert = engine.bound_certificate(result.trajectory, result.mapping, reference)
        errs += cert.dist
        bounds += cert.bound
        rates += result.throughputs
        ok &= cert.ok
    errs /= len(seeds)
    bounds /= len(seeds)
    rates /= len(seeds)

    lines = ["t,sum_throughput,err,bound,certified"]
    for t in range(steps + 1):
        lines.append(
            f"{t},{_fmt(rates[t])},{_fmt(errs[t])},{_fmt(bounds[t])},{1 if ok[t] else 0}"
        )
    return lines, _EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    system = _need(cfg, "system", str, '"synthetic" | "mimo"')
    seeds = _seed_list(args, cfg, default=(int(cfg.get("seed", 0)),))
    if system == "synthetic":
        lines, code = _simulate_synthetic(cfg, seeds)
    elif system == "mimo":
        lines, code = _simulate_mimo(cfg, seeds)
    else:
        raise ConfigError(f'system: expected "synthetic" | "mimo", got {system!r}')
    if lines:
        text = "\n".join(lines) + "\n"
        if args.format == "json":
            header = lines[0].split(",")
            rows = [
                {h: v for h, v in zip(header, line.split(","))} for line in lines[1:]
            ]
            text = json.dumps(rows, indent=2) + "\n"
        _emit(text, args.out)
    return code


# ---------------------------------------------------------------------------
# tradeoff
# ---------------------------------------------------------------------------

def _tradeoff_point(
    cfg: dict,
    part,
    spec,
    box,
    alpha: float,
    strategy: str,
    mode: str,
    total_bits: int,
    steps: int,
    seeds: list[int],
) -> tuple[float, float]:
    """Mean final measured error and mean final analytic bound over seeds."""
    banks = _banks_for(strategy, mode, part, spec, box, total_bits, steps, alpha)
    if isinstance(banks, list):
        e_bars = [
            b.worst_case_error(part, spec) for b in banks
        ]
    elif banks is not None:
        e_bars = [banks.worst_case_error(part, spec)] * steps
    else:
        e_bars = [0.0] * steps
    accumulated = (
        engine.accumulated_error(alpha, e_bars, Scheme.JACOBI) if steps else 0.0
    )

    lo = np.asarray(box.lo)
    x0 = lo + 0.9 * box.lengths
    measured = 0.0
    bound = 0.0
    for seed in seeds:
        mapping, x_star = engine.random_affine_contraction(part, spec, box, alpha, rng=seed)
        traj = engine.run_iteration(mapping, banks, x0, steps, Scheme.JACOBI)
        d0 = mapping.distance(x0, x_star)
        measured += mapping.distance(traj.final(), x_star)
        bound += alpha**steps * d0 + accumulated
    return measured / len(seeds), bound / len(seeds)


def _cmd_tradeoff(args) -> int:
    cfg = _load_config(args.config)
    system = _need(cfg, "system", str, '"synthetic"')
    if system != "synthetic":
        raise ConfigError(f'system: tradeoff sweeps run on "synthetic", got {system!r}')
    sweep = _need(cfg, "sweep", str, '"L" | "T"')
    if sweep not in ("L", "T"):
        raise ConfigError(f'sweep: expected "L" | "T", got {sweep!r}')
    values = _need(cfg, "values", list, "a nonempty list of integers")
    if not values or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in values):
        raise ConfigError("values: expected a nonempty list of nonnegative integers")
    strategy = _need(cfg, "quantizer", str, "|".join(_QUANT_STRATEGIES[1:]))
    if strategy not in _QUANT_STRATEGIES[1:]:
        raise ConfigError(f"quantizer: expected one of {_QUANT_STRATEGIES[1:]}, got {strategy!r}")
    part, spec, box = _norm_and_box(cfg)
    alpha = _need_alpha(cfg)
    seeds = _seed_list(args, cfg)
    mode = _design_mode(cfg, spec) if strategy in ("ticoq", "tvcoq") else ""

    rows = []
    for v in values:
        if sweep == "L":
            total_bits, steps = int(v), _need_int(cfg, "T", minimum=1)
        else:
            total_bits, steps = _need_int(cfg, "L"), int(v)
        try:
            measured, bound = _tradeoff_point(
                cfg, part, spec, box, alpha, strategy, mode, total_bits, steps, seeds
            )
        except ValueError as e:
            raise ConfigError(f"quantizer: {e}")
        rows.append((int(v), measured, bound))

    xs = np.array([r[0] for r in rows], dtype=float)
    ys = np.array([r[1] for r in rows], dtype=float)
    if np.all(ys > 0) and xs.size >= 2:
        slope = float(np.polyfit(xs, np.log2(ys), 1)[0])
    else:
        slope = math.nan

    lines = ["value,measured,bound"]
    for v, measured, bound in rows:
        lines.append(f"{v},{_fmt(measured)},{_fmt(bound)}")
    lines.append(f"fitted_log2_slope,{_fmt(slope)},")
    text = "\n".join(lines) + "\n"
    if args.format == "json":
        text = (
            json.dumps(
                {
                    "rows": [
                        {"value": v, "measured": m, "bound": b} for v, m, b in rows
                    ],
                    "fitted_log2_slope": slope,
                },
                indent=2,
            )
            + "\n"
        )
    _emit(text, args.out)
    return _EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfix",
        description="Quantized fixed-point iteration: designs, runs, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("design", _cmd_design),
        ("simulate", _cmd_simulate),
        ("tradeoff", _cmd_tradeoff),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed-list", default=None, help="comma-separated seeds")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
