"""Command-line front end: quantizer designs, simulation runs, tradeoff sweeps.

Subcommands
    design    solve one rate-allocation problem, emit a JSON report
    simulate  run a (quantized) iteration, emit a per-step CSV
    tradeoff  sweep the budget L or the horizon T, emit a summary CSV

Configs are JSON with a "schema": 1 field.  Exit codes: 0 success,
1 malformed config (the message names the offending field) or command
line, 2 design outside the closed-form regime or an uncertified game.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import engine, mimo, norms, ticoq, tvcoq
from .engine import Scheme
from .linalg import IllConditioned


class ConfigError(Exception):
    """Raised with a message that names the offending config field."""


_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_REGIME = 2
_REQUIRED = object()  # the default of a field that has none


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


def _need(cfg: dict, key: str, kinds, what: str) -> object:
    if key not in cfg:
        raise ConfigError(f"{key}: missing required field")
    val = cfg[key]
    if not isinstance(val, kinds):
        raise ConfigError(f"{key}: expected {what}, got {type(val).__name__}")
    return val


def _need_int(cfg: dict, key: str, minimum: int = 0) -> int:
    val = _need(cfg, key, (int,), "an integer")
    if isinstance(val, bool) or val < minimum:
        raise ConfigError(f"{key}: expected an integer >= {minimum}, got {val!r}")
    return int(val)


def _check_horizon(key: str, steps: int, width: int) -> None:
    """Refuse `steps` before anything is allocated when a run's iterates and errors, 2 (steps + 1)
    rows of `width` float64s, exceed the host's memory (or numpy's largest array)."""
    memory = np.iinfo(np.intp).max
    with contextlib.suppress(AttributeError, ValueError, OSError):  # no sysconf, or no such name
        memory = min(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"), memory)
    if 16 * (steps + 1) * width > memory:
        raise ConfigError(f"{key}: a run of {steps} steps keeps {16 * (steps + 1) * width} bytes of "
                          f"iterates and errors, more than this host's {memory} bytes of memory")


def _choice(cfg: dict, key: str, options: tuple, default=_REQUIRED):
    """cfg[key], which must be one of `options`; an absent key reads `default` when there is one."""
    val = cfg.get(key, default)
    if val is _REQUIRED:
        raise ConfigError(f"{key}: missing required field")
    if val not in options:
        listed = " | ".join(json.dumps(o) for o in options)
        raise ConfigError(f"{key}: expected {listed}, got {json.dumps(val)}")
    return val


@contextlib.contextmanager
def _refusal(key: str, *kinds: type):
    """Turn a library's refusal of `key`'s value (`kinds`, default ValueError) into a ConfigError."""
    try:
        yield
    except (kinds or ValueError) as e:
        raise ConfigError(f"{key}: {e}")


def _norm_and_box(cfg: dict):
    norm_obj = _need(cfg, "norm", dict, "a norm object")
    with _refusal("norm", ValueError, KeyError, TypeError):
        part, spec = norms.NormSpec.from_json(json.dumps(norm_obj))
    box_obj = _need(cfg, "box", list, "a list of [lo, hi] pairs")
    with _refusal("box", ValueError, TypeError, IndexError):
        box = norms.BoxDomain(box_obj)
    if box.n != part.n:
        raise ConfigError(f"box: {box.n} intervals for dimension {part.n}")
    return part, spec, box


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _seed_list(args, cfg: dict, seed_key: Optional[str] = None) -> list[int]:
    """--seed-list, else the config's "seeds", else its `seed_key` field if given, else [0]."""
    if args.seed_list:
        try:
            seeds = [int(s) for s in args.seed_list.split(",") if s.strip() != ""]
        except ValueError:
            seeds = []
        if not seeds:
            raise ConfigError(f"--seed-list: expected comma-separated integers, got {args.seed_list!r}")
        return seeds
    if seed_key is not None and "seeds" not in cfg:
        seed = cfg.get(seed_key, 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError(f"{seed_key}: expected an integer, got {seed!r}")
        return [seed]
    seeds = cfg.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    ):
        raise ConfigError("seeds: expected a nonempty list of integers")
    return [int(s) for s in seeds]


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

_DESIGN_MODES = ("sq-wmax", "sq-lp", "vq")
_TICOQ_MODES = {"ticoq-wmax": "sq-wmax", "ticoq-lp": "sq-lp", "ticoq-vq": "vq"}


def _design_report(cfg: dict) -> tuple[dict, int]:
    kind = _choice(cfg, "kind", (*_TICOQ_MODES, "tvcoq"))
    total_bits = _need_int(cfg, "L")
    part, spec, box = _norm_and_box(cfg)

    if kind == "tvcoq":
        alpha = _need(cfg, "alpha", (int, float), "a number in (0, 1)")
        if not (0.0 < alpha < 1.0):  # refuses True and False too
            raise ConfigError(f"alpha: expected a number in (0, 1), got {alpha!r}")
        horizon = _need_int(cfg, "T", minimum=1)
        mode = _choice(cfg, "mode", _DESIGN_MODES)
        with _refusal("L"):
            tvcoq.horizon_total(total_bits, horizon)
        with _refusal("tvcoq"):
            schedule = tvcoq.tvcoq_design(part, spec, box, total_bits, horizon, float(alpha), mode)
        report = schedule.as_dict()
        report["required_min_bits"] = schedule.required_min_bits
        report["tied_alternates"] = [list(a) for a in schedule.tied_alternates]
        report["tied_alternates_total"] = schedule.tied_alternates_total
        return report, (_EXIT_OK if schedule.in_regime else _EXIT_REGIME)

    with _refusal(kind):
        alloc = ticoq.ticoq_design(part, spec, box, total_bits, _TICOQ_MODES[kind])

    threshold = ticoq.tradeoff_threshold(alloc.family)
    report = alloc.as_dict()
    report["kind"] = kind
    report["threshold"] = threshold
    report["eta"] = ticoq.relaxed_eta(alloc.family)
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
_SCHEMES = {"jacobi": Scheme.JACOBI, "gauss-seidel": Scheme.GAUSS_SEIDEL}


def _design_mode(cfg: dict, strategy: str, first_norm) -> str:
    """A designing strategy's "design" ("" for others); absent or null, `first_norm`'s scalar design."""
    if strategy not in ("ticoq", "tvcoq"):
        return ""
    if cfg.get("design") is None:
        return "sq-wmax" if isinstance(first_norm, norms.WeightedMax) else "sq-lp"
    return _choice(cfg, "design", _DESIGN_MODES)


def _synthetic(cfg: dict):
    """A synthetic system's partition, norm, box, modulus and default start lo + 0.9 (hi - lo)."""
    part, spec, box = _norm_and_box(cfg)
    alpha = _need(cfg, "alpha", (int, float), "a number in [0, 1)")
    if isinstance(alpha, bool) or not (0.0 <= alpha < 1.0):
        raise ConfigError(f"alpha: expected a number in [0, 1), got {alpha!r}")
    return part, spec, box, float(alpha), np.asarray(box.lo) + 0.9 * box.lengths


def _banks_for(
    strategy: str, mode: str, part: norms.BlockPartition, spec: norms.NormSpec, box: norms.BoxDomain,
    total_bits: int, steps: int, alpha: float,
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


def _simulate_synthetic(cfg: dict, strategy: str, total_bits: int, steps: int):
    """Column names and the per-seed run of a synthetic simulation."""
    part, spec, box, alpha, x0 = _synthetic(cfg)
    _check_horizon("T", steps, part.n)
    scheme = _SCHEMES[_choice(cfg, "scheme", tuple(_SCHEMES), "jacobi")]
    mode = _design_mode(cfg, strategy, spec.per_block[0])
    if strategy == "tvcoq" and not (0.0 < alpha < 1.0):
        raise ConfigError("alpha: stage splitting needs alpha in (0, 1)")
    if cfg.get("x0") is not None:
        with _refusal("x0", ValueError, TypeError):
            x0 = np.asarray(cfg["x0"], dtype=float)
        if x0.shape != (part.n,) or not box.contains(x0, tol=1e-9):
            raise ConfigError(f"x0: expected {part.n} finite coordinates inside the box")
    with _refusal("quantizer"):
        banks = _banks_for(strategy, mode, part, spec, box, total_bits, steps, alpha)

    def run_seed(seed: int):
        mapping, x_star = engine.random_affine_contraction(part, spec, box, alpha, rng=seed)
        traj = engine.run_iteration(mapping, banks, x0, steps, scheme)
        cert = engine.bound_certificate(traj, mapping, x_star)
        return (cert.dist, cert.bound), cert.ok

    return "err,bound", run_seed


def _simulate_mimo(cfg: dict, strategy: str, total_bits: int, steps: int):
    """Column names and the per-seed run of a MIMO simulation.

    A seed whose game is not certifiably contractive or is ill-conditioned is
    refused: its run reports why on stderr and returns None.
    """
    game_obj = _need(cfg, "game", dict, "a game object")
    run_mode = _choice(cfg, "scheme", ("simultaneous", "sequential"), "simultaneous")
    if run_mode == "sequential" and strategy == "tvcoq":
        raise ConfigError("scheme: per-stage schedules require the simultaneous scheme")
    mode = _design_mode(cfg, strategy, norms.Lp(2.0))  # a game's blocks carry Frobenius (L2) norms

    def make_game(seed: int) -> mimo.GameConfig:
        with _refusal("game", KeyError, ValueError, TypeError):
            return mimo.GameConfig(
                num_links=game_obj["K"],
                num_antennas=game_obj["N"],
                distances=game_obj["distances"],
                gamma=game_obj["gamma"],
                power_dbm=game_obj["power_dbm"],
                noise_power=game_obj.get("noise"),
                seed=seed,
            )

    first = make_game(0)  # every seed's game has this one's size
    _check_horizon("T", steps, first.num_links * first.num_antennas**2)

    def run_seed(seed: int):
        game = make_game(seed)
        channels = mimo.ChannelSet.generate(game)
        part, spec, box = mimo.game_partition(game), mimo.game_norm_spec(game), mimo.game_box(game)
        try:  # a quantizer refusal is a ConfigError, so only the game's own refusals are caught
            estimate = mimo.estimate_modulus(channels, rng=seed)
            if not estimate.certified:
                sys.stderr.write(
                    f"seed {seed}: sampled modulus alpha_hat = {estimate.alpha_hat:.4f} >= 1 "
                    f"(max ratio {estimate.max_ratio:.4f} over {estimate.samples} sampled pairs, "
                    f"safety factor {estimate.safety:g}); game not certifiably contractive\n"
                )
                return None
            alpha = estimate.alpha_hat
            with _refusal("quantizer"):
                banks = _banks_for(strategy, mode, part, spec, box, total_bits, steps, alpha)
            reference = mimo.nash_reference(channels, alpha)
            result = mimo.iwfa_run(channels, quantizers=banks, mode=run_mode, steps=steps, modulus=alpha,
                                   reference=reference)
        except IllConditioned as e:  # e.g. interference so strong that R_{-k}'s noise floor rounds away
            sys.stderr.write(f"seed {seed}: game not solved: {e}\n")
            return None
        cert = engine.bound_certificate(result.trajectory, result.mapping, reference)
        return (result.throughputs, cert.dist, cert.bound), cert.ok

    return "sum_throughput,err,bound", run_seed


def _seed_mean_rows(columns: str, run_seed, seeds: list[int], steps: int) -> tuple[list[str], int]:
    """CSV rows of each column's mean over seeds, certified where every seed is.

    Columns are summed seed by seed, then divided once.  A seed that is
    refused (its run returns None) ends the simulation with exit 2 and no rows.
    """
    sums = np.zeros((len(columns.split(",")), steps + 1))
    ok = np.ones(steps + 1, dtype=bool)
    for seed in seeds:
        run = run_seed(seed)
        if run is None:
            return [], _EXIT_REGIME
        cols, seed_ok = run
        sums += cols
        ok &= seed_ok
    sums /= len(seeds)

    lines = [f"t,{columns},certified"]
    for t in range(steps + 1):
        cells = ",".join(_fmt(col[t]) for col in sums)
        lines.append(f"{t},{cells},{1 if ok[t] else 0}")
    return lines, _EXIT_OK


_SIMULATORS = {"synthetic": _simulate_synthetic, "mimo": _simulate_mimo}


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    system = _choice(cfg, "system", tuple(_SIMULATORS))
    seeds = _seed_list(args, cfg, seed_key="seed")
    steps = _need_int(cfg, "T", minimum=1)
    strategy = _choice(cfg, "quantizer", _QUANT_STRATEGIES)
    total_bits = _need_int(cfg, "L") if strategy != "none" else 0
    columns, run_seed = _SIMULATORS[system](cfg, strategy, total_bits, steps)
    lines, code = _seed_mean_rows(columns, run_seed, seeds, steps)
    if lines:
        text = "\n".join(lines) + "\n"
        if args.format == "json":
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
            text = json.dumps(rows, indent=2) + "\n"
        _emit(text, args.out)
    return code


# ---------------------------------------------------------------------------
# tradeoff
# ---------------------------------------------------------------------------

def _tradeoff_point(part, spec, alpha: float, banks, steps: int, maps: list, x0) -> tuple[float, float]:
    """Mean final measured error and mean final analytic bound over the (mapping, x*) pairs from x0.

    The bound is alpha^T ||x(0) - x*|| + E(T), with E(T) the last value of
    the accumulated-error series over the banks' worst-case errors.
    """
    if isinstance(banks, list):
        e_bars = [b.worst_case_error(part, spec) for b in banks]
    else:
        e_bars = [banks.worst_case_error(part, spec)] * steps
    accumulated = float(engine.accumulated_error_series(alpha, e_bars)[steps])
    measured = bound = 0.0
    for mapping, x_star in maps:
        traj = engine.run_iteration(mapping, banks, x0, steps, Scheme.JACOBI)
        measured += mapping.distance(traj.final(), x_star)
        bound += alpha**steps * mapping.distance(x0, x_star) + accumulated
    return measured / len(maps), bound / len(maps)


def _cmd_tradeoff(args) -> int:
    cfg = _load_config(args.config)
    _choice(cfg, "system", ("synthetic",))
    sweep = _choice(cfg, "sweep", ("L", "T"))
    values = _need(cfg, "values", list, "a nonempty list of integers")
    if not values or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in values):
        raise ConfigError("values: expected a nonempty list of nonnegative integers")
    if sweep == "T" and min(values) < 1:
        raise ConfigError(f"values: a horizon sweep needs every T >= 1, got {min(values)}")
    strategy = _choice(cfg, "quantizer", _QUANT_STRATEGIES[1:])
    part, spec, box, alpha, x0 = _synthetic(cfg)
    seeds = _seed_list(args, cfg)
    mode = _design_mode(cfg, strategy, spec.per_block[0])
    fixed = _need_int(cfg, "T", minimum=1) if sweep == "L" else _need_int(cfg, "L")
    _check_horizon(*(("T", fixed) if sweep == "L" else ("values", max(values))), part.n)
    # A seed's map does not depend on the swept value, so each is built once.
    maps = [engine.random_affine_contraction(part, spec, box, alpha, rng=s) for s in seeds]

    rows = []
    for v in values:
        total_bits, steps = (v, fixed) if sweep == "L" else (fixed, v)
        with _refusal("quantizer"):
            banks = _banks_for(strategy, mode, part, spec, box, total_bits, steps, alpha)
            measured, bound = _tradeoff_point(part, spec, alpha, banks, steps, maps, x0)
        rows.append((v, measured, bound))

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
        doc = {
            "rows": [{"value": v, "measured": m, "bound": b} for v, m, b in rows],
            "fitted_log2_slope": slope,
        }
        text = json.dumps(doc, indent=2) + "\n"
    _emit(text, args.out)
    return _EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfix",
        description="Quantized fixed-point iteration: designs, runs, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, tabular in (
        ("design", _cmd_design, False),
        ("simulate", _cmd_simulate, True),
        ("tradeoff", _cmd_tradeoff, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if tabular:  # design reads one config and writes one JSON report
            p.add_argument("--seed-list", default=None, help="comma-separated seeds")
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse: 2 after a usage error, 0 after --help
        return _EXIT_CONFIG if e.code == 2 else e.code
    try:
        return args.fn(args)
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
