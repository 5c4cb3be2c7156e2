import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfix
from qfix import engine, mimo, norms, ticoq, tvcoq
from qfix.cli import main

_README = Path(__file__).resolve().parent.parent / "README.md"


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _wmax_norm(n=2):
    return {
        "blocks": [1] * n,
        "w": [1.0] * n,
        "per_block": [{"kind": "wmax", "a": [1.0]} for _ in range(n)],
    }


def _design_doc(**over):
    doc = {
        "schema": 1,
        "kind": "ticoq-wmax",
        "L": 2,
        "norm": _wmax_norm(),
        "box": [[0.0, 1.0], [0.0, 4.0]],
    }
    doc.update(over)
    return doc


def test_design_worked_instance(tmp_path, capsys):
    cfg = _write(tmp_path, "d.json", _design_doc())
    assert main(["design", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bits"] == [0, 2]
    assert out["integer_value"] == 0.5
    assert out["threshold"] == 2.0
    assert out["in_regime"] is True


def test_design_tvcoq_worked_instance(tmp_path, capsys):
    doc = {
        "schema": 1,
        "kind": "tvcoq",
        "L": 3,
        "T": 2,
        "alpha": 0.5,
        "mode": "sq-wmax",
        "norm": _wmax_norm(1),
        "box": [[0.0, 1.0]],
    }
    cfg = _write(tmp_path, "tv.json", doc)
    assert main(["design", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [s["L_t"] for s in out["stages"]] == [2, 4]
    assert out["objective"] == 0.375
    assert [3, 3] in out["tied_alternates"]


def test_design_tvcoq_lists_64_tied_alternates_and_counts_all(tmp_path, capsys):
    """alpha = 1/2 on one coordinate at L = T = 40: the 20 ceiled stages each tie with the 20
    floored ones, 400 schedules. The report lists the first 64 and counts them all."""
    doc = {"schema": 1, "kind": "tvcoq", "L": 40, "T": 40, "alpha": 0.5, "mode": "sq-wmax",
           "norm": _wmax_norm(1), "box": [[-1.0, 1.0]]}
    cfg = _write(tmp_path, "tv.json", doc)
    assert main(["design", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tied_alternates_total"] == 400 and len(out["tied_alternates"]) == 64
    assert out["tied_alternates"] == [list(a) for a in tvcoq.tvcoq_master(0.5, 1, 40, 40).tied_alternates]


def test_design_out_of_regime_exit_code(tmp_path, capsys):
    doc = {
        "schema": 1,
        "kind": "tvcoq",
        "L": 0,
        "T": 9,
        "alpha": 0.3,
        "mode": "sq-wmax",
        "norm": _wmax_norm(1),
        "box": [[0.0, 1.0]],
    }
    cfg = _write(tmp_path, "oor.json", doc)
    assert main(["design", "--config", cfg]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["in_regime"] is False


def test_design_missing_budget_names_field(tmp_path, capsys):
    doc = _design_doc()
    del doc["L"]
    cfg = _write(tmp_path, "noL.json", doc)
    assert main(["design", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "L" in err


def test_rejects_wrong_schema(tmp_path, capsys):
    cfg = _write(tmp_path, "s.json", _design_doc(schema=2))
    assert main(["design", "--config", cfg]) == 1
    assert "schema" in capsys.readouterr().err


def test_rejects_unknown_kind(tmp_path, capsys):
    cfg = _write(tmp_path, "k.json", _design_doc(kind="mystery"))
    assert main(["design", "--config", cfg]) == 1
    assert "kind" in capsys.readouterr().err


def test_rejects_missing_file(capsys):
    assert main(["design", "--config", "/nonexistent/x.json"]) == 1


def test_design_output_file_byte_identical(tmp_path):
    cfg = _write(tmp_path, "d.json", _design_doc(kind="ticoq-lp", norm={
        "blocks": [2],
        "w": [1.0],
        "per_block": [{"kind": "lp", "p": 2.0}],
    }, box=[[0.0, 1.0], [0.0, 2.0]], L=5))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["design", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["design", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [[], ["design"], ["simulate", "--config"], ["tradeoff", "--config", "t.json", "--format", "xml"]],
)
def test_usage_errors_exit_one(capsys, argv):
    # exit 2 is reserved for designs out of regime and uncertified games
    assert main(argv) == 1
    assert "usage: qfix" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--seed-list", "0,1"], ["--format", "json"]])
def test_design_refuses_options_it_does_not_read(tmp_path, capsys, option):
    cfg = _write(tmp_path, "d.json", _design_doc())
    assert main(["design", "--config", cfg, *option]) == 1
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


def test_help_exits_zero_and_lists_only_the_options_read(capsys):
    assert main(["design", "--help"]) == 0
    usage = capsys.readouterr().out
    assert "--out" in usage and "--seed-list" not in usage and "--format" not in usage


def _simulate_doc(**over):
    doc = {
        "schema": 1,
        "system": "synthetic",
        "alpha": 0.6,
        "T": 12,
        "quantizer": "ticoq",
        "L": 12,
        "norm": _wmax_norm(2),
        "box": [[-1.0, 1.0], [-1.0, 1.0]],
        "seeds": [0, 1],
    }
    doc.update(over)
    return doc


def test_simulate_synthetic_csv(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _simulate_doc())
    assert main(["simulate", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,err,bound,certified"
    assert len(lines) == 14  # header + t = 0..12
    for line in lines[1:]:
        t, err, bound, cert = line.split(",")
        assert cert == "1"
        assert float(err) <= float(bound) + 1e-9


def test_simulate_reruns_byte_identical(tmp_path):
    cfg = _write(tmp_path, "sim.json", _simulate_doc(quantizer="tvcoq"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_seed_list_flag_overrides(tmp_path):
    cfg = _write(tmp_path, "sim.json", _simulate_doc())
    a, b, c = (tmp_path / f"{x}.csv" for x in "abc")
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b), "--seed-list", "7"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(c), "--seed-list", "0,1"]) == 0
    assert a.read_bytes() != b.read_bytes()
    assert a.read_bytes() == c.read_bytes()


def test_simulate_json_format(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _simulate_doc(T=3, quantizer="none"))
    assert main(["simulate", "--config", cfg, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4
    assert rows[0]["t"] == "0"
    assert set(rows[0]) == {"t", "err", "bound", "certified"}


def test_simulate_gauss_seidel_scheme(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _simulate_doc(scheme="gauss-seidel"))
    assert main(["simulate", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    for line in lines[1:]:
        assert line.split(",")[3] == "1"


def _even_split_doc(doc_for, strategy, **over):
    """The README's two unit-box coordinates at alpha = 0.5 and seeds 0-2, under `strategy`."""
    return doc_for(quantizer=strategy, alpha=0.5, seeds=[0, 1, 2], **over)


def test_the_ticoq_splits_of_the_readme_box_are_even():
    part, spec = norms.NormSpec.from_json(json.dumps(_wmax_norm(2)))
    box = norms.BoxDomain([[-1.0, 1.0], [-1.0, 1.0]])
    for bits in (8, 16, 24, 32):
        design = ticoq.ticoq_design(part, spec, box, bits, "sq-wmax")
        assert list(design.bits) == list(ticoq.uniform_sq_allocation(2, bits)) == [bits // 2] * 2


@pytest.mark.parametrize("scheme", ["jacobi", "gauss-seidel"])
def test_simulate_uniform_equals_ticoq_on_an_even_split(tmp_path, scheme):
    out = {}
    for strategy in ("uniform", "ticoq"):
        doc = _even_split_doc(_simulate_doc, strategy, scheme=scheme, T=10, L=16)
        out[strategy] = tmp_path / f"{strategy}.csv"
        argv = ["simulate", "--config", _write(tmp_path, f"{strategy}.json", doc)]
        assert main(argv + ["--out", str(out[strategy])]) == 0
    assert out["uniform"].read_bytes() == out["ticoq"].read_bytes()
    lines = out["uniform"].read_text().splitlines()
    assert len(lines) == 12 and all(line.split(",")[3] == "1" for line in lines[1:])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tradeoff_uniform_equals_ticoq_on_even_splits(tmp_path, fmt):
    out = {}
    for strategy in ("uniform", "ticoq"):
        doc = _even_split_doc(_tradeoff_doc, strategy, values=[8, 16, 24, 32], T=30)
        out[strategy] = tmp_path / f"{strategy}.{fmt}"
        argv = ["tradeoff", "--config", _write(tmp_path, f"{strategy}.json", doc), "--format", fmt]
        assert main(argv + ["--out", str(out[strategy])]) == 0
    assert out["uniform"].read_bytes() == out["ticoq"].read_bytes()


def test_simulate_rejects_bad_quantizer(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _simulate_doc(quantizer="magic"))
    assert main(["simulate", "--config", cfg]) == 1
    assert "quantizer" in capsys.readouterr().err

def test_simulate_rejects_lattice_design_on_weighted_max_blocks(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _simulate_doc(quantizer="ticoq", design="vq"))
    assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error: quantizer: lattice designs")


@pytest.mark.parametrize("scheme", ["simultaneous", "sequential"])
def test_simulate_mimo_csv(tmp_path, capsys, scheme):
    doc = {
        "schema": 1,
        "system": "mimo",
        "game": {
            "K": 2,
            "N": 2,
            "distances": [[100.0, 200.0], [500.0, 100.0]],
            "gamma": 3.5,
            "power_dbm": 10.0,
        },
        "T": 10,
        "quantizer": "none",
        "scheme": scheme,
        "seed": 0,
    }
    cfg = _write(tmp_path, "mimo.json", doc)
    assert main(["simulate", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,sum_throughput,err,bound,certified"
    last = lines[-1].split(",")
    assert float(last[2]) < 1e-6  # converged to the reference profile
    assert all(line.split(",")[4] == "1" for line in lines[1:])


def test_simulate_mimo_refusal_reports_the_measured_modulus(tmp_path, capsys):
    from qfix.mimo import ChannelSet, estimate_modulus, paper_style_game

    # Paper-style game 9 is one the sampled estimate does not certify.
    est = estimate_modulus(ChannelSet.generate(paper_style_game(seed=9)), samples=50, rng=9)
    assert not est.certified
    doc = {
        "schema": 1,
        "system": "mimo",
        "game": {
            "K": 2,
            "N": 2,
            "distances": [[100.0, 200.0], [500.0, 100.0]],
            "gamma": 3.5,
            "power_dbm": 10.0,
        },
        "T": 10,
        "quantizer": "none",
        "seeds": [9],
    }
    assert main(["simulate", "--config", _write(tmp_path, "mimo.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    for figure in (
        f"alpha_hat = {est.alpha_hat:.4f}",
        f"max ratio {est.max_ratio:.4f}",
        "over 50 sampled pairs",
        "safety factor 1.05",
    ):
        assert figure in captured.err


_NOT_PD = "matrix not positive definite (min eigenvalue -"


@pytest.mark.parametrize("game, message", [
    ({"distances": [[100.0, 1e-3], [500.0, 100.0]]}, _NOT_PD),  # interference 1e-3 m from its receiver
    ({"power_dbm": 400.0}, _NOT_PD),
    # a gain of 1e300 overflowed G_1 in a matmul: a RuntimeWarning, then a "non-finite entries" traceback
    ({"distances": [[100.0, 1e-3], [500.0, 100.0]], "gamma": 100.0},
     "whitened interference G_k of link 1 can overflow float64\n"),
], ids=["game0", "game1", "game2"])
def test_simulate_mimo_reports_a_game_whose_best_responses_are_refused(tmp_path, capsys, game, message):
    """Interference so strong that R_{-k}'s noise floor is lost to rounding, or that G_k would
    overflow: the library refuses the game's best responses, and the seed is reported with exit 2,
    not a warning or a traceback."""
    doc = dict(MIMO, seeds=[3], game={**MIMO["game"], **game})
    assert main(["simulate", "--config", _write(tmp_path, "mimo.json", doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"seed 3: game not solved: {message}")
    assert err.count("\n") == 1


def test_simulate_mimo_lets_a_value_error_that_is_no_refusal_through(tmp_path, monkeypatch):
    """Only the library's refusal of an ill-conditioned game is a per-seed report; any other
    ValueError inside the run (a programming error, say) keeps its traceback."""
    def broken(channels, modulus):
        raise ValueError("partition does not match the bank")

    monkeypatch.setattr(mimo, "nash_reference", broken)
    with pytest.raises(ValueError, match="partition does not match the bank"):
        main(["simulate", "--config", _write(tmp_path, "mimo.json", dict(MIMO, seeds=[0]))])


def _tradeoff_doc(**over):
    doc = {
        "schema": 1,
        "system": "synthetic",
        "sweep": "L",
        "values": [8, 16, 24],
        "quantizer": "ticoq",
        "alpha": 0.6,
        "T": 50,
        "norm": _wmax_norm(2),
        "box": [[-1.0, 1.0], [-1.0, 1.0]],
        "seeds": [0, 1],
    }
    doc.update(over)
    return doc


def test_tradeoff_sweep_csv(tmp_path, capsys):
    cfg = _write(tmp_path, "t.json", _tradeoff_doc())
    assert main(["tradeoff", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "value,measured,bound"
    assert len(lines) == 5  # header + 3 rows + slope footer
    assert lines[-1].startswith("fitted_log2_slope,")
    slope = float(lines[-1].split(",")[1])
    # wmax over two scalar blocks: slope should sit near -1/n = -0.5
    assert -0.75 <= slope <= -0.25
    for line in lines[1:-1]:
        _, measured, bound = line.split(",")
        assert float(measured) <= float(bound) + 1e-9


def test_tradeoff_horizon_sweep(tmp_path, capsys):
    cfg = _write(
        tmp_path, "t.json",
        _tradeoff_doc(sweep="T", values=[2, 4, 8], quantizer="tvcoq", L=12),
    )
    assert main(["tradeoff", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 5
    measured = [float(line.split(",")[1]) for line in lines[1:-1]]
    assert measured[-1] < measured[0]


def test_tradeoff_empty_sweep_exit_one(tmp_path, capsys):
    cfg = _write(tmp_path, "t.json", _tradeoff_doc(values=[]))
    assert main(["tradeoff", "--config", cfg]) == 1
    assert "values" in capsys.readouterr().err


def test_tradeoff_json_format(tmp_path, capsys):
    cfg = _write(tmp_path, "t.json", _tradeoff_doc(values=[8, 16]))
    assert main(["tradeoff", "--config", cfg, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["value"] for r in doc["rows"]] == [8, 16]
    assert "fitted_log2_slope" in doc


def test_tradeoff_horizon_sweep_refuses_zero_steps(tmp_path, capsys):
    cfg = _write(tmp_path, "t.json", _tradeoff_doc(sweep="T", values=[4, 0], L=12))
    assert main(["tradeoff", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: values:")


@pytest.mark.parametrize("strategy", ["ticoq", "tvcoq"])
@pytest.mark.parametrize("sweep", ["L", "T"])
def test_tradeoff_bound_is_the_seed_mean_of_the_certified_bound(tmp_path, capsys, strategy, sweep):
    over = {"values": [2, 5, 9], "L": 12} if sweep == "T" else {}
    doc = _tradeoff_doc(sweep=sweep, quantizer=strategy, **over)
    assert main(["tradeoff", "--config", _write(tmp_path, "t.json", doc), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]

    part, spec = norms.NormSpec.from_json(json.dumps(doc["norm"]))
    box = norms.BoxDomain(doc["box"])
    alpha = doc["alpha"]
    x0 = np.asarray(box.lo) + 0.9 * box.lengths
    for row in rows:
        bits, steps = (row["value"], doc["T"]) if sweep == "L" else (doc["L"], row["value"])
        if strategy == "ticoq":
            alloc = ticoq.ticoq_design(part, spec, box, bits, "sq-wmax")
            banks = [ticoq.bank_for_allocation(part, box, alloc)] * steps
        else:
            banks = tvcoq.tvcoq_design(part, spec, box, bits, steps, alpha, "sq-wmax").banks
        e_bars = [b.worst_case_error(part, spec) for b in banks]
        E = engine.accumulated_error_series(alpha, e_bars)[-1]
        bound = 0.0
        for seed in doc["seeds"]:
            mapping, x_star = engine.random_affine_contraction(part, spec, box, alpha, rng=seed)
            bound += alpha**steps * mapping.distance(x0, x_star) + E
        assert row["bound"] == bound / len(doc["seeds"])


def _synthetic_sim_doc(**over):
    doc = {
        "schema": 1,
        "system": "synthetic",
        "alpha": 0.5,
        "T": 5,
        "quantizer": "none",
        "norm": _wmax_norm(2),
        "box": [[-1.0, 1.0], [-1.0, 1.0]],
    }
    doc.update(over)
    return doc

def test_simulate_checks_the_seed_only_when_it_is_used(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    listed = _write(tmp_path, "l.json", _synthetic_sim_doc(seed="abc", seeds=[3]))
    single = _write(tmp_path, "s.json", _synthetic_sim_doc(seed=3))
    assert main(["simulate", "--config", listed, "--out", str(a)]) == 0
    assert main(["simulate", "--config", single, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_tradeoff_builds_each_seed_map_once(tmp_path, capsys, monkeypatch):
    built = []
    real = engine.random_affine_contraction

    def spy(*args, **kwargs):
        built.append(kwargs.get("rng"))
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "random_affine_contraction", spy)
    doc = _tradeoff_doc(values=[8, 16, 24, 32], seeds=[0, 1, 2])
    assert main(["tradeoff", "--config", _write(tmp_path, "t.json", doc)]) == 0
    assert sorted(built) == [0, 1, 2]


# ---------------------------------------------------------------------------
# The CLI contract: which configs each command accepts, with the same bytes in
# a fresh interpreter, and which it refuses, naming the field
# ---------------------------------------------------------------------------

# The README's design, synthetic simulate and MIMO configs, keyed by kind or system.
_README_CONFIGS = {
    doc.get("system", doc.get("kind")): doc
    for doc in map(json.loads, re.findall(r"^```json\n(.*?)^```", _README.read_text(), re.M | re.S))
}
DESIGN, SIM, MIMO = (_README_CONFIGS[key] for key in ("ticoq-wmax", "synthetic", "mimo"))


# The README's budget sweep on the simulate config's system, and a horizon sweep at its budget.
_SWEPT = {key: SIM[key] for key in ("schema", "system", "alpha", "quantizer", "seeds", "norm", "box")}
SWEEPS = {"L": dict(_SWEPT, sweep="L", values=[8, 16, 24, 32], T=30),
          "T": dict(_SWEPT, sweep="T", values=[5, 10, 20, 40], L=16)}

_TVCOQ = {"kind": "tvcoq", "alpha": 0.5, "T": 5, "mode": "sq-wmax"}
_ONE = {"norm": _wmax_norm(1), "box": [[-1.0, 1.0]]}  # one weighted-max coordinate
_LP = {
    "norm": {"blocks": [2, 2], "w": [1.0, 0.5], "per_block": [{"kind": "lp", "p": 2.0}] * 2},
    "box": [[0.0, 1.0], [0.0, 3.0], [-1.0, 1.0], [0.0, 0.5]],
}
_N256 = {  # the benchmark's 64 weighted-max blocks of 4
    "norm": {"blocks": [4] * 64, "w": [1.0] * 64, "per_block": [{"kind": "wmax", "a": [1.0] * 4}] * 64},
    "box": [[-1.0, 1.0]] * 256,
}
_MIXED = {
    "norm": {"blocks": [2, 2, 1], "w": [1.0, 0.5, 2.0], "per_block": [
        {"kind": "wmax", "a": [1.0, 0.5]}, {"kind": "lp", "p": 2.0}, {"kind": "wmax", "a": [1.0]}]},
    "box": [[-1.0, 1.0], [0.0, 2.0], [-1.0, 1.0], [0.0, 0.5], [-2.0, 2.0]],
}
# At T = 1000 every stage's relaxed rate has fraction 1/2, so 500 x 500 = 250,000 schedules tie;
# L = 512 keeps every stage rate (12 to 1012) below 1024 bits.
_TVCOQ_1000 = {**DESIGN, **_TVCOQ, **_ONE, "T": 1000, "L": 512}
_DESIGN_LP = {**DESIGN, **_LP, "kind": "ticoq-lp", "L": 9}
_MIMO_TICOQ = dict(MIMO, quantizer="ticoq", L=20, scheme="sequential")


class Accepted(NamedTuple):
    id: str
    command: str
    config: dict
    argv: tuple = ()
    code: int = 0  # 2: a design outside its closed-form regime
    check: Optional[Callable[[str], bool]] = None  # of stdout


def _relaxed_spends(budget):
    return lambda out: abs(math.fsum(json.loads(out)["relaxed"]) - budget) <= 1e-9


def _rates_are_nonnegative(out):
    """A MIMO CSV run's rows, each with a `sum_throughput` cell of at least 0."""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    return bool(rows) and all(float(row[1]) >= 0 for row in rows)


def _tied_alternates(out):
    """A TVCOQ report's numbers of listed and of all tied alternates."""
    report = json.loads(out)
    return len(report["tied_alternates"]), report["tied_alternates_total"]


ACCEPTED = [
    Accepted("design", "design", DESIGN, check=_relaxed_spends(12)),
    Accepted("design-tvcoq", "design", {**DESIGN, **_TVCOQ}),
    # out of regime, equal fractional parts go to the later stage: the oracle's (0, 0, 3, 7, 10), not (0, 1, 4, 6, 9)
    Accepted("design-tvcoq-L4", "design", {**DESIGN, **_TVCOQ, "L": 4}, code=2,
             check=lambda out: [s["L_t"] for s in json.loads(out)["stages"]] == [0, 0, 3, 7, 10]),
    Accepted("design-tvcoq-T1000", "design", _TVCOQ_1000, check=lambda out: _tied_alternates(out) == (64, 250_000)),
    Accepted("design-lp", "design", _DESIGN_LP, check=_relaxed_spends(9)),
    Accepted("design-vq", "design", dict(_DESIGN_LP, kind="ticoq-vq"), check=_relaxed_spends(9)),
    Accepted("design-lp-tvcoq-sq-lp", "design", {**_DESIGN_LP, **_TVCOQ, "mode": "sq-lp"}, code=2),
    Accepted("design-lp-tvcoq-vq", "design", {**_DESIGN_LP, **_TVCOQ, "mode": "vq"}),
    # the paths whose repeated steps a run serves from earlier ones, and the uniform split, which
    # builds a scalar bank from an allocation with no design
    Accepted("simulate", "simulate", SIM),
    Accepted("simulate-gauss-seidel", "simulate", dict(SIM, scheme="gauss-seidel")),
    Accepted("simulate-tvcoq", "simulate", dict(SIM, quantizer="tvcoq")),
    Accepted("simulate-uniform", "simulate", dict(SIM, quantizer="uniform")),
    Accepted("simulate-uniform-gauss-seidel", "simulate", dict(SIM, quantizer="uniform", scheme="gauss-seidel")),
    Accepted("simulate-lp-vq-gauss-seidel", "simulate", {**SIM, **_LP, "design": "vq", "scheme": "gauss-seidel"}),
    # the flat weighted-max norm and the orbit fill: both runs close orbits
    Accepted("simulate-n256-gauss-seidel", "simulate",
             {**SIM, **_N256, "T": 15, "L": 512, "scheme": "gauss-seidel", "seeds": [0, 1]}),
    Accepted("simulate-mixed-uniform", "simulate", {**SIM, **_MIXED, "T": 20, "quantizer": "uniform"}),
    # a sequential run projects one block a tick, a simultaneous one both links' stack in one call
    Accepted("simulate-mimo-ticoq-sequential", "simulate", _MIMO_TICOQ),
    Accepted("simulate-mimo-tvcoq", "simulate", dict(_MIMO_TICOQ, quantizer="tvcoq", scheme="simultaneous")),
    Accepted("simulate-mimo-vq-sequential", "simulate", dict(_MIMO_TICOQ, design="vq")),
    Accepted("simulate-mimo-vq", "simulate", dict(_MIMO_TICOQ, design="vq", scheme="simultaneous")),
    # at -400 dBm the rates are about 1e-36 bits; a log-det of I + P^1/2 M P^1/2 printed them as -6.4e-16
    Accepted("simulate-mimo-at-minus-400-dbm", "simulate", dict(MIMO, game={**MIMO["game"], "power_dbm": -400.0}),
             check=_rates_are_nonnegative),
    *(
        Accepted(f"tradeoff-{sweep}-{fmt}", "tradeoff", doc, ("--format", fmt))
        for sweep, doc in SWEEPS.items()
        for fmt in ("csv", "json")
    ),
]

# Runs each accepted row's argv in one interpreter, printing one JSON line [id, exit code, stdout] a row.
_RERUN = """
import contextlib, io, json, sys
from qfix.cli import main
for row_id, argv in json.load(sys.stdin).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(json.dumps([row_id, code, out.getvalue()]), flush=True)
"""


@pytest.fixture(scope="session")
def accepted_runs(tmp_path_factory):
    """Each accepted row's argv, and its (exit code, stdout) from one fresh interpreter.

    The interpreter starts once, runs the rows in table order while the
    tests run them in-process, and warns with an error, as tier-1 does.
    """
    where = tmp_path_factory.mktemp("accepted")
    argvs = {row.id: [row.command, "--config", _write(where, f"{row.id}.json", row.config), *row.argv]
             for row in ACCEPTED}
    src = str(Path(qfix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    with open(where / "stderr.txt", "w") as stderr:
        child = subprocess.Popen([sys.executable, "-W", "error::RuntimeWarning", "-c", _RERUN], env=env,
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr, text=True)
    child.stdin.write(json.dumps(argvs))
    child.stdin.close()
    done = {}

    def rerun(row_id):
        while row_id not in done:
            line = child.stdout.readline()
            assert line, f"the fresh interpreter stopped:\n{(where / 'stderr.txt').read_text()}"
            got, code, out = json.loads(line)
            done[got] = code, out
        return done[row_id]

    yield argvs, rerun
    child.kill()
    child.wait()
    child.stdout.close()


@pytest.mark.parametrize("row", ACCEPTED, ids=[row.id for row in ACCEPTED])
def test_accepted_config(capsys, accepted_runs, row):
    argvs, rerun = accepted_runs
    code = main(argvs[row.id])
    out = capsys.readouterr().out
    assert code == row.code
    assert row.check is None or row.check(out)
    assert rerun(row.id) == (code, out)


class Refused(NamedTuple):
    id: str
    command: str
    config: dict
    argv: tuple
    field: str
    message: str  # how the message after "<field>: " starts; one that ends in a newline is all of it


def _choice_row(row_id, command, config, field, options):
    return Refused(row_id, command, config, (), field, f'expected {options}, got "bogus"\n')


_STAGE_DISCOUNTS = "horizon 1100 at alpha = 0.5: the stage discounts alpha^-t overflow float64\n"
_RATE_1100 = "rate must be a nonnegative integer below 1024, got 1100\n"
_CONSTANTS = "all design constants must be positive and finite\n"
_LP_NORM = {"blocks": [2], "w": [1.0], "per_block": [{"kind": "lp", "p": 2.0}]}

# A test name and the refusals it runs, one parametrized test per name.
REFUSED = {
    "test_refused_config": [
        Refused("design-tvcoq-T1000-L1000", "design", dict(_TVCOQ_1000, L=1000), (), "tvcoq",
                "stage 523 of T = 1000 at L = 1000, with L(t) = 1024 bits: "
                "rate must be a nonnegative integer below 1024, got 1024\n"),
        # {} as an interval ended in a KeyError traceback; three numbers were cut to two
        Refused("design-box-not-a-pair", "design", dict(DESIGN, box=[[-1.0, 1.0], {}, [-2.0, 2.0]]), (), "box",
                "interval 1 is not a [lo, hi] pair: {}\n"),
        Refused("design-box-three-numbers", "design", dict(DESIGN, box=[[-1.0, 1.0], [0.0, 4.0, 9.0], [-2.0, 2.0]]),
                (), "box", "interval 1 is not a [lo, hi] pair: [0.0, 4.0, 9.0]\n"),
        # a 1e-320 weight printed NaN rates and an Infinity objective with exit 0; a 1e308 block
        # weight warned of an overflow before its refusal
        Refused("design-subnormal-weight", "design", dict(DESIGN, norm=dict(DESIGN["norm"], per_block=[
            {"kind": "wmax", "a": [1.0, 0.5]}, {"kind": "wmax", "a": [1e-320]}])), (), "ticoq-wmax", _CONSTANTS),
        Refused("design-huge-block-weight", "design", dict(DESIGN, norm=dict(DESIGN["norm"], w=[1.0, 1e308])), (),
                "ticoq-wmax", _CONSTANTS),
        # L = 3,300 gave rates of [1150, 1075, 1075] with exit 0, and L = 2^70 did not finish; a
        # coordinate set 997 bits ahead by its constant took 1,075 bits at L = 3,000, where
        # 2^-1075 underflows and every further bit ties
        Refused("design-L3300", "design", dict(DESIGN, L=3300), (), "ticoq-wmax", _RATE_1100),
        Refused("design-L2^70", "design", dict(DESIGN, L=2**70), (), "ticoq-wmax",
                "rate must be a nonnegative integer below 1024, got 393530540239137101142\n"),
        Refused("design-L3000-underflow", "design", dict(DESIGN, L=3000, norm=dict(DESIGN["norm"], per_block=[
            {"kind": "wmax", "a": [1e-300, 0.5]}, {"kind": "wmax", "a": [1.0]}])), (), "ticoq-wmax",
                "rate must be a nonnegative integer below 1024, got 1075\n"),
        # T = 2^70 ended in numpy's "Maximum allowed dimension exceeded" traceback, on either
        # system and in both sweeps; a run keeps 16 (T + 1) n bytes of iterates and errors
        Refused("simulate-T2^70", "simulate", dict(SIM, T=2**70), (), "T",
                f"a run of {2**70} steps keeps {16 * (2**70 + 1) * 2} bytes of iterates and errors, "
                "more than this host's "),
        Refused("simulate-mimo-T2^70", "simulate", dict(MIMO, T=2**70), (), "T",
                f"a run of {2**70} steps keeps {16 * (2**70 + 1) * 8} bytes of iterates and errors, "),
        Refused("tradeoff-L-T2^70", "tradeoff", dict(SWEEPS["L"], T=2**70), (), "T", f"a run of {2**70} steps "),
        Refused("tradeoff-T-2^70", "tradeoff", dict(SWEEPS["T"], values=[5, 2**70]), (), "values",
                f"a run of {2**70} steps "),
        # a uniform split of L = 2^70 ended in an OverflowError traceback from filling the rates array
        Refused("simulate-uniform-L2^70", "simulate", dict(SIM, quantizer="uniform", L=2**70), (), "quantizer",
                f"rate must be a nonnegative integer below 1024, got {2**70 // 2}\n"),
        Refused("simulate-mimo-uniform-L2^70", "simulate", dict(MIMO, quantizer="uniform", L=2**70), (),
                "quantizer", f"rate must be a nonnegative integer below 1024, got {2**70 // 8}\n"),
        # L = 2^70 at T = 5 ended in a RuntimeWarning from the master split's int cast
        Refused("design-tvcoq-L2^70", "design", {**DESIGN, **_TVCOQ, "L": 2**70}, (), "L",
                f"horizon total T * L = 5 * {2**70} = {5 * 2**70} bits is past 2^53, "
                "where the stage split's float64 rates stop being exact integers\n"),
        # a total under 2^53 whose stages need 1,024 bits or more an entry walked the frontier to
        # its largest stage rate before a bank refused it, and did not finish in 15 s
        Refused("design-tvcoq-L2^53/5", "design", {**DESIGN, **_TVCOQ, "L": 2**53 // 5}, (), "tvcoq",
                f"stage 0 of T = 5 at L = {2**53 // 5}, with L(t) = {2**53 // 5 - 6} bits: "
                f"rate must be a nonnegative integer below 1024, got {-(-(2**53 // 5 - 6) // 3)}\n"),
        # a game that is not certifiably contractive exited 2 before its design was read
        _choice_row("simulate-mimo-design-uncertified-game", "simulate", {
            **_MIMO_TICOQ, "design": "bogus", "game": dict(MIMO["game"], distances=[[100.0, 10.0], [10.0, 100.0]]),
        }, "design", '"sq-wmax" | "sq-lp" | "vq"'),
    ],
    "test_a_choice_field_refuses_an_unknown_value_listing_every_option": [
        _choice_row(*row) for row in [
            ("design-kind", "design", _design_doc(kind="bogus"), "kind",
             '"ticoq-wmax" | "ticoq-lp" | "ticoq-vq" | "tvcoq"'),
            ("design-mode", "design", _design_doc(kind="tvcoq", alpha=0.5, T=5, mode="bogus"), "mode",
             '"sq-wmax" | "sq-lp" | "vq"'),
            ("simulate-system", "simulate", _simulate_doc(system="bogus"), "system", '"synthetic" | "mimo"'),
            ("simulate-quantizer", "simulate", _simulate_doc(quantizer="bogus"), "quantizer",
             '"none" | "uniform" | "ticoq" | "tvcoq"'),
            ("simulate-scheme", "simulate", _simulate_doc(scheme="bogus"), "scheme", '"jacobi" | "gauss-seidel"'),
            ("simulate-mimo-scheme", "simulate", dict(MIMO, scheme="bogus"), "scheme",
             '"simultaneous" | "sequential"'),
            ("simulate-design", "simulate", _simulate_doc(design="bogus"), "design", '"sq-wmax" | "sq-lp" | "vq"'),
            ("tradeoff-system", "tradeoff", _tradeoff_doc(system="bogus"), "system", '"synthetic"'),
            ("tradeoff-sweep", "tradeoff", _tradeoff_doc(sweep="bogus"), "sweep", '"L" | "T"'),
            ("tradeoff-quantizer", "tradeoff", _tradeoff_doc(quantizer="bogus"), "quantizer",
             '"uniform" | "ticoq" | "tvcoq"'),
            ("tradeoff-design", "tradeoff", _tradeoff_doc(design="bogus"), "design", '"sq-wmax" | "sq-lp" | "vq"'),
        ]
    ],
    "test_norm_and_box_records_refuse_what_no_design_can_use": [
        # a fractional block size was cut to an integer, and the design exited 0
        Refused("design-doc0-norm: block sizes must be positive integers", "design",
                _design_doc(norm=dict(_wmax_norm(), blocks=[1.5, 1])), (), "norm",
                "block sizes must be positive integers"),
        # a NaN weight printed NaN and Infinity in a design, and a simulation ended in a traceback
        Refused("design-doc1-norm: block weights must be positive and finite", "design",
                _design_doc(norm=dict(_wmax_norm(), w=[math.nan, 1.0])), (), "norm",
                "block weights must be positive and finite"),
        Refused("simulate-doc2-norm: block weights must be positive and finite", "simulate",
                _simulate_doc(norm=dict(_wmax_norm(), w=[math.nan, 1.0])), (), "norm",
                "block weights must be positive and finite"),
        Refused("design-doc3-norm: weighted-max weights must be positive and finite", "design",
                _design_doc(norm={**_wmax_norm(1), "per_block": [{"kind": "wmax", "a": [math.inf]}]},
                            box=[[0.0, 1.0]]), (), "norm", "weighted-max weights must be positive and finite"),
        # an infinite endpoint ended an unquantized simulation in a traceback, and an L_p design
        # exited 0 with runtime warnings
        Refused("simulate-doc4-box: interval 0 has an infinite endpoint", "simulate",
                _simulate_doc(quantizer="none", box=[[-1.0, math.inf], [-1.0, 1.0]]), (), "box",
                "interval 0 has an infinite endpoint"),
        Refused("design-doc5-box: interval 1 has an infinite endpoint", "design",
                _design_doc(kind="ticoq-lp", norm=_LP_NORM, box=[[0.0, 1.0], [0.0, math.inf]]), (), "box",
                "interval 1 has an infinite endpoint"),
    ],
    # 1,100 bits on one coordinate: a config error, not an OverflowError from 2 ** 1100
    "test_simulate_refuses_a_rate_of_1024_bits_or_more": [
        Refused(q, "simulate", _simulate_doc(quantizer=q, L=1100, **_ONE), (), "quantizer", _RATE_1100)
        for q in ("ticoq", "uniform")
    ],
    # at T = 1100 and alpha = 0.5, alpha^-(T-1) overflowed: an objective of NaN, then a traceback
    "test_tvcoq_refuses_a_horizon_whose_discounts_overflow": [
        Refused("simulate", "simulate", _simulate_doc(quantizer="tvcoq", alpha=0.5, T=1100, seeds=[0]), (),
                "quantizer", _STAGE_DISCOUNTS),
        Refused("design", "design", _design_doc(kind="tvcoq", alpha=0.5, T=1100, mode="sq-wmax"), (), "tvcoq",
                _STAGE_DISCOUNTS),
    ],
    "test_empty_seed_list_exit_one": [
        Refused(f"{seeds}-{command}", command, doc, ("--seed-list", seeds), "--seed-list", "")
        for command, doc in (("simulate", _simulate_doc()), ("tradeoff", _tradeoff_doc()))
        for seeds in (",", " , ")
    ],
    "test_bad_alpha_exit_one": [
        Refused(f"{alpha}-{command}", command, doc(alpha=alpha), (), "alpha", "")
        for command, doc in (("simulate", _simulate_doc), ("tradeoff", _tradeoff_doc),
                             ("design", lambda alpha: _design_doc(kind="tvcoq", alpha=alpha, T=5, mode="sq-wmax")))
        for alpha in (1.5, 1.0, -0.1, True, "0.5")
    ],
    "test_simulate_mimo_refuses_a_non_finite_or_non_integral_game": [
        Refused(row_id, "simulate", dict(MIMO, game={**MIMO["game"], **over}), (), "game", message)
        for row_id, over, message in [
            # gamma = NaN ended in an SVD failure, Infinity in an ill-conditioned direct channel
            ("gamma-nan", {"gamma": math.nan}, "pathloss exponent must be positive and finite, got nan"),
            ("gamma-inf", {"gamma": math.inf}, "pathloss exponent must be positive and finite, got inf"),
            # an infinite budget ended in "non-finite entries" from the first profile
            ("power-inf", {"power_dbm": math.inf}, "budgets must be finite dBm values"),
            ("noise-inf", {"noise": math.inf}, "noise power must be positive and finite, got inf"),
            ("antennas-2.7", {"N": 2.7}, "num_antennas must be an integer >= 1, got 2.7"),
            # 10,000 dBm ended in an OverflowError, a gain d^-gamma of inf in a failed SVD and one
            # of 0 in an ill-conditioned direct channel
            ("power-10000", {"power_dbm": 10000.0}, "budgets must have finite watts"),
            ("distance-1e-200", {"distances": [[1e-200, 200.0], [500.0, 100.0]]},
             "pathloss gains d^-gamma must be positive"),
            ("distance-1e200", {"distances": [[1e200, 200.0], [500.0, 100.0]]},
             "pathloss gains d^-gamma must be positive"),
        ]
    ],
    "test_simulate_bad_x0_names_the_field": [
        Refused(f"x0{i}", "simulate", _simulate_doc(x0=x0), (), "x0", "")
        for i, x0 in enumerate([[2.0, 0.0], [math.nan, 0.0], [0.0, math.inf]])
    ],
    "test_simulate_rejects_a_non_integer_seed": [
        Refused(str(seed), "simulate", _synthetic_sim_doc(seed=seed), (), "seed", "") for seed in ("abc", 1.7, True)
    ],
}


def _refusal_test(rows):
    @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
    def test(tmp_path, capsys, row):
        argv = [row.command, "--config", _write(tmp_path, "cfg.json", row.config), *row.argv]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: {row.field}: {row.message}") and err.count("\n") == 1
        assert "Traceback" not in err

    return test


for _name, _rows in REFUSED.items():
    globals()[_name] = _refusal_test(_rows)


# ---------------------------------------------------------------------------
# Config fuzzing, MIMO slice: the README MIMO config with one or two fields replaced by odd values
# ---------------------------------------------------------------------------

_ODD = [None, "x", [], {}, True, -1, 0, 1.5, math.nan, math.inf, -math.inf, 1e308, 1e-320, 2**70]
_ODD_COUNTS = _ODD + [1, 2, 3, 2.0]  # small counts only: a valid N = 400 is slow, legitimate work
_ODD_FIELDS = {  # where each field lives in the config, and values to put there
    "K": (("game",), _ODD_COUNTS),
    "N": (("game",), _ODD_COUNTS),
    "distances": (("game",), _ODD + [[[100.0, 1e-3], [500.0, 100.0]], [[100.0, 200.0]], [[1.0] * 3] * 3,
                                    [[100.0, math.nan], [500.0, 100.0]], [[100.0, 0.0], [500.0, 100.0]]]),
    "gamma": (("game",), _ODD + [0.1, 10.0, 100.0, 400.0]),
    "power_dbm": (("game",), _ODD + [400.0, -400.0, 3000.0, [10.0, 20.0], [10.0], [10.0, math.nan]]),
    "T": ((), _ODD_COUNTS),
    "quantizer": ((), _ODD + ["none", "uniform", "ticoq", "tvcoq", "bogus"]),
    "L": ((), _ODD + [1, 7, 20, 8184, 8185]),
    "scheme": ((), _ODD + ["simultaneous", "sequential", "jacobi"]),
}


@st.composite
def _odd_mimo_configs(draw):
    cfg = json.loads(json.dumps(MIMO))
    for field in draw(st.lists(st.sampled_from(sorted(_ODD_FIELDS)), min_size=1, max_size=2, unique=True)):
        path, values = _ODD_FIELDS[field]
        where = cfg
        for key in path:
            where = where[key]
        where[field] = draw(st.sampled_from(values))
    return cfg


@settings(max_examples=200)
@given(_odd_mimo_configs())
def test_an_odd_mimo_config_exits_with_one_of_three_outcomes(cfg):
    """Exit 0 with no NaN or Infinity and no negative rate on stdout, exit 1 with an empty stdout
    and one `config error: <field>:` line, or exit 2 with a report on stderr; never a traceback."""
    with tempfile.TemporaryDirectory() as where:
        path = os.path.join(where, "mimo.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["simulate", "--config", path])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert out.startswith("t,sum_throughput,err,bound,certified\n")
        assert not re.search(r"nan|inf", out, re.I)
        assert _rates_are_nonnegative(out)
    elif code == 1:
        assert out == "" and re.match(r"config error: [\w-]+: ", err) and err.count("\n") == 1
    else:
        assert code == 2 and out == "" and re.match(r"seed \d+: ", err)
