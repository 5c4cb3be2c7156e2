import json

import numpy as np
import pytest

from qfix import engine, norms, ticoq, tvcoq
from qfix.cli import main


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


_LP_NORM = {"blocks": [2], "w": [1.0], "per_block": [{"kind": "lp", "p": 2.0}]}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        # a fractional block size was cut to an integer, and the design exited 0
        ("design", _design_doc(norm=dict(_wmax_norm(), blocks=[1.5, 1])),
         "norm: block sizes must be positive integers"),
        # a NaN weight printed NaN and Infinity in a design, and a simulation ended in a traceback
        ("design", _design_doc(norm=dict(_wmax_norm(), w=[float("nan"), 1.0])),
         "norm: block weights must be positive and finite"),
        ("simulate", _simulate_doc(norm=dict(_wmax_norm(), w=[float("nan"), 1.0])),
         "norm: block weights must be positive and finite"),
        ("design", _design_doc(norm={**_wmax_norm(1), "per_block": [{"kind": "wmax", "a": [float("inf")]}]},
                               box=[[0.0, 1.0]]),
         "norm: weighted-max weights must be positive and finite"),
        # an infinite endpoint ended an unquantized simulation in a traceback, and an L_p design
        # exited 0 with runtime warnings
        ("simulate", _simulate_doc(quantizer="none", box=[[-1.0, float("inf")], [-1.0, 1.0]]),
         "box: interval 0 has an infinite endpoint"),
        ("design", _design_doc(kind="ticoq-lp", norm=_LP_NORM, box=[[0.0, 1.0], [0.0, float("inf")]]),
         "box: interval 1 has an infinite endpoint"),
    ],
)
def test_norm_and_box_records_refuse_what_no_design_can_use(tmp_path, capsys, command, doc, message):
    assert main([command, "--config", _write(tmp_path, "cfg.json", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("quantizer", ["ticoq", "uniform"])
def test_simulate_refuses_a_rate_of_1024_bits_or_more(tmp_path, capsys, quantizer):
    """1,100 bits on one coordinate: a config error, not an OverflowError from 2 ** 1100."""
    doc = _simulate_doc(quantizer=quantizer, L=1100, norm=_wmax_norm(1), box=[[-1.0, 1.0]])
    assert main(["simulate", "--config", _write(tmp_path, "sim.json", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: quantizer: rate must be a nonnegative integer below 1024, got 1100\n"
    )


@pytest.mark.parametrize("command", ["simulate", "design"])
def test_tvcoq_refuses_a_horizon_whose_discounts_overflow(tmp_path, capsys, command):
    """At T = 1100 and alpha = 0.5, alpha^-(T-1) overflowed: an objective of NaN, then a traceback."""
    doc = (_simulate_doc(quantizer="tvcoq", alpha=0.5, T=1100, seeds=[0]) if command == "simulate"
           else _design_doc(kind="tvcoq", alpha=0.5, T=1100, mode="sq-wmax"))
    assert main([command, "--config", _write(tmp_path, "cfg.json", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = "quantizer" if command == "simulate" else "tvcoq"
    assert captured.err == (
        f"config error: {prefix}: horizon 1100 at alpha = 0.5: the stage discounts alpha^-t overflow float64\n"
    )


def test_simulate_rejects_lattice_design_on_weighted_max_blocks(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _simulate_doc(quantizer="ticoq", design="vq"))
    assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error: quantizer: lattice designs")


@pytest.mark.parametrize("command", ["simulate", "tradeoff"])
@pytest.mark.parametrize("seeds", [",", " , "])
def test_empty_seed_list_exit_one(tmp_path, capsys, command, seeds):
    doc = _simulate_doc() if command == "simulate" else _tradeoff_doc()
    cfg = _write(tmp_path, "c.json", doc)
    assert main([command, "--config", cfg, "--seed-list", seeds]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: --seed-list:")


@pytest.mark.parametrize("command", ["simulate", "tradeoff"])
@pytest.mark.parametrize("alpha", [1.5, 1.0, -0.1, True, "0.5"])
def test_bad_alpha_exit_one(tmp_path, capsys, command, alpha):
    doc = (_simulate_doc if command == "simulate" else _tradeoff_doc)(alpha=alpha)
    cfg = _write(tmp_path, "c.json", doc)
    assert main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error: alpha:")


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


_README_GAME = {
    "K": 2, "N": 2, "distances": [[100.0, 200.0], [500.0, 100.0]], "gamma": 3.5, "power_dbm": 10.0
}


@pytest.mark.parametrize(
    "over, message",
    [
        # gamma = NaN ended in an SVD failure, Infinity in an ill-conditioned direct channel
        ({"gamma": float("nan")}, "pathloss exponent must be positive and finite, got nan"),
        ({"gamma": float("inf")}, "pathloss exponent must be positive and finite, got inf"),
        # an infinite budget ended in "non-finite entries" from the first profile
        ({"power_dbm": float("inf")}, "budgets must be finite dBm values"),
        ({"noise": float("inf")}, "noise power must be positive and finite, got inf"),
        ({"N": 2.7}, "num_antennas must be an integer >= 1, got 2.7"),
        # 10,000 dBm ended in an OverflowError, a gain d^-gamma of inf in a failed SVD and one of
        # 0 in an ill-conditioned direct channel
        ({"power_dbm": 10000.0}, "budgets must have finite watts"),
        ({"distances": [[1e-200, 200.0], [500.0, 100.0]]}, "pathloss gains d^-gamma must be positive"),
        ({"distances": [[1e200, 200.0], [500.0, 100.0]]}, "pathloss gains d^-gamma must be positive"),
    ],
    ids=["gamma-nan", "gamma-inf", "power-inf", "noise-inf", "antennas-2.7", "power-10000",
         "distance-1e-200", "distance-1e200"],
)
def test_simulate_mimo_refuses_a_non_finite_or_non_integral_game(tmp_path, capsys, over, message):
    doc = {"schema": 1, "system": "mimo", "game": {**_README_GAME, **over}, "T": 10,
           "quantizer": "none", "seeds": [0]}
    assert main(["simulate", "--config", _write(tmp_path, "mimo.json", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: game: {message}")
    assert "Traceback" not in captured.err


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


@pytest.mark.parametrize("x0", [[2.0, 0.0], [float("nan"), 0.0], [0.0, float("inf")]])
def test_simulate_bad_x0_names_the_field(tmp_path, capsys, x0):
    cfg = _write(tmp_path, "sim.json", _simulate_doc(x0=x0))
    assert main(["simulate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: x0:")


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


@pytest.mark.parametrize("seed", ["abc", 1.7, True])
def test_simulate_rejects_a_non_integer_seed(tmp_path, capsys, seed):
    cfg = _write(tmp_path, "s.json", _synthetic_sim_doc(seed=seed))
    assert main(["simulate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: seed:")


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


_MIMO_DOC = {"schema": 1, "system": "mimo", "game": _README_GAME, "T": 10, "quantizer": "none", "seeds": [0]}


@pytest.mark.parametrize(
    "command, doc, key, options",
    [
        ("design", _design_doc(kind="bogus"), "kind", '"ticoq-wmax" | "ticoq-lp" | "ticoq-vq" | "tvcoq"'),
        ("design", _design_doc(kind="tvcoq", alpha=0.5, T=5, mode="bogus"), "mode", '"sq-wmax" | "sq-lp" | "vq"'),
        ("simulate", _simulate_doc(system="bogus"), "system", '"synthetic" | "mimo"'),
        ("simulate", _simulate_doc(quantizer="bogus"), "quantizer", '"none" | "uniform" | "ticoq" | "tvcoq"'),
        ("simulate", _simulate_doc(scheme="bogus"), "scheme", '"jacobi" | "gauss-seidel"'),
        ("simulate", dict(_MIMO_DOC, scheme="bogus"), "scheme", '"simultaneous" | "sequential"'),
        ("simulate", _simulate_doc(design="bogus"), "design", '"sq-wmax" | "sq-lp" | "vq"'),
        ("tradeoff", _tradeoff_doc(system="bogus"), "system", '"synthetic"'),
        ("tradeoff", _tradeoff_doc(sweep="bogus"), "sweep", '"L" | "T"'),
        ("tradeoff", _tradeoff_doc(quantizer="bogus"), "quantizer", '"uniform" | "ticoq" | "tvcoq"'),
        ("tradeoff", _tradeoff_doc(design="bogus"), "design", '"sq-wmax" | "sq-lp" | "vq"'),
    ],
    ids=["design-kind", "design-mode", "simulate-system", "simulate-quantizer", "simulate-scheme",
         "simulate-mimo-scheme", "simulate-design", "tradeoff-system", "tradeoff-sweep", "tradeoff-quantizer",
         "tradeoff-design"],
)
def test_a_choice_field_refuses_an_unknown_value_listing_every_option(tmp_path, capsys, command, doc, key, options):
    assert main([command, "--config", _write(tmp_path, "cfg.json", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f'config error: {key}: expected {options}, got "bogus"\n'
