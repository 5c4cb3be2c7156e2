import json

import pytest

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


def test_simulate_rejects_bad_quantizer(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _simulate_doc(quantizer="magic"))
    assert main(["simulate", "--config", cfg]) == 1
    assert "quantizer" in capsys.readouterr().err


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
