"""qfix benchmark runner: one process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qfix checkout; the package is imported from its
`src/` directory.  The run

1. pins BLAS/OpenMP to BLAS_THREADS threads before numpy loads;
2. sets up repeatedly (fresh import of qfix from source, input generation
   from the seed, one-off builds), at least SETUP_MIN_REPEATS times and
   until SETUP_MIN_SECONDS have been spent, and reports the median as
   `setup_s`;
3. runs WARMUP_OPS untimed ops, then whole passes over the workload's
   inputs until S seconds have elapsed, one op at a time;
4. checks every op (certificates, budgets, equilibria) and that repeated
   inputs give identical results.

With --trace 0 it reports the end-to-end metrics.  With --trace 1 it sets
up once under the span tracer, then runs every op of each pass twice,
untraced and traced, checks that the two agree bit for bit, reports the
per-layer metrics and writes the spans to `.perfbench-out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is a
JSON record of the run (environment, digest, tail percentile, refusals).
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import hostspeed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
# cli gets no workload; it is imported so the tracer's alias check covers it.
LAYERS = ("norms", "linalg", "squant", "vquant", "engine", "ticoq", "tvcoq", "mimo", "cli")

SETUP_MIN_REPEATS, SETUP_MIN_SECONDS = 3, 1.0
WARMUP_OPS = 2
# The highest whole percentile with at least 10 ops beyond it in the
# shortest reference run seen (fewest passes at 20 s on a 2-CPU x86-64
# container), per workload.
TAIL_PCT = {"synthetic-n256": 83, "mimo-nash": 83, "mimo-quantized": 80}


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_qfix(fresh: bool) -> SimpleNamespace:
    """Import qfix and its layer modules from SRC (re-imported when fresh)."""
    if fresh:
        for name in [m for m in sys.modules if m == "qfix" or m.startswith("qfix.")]:
            del sys.modules[name]
    pkg = importlib.import_module("qfix")
    origin = Path(pkg.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        _fail(f"qfix was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"qfix.{m}") for m in LAYERS})


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    """Hash of the qfix and benchmark sources, which ties a result to its code.

    Unlike the git sha it needs no `.git` and sees uncommitted changes.
    """
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(f"{path.relative_to(ROOT)}\0".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _environment(np, seed: int, numpy_import_s: float) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "numpy_import_s": numpy_import_s,
    }


class Phase:
    """Latencies and outcomes of the timed ops of one phase."""

    def __init__(self):
        self.latencies: list[float] = []  # reference seconds, ops not refused
        self.wall: list[float] = []  # wall seconds, same ops
        self.busy = 0.0  # reference seconds of every op, refused ones too
        self.attempted = 0
        self.refused = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}  # input index -> digest
        self.probes: list[float] = []  # probe seconds, one between ops
        self.factors: list[float] = []  # reference seconds per wall second, per op
        self.passes = 0
        self.elapsed = 0.0


def _run_op(workload, i: int, phase: Phase, probe, before: float) -> float:
    """Run op i, probing the host after it; returns that probe time."""
    problems = []
    t0 = time.perf_counter()
    try:
        res = workload.op(i)
    except Exception:
        res = None
        problems.append(f"input {i}: exception\n{traceback.format_exc()}")
    wall = time.perf_counter() - t0
    after = probe()
    phase.probes.append(after)
    factor = probe.factor(before, after)
    ref = wall * factor
    phase.factors.append(factor)
    phase.attempted += 1
    phase.busy += ref
    if res is not None:
        problems += res.problems
        known = phase.digests.setdefault(i, res.digest)
        if known != res.digest:
            problems.append(f"input {i}: result differs from an earlier op on the same input")
    if problems:
        phase.failed += 1
        phase.problems += problems
    if res is not None and res.refused:
        phase.refused += 1
    else:
        phase.latencies.append(ref)
        phase.wall.append(wall)
    return after


def _run_passes(workload, seconds: float, probe, tracer=None) -> tuple[Phase, Phase]:
    """Whole passes over the inputs until `seconds` have elapsed.

    With a tracer, every op runs twice in a row, untraced and then traced,
    so both sets of latencies see the same machine conditions; the second
    Phase holds the traced ops (op ids 0, 1, ... in the spans).
    """
    plain, traced = Phase(), Phase()
    start = time.perf_counter()
    last = probe()
    while True:
        for i in range(len(workload.inputs)):
            last = _run_op(workload, i, plain, probe, last)
            if tracer is not None:
                tracer.op_id = traced.attempted
                tracer.install()
                try:
                    last = _run_op(workload, i, traced, probe, last)
                finally:
                    tracer.uninstall()
        plain.passes += 1
        if time.perf_counter() - start >= seconds:
            break
    plain.elapsed = time.perf_counter() - start
    return plain, traced


def _run_digest(phase: Phase) -> str:
    h = hashlib.sha256()
    for i in sorted(phase.digests):
        h.update(f"{i}:{phase.digests[i]};".encode())
    return h.hexdigest()


def _tail(values: list[float], pct: int) -> float:
    """Linear interpolation between order statistics, as numpy.percentile."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _end_to_end(phase: Phase, probe, setup: list, setup_wall: list, tail_pct: int) -> tuple[dict, dict]:
    lat = phase.latencies
    if not lat:
        _fail("no op completed, so there is no latency to report")
    tail = _tail(lat, tail_pct)
    completed = phase.attempted - phase.refused - phase.failed
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * tail, "unit": "ms"},
        "ops_per_s": {"value": completed / phase.busy, "unit": "ops/s"},
        "ok_frac": {"value": 1.0 - phase.failed / phase.attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    info = {
        "tail_pct": tail_pct,
        "latency_samples": len(lat),
        "samples_beyond_tail": sum(1 for v in lat if v > tail),
        "failed_frac": phase.failed / phase.attempted,
        "wall": {
            "setup_s": statistics.median(setup_wall),
            "op_p50_ms": 1e3 * statistics.median(phase.wall),
            "op_tail_ms": 1e3 * _tail(phase.wall, tail_pct),
            "ops_per_s": completed / phase.elapsed,
        },
        "probe_ms": _probe_stats(probe, phase.probes),
    }
    return metrics, info


def _probe_stats(probe, probes: list[float]) -> dict:
    return {
        "kind": probe.kind,
        "ref": 1e3 * probe.ref_seconds,
        "median": 1e3 * statistics.median(probes),
        "min": 1e3 * min(probes),
        "max": 1e3 * max(probes),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qfix" / "__init__.py").is_file():
        _fail(f"no qfix sources under {SRC}; run from the root of a qfix checkout")
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy as np

    numpy_import_s = time.perf_counter() - t0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": _environment(np, args.seed, numpy_import_s),
    }

    probe = hostspeed.HostProbe(np, make.PROBE)
    if args.trace:
        q = _import_qfix(fresh=False)
        tracer = tracing.Tracer()
        before = probe()
        tracer.install()
        try:
            workload = make(q, args.seed)
        finally:
            tracer.uninstall()
        scale = {-1: probe.factor(before, probe())}
        for i in range(min(WARMUP_OPS, len(workload.inputs))):
            workload.op(i)
        plain, traced = _run_passes(workload, args.seconds, probe, tracer=tracer)
        if tracer.missing:
            print(f"perfbench: not in qfix, so not traced: {tracer.missing}", file=sys.stderr)
        problems = plain.problems + traced.problems
        failed = plain.failed + traced.failed
        for i, d in plain.digests.items():
            if traced.digests.get(i) != d:
                problems.append(f"input {i}: traced result differs from the untraced one")
                failed += 1
        overhead = statistics.median(traced.latencies) / statistics.median(plain.latencies) - 1.0
        scale.update(enumerate(traced.factors))
        layer = tracing.layer_metrics(tracer.spans, traced.attempted, workload.facts, overhead, scale)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        metrics = {name: {"value": layer[name], "unit": units[name]} for name, *_ in tracing.LAYER_METRICS}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        record.update(
            digest=_run_digest(plain),
            traced_digest=_run_digest(traced),
            passes=plain.passes,
            traced_ops=traced.attempted,
            refused_ops=plain.refused + traced.refused,
            spans=len(tracer.spans),
            spans_file=str(spans_path.relative_to(ROOT)),
            missing_trace_targets=tracer.missing,
            probe_ms=_probe_stats(probe, plain.probes + traced.probes),
            span_stats=tracing.span_stats([s for s in tracer.spans if s[2] >= 0], scale),
        )
        attempted = plain.attempted + traced.attempted
    else:
        setup, setup_wall = [], []
        before = probe()
        while len(setup) < SETUP_MIN_REPEATS or sum(setup_wall) < SETUP_MIN_SECONDS:
            # Free the previous set-up first, so peak_rss_mb sees one at a time.
            workload = q = None
            gc.collect()
            t0 = time.perf_counter()
            q = _import_qfix(fresh=True)
            workload = make(q, args.seed)
            wall = time.perf_counter() - t0
            after = probe()
            setup.append(wall * probe.factor(before, after))
            setup_wall.append(wall)
            before = after
        for i in range(min(WARMUP_OPS, len(workload.inputs))):
            workload.op(i)
        phase, _ = _run_passes(workload, args.seconds, probe)
        metrics, info = _end_to_end(phase, probe, setup, setup_wall, TAIL_PCT[args.workload])
        record.update(info)
        record.update(
            digest=_run_digest(phase),
            passes=phase.passes,
            inputs=len(workload.inputs),
            refused_ops=phase.refused,
            setup_samples_s=setup,
        )
        problems, failed, attempted = phase.problems, phase.failed, phase.attempted

    record.update(workload.facts)
    record["problems"] = problems[:20]
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
