"""Span tracing of qfix calls, installed from outside the package.

`Tracer.install()` replaces each traced qfix function with a wrapper that
records one span per call: (span id, parent span id, op id, name, start,
end).  qfix binds functions by name across modules (`mimo.herm_eig` is
`linalg.herm_eig`), so the installer swaps *every* attribute of every
loaded qfix module that holds a traced original, then checks that no
unwrapped original is left anywhere it can see.  A later change that
moves an import therefore cannot silently zero a layer's counts.

Spans stay in memory; `layer_metrics` turns them into the per-layer
figures the benchmark reports, in the same reference time as the
end-to-end metrics, and `write_spans` stores them (in wall time) at the
end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "qfix"

# Module-level functions traced in each layer (the layer's public entry
# points that other layers or the workloads call).  Per-coordinate helpers
# such as `squant.sq_encode` or `norms.lp_norm` are left out: a span on them
# would cost more than the work it measures.
TRACED_FUNCTIONS = {
    "norms": ("block_norm",),
    "linalg": ("herm_eig", "psd_solve", "logdet_psd"),
    "squant": (),
    "vquant": ("nearest_point_a_star", "vq_design"),
    "engine": (
        "run_iteration",
        "bound_certificate",
        "reference_fixed_point",
        "random_affine_contraction",
    ),
    "ticoq": (
        "ticoq_sq_wmax",
        "ticoq_sq_lp",
        "ticoq_vq_lattice",
        "allocation_oracle",
        "uniform_sq_allocation",
        "make_sq_bank",
        "make_vq_bank",
        "bank_for_allocation",
    ),
    "tvcoq": ("tvcoq_design", "tvcoq_master"),
    "mimo": (
        "interference_covariance",
        "project_simplex",
        "waterfill",
        "throughput",
        "sum_throughput",
        "project_feasible",
        "game_mapping",
        "estimate_modulus",
        "iwfa_run",
        "nash_reference",
    ),
}

# Methods traced on their classes (instances look them up there).
TRACED_METHODS = {
    "squant": (("ScalarBlockQuantizer", "quantize"),),
    "vquant": (("LatticeQuantizer", "__init__"), ("LatticeQuantizer", "quantize")),
    "engine": (("BlockMapping", "eval_full"), ("BlockMapping", "eval_block")),
}


def _bound_args(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _run_iteration_label(fn):
    """Split engine.run_iteration spans by scheme and record the step count."""
    bind = _bound_args(fn)

    def label(args, kwargs):
        a = bind(args, kwargs)
        return "." + a["scheme"].value.replace("-", "_"), int(a["steps"])

    return label


def _iwfa_label(fn):
    """Split mimo.iwfa_run spans by mode and record the step (tick) count."""
    bind = _bound_args(fn)

    def label(args, kwargs):
        a = bind(args, kwargs)
        return "." + a["mode"], int(a["steps"])

    return label


LABELERS = {
    "engine.run_iteration": _run_iteration_label,
    "mimo.iwfa_run": _iwfa_label,
}


def _qfix_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class TracingError(RuntimeError):
    """The tracer could not wrap every alias of a traced function."""


class Tracer:
    """Records spans around calls into qfix, for one process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (sid, parent, op, name, t0, t1, steps)
        self.op_id = -1  # -1 marks set-up work
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._swaps: list[tuple] = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        label = LABELERS[name](fn) if name in LABELERS else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name, steps = name, None
            if label is not None:
                suffix, steps = label(args, kwargs)
                span_name = name + suffix
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.op_id, span_name, t0, t1, steps))

        return wrapper

    def install(self) -> None:
        if self._swaps:
            raise TracingError("tracer is already installed")
        self.missing = []
        modules = {mod.__name__: mod for mod in _qfix_modules()}
        originals: dict[int, object] = {}
        wrappers: dict[int, object] = {}

        for layer, names in TRACED_FUNCTIONS.items():
            mod = modules.get(f"{PACKAGE}.{layer}")
            for fname in names:
                fn = getattr(mod, fname, None) if mod is not None else None
                if fn is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                originals[id(fn)] = fn
                wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)

        for layer, methods in TRACED_METHODS.items():
            mod = modules.get(f"{PACKAGE}.{layer}")
            for cls_name, meth in methods:
                cls = getattr(mod, cls_name, None) if mod is not None else None
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is None:
                    self.missing.append(f"{layer}.{cls_name}.{meth}")
                    continue
                originals[id(fn)] = fn
                wrappers[id(fn)] = self._wrap(f"{layer}.{cls_name}.{meth}", fn)

        # Swap every alias: module attributes and class attributes alike.
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and value is originals[id(value)]:
                    self._swap(mod, attr, value, wrappers[id(value)])
                elif isinstance(value, type) and value.__module__.startswith(PACKAGE):
                    for cattr, cvalue in list(vars(value).items()):
                        if id(cvalue) in originals and cvalue is originals[id(cvalue)]:
                            self._swap(value, cattr, cvalue, wrappers[id(cvalue)])
        try:
            self._check_no_unwrapped(modules.values(), originals)
        except TracingError:
            self.uninstall()
            raise

    def _swap(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._swaps.append((owner, attr, original))

    def _check_no_unwrapped(self, modules, originals: dict) -> None:
        """Fail if a qfix module, class, container or default still holds an original."""

        def holds(value) -> bool:
            return id(value) in originals and value is originals[id(value)]

        leaks = []
        for mod in modules:
            for attr, value in vars(mod).items():
                where = f"{mod.__name__}.{attr}"
                if holds(value):
                    leaks.append(where)
                elif isinstance(value, dict):
                    leaks += [f"{where}[{k!r}]" for k, v in value.items() if holds(v)]
                elif isinstance(value, (list, tuple, set, frozenset)):
                    leaks += [f"{where}[...]" for v in value if holds(v)]
                elif isinstance(value, type) and value.__module__.startswith(PACKAGE):
                    leaks += [f"{where}.{k}" for k, v in vars(value).items() if holds(v)]
                elif inspect.isfunction(value):
                    defaults = (value.__defaults__ or ()) + tuple(
                        (value.__kwdefaults__ or {}).values()
                    )
                    leaks += [f"{where} (default argument)" for v in defaults if holds(v)]
        if leaks:
            raise TracingError("unwrapped qfix originals remain: " + ", ".join(sorted(leaks)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._swaps):
            setattr(owner, attr, original)
        self._swaps = []

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON array per line after a header line naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "parent", "op", "name", "t0", "t1", "steps"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Per-op figures are averaged over the traced ops; "setup." figures are
# totals over the traced set-up.  Units: "calls/op", "s/op", "us" (per call).
_PER_SPAN = (
    # (span name, report calls, busy, self, us/call)
    ("norms.block_norm", True, True, True, True),
    ("linalg.herm_eig", True, True, True, True),
    ("linalg.psd_solve", True, True, False, True),
    ("linalg.logdet_psd", True, True, False, False),
    ("squant.ScalarBlockQuantizer.quantize", True, True, False, True),
    ("vquant.LatticeQuantizer.quantize", True, True, False, True),
    ("engine.run_iteration.jacobi", True, True, True, False),
    ("engine.run_iteration.gauss_seidel", True, True, True, False),
    ("engine.bound_certificate", True, True, True, False),
    ("engine.BlockMapping.eval_full", True, True, True, False),
    ("mimo.waterfill", True, True, True, True),
    ("mimo.interference_covariance", True, True, False, True),
    ("mimo.estimate_modulus", True, True, True, False),
    ("mimo.nash_reference", True, True, False, False),
    ("mimo.iwfa_run.simultaneous", True, True, True, False),
    ("mimo.iwfa_run.sequential", True, True, True, False),
    ("mimo.sum_throughput", True, True, False, False),
    ("mimo.project_feasible", True, True, False, True),
    ("ticoq.allocation_oracle", True, True, False, False),
    ("tvcoq.tvcoq_design", True, True, True, False),
)

_SETUP_SPANS = (
    "mimo.estimate_modulus",
    "mimo.nash_reference",
    "engine.random_affine_contraction",
    "ticoq.design",
)

_DESIGNERS = ("ticoq.ticoq_sq_wmax", "ticoq.ticoq_sq_lp", "ticoq.ticoq_vq_lattice")


def _metric_table() -> list[tuple[str, str, str]]:
    rows = []
    for name, calls, busy, self_, per_call in _PER_SPAN:
        if calls:
            rows.append((f"{name}.calls", "calls/op", "lower"))
        if busy:
            rows.append((f"{name}.busy_s", "s/op", "lower"))
        if self_:
            rows.append((f"{name}.self_s", "s/op", "lower"))
        if per_call:
            rows.append((f"{name}.us_per_call", "us", "lower"))
    rows += [
        ("ticoq.design.calls", "calls/op", "lower"),
        ("ticoq.design.busy_s", "s/op", "lower"),
        ("engine.steps", "steps/op", "lower"),
        ("engine.map_evals_per_step", "ratio", "lower"),
        ("engine.map_evals_per_step.jacobi", "ratio", "lower"),
        ("engine.map_evals_per_step.gauss_seidel", "ratio", "lower"),
        ("engine.map_evals_per_step.sequential", "ratio", "lower"),
        ("mimo.waterfill.useful_frac", "ratio", "higher"),
        ("mimo.refused", "count", "lower"),
        ("vquant.LatticeQuantizer.build_s", "s", "lower"),
        ("vquant.LatticeQuantizer.builds", "count", "lower"),
        ("vquant.effective_bits_ratio", "ratio", "lower"),
    ]
    rows += [(f"setup.{name}.busy_s", "s", "lower") for name in _SETUP_SPANS]
    rows += [
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.spans_per_op", "spans/op", "lower"),
        ("trace.ops", "count", "higher"),
    ]
    return rows


LAYER_METRICS = _metric_table()


def span_stats(spans, scale: dict) -> dict[str, dict]:
    """calls / busy / self per span name.

    `scale` maps an op id to the factor that turns that op's wall seconds
    into reference seconds (see hostspeed.py).  Self time is a span's duration minus the durations of its
    direct children; spans of one thread nest, so children never overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, op, name, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for sid, parent, op, name, t0, t1, _ in spans:
        f = scale[op]
        s = stats[name]
        s["calls"] += 1
        s["busy_s"] += f * (t1 - t0)
        s["self_s"] += f * ((t1 - t0) - child_time.get(sid, 0.0))
    return dict(stats)


def _ancestors(spans):
    parent_of = {sid: parent for sid, parent, *_ in spans}
    name_of = {sid: name for sid, _, _, name, *_ in spans}

    def walk(sid):
        p = parent_of.get(sid, -1)
        while p >= 0:
            yield p, name_of[p]
            p = parent_of.get(p, -1)

    return walk


def layer_metrics(spans, traced_ops: int, facts: dict, overhead_frac: float, scale) -> dict:
    """Every metric of LAYER_METRICS, from the spans of one traced run.

    `traced_ops` is the number of ops run under tracing (op ids 0..n-1);
    `facts` carries figures read from the workload itself rather than spans;
    `scale` maps op ids (-1 for set-up) to reference-time factors.
    """
    op_spans = [s for s in spans if s[2] >= 0]
    setup_spans = [s for s in spans if s[2] < 0]
    per_op = span_stats(op_spans, scale)
    setup = span_stats(setup_spans, scale)
    n = max(traced_ops, 1)
    out: dict[str, float] = {}

    def get(stats, name, key):
        return stats.get(name, {}).get(key, 0)

    for name, calls, busy, self_, per_call in _PER_SPAN:
        c = get(per_op, name, "calls")
        if calls:
            out[f"{name}.calls"] = c / n
        if busy:
            out[f"{name}.busy_s"] = get(per_op, name, "busy_s") / n
        if self_:
            out[f"{name}.self_s"] = get(per_op, name, "self_s") / n
        if per_call:
            out[f"{name}.us_per_call"] = 1e6 * get(per_op, name, "busy_s") / c if c else 0.0

    out["ticoq.design.calls"] = sum(get(per_op, d, "calls") for d in _DESIGNERS) / n
    out["ticoq.design.busy_s"] = sum(get(per_op, d, "busy_s") for d in _DESIGNERS) / n

    # Steps and map evaluations inside the stepping spans.
    walk = _ancestors(op_spans)
    steps = defaultdict(int)
    evals = defaultdict(int)
    for sid, parent, op, name, t0, t1, n_steps in op_spans:
        if name.startswith("engine.run_iteration."):
            steps[name.rsplit(".", 1)[1]] += n_steps
        elif name == "mimo.iwfa_run.sequential":
            steps["sequential"] += n_steps
        elif name == "engine.BlockMapping.eval_full":
            for _, anc in walk(sid):
                if anc.startswith("engine.run_iteration."):
                    evals[anc.rsplit(".", 1)[1]] += 1
                    break
                if anc == "mimo.iwfa_run.sequential":
                    evals["sequential"] += 1
                    break
    total_steps = sum(steps.values())
    out["engine.steps"] = total_steps / n
    out["engine.map_evals_per_step"] = sum(evals.values()) / total_steps if total_steps else 0.0
    for kind in ("jacobi", "gauss_seidel", "sequential"):
        out[f"engine.map_evals_per_step.{kind}"] = (
            evals[kind] / steps[kind] if steps[kind] else 0.0
        )

    # A block evaluation computes every link's waterfill and keeps one.
    computed = useful = 0
    kept_blocks = set()
    for sid, parent, op, name, *_ in op_spans:
        if name != "mimo.waterfill":
            continue
        computed += 1
        block = next((a for a, anc in walk(sid) if anc == "engine.BlockMapping.eval_block"), None)
        if block is None:
            useful += 1
        else:
            kept_blocks.add(block)
    useful += len(kept_blocks)
    out["mimo.waterfill.useful_frac"] = useful / computed if computed else 0.0

    out["mimo.refused"] = float(facts.get("mimo.refused", 0))
    out["vquant.LatticeQuantizer.build_s"] = get(setup, "vquant.LatticeQuantizer.__init__", "busy_s")
    out["vquant.LatticeQuantizer.builds"] = get(setup, "vquant.LatticeQuantizer.__init__", "calls")
    out["vquant.effective_bits_ratio"] = float(facts.get("vquant.effective_bits_ratio", 0.0))
    for name in _SETUP_SPANS:
        if name == "ticoq.design":
            busy = sum(get(setup, d, "busy_s") for d in _DESIGNERS)
        else:
            busy = get(setup, name, "busy_s")
        out[f"setup.{name}.busy_s"] = busy
    out["trace.overhead_frac"] = overhead_frac
    out["trace.spans_per_op"] = len(op_spans) / n
    out["trace.ops"] = float(traced_ops)

    missing = [m for m, _, _ in LAYER_METRICS if m not in out]
    if missing:
        raise KeyError(f"layer metrics not computed: {missing}")
    return out
