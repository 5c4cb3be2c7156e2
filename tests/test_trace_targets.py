"""The benchmark's tracer finds every function and method it traces in the loaded package."""

import importlib.util
from pathlib import Path

from qfix import cli, engine, linalg, mimo, norms, squant, ticoq, tvcoq, vquant  # noqa: F401  (every layer loaded)

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists_and_is_wrapped():
    """A renamed or deleted traced function (`mimo.waterfill`, `interference_covariance`, ...) would
    leave its layer's counts at zero; install() lists it as missing, and the benchmark's gate
    asks for none. Installing also fails if an unwrapped alias of a target is left anywhere."""
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert mimo.waterfill.__wrapped__.__module__ == "qfix.mimo"
    finally:
        tracer.uninstall()
    assert not hasattr(mimo.waterfill, "__wrapped__")


def test_a_sequential_tick_is_one_traced_waterfill():
    """The game map's block function goes through `mimo.waterfill`, so the `mimo.waterfill` rows time
    the best responses of sequential ticks: one span per block evaluation, inside it."""
    game = mimo.paper_style_game(seed=0)
    mapping = mimo.game_mapping(mimo.ChannelSet.generate(game), 0.5)
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for k in range(game.num_links):
            mapping.eval_block(k, game._space.start)
        mapping.eval_full(game._space.start)
    finally:
        tracer.uninstall()
    names = {sid: name for sid, _, _, name, *_ in tracer.spans}
    parents = [names.get(parent) for _, parent, _, name, *_ in tracer.spans if name == "mimo.waterfill"]
    assert parents == ["engine.BlockMapping.eval_block"] * game.num_links
