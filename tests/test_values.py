"""The value-type contract: qfix's records compare, hash and print by their fields.

The value types compare and hash field-wise over the fields listed in
`FIELDS`, and print as `Name(field=value, ...)` over the same fields.
Caches and derived arrays stay out of all three.  Every record that the
package treats as immutable refuses attribute assignment and deletion.  No
class is a dataclass, so importing qfix runs no generated code.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qfix
from _oracles import IdentityQuantizer, uniform_wmax_spec
from qfix.engine import BlockMapping, BoundCertificate, QuantizerBank
from qfix.mimo import ChannelSet, GameConfig, ModulusEstimate, StrategyProfile, paper_style_game
from qfix.norms import BlockPartition, BoxDomain, Lp, NormSpec, WeightedMax
from qfix.ticoq import DesignConstants, OracleResult, RateAllocation, ticoq_frontier

# The fields each value type compares, hashes and prints, in order.
FIELDS = {
    BlockPartition: ("block_sizes",),
    WeightedMax: ("a",),
    Lp: ("p",),
    NormSpec: ("block_weights", "per_block"),
    BoxDomain: ("lo", "hi"),
    GameConfig: ("num_links", "num_antennas", "distances", "gamma", "power_dbm", "noise_power", "seed"),
    DesignConstants: ("kind", "const", "sizes", "p", "blocks"),
    RateAllocation: ("total_bits", "bits", "integer_value", "family"),
    ModulusEstimate: ("alpha_hat", "certified", "max_ratio", "samples", "safety"),
    OracleResult: ("allocation", "value", "ties"),
    QuantizerBank: ("blocks",),
    BlockMapping: ("fn", "partition", "domain", "norm", "modulus", "group_fn"),
}

_POS = st.floats(1e-3, 1e3)
_QUANTIZERS = [IdentityQuantizer(1), IdentityQuantizer(1), IdentityQuantizer(2)]
_PART2 = BlockPartition([1, 1])
_BOX2 = BoxDomain([[-1.0, 1.0], [-1.0, 1.0]])
_SPEC2 = uniform_wmax_spec(_PART2)
_FNS = [lambda x: 0.5 * x, lambda x: -0.5 * x]
_GROUP_FNS = [None, lambda k: lambda x: 0.5 * x[_PART2.block_index(k)]]


@st.composite
def _norm_spec(draw):
    k = draw(st.integers(1, 3))
    norms = st.one_of(st.lists(_POS, min_size=1, max_size=3).map(WeightedMax), st.floats(1.0, 8.0).map(Lp))
    return {
        "block_weights": draw(st.lists(_POS, min_size=k, max_size=k)),
        "per_block": draw(st.lists(norms, min_size=k, max_size=k)),
    }


@st.composite
def _box(draw):
    lo = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4))
    widths = draw(st.lists(st.floats(0.0, 10.0), min_size=len(lo), max_size=len(lo)))
    return {"intervals": [(a, a + w) for a, w in zip(lo, widths)]}


@st.composite
def _game(draw):
    K, N = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row = st.lists(st.floats(10.0, 1000.0), min_size=K, max_size=K)
    dbm = st.floats(-10.0, 30.0)
    return {
        "num_links": K, "num_antennas": N,
        "distances": draw(st.lists(row, min_size=K, max_size=K)),
        "gamma": draw(st.floats(2.0, 4.0)),
        "power_dbm": draw(st.one_of(dbm, st.lists(dbm, min_size=K, max_size=K))),
        "noise_power": draw(st.one_of(st.none(), st.floats(1e-15, 1e-10))),
        "seed": draw(st.integers(0, 9)),
    }


@st.composite
def _design(draw):
    kind = draw(st.sampled_from(["sq-wmax", "sq-lp", "vq"]))
    blocks = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    entries = len(blocks) if kind == "vq" else sum(blocks)
    doc = {
        "kind": kind,
        "const": tuple(draw(st.lists(_POS, min_size=entries, max_size=entries))),
        "sizes": blocks if kind == "vq" else (1,) * entries,
    }
    if kind == "sq-lp":
        doc.update(p=draw(st.floats(1.0, 4.0)), blocks=blocks)
    return doc


@st.composite
def _allocation(draw):
    family = DesignConstants(**draw(_design()))
    n = len(family.const)
    bits = tuple(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    return {"total_bits": sum(bits), "bits": bits, "integer_value": draw(_POS), "family": family}


_ALLOCS = st.lists(st.integers(0, 5), min_size=1, max_size=3).map(tuple)
KWARGS = {
    BlockPartition: st.fixed_dictionaries({"block_sizes": _ALLOCS.map(lambda a: [b + 1 for b in a])}),
    WeightedMax: st.fixed_dictionaries({"a": st.lists(_POS, min_size=1, max_size=4)}),
    Lp: st.fixed_dictionaries({"p": st.one_of(st.floats(1.0, 8.0), st.integers(1, 8))}),
    NormSpec: _norm_spec(),
    BoxDomain: _box(),
    GameConfig: _game(),
    DesignConstants: _design(),
    RateAllocation: _allocation(),
    ModulusEstimate: st.fixed_dictionaries({
        "alpha_hat": st.floats(0.0, 2.0), "certified": st.booleans(), "max_ratio": st.floats(0.0, 2.0),
        "samples": st.integers(2, 100), "safety": st.floats(1.0, 1.1),
    }),
    OracleResult: st.fixed_dictionaries({
        "allocation": _ALLOCS, "value": _POS, "ties": st.none() | st.lists(_ALLOCS, max_size=3).map(tuple),
    }),
    QuantizerBank: st.fixed_dictionaries({"blocks": st.lists(st.sampled_from(_QUANTIZERS), min_size=1)}),
    BlockMapping: st.fixed_dictionaries({
        "fn": st.sampled_from(_FNS), "partition": st.just(_PART2), "domain": st.just(_BOX2),
        "norm": st.just(_SPEC2), "modulus": st.floats(0.0, 0.99), "group_fn": st.sampled_from(_GROUP_FNS),
    }),
}
VALUE_TYPES = list(FIELDS)


def _name(cls) -> str:
    return cls.__name__


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=_name)
@given(data=st.data())
def test_equal_constructions_compare_and_hash_equal(cls, data):
    kwargs = data.draw(KWARGS[cls])
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=_name)
@given(data=st.data())
def test_values_are_equal_exactly_when_every_field_is(cls, data):
    a, b = cls(**data.draw(KWARGS[cls])), cls(**data.draw(KWARGS[cls]))
    same = all(getattr(a, name) == getattr(b, name) for name in FIELDS[cls])
    assert (a == b) is same and (a != b) is not same
    if same:
        assert hash(a) == hash(b)


_FAMILY = DesignConstants("sq-lp", (1.0, 2.0, 4.0), (1, 1, 1), 2.0, (2, 1))
# One construction per value type, then per field one that differs from it in that field, and in
# no other unless the constructor's checks tie them (a game's link count and its distances).
VARIANTS = {
    BlockPartition: [((2, 1),), ((1, 2),)],
    WeightedMax: [((1.0, 0.25),), ((1.0, 0.5),)],
    Lp: [(2.0,), (3.0,)],
    NormSpec: [
        ((1.0, 2.0), (Lp(2.0), WeightedMax([1.0]))),
        ((1.0, 0.5), (Lp(2.0), WeightedMax([1.0]))),
        ((1.0, 2.0), (Lp(2.5), WeightedMax([1.0]))),
    ],
    BoxDomain: [([(-1.0, 1.0), (0.0, 4.0)],), ([(-2.0, 1.0), (0.0, 4.0)],), ([(-1.0, 1.0), (0.0, 3.0)],)],
    GameConfig: [
        (2, 2, [[100.0, 200.0], [500.0, 100.0]], 3.5, 10.0, 1e-13, 0),
        (1, 2, [[100.0]], 3.5, 10.0, 1e-13, 0),
        (2, 1, [[100.0, 200.0], [500.0, 100.0]], 3.5, 10.0, 1e-13, 0),
        (2, 2, [[100.0, 200.0], [400.0, 100.0]], 3.5, 10.0, 1e-13, 0),
        (2, 2, [[100.0, 200.0], [500.0, 100.0]], 3.0, 10.0, 1e-13, 0),
        (2, 2, [[100.0, 200.0], [500.0, 100.0]], 3.5, [10.0, 12.0], 1e-13, 0),
        (2, 2, [[100.0, 200.0], [500.0, 100.0]], 3.5, 10.0, 2e-13, 0),
        (2, 2, [[100.0, 200.0], [500.0, 100.0]], 3.5, 10.0, 1e-13, 1),
    ],
    DesignConstants: [
        ("sq-lp", (1.0, 2.0, 4.0), (1, 1, 1), 2.0, (2, 1)),
        ("sq-wmax", (1.0, 2.0, 4.0), (1, 1, 1), 2.0, (2, 1)),
        ("sq-lp", (1.0, 2.0, 3.0), (1, 1, 1), 2.0, (2, 1)),
        ("sq-lp", (1.0, 2.0, 4.0), (1, 1, 2), 2.0, (2, 1)),
        ("sq-lp", (1.0, 2.0, 4.0), (1, 1, 1), 3.0, (2, 1)),
        ("sq-lp", (1.0, 2.0, 4.0), (1, 1, 1), 2.0, (1, 2)),
    ],
    RateAllocation: [
        (3, (1, 1, 1), 0.5, _FAMILY),
        (4, (1, 1, 2), 0.5, _FAMILY),
        (3, (2, 0, 1), 0.5, _FAMILY),
        (3, (1, 1, 1), 0.25, _FAMILY),
        (3, (1, 1, 1), 0.5, DesignConstants("sq-lp", (1.0, 2.0, 4.0), (1, 1, 1), 2.0, (1, 2))),
    ],
    ModulusEstimate: [
        (0.84, True, 0.8, 50, 1.05),
        (0.85, True, 0.8, 50, 1.05),
        (0.84, False, 0.8, 50, 1.05),
        (0.84, True, 0.7, 50, 1.05),
        (0.84, True, 0.8, 40, 1.05),
        (0.84, True, 0.8, 50, 1.06),
    ],
    OracleResult: [((1, 2), 0.5, None), ((2, 1), 0.5, None), ((1, 2), 0.25, None), ((1, 2), 0.5, ((1, 2),))],
    QuantizerBank: [(_QUANTIZERS[:2],), (_QUANTIZERS[1:],)],
    BlockMapping: [
        (_FNS[0], _PART2, _BOX2, _SPEC2, 0.5, _GROUP_FNS[1]),
        (_FNS[1], _PART2, _BOX2, _SPEC2, 0.5, _GROUP_FNS[1]),
        (_FNS[0], BlockPartition([2]), _BOX2, uniform_wmax_spec(BlockPartition([2])), 0.5, _GROUP_FNS[1]),
        (_FNS[0], _PART2, BoxDomain([[-2.0, 1.0], [-1.0, 1.0]]), _SPEC2, 0.5, _GROUP_FNS[1]),
        (_FNS[0], _PART2, _BOX2, NormSpec([1.0, 2.0], _SPEC2.per_block), 0.5, _GROUP_FNS[1]),
        (_FNS[0], _PART2, _BOX2, _SPEC2, 0.25, _GROUP_FNS[1]),
        (_FNS[0], _PART2, _BOX2, _SPEC2, 0.5, None),
    ],
}


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=_name)
def test_a_changed_field_compares_unequal(cls):
    base, *changed = (cls(*args) for args in VARIANTS[cls])
    assert len(changed) == len(FIELDS[cls])  # one variant per field
    for name, other in zip(FIELDS[cls], changed):
        differs = [f for f in FIELDS[cls] if getattr(base, f) != getattr(other, f)]
        assert differs[0] == name
        assert base != other and not base == other


def _frozen_instances():
    """One instance of every record the package treats as immutable, with a field of it."""
    part, spec = BlockPartition([1, 1]), NormSpec([1.0, 1.0], [Lp(2.0), Lp(2.0)])
    return [(cls(*VARIANTS[cls][0]), FIELDS[cls][0]) for cls in VALUE_TYPES] + [
        (BoundCertificate(np.ones(2, dtype=bool), np.ones(2), np.zeros(2)), "ok"),
        (ChannelSet.generate(paper_style_game(0)), "game"),
        (StrategyProfile([np.eye(2)]), "covariances"),
        (ticoq_frontier(part, spec, BoxDomain([[0.0, 1.0]] * 2), 4, "sq-lp"), "family"),
    ]


@pytest.mark.parametrize("value, field", _frozen_instances(), ids=lambda p: p if isinstance(p, str) else type(p).__name__)
def test_frozen_records_refuse_assignment_and_deletion(value, field):
    before = getattr(value, field)
    for name in (field, "new_attribute"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 1)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    assert getattr(value, field) is before and not hasattr(value, "new_attribute")


_ARRAY_RECORDS = {
    "BoundCertificate": lambda: BoundCertificate(np.ones(2, dtype=bool), np.ones(2), np.zeros(2)),
    "ChannelSet": lambda: ChannelSet.generate(paper_style_game(3)),
    "StrategyProfile": lambda: StrategyProfile([np.eye(2), np.eye(2)]),
    "RateFrontier": lambda: ticoq_frontier(
        BlockPartition([1, 1]), NormSpec([1.0, 1.0], [Lp(2.0), Lp(2.0)]), BoxDomain([[0.0, 1.0]] * 2), 4, "sq-lp"
    ),
}


@pytest.mark.parametrize("make", list(_ARRAY_RECORDS.values()), ids=list(_ARRAY_RECORDS))
def test_records_of_arrays_equal_only_themselves(make):
    """Field-wise == over arrays raised "truth value of an array is ambiguous", and hash raised TypeError."""
    value, twin = make(), make()
    assert value == value and not value != value
    assert value != twin and not value == twin
    assert hash(value) == hash(value) and len({value, twin, value}) == 2


def test_caches_stay_out_of_equality_hash_and_repr():
    """A spec whose layout cache is filled, and a game whose profile space is built, equal fresh ones."""
    part = BlockPartition([2, 1])
    spec = NormSpec([1.0, 2.0], [WeightedMax([1.0, 0.5]), Lp(3.0)])
    spec._layout(part)
    fresh = NormSpec([1.0, 2.0], [WeightedMax([1.0, 0.5]), Lp(3.0)])
    assert spec._layouts and not fresh._layouts
    game = paper_style_game(1)
    game._space
    for used, new in ((spec, fresh), (game, paper_style_game(1))):
        assert used == new and hash(used) == hash(new) and repr(used) == repr(new)


def test_values_print_as_their_constructor_fields():
    spec = NormSpec((1.5, 2.0), (WeightedMax([1.0, 0.25]), Lp(3.0)))
    assert repr(spec) == (
        "NormSpec(block_weights=(1.5, 2.0), per_block=(WeightedMax(a=(1.0, 0.25)), Lp(p=3.0)))"
    )
    assert repr(BlockPartition([2, 1])) == "BlockPartition(block_sizes=(2, 1))"
    assert repr(BoxDomain([[-1, 1]])) == "BoxDomain(lo=(-1.0,), hi=(1.0,))"
    assert repr(OracleResult((1, 2), 0.5)) == "OracleResult(allocation=(1, 2), value=0.5, ties=None)"
    assert repr(DesignConstants("vq", (1.0,), (2,))) == (
        "DesignConstants(kind='vq', const=(1.0,), sizes=(2,), p=1.0, blocks=None)"
    )
    message = "unsupported per-block norm BlockPartition(block_sizes=(1,))"
    with pytest.raises(TypeError, match=re.escape(message)):
        NormSpec([1.0], [BlockPartition([1])])


def test_no_qfix_class_is_a_dataclass():
    """Importing qfix defines its classes with no generated code."""
    modules = [importlib.import_module(f"qfix.{info.name}") for info in pkgutil.iter_modules(qfix.__path__)]
    classes = [
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__
    ]
    assert len(classes) >= 19
    assert [cls.__qualname__ for cls in classes if dataclasses.is_dataclass(cls)] == []
