"""M-types are types and label tuples are values: the circuit language uses
the term language's classes, under one name each."""

from __future__ import annotations

import inspect
import pkgutil
from collections import defaultdict
from importlib import import_module

import pqk
import pqk.circuit
import pqk.syntax
import pqk.trees
from pqk.syntax import LabelVal, Pair, PqkType, Unit, Value, format_value

# Second names that bench/ still imports; they go with the next benchmark change.
BENCH_ALIASES = {"MLabel", "TreeLeaf", "TreeNode"}


def _modules():
    return [import_module(f"pqk.{info.name}") for info in pkgutil.iter_modules(pqk.__path__)]


def test_one_name_for_each_class_and_constant():
    names: dict[object, set[str]] = defaultdict(set)
    for module in [pqk, *_modules()]:
        for name, obj in vars(module).items():
            if name in BENCH_ALIASES:
                continue
            if (inspect.isclass(obj) and obj.__module__.startswith("pqk.")) or isinstance(obj, (PqkType, Value)):
                names[obj].add(name)
    assert {obj: n for obj, n in names.items() if len(n) > 1} == {}
    assert pqk.circuit.MLabel is pqk.syntax.LabelVal
    assert pqk.trees.TreeLeaf is pqk.trees.LiftedLeaf
    assert pqk.trees.TreeNode is pqk.trees.LiftedNode


def test_no_second_copy_or_translation():
    m_classes = {"MType", "MValue", "MUnit", "MWire", "MTensor", "MUnitVal", "MLabel", "MPair"}
    gone = {"embed_mtype", "as_mtype", "value_to_mvalue", "mvalue_to_value",
            "format_mtype", "mtype_to_json", "mtype_from_json"}
    for module in _modules():
        defined = {obj.__name__ for obj in vars(module).values()
                   if (inspect.isclass(obj) or inspect.isfunction(obj))
                   and obj.__module__ == module.__name__}
        assert not defined & (m_classes | gone), module.__name__


def test_str_of_a_value_is_its_surface_text():
    v = Pair(Pair(LabelVal("a"), Unit()), LabelVal("b"))
    assert str(v) == format_value(v) == "((a, *), b)"
