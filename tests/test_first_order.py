"""M-types are types and label tuples are values: the circuit language uses
the term language's classes, under their old names too."""

from __future__ import annotations

import inspect
import pkgutil
from importlib import import_module

import pqk
import pqk.circuit
import pqk.syntax
from pqk.syntax import LabelVal, Pair, Unit, format_value

OLD_NAMES = {
    "MUnit": "UnitType",
    "MWire": "WireT",
    "MTensor": "TensorType",
    "MUnitVal": "Unit",
    "MLabel": "LabelVal",
    "MPair": "Pair",
}


def test_old_names_are_the_syntax_classes():
    for old, new in OLD_NAMES.items():
        assert getattr(pqk.circuit, old) is getattr(pqk.syntax, new)
    assert pqk.circuit.M_QUBIT == pqk.syntax.QUBIT_TYPE
    assert pqk.circuit.M_STAR == Unit()


def test_no_second_copy_or_translation():
    m_classes = {"MType", "MValue", *OLD_NAMES}
    gone = {"embed_mtype", "as_mtype", "value_to_mvalue", "mvalue_to_value",
            "format_mtype", "mtype_to_json", "mtype_from_json"}
    for info in pkgutil.iter_modules(pqk.__path__):
        module = import_module(f"pqk.{info.name}")
        defined = {obj.__name__ for obj in vars(module).values()
                   if (inspect.isclass(obj) or inspect.isfunction(obj))
                   and obj.__module__ == module.__name__}
        assert not defined & (m_classes | gone), module.__name__


def test_str_of_a_value_is_its_surface_text():
    v = Pair(Pair(LabelVal("a"), Unit()), LabelVal("b"))
    assert str(v) == format_value(v) == "((a, *), b)"
