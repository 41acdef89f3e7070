"""Every value type is frozen one way: ``field._Frozen`` is the only class
in the package that defines ``__setattr__``, and every class whose
``__init__`` fills its slots through ``object.__setattr__`` inherits it."""

import ast
import pathlib

import fermatmf

PACKAGE = pathlib.Path(fermatmf.__file__).parent


def _classes():
    """(module, class node) of each class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield path.stem, node


def _methods(node, name):
    return [item for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == name]


def _sets_slots(function):
    """Does ``function`` call ``object.__setattr__``?"""
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "__setattr__"
               and isinstance(n.func.value, ast.Name)
               and n.func.value.id == "object"
               for n in ast.walk(function))


def test_only_the_frozen_base_defines_setattr():
    owners = ["%s.%s" % (module, node.name) for module, node in _classes()
              if _methods(node, "__setattr__")]
    assert owners == ["field._Frozen"]


def test_every_class_that_sets_its_own_slots_is_frozen():
    classes = list(_classes())
    names = [node.name for _, node in classes]
    assert len(names) == len(set(names))  # a base is found by its name
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for _, node in classes}

    def frozen(name):
        return name == "_Frozen" or any(frozen(b) for b in bases.get(name, ()))

    setters = {node.name: module for module, node in classes
               if any(_sets_slots(f) for f in _methods(node, "__init__"))}
    # the value types of every layer are seen
    assert {"PolyMatrix", "EquivalenceVerdict", "ModuliPoint",
            "FamilyId"} <= set(setters)
    assert sorted("%s.%s" % (module, name) for name, module in setters.items()
                  if not frozen(name)) == []
