"""No library code that nothing runs: every module-level function and public
method in the package is referenced in the package outside its own
definition (a method or property only through an attribute access such as
``x.name``, since a local variable of the same name does not reach it), and
every optional parameter is passed by some call in the package or the
benchmark, or is kept by a named consumer below."""

import ast
import pathlib

import fermatmf

PACKAGE = pathlib.Path(fermatmf.__file__).parent
BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# name -> the acceptance criterion, benchmark workload or test oracle that
# keeps a definition the package itself never calls; a planned item keeps
# nothing, so no reason cites the ROADMAP
_KEPT = {
    "equiv.pairwise_distinctness":
        "acceptance criterion 04; benchmark workload sweep",
    "families.five_points_example": "acceptance criterion 09",
    "field.FieldElement.value":
        "the moduli oracle _numeric in perfbench/workloads.py",
    "matrix.pfaffian_vector": "acceptance criterion 09",
    "moduli6.equation_values":
        "acceptance criterion 06; benchmark workload moduli",
    "moduli6.chart_transport": "acceptance criterion 08",
    "moduli6.pfaffian_sign_flip": "acceptance criterion 10",
    "moduli6.decompose_if_gamma_zero": "acceptance criterion 10",
    "poly.Polynomial.eval":
        "acceptance criterion 09; the oracle of `restrict` in test_poly",
}


def _definitions(module, tree):
    """(qualified name, node) of each module-level function and each
    public method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield "%s.%s" % (module, node.name), node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield "%s.%s.%s" % (module, node.name, item.name), item


def test_every_definition_is_referenced_or_kept():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    # name -> the ids of the Name nodes, and of the attribute nodes, that
    # say it
    names, attributes = {}, {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append(id(node))
    unreferenced = set()
    for module, tree in trees.items():
        for qualname, node in _definitions(module, tree):
            own = {id(n) for n in ast.walk(node)}
            references = attributes.get(node.name, [])
            if qualname.count(".") == 1:
                references = references + names.get(node.name, [])
            if all(r in own for r in references):
                unreferenced.add(qualname)
    # a kept name that the package now calls should leave the table too
    assert sorted(unreferenced) == sorted(_KEPT)


def test_no_definition_is_kept_for_a_planned_item():
    assert [name for name, reason in _KEPT.items()
            if "ROADMAP" in reason] == []


# "name(parameter)" -> the consumer that keeps an optional parameter which
# no call in the package or the benchmark passes
_KEPT_OPTIONS = {}


def _passes(call, param, index, offset):
    """Does ``call`` pass ``param``, the index-th positional parameter (None
    for keyword-only) of a definition whose first ``offset`` parameters the
    call binds itself?"""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return index is not None and (
        any(isinstance(a, ast.Starred) for a in call.args)
        or len(call.args) > index - offset)


def test_every_optional_parameter_is_passed_or_kept():
    package = sorted(PACKAGE.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in package + sorted(BENCHMARK.glob("*.py"))}
    # (qualified name, node, parameters a call binds itself) of each
    # module-level function and each method in the package
    definitions = []
    for path in package:
        for node in trees[path].body:
            if isinstance(node, ast.FunctionDef):
                definitions.append(("%s.%s" % (path.stem, node.name), node, 0))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in item.decorator_list)
                        definitions.append(("%s.%s.%s" % (
                            path.stem, node.name, item.name), item,
                            0 if static else 1))
    names = [node.name for _, node, _ in definitions]
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = set()
    for qualname, node, offset in definitions:
        # a call by attribute names one method only if no other
        # definition shares its name
        if qualname.count(".") == 2 and names.count(node.name) != 1:
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        optional = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
        optional += [(None, p.arg) for p, default
                     in zip(args.kwonlyargs, args.kw_defaults)
                     if default is not None]
        for index, param in optional:
            if not any(_passes(call, param, index, offset)
                       for call in calls.get(node.name, ())):
                unpassed.add("%s(%s)" % (qualname, param))
    assert sorted(unpassed) == sorted(_KEPT_OPTIONS)
