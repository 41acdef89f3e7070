"""The runtime is stdlib-only: every import in the package names a standard
library module or the package itself."""

import ast
import pathlib
import sys

import fermatmf

PACKAGE = pathlib.Path(fermatmf.__file__).parent


def _imported_top_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_the_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    foreign = {}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        names = set(_imported_top_names(tree))
        names -= set(sys.stdlib_module_names) | {"fermatmf"}
        if names:
            foreign[path.name] = sorted(names)
    assert foreign == {}
