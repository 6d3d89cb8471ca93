"""Every module-level import of the package is read in its module."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "nhcontact"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_reads_every_import(module):
    tree = ast.parse((PACKAGE / module).read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert [name for name in bound if name not in read] == []


def test_package_all_lists_exactly_the_imported_names():
    # a stale entry breaks ``from nhcontact import *``; a missing one hides a name
    import nhcontact

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for a in node.names]
    assert sorted(nhcontact.__all__) == sorted(imported)
    assert len(set(nhcontact.__all__)) == len(nhcontact.__all__)


def test_numpy_is_the_only_runtime_dependency():
    # every import of the package, at module level or inside a function, is
    # relative, numpy or the standard library's
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []
