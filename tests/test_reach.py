"""The library keeps only what the product reaches: every public module-level
function and class of the package is named by the package itself or by the
benchmark, so no code is there that only the tests call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toposlsc"
# the independent oracles tests compare the product against
ORACLES = ("regex_member", "is_dedekind")


def _trees(paths):
    return [ast.parse(path.read_text(), str(path)) for path in paths]


def test_every_public_definition_is_reached_from_the_package_or_the_benchmark():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    defined = {node.name for tree in _trees(modules) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    named = set()
    for tree in _trees(modules + sorted((ROOT / "perfbench").glob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert set(ORACLES) <= defined
    assert sorted(defined - named - set(ORACLES)) == []
