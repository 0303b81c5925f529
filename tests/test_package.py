import ast
from pathlib import Path

import rorokit


def test_every_exported_name_resolves_once():
    # A name left in __all__ after its removal fails only `from rorokit import *`.
    assert [name for name in rorokit.__all__ if not hasattr(rorokit, name)] == []
    assert len(set(rorokit.__all__)) == len(rorokit.__all__)


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rorokit"

# Defined in src/ for what is planned, not yet reached from a caller.
UNREACHED_ALLOWED = {
    # ROADMAP items 6 and 12 build their permutation arms on it.
    "relations.topological_linearization",
}


def defined_names():
    """(module.qualified name, bare name) of each public module-level function
    and class in src/rorokit and each non-dunder method of its classes."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_every_src_name_has_a_caller_outside_the_unit_tests():
    """Each public function, class and non-dunder method of src/rorokit is
    named, as an AST name or attribute, by src/rorokit outside __init__.py,
    scripts/, perfbench/ or tests/test_acceptance.py: no helper stays that
    only the unit tests reach.

    The check matches bare names, so it cannot see two things: dunders,
    which are reached by syntax rather than by name, and a name that some
    other object also has: ``Relation.empty``, while only tests called it,
    passed because ``np.empty`` uses the name ``empty``.
    """
    sources = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py"))
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    sources.append(ROOT / "tests" / "test_acceptance.py")
    referenced = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreached = {qual for qual, name in defined_names() if name not in referenced}
    assert unreached == UNREACHED_ALLOWED
