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


def caller_sources():
    """The files whose calls count: src/rorokit outside __init__.py,
    scripts/, perfbench/ and tests/test_acceptance.py."""
    sources = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py"))
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    sources.append(ROOT / "tests" / "test_acceptance.py")
    return sources


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
    referenced = set()
    for path in caller_sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreached = {qual for qual, name in defined_names() if name not in referenced}
    assert unreached == UNREACHED_ALLOWED


# Parameter defaults that no caller outside the unit tests overrides.
UNSET_ALLOWED = {
    # ROADMAP items 6 and 12 break ties geometrically with it.
    "relations.topological_linearization.tie_key",
    # A primitive op from which the tests build reference composites.
    "autodiff.Tensor.mean.keepdims",
}


def defaulted_parameters():
    """(module.qualified name.parameter, callee name, parameter, position) of
    each parameter with a default of each public function in src/rorokit and
    of each public method and ``__init__`` of its public classes. A method's
    position does not count its first parameter, ``self`` or ``cls``; a
    keyword-only parameter has position None; the callee of ``__init__`` is
    its class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            public = not getattr(node, "name", "_").startswith("_")
            if public and isinstance(node, ast.FunctionDef):
                yield from _defaulted(f"{path.stem}.{node.name}", node.name, node, 0)
            elif public and isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        callee = node.name
                    elif item.name.startswith("_"):
                        continue
                    else:
                        callee = item.name
                    qual = f"{path.stem}.{node.name}.{item.name}"
                    yield from _defaulted(qual, callee, item, 1)


def _defaulted(qual, callee, function, bound):
    args = function.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional[first_default:], start=first_default):
        yield f"{qual}.{arg.arg}", callee, arg.arg, position - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{qual}.{arg.arg}", callee, arg.arg, None


def test_every_src_option_is_set_outside_the_unit_tests():
    """Each parameter with a default, of each public function, public method
    and ``__init__`` in src/rorokit, is passed, by position or by keyword, at
    some call in the files of ``caller_sources``: no option stays that only
    the unit tests set. A call with ``*args`` or ``**kwargs`` counts as
    passing every parameter.

    Like the name check above, it matches bare callee names (a call of
    ``x.scores(...)`` counts for every ``scores``, a call of ``Padding(...)``
    for ``Padding.__init__``), so a call of another function or method of
    the same name can hide an option that only tests set.
    """
    calls: dict[str, list[tuple[int, set, bool]]] = {}
    for path in caller_sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            keywords = {k.arg for k in node.keywords}
            starred = None in keywords or any(
                isinstance(a, ast.Starred) for a in node.args
            )
            calls.setdefault(name, []).append((len(node.args), keywords, starred))

    def is_set(callee, parameter, position):
        return any(
            starred or parameter in keywords
            or (position is not None and n_positional > position)
            for n_positional, keywords, starred in calls.get(callee, [])
        )

    unset = {
        qual
        for qual, callee, parameter, position in defaulted_parameters()
        if not is_set(callee, parameter, position)
    }
    assert unset == UNSET_ALLOWED


def test_every_python_file_parses_with_the_oldest_supported_grammar():
    """``requires-python`` is ">=3.10": every .py under src/, scripts/ and
    tests/ parses with Python 3.10's grammar, so no later syntax slips in
    where no 3.10 interpreter runs the suite."""
    paths = [path for top in ("src", "scripts", "tests")
             for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
