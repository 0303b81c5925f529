"""Every layer the benchmark's tracer wraps must exist in the package.

``perfbench/spans.py`` names its traced functions as (module, attribute)
strings; a rename in ``rorokit`` would otherwise surface only when a traced
benchmark run reports a layer it could not wrap.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_targets():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "TARGETS":
            return [
                (entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts
            ]
    raise AssertionError("TARGETS not found in perfbench/spans.py")


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert len(targets) >= 20
    missing = []
    for module_name, attr in targets:
        owner = importlib.import_module(f"rorokit.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
