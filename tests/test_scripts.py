"""The example scripts run end to end on a small corpus.

Each script's ``main`` runs in-process with a small corpus and two epochs,
so a rename in the package that breaks a script fails here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, keys",
    [
        ("run_rop_experiment", {"n_docs", "seed", "task_level", "epochs_run",
                                "best_val_f1", "subsets"}),
        ("run_rore_demo", {"n_docs", "seed", "f1_vanilla", "f1_rore_gold",
                           "f1_rore_pseudo"}),
    ],
)
def test_script_writes_its_report(tmp_path, name, keys):
    out = tmp_path / "report.json"
    argv = ["--n-docs", "40", "--epochs", "2", "--out", str(out)]
    assert load_script(name).main(argv) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report) == keys
    assert report["n_docs"] == 40


def test_rop_experiment_scores_every_layout_kind(tmp_path):
    out = tmp_path / "report.json"
    argv = ["--n-docs", "40", "--epochs", "2", "--out", str(out), "--quiet"]
    assert load_script("run_rop_experiment").main(argv) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))["subsets"]
    assert [row["subset"] for row in rows] == ["all", "chain", "grid", "two-column"]
    for row in rows:
        assert set(row) == {"subset", "docs", "model_f1", "heuristic_f1"}
        assert 0.0 <= row["model_f1"] <= 1.0 and 0.0 <= row["heuristic_f1"] <= 1.0


def test_rop_experiment_report_is_byte_stable(tmp_path, capsys):
    # Wall-clock time goes to stderr only: two same-seed runs write the same
    # report and print the same stdout.
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        argv = ["--n-docs", "40", "--epochs", "2", "--out", str(out), "--quiet"]
        assert load_script("run_rop_experiment").main(argv) == 0
        stdout = capsys.readouterr().out.replace(str(out), "REPORT")
        outputs.append((out.read_bytes(), stdout))
    assert outputs[0] == outputs[1]
