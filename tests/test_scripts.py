"""The experiment runner runs every experiment end to end on a small corpus.

``scripts/run_experiments.py``'s ``main`` runs in-process on 40 documents,
two epochs and two seeds, so a rename in the package that breaks the runner
fails here.
"""

import contextlib
import importlib.util
import io
import json
import statistics
from pathlib import Path

import pytest

from rorokit.layout import derive_word_level
from rorokit.metrics import corpus_f1, heuristic_word_relation
from rorokit.synth import SynthConfig, synth_generate

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
EXPERIMENTS = ["rop", "rop-word", "rore"]
SEEDS = [0, 1]
ARGV = [*EXPERIMENTS, "--n-docs", "40", "--epochs", "2", "--seeds", *map(str, SEEDS)]


def load_runner():
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPTS / "run_experiments.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_runner(out):
    """The report bytes and stdout of one run with ``ARGV``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert load_runner().main([*ARGV, "--out", str(out)]) == 0
    return out.read_bytes(), stdout.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_runner(tmp_path_factory.mktemp("runner") / "report.json")


@pytest.fixture(scope="module")
def report(outputs):
    return json.loads(outputs[0])


def rows_of(report, experiment, seed):
    (run,) = [r for r in report["runs"] if (r["experiment"], r["seed"]) == (experiment, seed)]
    return {(row["arm"], row["subset"]): row["metrics"] for row in run["rows"]}


def test_report_keys(report):
    assert set(report) == {"runs", "summary"}
    for run in report["runs"]:
        assert set(run) == {"experiment", "seed", "n_docs", "epochs", "rows"}
        assert (run["n_docs"], run["epochs"]) == (40, 2)
        for row in run["rows"]:
            assert set(row) == {"arm", "subset", "metrics"}
    for entry in report["summary"]:
        assert set(entry) == {"experiment", "arm", "subset", "metric",
                              "mean", "min", "max", "seeds"}


def test_one_row_set_per_experiment_and_seed(report):
    assert [(run["experiment"], run["seed"]) for run in report["runs"]] == [
        (experiment, seed) for experiment in EXPERIMENTS for seed in SEEDS
    ]
    assert all(run["rows"] for run in report["runs"])


def test_summary_is_the_spread_of_the_per_seed_rows(report):
    values = {}
    for run in report["runs"]:
        for row in run["rows"]:
            for metric, value in row["metrics"].items():
                key = (run["experiment"], row["arm"], row["subset"], metric)
                values.setdefault(key, []).append(value)
    summary = {(e["experiment"], e["arm"], e["subset"], e["metric"]): e
               for e in report["summary"]}
    assert summary.keys() == values.keys()
    for key, seen in values.items():
        entry = summary[key]
        assert entry["seeds"] == len(seen) == len(SEEDS)
        assert (entry["min"], entry["max"]) == (min(seen), max(seen))
        assert entry["mean"] == statistics.fmean(seen)


@pytest.mark.parametrize("experiment", ["rop", "rop-word"])
def test_rop_scores_both_arms_on_every_layout_kind(report, experiment):
    for seed in SEEDS:
        rows = rows_of(report, experiment, seed)
        assert list(rows)[0] == ("model", "validation")
        assert rows[("model", "validation")]["epochs_run"] <= 2
        subsets = ["all", "chain", "grid", "two-column"]
        assert list(rows)[1:] == [(arm, s) for s in subsets for arm in ("heuristic", "model")]
        for s in subsets:
            assert rows[("heuristic", s)]["docs"] == rows[("model", s)]["docs"] > 0
            assert all(0.0 <= rows[(arm, s)]["f1"] <= 1.0 for arm in ("heuristic", "model"))
        kinds = sum(rows[("model", s)]["docs"] for s in subsets[1:])
        assert rows[("model", "all")]["docs"] == kinds


def test_rop_word_scores_word_level_gold(report):
    corpus = synth_generate(SynthConfig(n_docs=40), seed=0)
    test = corpus.subset("test")
    want = corpus_f1((derive_word_level(d), heuristic_word_relation(d)) for d in test)
    assert rows_of(report, "rop-word", 0)[("heuristic", "all")]["f1"] == want.f1


def test_rore_reports_its_three_arms(report):
    for seed in SEEDS:
        rows = rows_of(report, "rore", seed)
        assert list(rows) == [("vanilla", "test"), ("rore-gold", "test"), ("rore-pseudo", "test")]


def test_rore_refuses_vanilla_arms_that_disagree(monkeypatch):
    runner = load_runner()
    scores = iter([0.25, 0.5])

    def demo(corpus, config, pseudo_corpus=None):
        return {"f1_vanilla": next(scores), "f1_rore": 1.0}

    monkeypatch.setattr(runner, "rore_demo_entity_linking", demo)
    monkeypatch.setattr(runner, "train", lambda *args, **kwargs: (None, None))
    monkeypatch.setattr(runner, "predict_pseudo_labels", lambda model, corpus: (corpus, {}))
    with pytest.raises(RuntimeError, match="vanilla arm scored 0.25 and 0.5"):
        runner.rore(0, 40, 2)


def test_same_arguments_write_the_same_report_and_stdout(tmp_path, outputs):
    # Wall-clock time goes to stderr only.
    assert run_runner(tmp_path / "report.json") == outputs
