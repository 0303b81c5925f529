"""The verdict of scripts/bench_pairs.py, on synthetic runs, and the side-by-side
imports of scripts/bench_inprocess.py."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "docs_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]


def runs_of(workload, seed, parent, change, rss=(50.0, 50.0), metric="docs_per_s"):
    """Untraced runs, one pair per (parent, change) value of ``metric``."""
    runs = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value, mb in zip(("parent", "change"), values, rss):
            runs.append({"workload": workload, "seed": seed, "trace": 0, "side": side,
                         "pair": pair, "metrics": {metric: value, "peak_rss_mb": mb}})
    return runs


def read(runs, claim="rore-link", metric="docs_per_s"):
    summary = bench_pairs.summarize(runs)
    return bench_pairs.verdict(summary, runs, claim, END_TO_END, metric)


PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


def test_claim_met_with_nine_wins_and_a_gain_above_the_parent_spread():
    change = [110.0] * 9 + [97.0]
    out = read(runs_of("rore-link", 0, PARENT, change)
               + runs_of("rore-link", 1, [100.0, 100.0, 100.0], [111.0, 112.0, 113.0]))
    seed0 = out["claim"]["rore-link seed 0"]
    assert (seed0["wins"], seed0["pairs"]) == (9, 10)
    assert seed0["median_gain"] == pytest.approx(110.0 - 100.0)
    assert seed0["parent_iqr"] == pytest.approx(100.875 - 99.125)  # inclusive quartiles
    assert seed0["met"]
    assert out["claim"]["rore-link seed 1"]["met"]


@pytest.mark.parametrize(
    "change",
    [[110.0] * 8 + [97.0, 96.0], [value + 0.5 for value in PARENT]],
    ids=["eight-wins", "gain-inside-spread"],
)
def test_claim_not_met(change):
    seed0 = read(runs_of("rore-link", 0, PARENT, change))["claim"]["rore-link seed 0"]
    assert seed0["wins"] == (8 if change[0] == 110.0 else 10)
    assert not seed0["met"]


SETUP_PARENT = [0.155, 0.151, 0.160, 0.153, 0.158, 0.154, 0.156, 0.152, 0.159, 0.155]


def test_claim_on_a_lower_is_better_metric_is_won_by_the_smaller_value():
    faster = [0.130] * 9 + [0.157]
    out = read(runs_of("rop-train", 0, SETUP_PARENT, faster, metric="setup_s"),
               claim="rop-train", metric="setup_s")
    seed0 = out["claim"]["rop-train seed 0"]
    assert seed0["metric"] == "setup_s"
    assert (seed0["wins"], seed0["pairs"]) == (9, 10)
    assert seed0["median_gain"] == pytest.approx(0.155 - 0.130)
    assert seed0["met"]
    setup = out["end_to_end"]["rop-train seed 0"]["setup_s"]
    assert setup["ratio"] == pytest.approx(0.155 / 0.130) and setup["within_bound"]
    slower = [value + 0.02 for value in SETUP_PARENT]
    seed0 = read(runs_of("rop-train", 0, SETUP_PARENT, slower, metric="setup_s"),
                 claim="rop-train", metric="setup_s")["claim"]["rop-train seed 0"]
    assert seed0["wins"] == 0 and seed0["median_gain"] < 0 and not seed0["met"]


def test_held_out_seed_needs_every_pair():
    out = read(runs_of("rore-link", 1, [100.0, 100.0, 101.0], [120.0, 120.0, 99.0]))
    assert out["claim"]["rore-link seed 1"]["wins"] == 2
    assert not out["claim"]["rore-link seed 1"]["met"]


def test_bounds_are_oriented_by_better():
    runs = (runs_of("rop-train", 0, [100.0] * 3, [80.0] * 3, rss=(50.0, 54.0))
            + runs_of("rop-predict", 0, [100.0] * 3, [70.0] * 3, rss=(50.0, 56.0))
            + runs_of("relations-eval", 0, [100.0] * 3, [130.0] * 3, rss=(50.0, 40.0)))
    out = read(runs, claim=None)
    assert out["claim"] is None
    train = out["end_to_end"]["rop-train seed 0"]
    assert train["docs_per_s"]["ratio"] == pytest.approx(0.8)
    assert train["docs_per_s"]["within_bound"]
    assert train["peak_rss_mb"]["ratio"] == pytest.approx(50.0 / 54.0)
    assert train["peak_rss_mb"]["within_bound"]
    predict = out["end_to_end"]["rop-predict seed 0"]
    assert not predict["docs_per_s"]["within_bound"]
    assert not predict["peak_rss_mb"]["within_bound"]
    relations = out["end_to_end"]["relations-eval seed 0"]
    assert relations["docs_per_s"]["ratio"] == pytest.approx(1.3)
    assert relations["peak_rss_mb"]["ratio"] == pytest.approx(1.25)
    assert relations["docs_per_s"]["within_bound"] and relations["peak_rss_mb"]["within_bound"]


def test_src_lines_counts_the_package_modules_of_each_checkout(tmp_path):
    files = {
        "parent": {"a.py": "x = 1\ny = 2\n\n", "b.py": "z = 3\n", "notes.txt": "n\n" * 9},
        "change": {"a.py": "x = 1\n", "tests.md": "t\n"},
    }
    sides = {}
    for side, contents in files.items():
        package = tmp_path / side / "src" / "rorokit"
        package.mkdir(parents=True)
        for name, text in contents.items():
            (package / name).write_text(text, encoding="utf-8")
        (tmp_path / side / "outside.py").write_text("w = 0\n" * 5, encoding="utf-8")
        sides[side] = tmp_path / side
    assert bench_pairs.src_lines(sides) == {"parent": 4, "change": 1, "delta": -3}


INPROCESS = Path(__file__).resolve().parents[1] / "scripts" / "bench_inprocess.py"
spec = importlib.util.spec_from_file_location("bench_inprocess", INPROCESS)
bench_inprocess = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_inprocess)
SRC = Path(__file__).resolve().parents[1] / "src" / "rorokit"


def test_inprocess_sides_are_distinct_packages():
    import rorokit

    one = bench_inprocess.load_package(SRC, "rorokit_side_one")
    two = bench_inprocess.load_package(SRC, "rorokit_side_two")
    for name in ("rop", "nn", "layout", "relations"):
        modules = {id(rorokit), id(one), id(two)}
        modules |= {id(getattr(package, name)) for package in (rorokit, one, two)}
        assert len(modules) == 6, name
    assert one.rop.__name__ == "rorokit_side_one.rop"
    assert len({id(package.ROPModel) for package in (rorokit, one, two)}) == 3
    assert one.nn.attention is not two.nn.attention


def test_inprocess_side_compared_with_itself_reads_one_within_its_spread():
    # Both sides step through the same fixed rates, so the medians agree and
    # the verdict arithmetic is read without depending on host timing.
    rates = [90.0, 110.0, 100.0, 95.0, 105.0, 120.0, 80.0]

    def stub():
        values = iter(rates)
        return lambda: (next(values), ["same outputs"])

    steps = {side: stub() for side in bench_inprocess.SIDES}
    runs, equal = bench_inprocess.alternate(steps, rounds=len(rates))
    assert [r["side"] for r in runs[:4]] == ["parent", "change", "change", "parent"]
    out = bench_inprocess.report(runs, END_TO_END, equal)
    assert out["outputs_equal"]
    row = out["end_to_end"]["rop-predict seed 0"]["docs_per_s"]
    parent, change = row["parent"], row["change"]
    assert parent["n"] == change["n"] == len(rates)
    assert row["change_over_parent"] == 1.0
    assert parent["q3"] - parent["q1"] > 0
    claim = out["verdict"]["claim"]["rop-predict seed 0"]
    assert claim["pairs"] == len(rates) and claim["wins"] == 0 and not claim["met"]
    assert out["verdict"]["end_to_end"]["rop-predict seed 0"]["docs_per_s"]["within_bound"]


def test_inprocess_rop_predict_steps_give_equal_outputs_on_both_sides(tmp_path):
    packages = {
        side: bench_inprocess.load_package(SRC, f"rorokit_self_{side}")
        for side in bench_inprocess.SIDES
    }
    steps = bench_inprocess.rop_predict_steps(packages, tmp_path, pages=6, train_docs=20)
    runs, equal = bench_inprocess.alternate(steps, rounds=2)
    assert equal
    assert len(runs) == 4
    assert all(r["metrics"]["docs_per_s"] > 0 for r in runs)
