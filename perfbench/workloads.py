"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup``, does one
timed unit of work per ``step`` and checks each step's outputs in ``check``,
outside the timed region; ``finish`` sums up. Every call into the package
goes through a module attribute (``cli.main``, ``relations.is_acyclic``),
never a name imported into this file, so the tracer's wrappers see it.

A step is timed whole (a train or demo call, or a pass over the corpus) in
two clocks: wall seconds, which set the run length and are reported in the
detail record, and the reference seconds of ``hostclock``, which the gated
throughput comes from: the median over the run's steps of documents per
reference second.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional

import numpy as np

from rorokit import cli, layout, metrics, relations, rop, synth

import hostclock

# Gated timings read this clock; run.py starts it before the first set-up.
CLOCK = hostclock.HostClock()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(argv: list) -> None:
    """Run one rorokit subcommand in-process; raise when it fails."""
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"rorokit {argv[0]} exited with {code}")


def timed_cli(argv: list) -> tuple[float, float]:
    """Run a subcommand; return its (wall, reference) seconds."""
    wall, ref = time.perf_counter(), CLOCK.now()
    run_cli(argv)
    return time.perf_counter() - wall, CLOCK.now() - ref


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return path


def percentile(values: list, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


@dataclass
class Step:
    """One timed unit: wall and reference seconds, documents covered, outputs."""

    wall_s: float
    ref_s: float
    docs: int
    payload: Any = None


@dataclass
class Outcome:
    docs_per_s: float
    quality: float
    named: dict  # the workload's own metrics: name -> (value, unit)
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)


def rates(steps: list) -> tuple[float, float]:
    """Median documents per reference second and per wall second."""
    return (statistics.median(s.docs / s.ref_s for s in steps),
            statistics.median(s.docs / s.wall_s for s in steps))


class Workload:
    name = ""
    # Steps a run takes at least.
    min_steps = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.work = workdir
        self.work.mkdir(parents=True, exist_ok=True)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def setup(self) -> dict:
        """Build inputs; return digests of what was built."""
        raise NotImplementedError

    def start(self) -> None:
        """Called once before the measured steps."""

    def close(self) -> None:
        """Called once after the measured steps."""

    def step(self) -> Step:
        raise NotImplementedError

    def check(self, step: Step) -> None:
        raise NotImplementedError

    def enough(self, measured_s: float, steps: list, seconds: float) -> bool:
        return measured_s >= seconds and len(steps) >= self.min_steps

    def finish(self, steps: list) -> Outcome:
        raise NotImplementedError

    def fail(self, docs: int, message: str) -> None:
        self.failed += docs
        if len(self.problems) < 20:
            self.problems.append(message)


# ---------------------------------------------------------------------------
# rop-train: `rorokit train` on the default 500-document corpus

TRAIN_CORPUS_DOCS = 500
TRAIN_EPOCHS = 3  # patience equals the epoch count, so every call runs them all


class RopTrain(Workload):
    name = "rop-train"
    min_steps = 2

    def setup(self) -> dict:
        self.corpus_path = self.work / "corpus.jsonl"
        run_cli(["synth", "--n-docs", TRAIN_CORPUS_DOCS, "--seed", self.seed,
                 "-o", self.corpus_path])
        self.config_path = write_json(
            self.work / "train.json",
            {"rop": {"epochs": TRAIN_EPOCHS, "patience": TRAIN_EPOCHS, "seed": 0}},
        )
        corpus = layout.load_corpus(self.corpus_path)
        self.split_docs = len(corpus.subset("train")) + len(corpus.subset("validation"))
        self.calls = 0
        return {"corpus": sha256_file(self.corpus_path)}

    def step(self) -> Step:
        self.calls += 1
        model = self.work / f"model-{self.calls}.ckpt"
        report = self.work / f"report-{self.calls}.json"
        argv = ["train", self.corpus_path, "--model", model,
                "--config", self.config_path, "-o", report]
        wall, ref = timed_cli(argv)
        out = json.loads(report.read_text(encoding="utf-8"))
        return Step(wall, ref, out["train_docs"] * out["epochs_run"], (model, out))

    def check(self, step: Step) -> None:
        model, out = step.payload
        self.attempted += self.split_docs
        digest = sha256_file(model)
        model.unlink()
        step.payload = (digest, out)
        self.failed += len(out["skipped"])
        used = out["train_docs"] + out["val_docs"] + len(out["skipped"])
        if used != self.split_docs:
            self.fail(self.split_docs, f"train used {used} of {self.split_docs} documents")
        stopped_early = out["val_f1"] and out["val_f1"][-1] == 1.0
        if out["epochs_run"] != TRAIN_EPOCHS and not stopped_early:
            self.fail(self.split_docs, f"train ran {out['epochs_run']} epochs")
        if not out["val_f1"] or not 0.0 < out["val_f1"][-1] <= 1.0:
            self.fail(self.split_docs, f"validation F1 {out['val_f1']} out of range")

    def finish(self, steps: list) -> Outcome:
        digests = {s.payload[0] for s in steps}
        reports = {json.dumps(s.payload[1], sort_keys=True) for s in steps}
        if len(digests) != 1 or len(reports) != 1:
            self.fail(self.split_docs * len(steps), "same-seed train calls differ")
        rate, wall_rate = rates(steps)
        val_f1 = steps[0].payload[1]["val_f1"][-1]
        return Outcome(
            docs_per_s=rate,
            quality=val_f1,
            named={
                "train_docs_per_s": (rate, "docs/s"),
                "train_docs_per_s_wall": (wall_rate, "docs/s"),
                "val_f1": (val_f1, "ratio"),
                "train_calls": (len(steps), "count"),
            },
            attempted=self.attempted,
            failed=self.failed,
            problems=self.problems,
            hashes={"checkpoint_sha256": steps[0].payload[0]},
        )


# ---------------------------------------------------------------------------
# rop-predict: forward-only prediction on larger pages

PREDICT_DOCS = 200
PREDICT_MIN_SAMPLES = 1000
PREDICT_SETUP_EPOCHS = 1
# The model is a fixture: trained on the seed-0 rop-train corpus in every
# run, so the workload seed draws only the pages. A model trained on each
# seed's corpus moved predict_f1 by twice as much from seed to seed.
PREDICT_MODEL_SEED = 0
PREDICT_SYNTH = {
    "chain_segments": [8, 12],
    "column_segments": [5, 10],
    "grid_rows": [3, 6],
    "grid_cols": [3, 5],
    "words_per_segment": [2, 3],
}


class RopPredict(Workload):
    name = "rop-predict"

    def setup(self) -> dict:
        train_corpus = self.work / "train.jsonl"
        run_cli(["synth", "--n-docs", TRAIN_CORPUS_DOCS, "--seed", PREDICT_MODEL_SEED,
                 "-o", train_corpus])
        config = write_json(
            self.work / "train.json",
            {"rop": {"epochs": PREDICT_SETUP_EPOCHS,
                     "patience": PREDICT_SETUP_EPOCHS, "seed": 0}},
        )
        model_path = self.work / "model.ckpt"
        run_cli(["train", train_corpus, "--model", model_path, "--config", config,
                 "-o", self.work / "train-report.json"])
        predict_corpus = self.work / "predict.jsonl"
        synth_config = write_json(self.work / "synth.json", {"synth": PREDICT_SYNTH})
        run_cli(["synth", "--config", synth_config, "--n-docs", PREDICT_DOCS,
                 "--seed", self.seed, "-o", predict_corpus])
        self.model = rop.ROPModel.load(model_path)
        self.corpus = layout.load_corpus(predict_corpus)
        self.docs = list(self.corpus.documents)
        for doc in self.docs[:20]:  # warm-up
            self.model.predict(doc)
        self.first_pass: Optional[list] = None
        self.latencies: list[float] = []
        return {"model": sha256_file(model_path), "corpus": sha256_file(predict_corpus)}

    def step(self) -> Step:
        """One pass over the corpus, timing each document on its own."""
        perf_counter = time.perf_counter
        latencies = []
        outputs = []
        model = self.model
        ref = CLOCK.now()
        for doc in self.docs:
            start = perf_counter()
            rel = model.predict(doc)
            acyclic, _ = relations.is_acyclic(rel)
            latencies.append(perf_counter() - start)
            outputs.append((rel, acyclic))
        ref = CLOCK.now() - ref
        return Step(sum(latencies), ref, len(self.docs), (latencies, outputs))

    def check(self, step: Step) -> None:
        latencies, outputs = step.payload
        self.latencies.extend(latencies)
        self.attempted += len(outputs)
        if self.first_pass is None:
            self.first_pass = outputs
            for doc, (rel, _) in zip(self.docs, outputs):
                if rel.element_count != doc.n_segments:
                    self.fail(1, f"{doc.id}: relation over {rel.element_count} "
                                 f"elements, document has {doc.n_segments}")
        else:
            for doc, first, now in zip(self.docs, self.first_pass, outputs):
                if first != now:
                    self.fail(1, f"{doc.id}: prediction changed between passes")
        step.payload = None

    def enough(self, measured_s: float, steps: list, seconds: float) -> bool:
        return measured_s >= seconds and len(self.latencies) >= PREDICT_MIN_SAMPLES

    def finish(self, steps: list) -> Outcome:
        # The per-document loop must agree with the package's own batch path.
        relabeled, sidecar = rop.predict_pseudo_labels(self.model, self.corpus)
        for doc, new, (rel, acyclic) in zip(self.docs, relabeled.documents, self.first_pass):
            entry = sidecar[doc.id]
            if new.isdr != rel or entry["acyclic"] != acyclic or entry["num_pairs"] != len(rel):
                self.fail(len(steps), f"{doc.id}: differs from predict_pseudo_labels")
        f1 = metrics.corpus_f1(
            (doc.isdr, rel) for doc, (rel, _) in zip(self.docs, self.first_pass)
        ).f1
        rate, wall_rate = rates(steps)
        lat_ms = [t * 1e3 for t in self.latencies]
        return Outcome(
            docs_per_s=rate,
            quality=f1,
            named={
                "predict_docs_per_s": (rate, "docs/s"),
                "predict_docs_per_s_wall": (wall_rate, "docs/s"),
                "predict_ms_p50": (percentile(lat_ms, 50), "ms"),
                "predict_ms_p99": (percentile(lat_ms, 99), "ms"),
                "predict_samples": (len(lat_ms), "count"),
                "predict_f1": (f1, "ratio"),
            },
            attempted=self.attempted,
            failed=self.failed,
            problems=self.problems,
        )


# ---------------------------------------------------------------------------
# relations-eval: the model-free commands on segment and word level

# The chunk follows the default generator's mix (40% chains, 30% two-column,
# 30% grids spread evenly over the 3x3 shapes) with every count fixed, and
# two words per segment. The exhaustive permutation ceiling costs up to n!
# per document, so a random mix would make each run's work depend on how
# many 9-element grids the seed happened to draw.
CHUNK_STRATA = [("chain", {}, 12), ("two-column", {}, 9)] + [
    ("grid", {"grid_rows": (r, r), "grid_cols": (c, c)}, 1)
    for r in (2, 3, 4)
    for c in (2, 3, 4)
]


def make_chunk(seed: int):
    documents = []
    split = {}
    for stratum, (kind, shape, n_docs) in enumerate(CHUNK_STRATA):
        config = synth.SynthConfig(
            n_docs=n_docs, mix={kind: 1.0}, words_per_segment=(2, 2), **shape
        )
        sub_seed = int(np.random.SeedSequence([seed, stratum]).generate_state(1)[0])
        sub = synth.synth_generate(config, seed=sub_seed)
        for doc in sub.documents:
            new_id = f"synth-{len(documents):04d}-{kind}"
            documents.append(replace(doc, id=new_id))
            split[new_id] = sub.split[doc.id]
    return layout.Corpus(tuple(documents), split)


class RelationsEval(Workload):
    name = "relations-eval"

    def setup(self) -> dict:
        self.path = self.work / "chunk.jsonl"
        layout.save_corpus(make_chunk(self.seed), self.path)
        self.docs = list(layout.load_corpus(self.path).documents)
        self.rel_paths = []
        for i, doc in enumerate(self.docs):
            rel_path = self.work / f"rel-{i}.json"
            rel_path.write_text(relations.relation_to_json(doc.isdr), encoding="utf-8")
            self.rel_paths.append(rel_path)
        self.words = {doc.id: layout.derive_word_level(doc) for doc in self.docs}
        self.kinds = {}
        for doc in self.docs:
            self.kinds[doc.isdr] = synth.doc_kind(doc.id)
            self.kinds[self.words[doc.id]] = synth.doc_kind(doc.id)
        self.captured: list = []
        self.covered = {"segment": 0, "word": 0}
        self.ceiling_docs = 0
        self.out = self.work / "out"
        self.out.mkdir(exist_ok=True)
        return {"chunk": sha256_file(self.path)}

    def start(self) -> None:
        # eval reports only the mean ceiling; wrap the ceiling where
        # benchmark_report looks it up to see each document's value.
        self.original_ceiling = metrics.best_permutation_recall
        captured = self.captured
        compute = self.original_ceiling

        def recording(rel):
            result = compute(rel)
            captured.append((rel, result[1]))
            return result

        metrics.best_permutation_recall = recording

    def close(self) -> None:
        metrics.best_permutation_recall = self.original_ceiling

    def step(self) -> Step:
        out = self.out
        words = out / "words.jsonl"
        commands = [
            ["validate", self.path, "-o", out / "validate-seg.json"],
            ["stats", self.path, "-o", out / "stats-seg.json"],
            ["convert", self.path, "--level", "word", "-o", words],
            ["validate", words, "-o", out / "validate-word.json"],
            ["stats", words, "-o", out / "stats-word.json"],
        ]
        times = [timed_cli(argv) for argv in commands]
        ceilings = {}
        for level, corpus in (("segment", self.path), ("word", words)):
            self.captured.clear()
            times.append(timed_cli(
                ["eval", corpus, "--heuristic", "-o", out / f"eval-{level}.json"]
            ))
            ceilings[level] = list(self.captured)
        for i, rel_path in enumerate(self.rel_paths):
            times.append(timed_cli(["closure", rel_path, "-o", out / f"closed-{i}.json"]))
        return Step(sum(w for w, _ in times), sum(r for _, r in times), len(self.docs),
                    ceilings)

    def check(self, step: Step) -> None:
        out, docs, ceilings = self.out, self.docs, step.payload
        self.attempted += len(docs)
        bad: set[str] = set()

        def load(name):
            return json.loads((out / name).read_text(encoding="utf-8"))

        for level in ("seg", "word"):
            for entry in load(f"validate-{level}.json")["documents"]:
                if not entry["ok"]:
                    bad.add(entry["id"])
        stats = load("stats-seg.json")
        if (stats["documents"], stats["segments"], stats["words"]) != (
            len(docs), sum(d.n_segments for d in docs), sum(d.n_words for d in docs)
        ):
            bad.update(d.id for d in docs)
        converted = layout.load_corpus(out / "words.jsonl")
        for doc, word_doc in zip(docs, converted.documents):
            if word_doc.id != doc.id or word_doc.isdr != self.words[doc.id]:
                bad.add(doc.id)
        for level in ("segment", "word"):
            report = load(f"eval-{level}.json")
            system = report["systems"][0]
            if system["docs"] != len(docs) or not 0.0 <= system["f1"] <= 1.0:
                bad.update(d.id for d in docs)
            recalls = [r for _, r in ceilings[level]]
            mean = report["ceiling"]["mean_best_recall"]
            if recalls and abs(mean - float(np.mean(recalls))) > 1e-12:
                bad.update(d.id for d in docs)
            for rel, recall in ceilings[level]:
                kind = self.kinds.get(rel)
                n, n_pairs = rel.element_count, len(rel)
                if kind is None:
                    self.fail(1, "ceiling computed for an unknown relation")
                elif kind == "chain" and recall != 1.0:
                    self.fail(1, f"chain ceiling {recall} != 1.0")
                elif kind == "grid" and not (recall < 1.0 and recall <= (n - 1) / n_pairs):
                    self.fail(1, f"grid ceiling {recall} out of range")
            self.covered[level] += len(ceilings[level])
        self.ceiling_docs += len(docs)
        for i, doc in enumerate(docs):
            closed = relations.relation_from_json(
                (out / f"closed-{i}.json").read_text(encoding="utf-8")
            )
            ok, _ = relations.is_strict_partial_order(closed)
            if not ok or not doc.isdr.pairs <= closed.pairs:
                bad.add(doc.id)
        if bad:
            self.fail(len(bad), f"{len(bad)} documents failed output checks")

    def finish(self, steps: list) -> Outcome:
        rate, wall_rate = rates(steps)
        # Gated coverage is on segment level, as the corpus is evaluated;
        # word-level coverage follows the random chain lengths of the seed.
        coverage = self.covered["segment"] / self.ceiling_docs
        return Outcome(
            docs_per_s=rate,
            quality=coverage,
            named={
                "eval_docs_per_s": (rate, "docs/s"),
                "eval_docs_per_s_wall": (wall_rate, "docs/s"),
                "ceiling_coverage": (coverage, "ratio"),
                "ceiling_coverage_word": (self.covered["word"] / self.ceiling_docs, "ratio"),
                "passes": (len(steps), "count"),
            },
            attempted=self.attempted,
            failed=self.failed,
            problems=self.problems,
        )


# ---------------------------------------------------------------------------
# rore-link: `rorokit demo-rore` with the default DemoConfig

FORMS_DOCS = 300  # the demo-rore default


class RoreLink(Workload):
    name = "rore-link"
    min_steps = 2

    def setup(self) -> dict:
        # demo-rore builds its corpus from the seed inside each call, so the
        # program's own set-up is measured there; here only the train split
        # is counted. The result SHA-256 covers the corpus.
        forms = synth.synth_forms(FORMS_DOCS, seed=self.seed)
        self.train_docs = len(forms.subset("train"))
        self.calls = 0
        return {}

    def step(self) -> Step:
        self.calls += 1
        result = self.work / f"demo-{self.calls}.json"
        wall, ref = timed_cli(["demo-rore", "--seed", self.seed, "-o", result])
        data = result.read_bytes()
        out = json.loads(data)
        docs = self.train_docs * out["config"]["epochs"] * len(out["arms"])
        return Step(wall, ref, docs, (hashlib.sha256(data).hexdigest(), out))

    def check(self, step: Step) -> None:
        _, out = step.payload
        self.attempted += FORMS_DOCS
        vanilla, rore_f1 = out["f1_vanilla"], out["f1_rore"]
        if not (0.0 <= vanilla <= 1.0 and 0.0 <= rore_f1 <= 1.0):
            self.fail(FORMS_DOCS, f"F1 out of range: {vanilla}, {rore_f1}")
        elif rore_f1 < vanilla:
            self.fail(FORMS_DOCS, f"biased arm {rore_f1} below vanilla {vanilla}")

    def finish(self, steps: list) -> Outcome:
        if len({s.payload[0] for s in steps}) != 1:
            self.fail(FORMS_DOCS * len(steps), "same-seed demo results differ")
        out = steps[0].payload[1]
        rate, wall_rate = rates(steps)
        return Outcome(
            docs_per_s=rate,
            quality=out["f1_rore"],
            named={
                "train_docs_per_s": (rate, "docs/s"),
                "train_docs_per_s_wall": (wall_rate, "docs/s"),
                "rore_f1_gain": (out["f1_rore"] - out["f1_vanilla"], "ratio"),
                "f1_rore": (out["f1_rore"], "ratio"),
                "f1_vanilla": (out["f1_vanilla"], "ratio"),
            },
            attempted=self.attempted,
            failed=self.failed,
            problems=self.problems,
            hashes={"result_sha256": steps[0].payload[0]},
        )


WORKLOADS = {w.name: w for w in (RopTrain, RopPredict, RelationsEval, RoreLink)}
