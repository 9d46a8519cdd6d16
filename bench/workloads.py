"""The three workloads: the botsift commands each runs, in order, and
the checks on every command's output.

One operation is one `botsift` command, run in-process through
`botsift.cli.main`. A `Probe` rebinds `evaluation.prf1` and
`models.predict` so that the checks can see the confusion counts and the
test-side labels behind each printed table; it records them and returns
the program's own results unchanged.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

import checks
import gen

FAMILIES = ("logreg", "svm", "rf", "gboost", "nn")
TRAIN_FRAC = 2.0 / 3.0  # the CLI default the model workloads use
BOOTSTRAP_FACTOR = 10
BOOTSTRAP_RUNS = 4
BOOTSTRAP_TREES = 30
# forest-bootstrap runs on one thread: on the 2-vCPU virtual machine the
# bounds were set on, the hypervisor took 1-14% of the time of two busy
# vCPUs, and the two rf threads, which share the interpreter lock, turned
# that into a 23% spread of wall_s between seeds (README.md, "Threads").
BOOTSTRAP_THREADS = "1"
# Test-F1 floors, derived in README.md from how each capture is built.
FLOOR_HARD = 0.75
FLOOR_SCAN = 0.90
SAMPLE_ROWS = 48


def threads() -> str:
    """Two workers where the machine has them, never more than nproc."""
    return str(min(2, os.cpu_count() or 1))


class Probe:
    """Records what `prf1` and `predict` return during one operation."""

    def __init__(self, patcher):
        import botsift.evaluation
        import botsift.models
        self.predict = botsift.models.predict
        self.load_artifact = botsift.models.load_artifact
        self.test_rows = None
        self.metrics = []  # (rows scored, Metrics) per prf1 call
        self.scored = None  # (artifact, rows, labels) of the first test call
        self.predicted = []  # predicted positives per test-side call
        patcher.wrap("botsift.evaluation", "prf1", self._wrap_prf1)
        patcher.wrap("botsift.models", "predict", self._wrap_predict)

    def begin(self, test_rows):
        self.test_rows = test_rows
        self.metrics, self.scored, self.predicted = [], None, []

    def _wrap_prf1(self, fn):
        def prf1(y_true, y_pred, *args, **kwargs):
            result = fn(y_true, y_pred, *args, **kwargs)
            self.metrics.append((len(y_true), result))
            return result
        return prf1

    def _wrap_predict(self, fn):
        def predict(artifact, rows, *args, **kwargs):
            scores, labels = fn(artifact, rows, *args, **kwargs)
            if len(rows) == self.test_rows:
                self.predicted.append(int(np.sum(labels)))
                if self.scored is None:
                    self.scored = (artifact, rows, labels)
            return scores, labels
        return predict

    def test_metrics(self) -> list:
        return [m for n, m in self.metrics if n == self.test_rows]

    def roundtrip(self, path) -> tuple:
        """Save the first test-side artifact, load it back and re-score the
        same rows: (labels identical, artifact bytes, family)."""
        artifact, rows, labels = self.scored
        artifact.save(path)
        _, again = self.predict(self.load_artifact(path), rows)
        return (bool(np.array_equal(again, labels)), os.path.getsize(path),
                artifact.family)


@dataclass
class Op:
    name: str
    argv: list
    test_rows: int = None


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    f1: float = None


class Workload:
    """Ops and checks of one workload over its generated inputs."""

    def __init__(self, name: str, seed: int, inputs: str, work: str):
        self.name, self.seed, self.inputs, self.work = name, seed, inputs, work
        self.captures = gen.captures(name, seed)
        self.artifact_bytes = {}  # family -> bytes of its saved artifact
        self.ops = []
        self.features = {}
        t = threads()
        if name == "ingest":
            cap = self.path("capture.binetflow")
            self.feature_out = os.path.join(work, "capture.features.csv")
            self.ops = [Op("summarize", ["summarize", cap]),
                        Op("extract", ["extract", cap, "--scenario", "ingest",
                                       "-o", self.feature_out])]
        elif name == "forest-bootstrap":
            path = self.path("hard.features.csv")
            self.features["hard"] = checks.FeatureFile(path)
            n = self.features["hard"].n
            self.ops = [Op("bootstrap-eval", [
                "bootstrap-eval", path, "--model", "rf",
                "--factor", str(BOOTSTRAP_FACTOR),
                "--runs", str(BOOTSTRAP_RUNS),
                "--hp", f"n_trees={BOOTSTRAP_TREES}",
                "--threads", BOOTSTRAP_THREADS],
                n - math.floor(TRAIN_FRAC * n))]
        elif name == "model-zoo":
            a, b = self.path("A.features.csv"), self.path("B.features.csv")
            self.features = {"A": checks.FeatureFile(a),
                             "B": checks.FeatureFile(b)}
            n_b = self.features["B"].n
            self.ops = [Op(f"crossscen-{f}", ["crossscen", "--train", a,
                                              "--test", b, "--model", f,
                                              "--threads", t], n_b)
                        for f in FAMILIES]
            self.ops += [Op(f"select-{m}", ["select", a, "--method", m,
                                            "--threads", t])
                         for m in ("filter", "pca")]
        else:
            raise ValueError(f"unknown workload {name!r}")

    def path(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    def check(self, op: Op, stdout: str, probe: Probe) -> Outcome:
        check = getattr(self, "_check_" + op.name.split("-")[0])
        return check(op, stdout, probe)

    def test_f1(self, outcomes: list) -> float:
        """The workload's detection quality from one round's outcomes."""
        return float(np.mean([o.f1 for o in outcomes if o.f1 is not None]))

    # ingest
    def _check_summarize(self, op, stdout, probe) -> Outcome:
        return Outcome(checks.check_summary(stdout, self.captures["capture"]))

    def _check_extract(self, op, stdout, probe) -> Outcome:
        cap = self.captures["capture"]
        ff = checks.FeatureFile(self.feature_out)
        rng = np.random.default_rng([self.seed, 5])
        sample = rng.choice(ff.n, min(SAMPLE_ROWS, ff.n), replace=False)
        sample = np.append(sample, int(np.argmax(ff.rows[:, 0])))
        problems = checks.check_features(ff, cap, sample)
        return Outcome(problems, checks.label_f1(ff, cap))

    # model workloads
    def _model_problems(self, op, probe, ff, cells, side: int) -> tuple:
        """Checks shared by bootstrap-eval and crossscen: table size and
        botnet share, confusion counts, F1, the printed test F1, the
        predicted positives and an artifact round trip."""
        problems = []
        if int(cells[side]) != ff.n:
            problems.append(f"table size {cells[side]} != {ff.n} rows")
        permille = 1000.0 * float(np.mean(ff.labels))
        if not checks.printed_matches(cells[side + 1], permille, 2):
            problems.append(f"botnet permille {cells[side + 1]} != "
                            f"{permille:.4f}")
        runs = probe.test_metrics()
        if not runs:
            return problems + ["no test-side metrics were computed"], None
        for m in runs:
            problems += checks.metrics_problems(m, op.test_rows)
        f1 = float(np.mean([m.f1 for m in runs]))
        if not checks.printed_matches(cells[-1], f1):
            problems.append(f"printed test f1 {cells[-1]} != {f1:.6f}")
        if probe.scored is None:
            return problems + ["no test-side predictions were made"], f1
        if probe.predicted[0] != runs[0].tp + runs[0].fp:
            problems.append("predicted positives disagree with tp + fp")
        same, size, family = probe.roundtrip(
            os.path.join(self.work, "artifact.json"))
        self.artifact_bytes[family] = size
        if not same:
            problems.append("saved, loaded and re-scored artifact gives "
                            "other labels")
        return problems, f1

    def _check_bootstrap(self, op, stdout, probe) -> Outcome:
        cells = checks.table_row(stdout)
        problems, f1 = self._model_problems(op, probe, self.features["hard"],
                                            cells, 1)
        if len(probe.test_metrics()) != BOOTSTRAP_RUNS:
            problems.append(f"{len(probe.test_metrics())} test-side runs, "
                            f"expected {BOOTSTRAP_RUNS}")
        if f1 is not None and f1 < FLOOR_HARD:
            problems.append(f"test f1 {f1:.4f} below the floor {FLOOR_HARD}")
        return Outcome(problems, f1)

    def _check_crossscen(self, op, stdout, probe) -> Outcome:
        ff = self.features["B"]
        cells = checks.table_row(stdout)
        problems, f1 = self._model_problems(op, probe, ff, cells, 2)
        runs = probe.test_metrics()
        if len(runs) != 1:
            problems.append(f"{len(runs)} test-side metrics, expected 1")
        elif runs[0].tp + runs[0].fn != int(ff.labels.sum()):
            problems.append("tp + fn differs from the botnet rows of B")
        else:
            m = runs[0]
            for i, value in ((-3, m.precision), (-2, m.recall)):
                if not checks.printed_matches(cells[i], value):
                    problems.append(f"printed {cells[i]} != {value:.6f}")
        if f1 is not None and f1 < FLOOR_SCAN:
            problems.append(f"test f1 {f1:.4f} below the floor {FLOOR_SCAN}")
        return Outcome(problems, f1)

    def _check_select(self, op, stdout, probe) -> Outcome:
        ff = self.features["A"]
        if op.name == "select-filter":
            return Outcome(checks.check_filter(stdout, ff))
        return Outcome(checks.check_pca(stdout, ff))
