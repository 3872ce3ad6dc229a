"""The three perfbench workloads: cli, serve and study.

Each workload makes its inputs from the seed in ``setup`` and then runs
operations, each of which is what its user waits for:

* cli   -- one ``fit`` -> ``predict`` -> ``evaluate`` pipeline of CLI
           subprocesses over CSV files;
* serve -- one single-point ``predict_quantiles`` query (closed loop,
           one client, no think time);
* study -- one ``bench.run`` replication study.

An operation returns an ``Outcome``: its wall seconds, the failures that
its outputs show, and what its pinball ratio is scored from. A failed
operation is never scored. Every call into cqforest goes through a
module attribute at call time, so the tracer's probes see it.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cqforest as cqf
import cqforest.cli  # noqa: F401  (the package does not import its cli module)

import harness
from harness import Outcome

TAUS = (0.1, 0.5, 0.9)
STUDY_TAUS = (0.1, 0.3, 0.5, 0.7, 0.9)
# bench's default censoring rate for aft-multi (about 22% censored)
AFT_MULTI_RATE = 0.05
# The CLI runs with --threads 1. At its default (every core) the fit's
# thread pool contends for the GIL, which on a shared 2-vCPU host made
# run-to-run spread of the pipeline time exceed the benchmark's bounds;
# the traced run replays fit and predict_batch at the default instead.
CLI_THREADS = "1"
# per-subprocess limit, so one run stays inside its 180 s budget
SUBPROCESS_TIMEOUT_S = 170
REFERENCE_FILE = Path(__file__).with_name("reference_qhat.json")


def child_seed(seed, *parts):
    """Independent 32-bit seed for one input stream of a workload seed."""
    return int(np.random.SeedSequence((int(seed), *parts)).generate_state(1)[0])


def pinball_by_tau(truth, q, taus):
    """Mean pinball loss rho_tau(truth - q) for each column of q."""
    out = []
    for j, tau in enumerate(taus):
        u = truth - q[:, j]
        out.append(float(np.mean(u * (tau - (u < 0)))))
    return out


def check_quantiles(q, train_y):
    """Failures of a (points x taus) q_hat matrix: finite, observed, non-crossing."""
    failures = []
    finite = np.isfinite(q)
    if not finite.all():
        failures.append(f"{int((~finite).sum())} q_hat values are not finite")
    off = finite & ~np.isin(q, train_y)
    if off.any():
        failures.append(f"{int(off.sum())} q_hat values are not training responses")
    crossed = (np.diff(q, axis=1) < 0).any(axis=1)
    if crossed.any():
        failures.append(f"quantiles cross in {int(crossed.sum())} rows")
    return failures


def check_predictions(path, n_rows, taus, train_y):
    """Read a predictions CSV; return (failures, q_hat matrix or None if it failed)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            records = list(csv.DictReader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        return [f"predictions unreadable: {exc}"], None
    failures = []
    if len(records) != n_rows * len(taus):
        failures.append(f"expected {n_rows * len(taus)} prediction rows, found {len(records)}")
    column = {tau: j for j, tau in enumerate(taus)}
    q = np.full((n_rows, len(taus)), np.nan)
    seen = np.zeros(q.shape, dtype=bool)
    bad = 0
    for rec in records:
        try:
            i, j, value = int(rec["row"]), column[float(rec["tau"])], float(rec["q_hat"])
        except (KeyError, TypeError, ValueError):
            bad += 1
            continue
        if not 0 <= i < n_rows or seen[i, j]:
            bad += 1
            continue
        seen[i, j] = True
        q[i, j] = value
    if bad:
        failures.append(f"{bad} prediction rows are malformed, out of range or repeated")
    if not seen.all():
        failures.append(f"{int((~seen).sum())} (row, tau) predictions are missing")
    failures += check_quantiles(q[seen.all(axis=1)], train_y)
    return failures, (None if failures else q)


def check_evaluation(path, taus, expected):
    """Failures of an evaluation CSV against our own pinball losses; and its mean l_quantile."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            records = list(csv.DictReader(fh))
        by_tau = {float(r["tau"]): (float(r["l_quantile"]), float(r["c_index"])) for r in records}
    except (OSError, KeyError, TypeError, ValueError, csv.Error) as exc:
        return [f"evaluation unreadable: {exc}"], None
    failures = []
    if sorted(by_tau) != sorted(taus) or len(records) != len(taus):
        failures.append(f"evaluation rows cover taus {sorted(by_tau)}, expected {list(taus)}")
        return failures, None
    losses = [by_tau[tau][0] for tau in taus]
    for tau, got, want in zip(taus, losses, expected):
        if not abs(got - want) <= 1e-9 * abs(want):
            failures.append(f"l_quantile at tau={tau} is {got!r}, recomputed {want!r}")
    if not all(0.0 <= by_tau[tau][1] <= 1.0 for tau in taus):
        failures.append("c_index outside [0, 1]")
    return failures, (None if failures else float(np.mean(losses)))


def oracle_loss(features, latent):
    """Mean pinball loss of the true conditional quantiles at the given points."""
    truth = np.column_stack([cqf.true_quantile("aft-multi", features, tau) for tau in TAUS])
    return float(np.mean(pinball_by_tau(latent, truth, TAUS)))


def simulate_pair(seed, n_train, n_test):
    def draw(n, stream):
        cfg = cqf.SimConfig(model="aft-multi", n=n, censor_rate_param=AFT_MULTI_RATE, seed=child_seed(seed, stream))
        return cqf.simulate(cfg)

    return draw(n_train, 0), draw(n_test, 1)


@dataclass
class CliState:
    dir: Path
    env: dict
    train_y: np.ndarray
    latent: np.ndarray
    oracle_loss: float
    forest_seed: int
    failures: list = field(default_factory=list)

    def path(self, name):
        return str(self.dir / name)


class Cli:
    """Batch user: fit, predict and evaluate over CSV files, one subprocess each."""

    rss = "children"

    def __init__(self, root, n_train=5000, n_test=500, trees=200, node_size=50, min_ops=3):
        self.root = Path(root)
        self.n_train, self.n_test, self.trees, self.node_size = n_train, n_test, trees, node_size
        self.min_ops = min_ops

    def setup(self, seed, workdir):
        train, test = simulate_pair(seed, self.n_train, self.n_test)
        st = CliState(
            dir=workdir,
            env=harness.program_env(self.root),
            train_y=np.asarray(train.response),
            latent=np.asarray(test.latent),
            oracle_loss=oracle_loss(test.features, test.latent),
            forest_seed=child_seed(seed, 2),
        )
        cqf.write_csv(st.path("train.csv"), train)
        cqf.write_csv(st.path("truth.csv"), test)
        with open(st.path("features.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j + 1}" for j in range(test.p)])
            writer.writerows([repr(float(v)) for v in row] for row in test.features)
        return st

    def commands(self, st):
        return [
            ["fit", "--data", st.path("train.csv"), "--trees", str(self.trees), "--node-size", str(self.node_size),
             "--seed", str(st.forest_seed), "--model-out", st.path("model.json"), "--threads", CLI_THREADS],
            ["predict", "--model", st.path("model.json"), "--data", st.path("train.csv"),
             "--features", st.path("features.csv"), "--taus", ",".join(map(repr, TAUS)), "--out", st.path("pred.csv"),
             "--threads", CLI_THREADS],
            ["evaluate", "--pred", st.path("pred.csv"), "--truth", st.path("truth.csv"), "--out", st.path("eval.csv")],
        ]

    def _subprocess(self, st, argv):
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cqforest", *argv], env=st.env, cwd=self.root,
                capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {SUBPROCESS_TIMEOUT_S} s"
        return proc.returncode, proc.stderr

    def _in_process(self, st, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cqf.cli.main(argv)
        return code, err.getvalue()

    def _pipeline(self, st, runner):
        for name in ("model.json", "pred.csv", "eval.csv"):
            Path(st.path(name)).unlink(missing_ok=True)
        walls = {}
        for argv in self.commands(st):
            start = time.perf_counter()
            code, err = runner(st, argv)
            walls[argv[0]] = time.perf_counter() - start
            if code != 0:
                return Outcome(sum(walls.values()), [f"cqforest {argv[0]} exited {code}: {err.strip()[-300:]}"],
                               details=walls)
        return self.score(st, Outcome(sum(walls.values()), details=walls))

    def score(self, st, outcome):
        """Check the pipeline's files and attach the pinball loss from evaluate."""
        failures, q = check_predictions(st.path("pred.csv"), self.n_test, TAUS, st.train_y)
        if not failures:
            failures, loss = check_evaluation(st.path("eval.csv"), TAUS, pinball_by_tau(st.latent, q, TAUS))
            outcome.score = None if failures else loss / st.oracle_loss
        outcome.failures += failures
        model = Path(st.path("model.json"))
        outcome.details["model_mb"] = model.stat().st_size / 2**20 if model.exists() else 0.0
        return outcome

    def op(self, st, i):
        return self._pipeline(st, self._subprocess)

    def replay(self, st, i):
        """The same pipeline through ``cli.main`` in this process, where probes see it."""
        return self._pipeline(st, self._in_process)

    def trace_aux(self, st, tracer):
        """Fit and batch at the CLI's default thread count, and the batch point by point."""
        train = cqf.data.load_csv(st.path("train.csv"), cqf.data.detect_schema(st.path("train.csv")))
        xmat, _ = cqf.data.load_features_csv(st.path("features.csv"), n_features=train.p)
        forest_cfg = cqf.ForestConfig(min_node_size=self.node_size, n_trees=self.trees, seed=st.forest_seed)
        cfg = cqf.CqrConfig(taus=TAUS)
        default_threads = os.cpu_count() or 1  # cqforest's CLI default for --threads
        with tracer.installed("aux-pool"):
            forest = cqf.fit(train, forest_cfg, threads=default_threads)
            cqf.predict_batch(forest, train, xmat, cfg, threads=default_threads)
        with tracer.installed("aux-replay"):
            wmat = cqf.weight_matrix(forest, xmat)
            for i in range(xmat.shape[0]):
                cqf.predict_with_weights(xmat[i], cqf.WeightVector.from_dense(wmat[i]), train, cfg)

    def pinball_ratio(self, st, outcomes):
        return next((o.score for o in outcomes if o.ok), None)

    def notes(self, outcomes):
        done = [o for o in outcomes if o.ok]
        if not done:
            return []
        med = {k: float(np.median([o.details[k] for o in done])) for k in ("fit", "predict", "evaluate", "model_mb")}
        return [
            f"medians over {len(done)} pipelines: fit {med['fit']:.3f} s, predict {med['predict']:.3f} s, "
            f"evaluate {med['evaluate']:.3f} s; model file {med['model_mb']:.3f} MiB"
        ]


@dataclass
class ServeState:
    train: object
    test: object
    forest: object
    cfg: object
    ref_q: np.ndarray
    failures: list = field(default_factory=list)


class Serve:
    """Interactive user: one client, closed loop, distinct test points in turn."""

    rss = "self"

    def __init__(self, root, n_train=5000, n_test=300, trees=200, node_size=50, knn=50):
        self.n_train, self.n_test, self.trees, self.node_size, self.knn = n_train, n_test, trees, node_size, knn
        # one full pass over the points, so every run scores the same points
        self.min_ops = n_test

    def setup(self, seed, workdir):
        train, test = simulate_pair(seed, self.n_train, self.n_test)
        forest_cfg = cqf.ForestConfig(min_node_size=self.node_size, n_trees=self.trees, seed=child_seed(seed, 2))
        forest = cqf.fit(train, forest_cfg, threads=1)
        cfg = cqf.CqrConfig(taus=TAUS, survival="km-knn", knn=self.knn)
        ref = cqf.predict_batch(forest, train, test.features, cfg, threads=1)
        ref_q = np.array([[p.q_hat for p in per_point] for per_point in ref])
        return ServeState(train, test, forest, cfg, ref_q, failures=check_quantiles(ref_q, train.response))

    def op(self, st, i):
        k = i % self.n_test
        x = st.test.features[k]
        start = time.perf_counter()
        preds = cqf.predict_quantiles(st.forest, st.train, x, st.cfg)
        seconds = time.perf_counter() - start
        q = np.array([p.q_hat for p in preds], dtype=np.float64)
        failures = []
        if q.tobytes() != st.ref_q[k].tobytes():
            failures.append(f"point {k}: q_hat {q.tolist()} differs from predict_batch {st.ref_q[k].tolist()}")
        failures += check_quantiles(q.reshape(1, -1), st.train.response)
        return Outcome(seconds, failures, score=(k, q))

    replay = op

    def pinball_ratio(self, st, outcomes):
        served = {}
        for o in outcomes:
            if o.ok:
                served.setdefault(o.score[0], o.score[1])
        if not served:
            return None
        rows = sorted(served)
        latent = st.test.latent[rows]
        loss = np.mean(pinball_by_tau(latent, np.array([served[k] for k in rows]), TAUS))
        return float(loss / oracle_loss(st.test.features[rows], latent))

    def notes(self, outcomes):
        return [f"{len(outcomes)} queries over {self.n_test} distinct points, one client, closed loop"]


@dataclass
class StudyState:
    spec: object
    out: Path
    failures: list = field(default_factory=list)


def check_results(path, spec):
    """Failures of a bench results.csv; and the crf pinball loss over the qrf_oracle one."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            records = list(csv.DictReader(fh))
        values = np.array([float(r["value"]) for r in records])
    except (OSError, KeyError, TypeError, ValueError, csv.Error) as exc:
        return [f"results unreadable: {exc}"], None
    failures = []
    expected = spec.replications * len(spec.methods) * len(spec.taus) * 4
    if len(records) != expected:
        failures.append(f"expected {expected} result rows, found {len(records)}")
    if not np.isfinite(values).all():
        failures.append(f"{int((~np.isfinite(values)).sum())} result values are not finite")
    if failures:
        return failures, None
    loss = {m: [v for r, v in zip(records, values) if r["method"] == m and r["metric"] == "l_quantile"]
            for m in ("crf", "qrf_oracle")}
    return failures, float(np.mean(loss["crf"]) / np.mean(loss["qrf_oracle"]))


class Study:
    """Monte-Carlo replication study of the paper's kind, many small forests."""

    rss = "self"

    def __init__(self, root, n_train=300, n_test=300, trees=100, replications=5, min_ops=3):
        self.n_train, self.n_test, self.trees, self.replications = n_train, n_test, trees, replications
        self.min_ops = min_ops

    def spec(self, seed, replications):
        return cqf.ExperimentSpec(
            scenario="aft1d", replications=replications, n_train=self.n_train, n_test=self.n_test,
            trees=self.trees, taus=STUDY_TAUS, methods=("crf", "qrf", "qrf_oracle"), seed=child_seed(seed, 0),
        )

    def setup(self, seed, workdir):
        warm = self.spec(seed, 1)
        cqf.bench.run(warm, str(workdir / "warmup"), threads=1)
        failures, _ = check_results(workdir / "warmup" / "results.csv", warm)
        return StudyState(self.spec(seed, self.replications), workdir / "study", failures)

    def op(self, st, i):
        shutil.rmtree(st.out, ignore_errors=True)
        start = time.perf_counter()
        cqf.bench.run(st.spec, str(st.out), threads=1)
        seconds = time.perf_counter() - start
        failures, score = check_results(st.out / "results.csv", st.spec)
        return Outcome(seconds, failures, score=score)

    replay = op

    def pinball_ratio(self, st, outcomes):
        return next((o.score for o in outcomes if o.ok), None)

    def notes(self, outcomes):
        return [f"{len(outcomes)} bench.run calls of {self.replications} replications each, threads=1"]


WORKLOADS = {"cli": Cli, "serve": Serve, "study": Study}


def reference_qhat():
    """q_hat on the reference corpus, in (survival, point, tau) order.

    The corpus is the cli/serve generator at the default seed 0, scaled
    down so every traced run can afford it: 1000 training rows, 100 test
    points, 100 trees of node size 50, taus 0.1/0.5/0.9, solved with
    both censoring curves (beran-rf and km-knn:50).
    """
    train, test = simulate_pair(0, 1000, 100)
    forest = cqf.fit(train, cqf.ForestConfig(min_node_size=50, n_trees=100, seed=child_seed(0, 2)), threads=1)
    out = []
    for cfg in (cqf.CqrConfig(taus=TAUS), cqf.CqrConfig(taus=TAUS, survival="km-knn", knn=50)):
        for per_point in cqf.predict_batch(forest, train, test.features, cfg, threads=1):
            out.extend(p.q_hat for p in per_point)
    return out


def qhat_mismatch():
    """Number of reference-corpus q_hat values that differ from the checked-in ones."""
    want = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["q_hat"]
    got = reference_qhat()
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
