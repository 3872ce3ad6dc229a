"""The package and its file commands start without loading scipy or a thread pool.

scipy is only needed for the simulators' true quantiles, and nothing
needs ``concurrent.futures`` (with the ``logging`` it loads): every pass
runs on the calling thread. Each check runs in a fresh interpreter so
that other tests' imports do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent"))))
"""

PIPELINE = """
import sys
from cqforest.cli import main

d = sys.argv[1]
for argv in [
    ["simulate", "--model", "aft1d", "--n", "60", "--lambda", "0.2", "--seed", "1", "--out", f"{d}/train.csv"],
    ["simulate", "--model", "aft1d", "--n", "8", "--lambda", "0.2", "--seed", "2", "--out", f"{d}/test.csv"],
    ["fit", "--data", f"{d}/train.csv", "--trees", "5", "--node-size", "10", "--model-out", f"{d}/m.npz"],
    ["predict", "--model", f"{d}/m.npz", "--data", f"{d}/train.csv", "--features", f"{d}/test.csv",
     "--taus", "0.1,0.5", "--out", f"{d}/pred.csv"],
    ["predict", "--model", f"{d}/m.npz", "--data", f"{d}/train.csv", "--features", f"{d}/test.csv",
     "--taus", "0.5", "--survival", "km-knn:10", "--out", f"{d}/pred_knn.csv"],
    ["evaluate", "--pred", f"{d}/pred.csv", "--truth", f"{d}/test.csv", "--out", f"{d}/eval.csv"],
]:
    assert main(argv) == 0, argv
"""


def _modules(code, *args):
    """The scipy and concurrent modules loaded once ``code`` has run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _scipy(modules):
    return [m for m in modules if m.split(".")[0] == "scipy"]


@pytest.fixture(scope="module")
def imported():
    return _modules("import cqforest")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    modules = _modules(PIPELINE, str(d))
    assert (d / "eval.csv").read_text().startswith("tau,")
    return modules


def test_import_does_not_load_scipy(imported):
    assert _scipy(imported) == []


def test_file_commands_do_not_load_scipy(pipeline):
    assert _scipy(pipeline) == []


def test_import_does_not_load_concurrent_futures(imported):
    assert "concurrent.futures" not in imported


def test_file_commands_do_not_load_concurrent_futures(pipeline):
    assert "concurrent.futures" not in pipeline


def test_true_quantile_loads_scipy():
    # the probe above does see scipy once something asks for it
    assert "scipy" in _modules("import cqforest\ncqforest.true_quantile('aft1d', 1.0, 0.5)")


def test_threads_do_not_load_concurrent_futures():
    # every pass is serial: asking for more threads loads no pool either
    code = """
import tempfile
import cqforest as cqf
d = cqf.simulate(cqf.SimConfig(model="aft1d", n=40, censor_rate_param=0.2, seed=1))
f = cqf.fit(d, cqf.ForestConfig(min_node_size=5, n_trees=3))
cqf.predict_batch(f, d, d.features[:3], cqf.CqrConfig(), threads=2)
# coverage: a crf root pass with no true quantiles, whose scipy would load concurrent.futures itself
spec = cqf.ExperimentSpec(scenario="coverage", replications=1, n_train=40, n_test=5, trees=3, node_sizes=(10,))
with tempfile.TemporaryDirectory() as out:
    cqf.bench.run(spec, out, threads=2)
"""
    assert "concurrent.futures" not in _modules(code)
