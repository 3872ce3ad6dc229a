"""The package and its file commands start without loading scipy.

scipy is only needed for the simulators' true quantiles; each check runs in
a fresh interpreter so that other tests' imports do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
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


def _scipy_modules(code, *args):
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


def test_import_does_not_load_scipy():
    assert _scipy_modules("import cqforest") == []


def test_file_commands_do_not_load_scipy(tmp_path):
    assert _scipy_modules(PIPELINE, str(tmp_path)) == []
    assert (tmp_path / "eval.csv").read_text().startswith("tau,")


def test_true_quantile_loads_scipy():
    # the probe above does see scipy once something asks for it
    assert "scipy" in _scipy_modules("import cqforest\ncqforest.true_quantile('aft1d', 1.0, 0.5)")
