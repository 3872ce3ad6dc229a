"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

harness.load_program(ROOT)

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "cli": dict(n_train=300, n_test=20, trees=5, node_size=20, min_ops=1),
    "serve": dict(n_train=300, n_test=10, trees=5, node_size=20, knn=10),
    "study": dict(n_train=60, n_test=30, trees=5, replications=1, min_ops=1),
}

# layers each workload must reach; a probe that stops firing shows up here
REACHED = {
    "cli": ("data.load_csv_s", "cli.fit_main_s", "cli.predict_main_s", "forest.save_s", "forest.load_s",
            "forest.model_bytes", "forest.weight_matrix_s", "survival.beran_rf_s", "estimator.predict_batch_s",
            "estimator.predict_with_weights_s", "metrics.c_index_s", "forest.weight_nnz", "forest.fit_pool_s",
            "forest.pool_ratio", "estimator.predict_batch_pool_s"),
    "serve": ("data.simulate_s", "forest.fit_s", "forest.forest_weights_ms", "survival.km_knn_ms",
              "estimator.predict_quantiles_ms", "estimator.candidates_mean"),
    "study": ("data.simulate_s", "forest.fit_s", "forest.from_dense_s", "forest.quantile_from_weights_s",
              "estimator.predict_with_weights_s", "metrics.c_index_s", "metrics.quantile_losses_s",
              "bench.run_s", "bench.self_s"),
}


def tiny(name):
    return workloads.WORKLOADS[name](ROOT, **TINY[name])


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics(name, tmp_path):
    metrics, attempted, failed, notes, samples = run.measure_end_to_end(tiny(name), 3, 0, tmp_path)
    assert attempted >= 1 and failed == 0, notes
    assert list(metrics) == list(run.END_TO_END_UNITS)
    assert all(value is not None and value > 0 for value in metrics.values()), metrics


@pytest.mark.parametrize("name", sorted(TINY))
def test_layer_metrics(name, tmp_path):
    metrics, attempted, failed, notes, data = run.measure_layers(tiny(name), 3, 0, tmp_path)
    assert attempted >= 2 and failed == 0, notes
    assert not any("no function to wrap" in note for note in notes), notes
    assert list(metrics) == list(run.LAYER_UNITS)
    assert all(value is not None for value in metrics.values()), metrics
    assert all(metrics[key] > 0 for key in REACHED[name]), {key: metrics[key] for key in REACHED[name]}
    assert metrics["estimator.qhat_mismatch"] >= 0
    run_field = data["spans"]["fields"].index("run")
    assert data["spans"]["rows"] and all(span[run_field] is not None for span in data["spans"]["rows"])


def _rewrite(path, edit):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    Path(path).write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


def _set_qhat(line, value):
    cells = line.split(",")
    cells[2] = value
    return ",".join(cells)


CORRUPTIONS = {
    "nan": lambda lines: [lines[0], _set_qhat(lines[1], "nan"), *lines[2:]],
    "not a training response": lambda lines: [lines[0], _set_qhat(lines[1], "123.456"), *lines[2:]],
    "crossing": lambda lines: [lines[0], _set_qhat(lines[1], lines[3].split(",")[2]), lines[2],
                               _set_qhat(lines[3], lines[1].split(",")[2]), *lines[4:]],
    "missing row": lambda lines: lines[:-1],
    "repeated row": lambda lines: [*lines, lines[-1]],
    "garbage": lambda lines: [lines[0], "x,y,z", *lines[2:]],
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupted_predictions_fail_and_are_not_scored(kind, tmp_path):
    wl = tiny("cli")
    st = wl.setup(3, tmp_path)
    good = wl.op(st, 0)
    assert good.ok and good.score is not None, good.failures
    _rewrite(st.path("pred.csv"), CORRUPTIONS[kind])
    judged = wl.score(st, harness.Outcome(1.0))
    assert judged.failures and judged.score is None


def test_evaluation_that_disagrees_with_predictions_fails(tmp_path):
    wl = tiny("cli")
    st = wl.setup(3, tmp_path)
    assert wl.op(st, 0).ok
    _rewrite(st.path("eval.csv"), lambda lines: [lines[0], lines[1].replace(",,,", ",,,1", 1), *lines[2:]])
    judged = wl.score(st, harness.Outcome(1.0))
    assert judged.failures and judged.score is None


def test_serve_answer_that_differs_from_batch_fails(tmp_path):
    wl = tiny("serve")
    st = wl.setup(3, tmp_path)
    assert wl.op(st, 0).ok
    st.ref_q[0, 1] = np.nextafter(st.ref_q[0, 1], np.inf)
    assert not wl.op(st, 0).ok


def test_study_result_that_is_not_finite_fails(tmp_path):
    wl = tiny("study")
    st = wl.setup(3, tmp_path)
    assert wl.op(st, 0).ok
    results = st.out / "results.csv"
    _rewrite(results, lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",nan", *lines[2:]])
    failures, score = workloads.check_results(results, st.spec)
    assert failures and score is None


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
