"""The calls perfbench makes into cqforest, run in-process at its smoke-test sizes.

perfbench (``perfbench/``) reaches cqforest through public entry points:
``fit`` and ``predict_batch`` with ``threads=``, ``load_csv`` with
``detect_schema``, ``load_features_csv`` with ``n_features=``,
``weight_matrix``, ``WeightVector.from_dense``, ``predict_with_weights``,
``predict_quantiles``, ``bench.run``, ``cli.main`` and ``Forest.trees``,
and its tracer wraps a fixed list of public functions. Each workload's
set-up and one replayed operation run here, and cli's traced extra
calls under a ``spans.Tracer``, so a change that breaks one of those
calls fails this suite, not only a benchmark run. perfbench's files are
imported as they are; a change to these entry points updates this test
and perfbench together.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402

harness.load_program(ROOT)

import spans  # noqa: E402
import workloads  # noqa: E402

# the sizes of perfbench/test_smoke.py
TINY = {
    "cli": dict(n_train=300, n_test=20, trees=5, node_size=20, min_ops=1),
    "serve": dict(n_train=300, n_test=10, trees=5, node_size=20, knn=10),
    "study": dict(n_train=60, n_test=30, trees=5, replications=1, min_ops=1),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_setup_and_one_replay_succeed(name, tmp_path):
    wl = workloads.WORKLOADS[name](ROOT, **TINY[name])
    state = wl.setup(3, tmp_path)
    assert not state.failures
    outcome = wl.replay(state, 0)
    assert outcome.ok, outcome.failures
    if hasattr(wl, "trace_aux"):
        tracer = spans.Tracer()
        wl.trace_aux(state, tracer)
        assert tracer.spans


def test_every_probe_finds_its_function():
    assert spans.Tracer().missing == []
