"""cqforest benchmark: time the cli, serve and study workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics and the tracing overhead. Either way every operation's outputs
are checked, the metrics are printed by name and unit, a record with the
environment is kept under ``.perfbench/results/``, and the last line of
standard output is the JSON result. cqforest is imported from the
checkout's ``src/`` only; without it the run exits with code 2.
"""

import argparse
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import harness
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
# set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S seconds
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "pinball_ratio": "ratio",
}

LAYER_UNITS = {
    "data.simulate_s": "s",
    "data.load_csv_s": "s",
    "cli.startup_s": "s",
    "cli.fit_main_s": "s",
    "cli.predict_main_s": "s",
    "cli.evaluate_main_s": "s",
    "forest.fit_s": "s",
    "forest.fit_pool_s": "s",
    "forest.pool_ratio": "ratio",
    "forest.nodes": "count",
    "forest.leaves": "count",
    "forest.max_depth": "count",
    "forest.save_s": "s",
    "forest.load_s": "s",
    "forest.model_bytes": "bytes",
    "forest.apply_s": "s",
    "forest.weight_matrix_s": "s",
    "forest.from_dense_s": "s",
    "forest.forest_weights_ms": "ms",
    "forest.weight_nnz": "count",
    "forest.quantile_from_weights_s": "s",
    "survival.beran_rf_s": "s",
    "survival.km_knn_ms": "ms",
    "estimator.predict_with_weights_s": "s",
    "estimator.predict_batch_s": "s",
    "estimator.predict_batch_pool_s": "s",
    "estimator.predict_quantiles_ms": "ms",
    "estimator.candidates_mean": "count",
    "estimator.degenerate_tail": "count",
    "estimator.qhat_mismatch": "count",
    "metrics.c_index_s": "s",
    "metrics.quantile_losses_s": "s",
    "bench.run_s": "s",
    "bench.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def attempt(op, state, i):
    """Run one operation; one that raises counts as failed and the run goes on."""
    try:
        return op(state, i)
    except Exception as exc:  # noqa: BLE001  (a crash in the program is a failed operation)
        return harness.Outcome(None, [f"{type(exc).__name__}: {exc}"])


def tally(setup_failures, outcomes):
    """(attempted, failed, failure messages); a failed set-up counts as one failed operation."""
    failed = [o for o in outcomes if not o.ok]
    messages = list(setup_failures) + [m for o in failed for m in o.failures]
    return len(outcomes) + bool(setup_failures), len(failed) + bool(setup_failures), messages


def measure_end_to_end(wl, seed, seconds, workdir):
    """Median of repeated set-ups, then operations for ``seconds`` (at least wl.min_ops)."""
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        d = Path(workdir, f"setup{len(setup_times)}")
        d.mkdir()
        start = time.perf_counter()
        state = wl.setup(seed, d)
        setup_times.append(time.perf_counter() - start)
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < wl.min_ops or time.perf_counter() - start < seconds:
        outcomes.append(attempt(wl.op, state, len(outcomes)))
    times = [o.seconds for o in outcomes if o.seconds is not None]
    attempted, failed, messages = tally(state.failures, outcomes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(times) * 1e3 if times else None,
        "op_p90_ms": harness.tail(times) * 1e3 if times else None,
        "peak_rss_mb": harness.peak_rss_mb(wl.rss),
        "pinball_ratio": wl.pinball_ratio(state, outcomes),
    }
    notes = [f"{len(times)} timed operations; set-up repeated {len(setup_times)} times", *wl.notes(outcomes)]
    samples = {"setup_s": setup_times, "op_s": times}
    return metrics, attempted, failed, notes + messages[:20], samples


def measure_layers(wl, seed, seconds, workdir):
    """Traced set-up, then pairs of untraced and traced operations, then the probes' metrics."""
    import workloads

    tracer = Tracer()
    startup = harness.startup_seconds(ROOT)
    d = Path(workdir, "setup0")
    d.mkdir()
    with tracer.installed("setup"):
        state = wl.setup(seed, d)
    outcomes, untraced, traced, pairs = [], 0.0, 0.0, 0
    start = time.perf_counter()
    while True:
        plain = attempt(wl.replay, state, pairs)
        with tracer.installed("op"):
            probed = attempt(wl.replay, state, pairs)
        outcomes += [plain, probed]
        pairs += 1
        if plain.seconds is not None and probed.seconds is not None:
            untraced += plain.seconds
            traced += probed.seconds
        # stop before a further pair would run past ``seconds``
        if (time.perf_counter() - start) * (pairs + 1) / pairs > seconds:
            break
    if hasattr(wl, "trace_aux"):
        wl.trace_aux(state, tracer)
    metrics = layer_metrics(tracer, pairs)
    metrics["cli.startup_s"] = startup
    metrics["estimator.qhat_mismatch"] = workloads.qhat_mismatch()
    metrics["trace.overhead_s"] = (traced - untraced) / pairs
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced if untraced else None
    metrics = {name: metrics.get(name) for name in LAYER_UNITS}
    attempted, failed, messages = tally(state.failures, outcomes)
    notes = [f"{pairs} untraced/traced operation pairs; {len(tracer.spans)} spans"]
    if tracer.missing:
        notes.append("probes with no function to wrap: " + ", ".join(tracer.missing))
    return metrics, attempted, failed, notes + messages[:20], {"spans": tracer.records()}


PREDICTORS = ("estimator.predict_batch", "estimator.predict_quantiles", "estimator.predict_with_weights")


def layer_metrics(t, n_ops):
    """Per-layer metrics from the spans.

    ``_s``: seconds in the traced set-up plus one traced operation (the
    mean over traced operations). ``_ms``: milliseconds per traced
    operation. Counts are per traced operation, except the forest shape
    (mean per fitted forest, deepest leaf overall) and the model size.
    A metric whose probe has no function to wrap is absent (None).
    """
    setup, op, both = ("setup",), ("op",), ("setup", "op")

    def s(*names):
        if not all(t.has(n) for n in names):
            return None
        return sum(t.total(n, setup) + t.total(n, op) / n_ops for n in names)

    def ms(name):
        return t.total(name, op) / n_ops * 1e3 if t.has(name) else None

    def per_op_count(name, key):
        return sum(t.info_values(name, key, op)) / n_ops if t.has(name) else None

    def aux(name, region):
        return t.total(name, (region,)) if t.has(name) else None

    def cli_command(cmd):
        spans = [x for x in t.select("cli.main", both) if x[6] and x[6]["command"] == cmd]
        return sum((x[3] - x[2]) / (n_ops if x[5] == "op" else 1) for x in spans)

    shapes = {key: t.info_values("forest.fit", key, both) for key in ("nodes", "leaves", "max_depth")}
    n_preds = sum(sum(t.info_values(n, "predictions", op)) for n in PREDICTORS)
    n_candidates = sum(sum(t.info_values(n, "candidates", op)) for n in PREDICTORS)
    fit_s, fit_pool_s = s("forest.fit"), aux("forest.fit", "aux-pool")
    # cli replays the batch point by point; study calls predict_with_weights itself
    with_weights = s("estimator.predict_with_weights")
    if with_weights is not None:
        with_weights += aux("estimator.predict_with_weights", "aux-replay")
    return {
        "data.simulate_s": s("data.simulate"),
        "data.load_csv_s": s("data.detect_schema", "data.load_csv", "data.load_features_csv"),
        "cli.fit_main_s": cli_command("fit"),
        "cli.predict_main_s": cli_command("predict"),
        "cli.evaluate_main_s": cli_command("evaluate"),
        "forest.fit_s": fit_s,
        "forest.fit_pool_s": fit_pool_s,
        "forest.pool_ratio": fit_pool_s / fit_s if fit_s and fit_pool_s else 0.0,
        "forest.nodes": statistics.mean(shapes["nodes"]) if shapes["nodes"] else None,
        "forest.leaves": statistics.mean(shapes["leaves"]) if shapes["leaves"] else None,
        "forest.max_depth": max(shapes["max_depth"]) if shapes["max_depth"] else None,
        "forest.save_s": s("forest.save_forest"),
        "forest.load_s": s("forest.load_forest"),
        "forest.model_bytes": max(t.info_values("forest.save_forest", "bytes", both), default=0),
        "forest.apply_s": s("forest.apply"),
        "forest.weight_matrix_s": s("forest.weight_matrix"),
        "forest.from_dense_s": s("forest.WeightVector.from_dense"),
        "forest.forest_weights_ms": ms("forest.forest_weights"),
        "forest.weight_nnz": per_op_count("forest.WeightVector.from_dense", "nnz"),
        "forest.quantile_from_weights_s": s("forest.quantile_from_weights"),
        "survival.beran_rf_s": s("survival.beran_rf"),
        "survival.km_knn_ms": ms("survival.km_knn"),
        "estimator.predict_with_weights_s": with_weights,
        "estimator.predict_batch_s": s("estimator.predict_batch"),
        "estimator.predict_batch_pool_s": aux("estimator.predict_batch", "aux-pool"),
        "estimator.predict_quantiles_ms": ms("estimator.predict_quantiles"),
        "estimator.candidates_mean": n_candidates / n_preds if n_preds else 0.0,
        "estimator.degenerate_tail": sum(per_op_count(n, "degenerate") or 0.0 for n in PREDICTORS),
        "metrics.c_index_s": s("metrics.c_index"),
        "metrics.quantile_losses_s": s("metrics.quantile_losses"),
        "bench.run_s": s("bench.run"),
        "bench.self_s": t.self_time("bench.run", setup) + t.self_time("bench.run", op) / n_ops
        if t.has("bench.run") else None,
        "trace.spans": len(t.spans),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli", "serve", "study"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed; all inputs derive from it")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long to run operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced per-layer run")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        harness.load_program(ROOT)
    except harness.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](ROOT)
    scratch = ROOT / ".perfbench"
    (scratch / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch / "work"))
    measure, units = (measure_layers, LAYER_UNITS) if args.trace else (measure_end_to_end, END_TO_END_UNITS)
    try:
        metrics, attempted, failed, notes, data = measure(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = harness.environment(ROOT, args.workload, args.seed, args.trace)
    correct = failed == 0 and all(metrics[name] is not None for name in END_TO_END_UNITS if name in metrics)
    harness.report(metrics, units, correct, attempted, failed, env, notes, scratch / "results", data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
