"""Command-line interface: simulate, fit, predict, evaluate, bench.

All inputs and outputs are headered CSV (plus the binary model file), all
randomness flows from --seed flags, and exit codes are 0 (success),
2 (usage error), 3 (data/file error, or out of memory), 4 (internal error).
"""

import argparse
import sys
from functools import partial

import numpy as np

from . import bench as bench_harness
from .data import (
    MODELS,
    DataError,
    SimConfig,
    _column,
    _read_dataset,
    load_csv,
    load_features_csv,
    read_table,
    simulate,
    write_csv,
    write_table,
)
from .estimator import CqrConfig, predict_batch
from .forest import ForestConfig, fit, load_forest, save_forest
from .metrics import quantile_losses, c_index

_THREADS_HELP = "must be >= 1; checked, otherwise unused, kept while perfbench passes it"


def _taus_arg(text):
    try:
        taus = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tau list {text!r}") from None
    if not taus:
        raise argparse.ArgumentTypeError("tau list is empty")
    return taus


def _survival_arg(text):
    if text == "beran-rf":
        return ("beran-rf", None)
    if text.startswith("km-knn:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid neighbor count in {text!r}") from None
        return ("km-knn", k)
    raise argparse.ArgumentTypeError(f"expected 'beran-rf' or 'km-knn:<k>', got {text!r}")


def _cmd_simulate(args):
    cfg = SimConfig(model=args.model, n=args.n, censor_rate_param=args.censor_rate, seed=args.seed)
    data = simulate(cfg)
    write_csv(args.out, data)
    frac = 1.0 - data.event.mean()
    print(f"wrote {data.n} rows to {args.out} (censoring fraction {frac:.3f})")
    return 0


def _cmd_fit(args):
    schema, data = _read_dataset(args.data)
    node_size = args.node_size if args.node_size is not None else max(1, data.n // 10)
    cfg = ForestConfig(min_node_size=node_size, n_trees=args.trees, mtry=args.mtry, seed=args.seed)
    forest = fit(data, cfg, threads=args.threads, feature_names=schema.features)
    save_forest(forest, args.model_out)
    print(f"fitted {cfg.n_trees} trees on {data.n} rows (node size {node_size}); model at {args.model_out}")
    return 0


def _cmd_predict(args):
    data = load_csv(args.data)
    forest = load_forest(args.model, data)
    xmat, _ = load_features_csv(args.features, names=forest.feature_names, n_features=forest.n_features)
    mode, k = args.survival
    cfg = CqrConfig(taus=args.taus, survival=mode, knn=k)
    preds = predict_batch(forest, data, xmat, cfg, threads=args.threads)
    rows = (
        [i, repr(p.tau), repr(p.q_hat), repr(p.residual), int(p.degenerate_tail)] for i, ps in enumerate(preds) for p in ps
    )
    write_table(args.out, ["row", "tau", "q_hat", "residual", "degenerate_tail"], rows)
    print(f"wrote {len(preds) * len(cfg.taus)} predictions to {args.out}")
    return 0


def _read_predictions(path):
    """A prediction file's q_hat by tau, then by row; a repeated (row, tau) pair raises DataError."""
    header, lines, rows = read_table(path)
    column = partial(_column, path, header, lines, rows)
    table = {}
    for lineno, row, tau, q in zip(lines, column("row", kind="int"), column("tau"), column("q_hat")):
        per_tau = table.setdefault(tau, {})
        if row in per_tau:
            raise DataError(f"{path}:{lineno}: repeated prediction for row {row} at tau {tau!r}")
        per_tau[row] = q
    return table


def _cmd_evaluate(args):
    table = _read_predictions(args.pred)
    truth = load_csv(args.truth)
    taus = args.taus if args.taus is not None else tuple(sorted(table))
    truth_t = truth.latent if truth.latent is not None else truth.response
    rows = []
    for tau in taus:
        if tau not in table:
            raise DataError(f"{args.pred}: no predictions for tau={tau!r}")
        per_row = table[tau]
        if sorted(per_row) != list(range(truth.n)):
            raise DataError(f"{args.pred}: prediction rows for tau={tau!r} do not match truth rows")
        pred = np.array([per_row[i] for i in range(truth.n)])
        report = quantile_losses(truth_t, None, pred, tau)
        try:
            cidx = repr(c_index(pred, truth.response, truth.event))
        except DataError:  # no usable pair: the c-index is undefined, the losses are not
            cidx = ""
        losses = ("" if v is None else repr(v) for v in (report.l_mse, report.l_mad))
        rows.append([repr(report.tau), report.n_test, *losses, repr(report.l_quantile), cidx])
    write_table(args.out, ["tau", "n_test", "l_mse", "l_mad", "l_quantile", "c_index"], rows)
    print(f"wrote {len(rows)} evaluation rows to {args.out}")
    return 0


def _cmd_bench(args):
    spec = bench_harness.load_spec(args.spec)
    results_path, aggregate_path = bench_harness.run(spec, args.out_dir, threads=args.threads)
    print(f"wrote {results_path} and {aggregate_path}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cqforest",
        description="Censored quantile regression with random forest local weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="draw a censored dataset from a built-in generator")
    sp.add_argument("--model", required=True, choices=MODELS)
    sp.add_argument("--n", required=True, type=int, help="number of rows")
    sp.add_argument(
        "--lambda",
        dest="censor_rate",
        required=True,
        type=float,
        help="censoring rate parameter of the generator",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("fit", help="fit a forest on a censored CSV dataset")
    sp.add_argument("--data", required=True, help="training CSV (features + y + delta)")
    sp.add_argument("--trees", type=int, default=1000)
    sp.add_argument("--node-size", type=int, default=None, help="minimum leaf size (default: n/10)")
    sp.add_argument("--mtry", type=int, default=None, help="features tried per split (default: ceil(p/3))")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--model-out", required=True, help="output model file (.npz archive, written to this exact path)")
    sp.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("predict", help="estimate quantiles at new feature points")
    sp.add_argument("--model", required=True, help="model file written by fit")
    sp.add_argument("--data", required=True, help="the training CSV the model was fitted on")
    sp.add_argument("--features", required=True, help="CSV of test feature rows")
    sp.add_argument("--taus", required=True, type=_taus_arg, help="comma-separated quantile levels")
    sp.add_argument(
        "--survival",
        type=_survival_arg,
        default=("beran-rf", None),
        help="censoring-curve estimator: beran-rf or km-knn:<k>",
    )
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    sp.set_defaults(func=_cmd_predict)

    sp = sub.add_parser("evaluate", help="score a prediction file against outcomes")
    sp.add_argument("--pred", required=True, help="CSV written by predict")
    sp.add_argument("--truth", required=True, help="CSV with y/delta (and latent if simulated)")
    sp.add_argument("--taus", type=_taus_arg, default=None, help="levels to score (default: all present)")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=_cmd_evaluate)

    sp = sub.add_parser("bench", help="run a benchmark spec file")
    sp.add_argument("--spec", required=True, help="key=value spec file")
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    sp.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None):
    """Run one CLI invocation and return its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return int(args.func(args) or 0)
    except (DataError, OSError) as exc:
        print(f"cqforest: error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # the last net: arguments asking for more memory than the machine has
        print(f"cqforest: error: {args.command} ran out of memory ({exc or 'no details'}); "
              "ask for fewer rows, trees or points", file=sys.stderr)
        return 3
    except Exception as exc:  # truly unexpected; keep the contract of a clean code
        print(f"cqforest: internal error: {exc!r}", file=sys.stderr)
        return 4


def entry():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
