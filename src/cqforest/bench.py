"""Monte-Carlo benchmark harness.

Runs replicated simulation studies and writes two CSV files: a tidy
per-replication table ``results.csv`` with columns

    scenario, method, tau, node_size, replication, metric, value

and an ``aggregate.csv`` of (mean, sd) per metric cell. Scenarios cover
the four generators, a survival-estimator comparison, a node-size sweep,
interval coverage, a one-dimensional illustrative root study, and
runtime scaling. Methods: ``crf`` (censoring-adjusted forest quantiles),
``qrf`` (plain weighted quantiles of the observed response), and
``qrf_oracle`` (plain weighted quantiles from a forest fitted on the
latent, uncensored response — simulation-only upper bound).

Everything is seeded: one spec plus one seed yields identical tables,
except for the wall-clock values measured by runtime-scaling.
"""

import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .data import (
    DataError, Dataset, SimConfig, check_int, check_real, check_taus, open_utf8, simulate, true_quantile, write_table,
)
from .estimator import CqrConfig, _qhat_table, predict_with_weights
from .forest import ForestConfig, WeightVector, _points, _weight_rows, _weighted_quantile_table, fit, quantile_from_weights
from .metrics import c_index, quantile_losses

SCENARIOS = (
    "illustrative41",
    "aft1d",
    "sine1d",
    "aft-multi",
    "complex",
    "survival-comparison",
    "node-size-sweep",
    "coverage",
    "runtime-scaling",
)
METHODS = ("crf", "qrf", "qrf_oracle")

_SCENARIO_MODEL = {
    "aft1d": "aft1d",
    "sine1d": "sine1d",
    "aft-multi": "aft-multi",
    "complex": "complex",
    "survival-comparison": "sine1d",
    "node-size-sweep": "sine1d",
    "coverage": "sine1d",
    "runtime-scaling": "aft1d",
}

# default censoring-rate parameters chosen so the generators land on
# their documented censoring fractions
_DEFAULT_RATE = {"aft1d": 0.08, "sine1d": 0.2, "aft-multi": 0.05, "complex": 0.015}

_RUNTIME_SIZES = (500, 1000, 2000)
_ILLUSTRATIVE_SIZES = (100, 500, 1000, 5000)


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark run: scenario, scale, methods, and seeding."""

    scenario: str
    replications: int = 20
    n_train: int = 300
    n_test: int = 300
    taus: tuple = (0.1, 0.3, 0.5, 0.7, 0.9)
    node_sizes: tuple = ()
    methods: tuple = METHODS
    trees: int = 200
    seed: int = 0
    censor_rate: float | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise DataError(f"unknown scenario {self.scenario!r}")
        for name, low in (("replications", 1), ("n_train", 1), ("n_test", 1), ("trees", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))
        object.__setattr__(self, "taus", check_taus(self.taus))
        object.__setattr__(self, "node_sizes", tuple(check_int("node size", m, 1) for m in self.node_sizes))
        methods = tuple(self.methods)
        if not methods or any(m not in METHODS for m in methods):
            raise DataError(f"methods must be a nonempty subset of {METHODS}")
        object.__setattr__(self, "methods", methods)
        if self.censor_rate is not None:
            object.__setattr__(self, "censor_rate", check_real("censor_rate", self.censor_rate, 0))


def _child_seed(*parts):
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def _node_sizes(spec):
    if spec.node_sizes:
        return spec.node_sizes
    if spec.scenario == "node-size-sweep":
        return tuple(range(5, 61, 5))
    return (max(1, spec.n_train // 10),)


def illustrative_roots(n, seed, tau=0.5):
    """Roots of the two one-dimensional estimating equations.

    Draws T ~ Unif(0,1) censored by C ~ N(0.8, 0.2^2) and solves, under
    uniform weights, the latent-data equation (root_u1, the empirical
    tau-quantile of T) and the censoring-adjusted equation on observed
    data (root_u2). Both should approach the tau-quantile of T as n
    grows; root_u1 exists only because simulation reveals T.
    """
    n = check_int("n", n, 1)
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, n)
    c = rng.normal(0.8, 0.2, n)
    y = np.minimum(t, c)
    event = t <= c
    w = WeightVector.uniform(n)

    root_u1 = quantile_from_weights(w, t, tau)

    # km-knn over all n rows is plain Kaplan-Meier on the whole sample
    observed = Dataset(features=np.zeros((n, 1)), response=y, event=event)
    root_u2 = predict_with_weights([0.0], w, observed, CqrConfig(taus=(tau,), survival="km-knn", knn=n))[0].q_hat
    return root_u1, root_u2


def _replications(spec, plan):
    """``(rep, node size, train, test, forest config, forest)`` for every fit of a run, in results.csv order.

    ``plan`` lists ``(training rows, seed tag, node sizes)``. Each
    replication simulates, per plan entry, a training and a test set of
    the scenario's model and fits one forest per node size on the
    training set. Training data, test data and forest draw from streams
    0, 1 and 2 of ``_child_seed(spec.seed, rep, stream, *tag)``.
    """
    model = _SCENARIO_MODEL[spec.scenario]
    rate = spec.censor_rate if spec.censor_rate is not None else _DEFAULT_RATE[model]
    for rep in range(spec.replications):
        for n, tag, sizes in plan:
            train, test = (
                simulate(SimConfig(model=model, n=size, censor_rate_param=rate,
                                   seed=_child_seed(spec.seed, rep, stream, *tag)))
                for stream, size in enumerate((n, spec.n_test))
            )
            for m in sizes:
                fcfg = ForestConfig(min_node_size=m, n_trees=spec.trees, seed=_child_seed(spec.seed, rep, 2, *tag))
                yield rep, m, train, test, fcfg, fit(train, fcfg)


def _weights(forest, xmat):
    """Sparse (index, value) forest-weight rows at every row of xmat."""
    return list(_weight_rows(forest, _points(xmat, forest.n_features)))


def _emit(rows, scenario, method, tau, node_size, rep, metric, value):
    if value is not None:
        rows.append((scenario, method, tau, node_size, rep, metric, float(value)))


def _emit_scores(rows, scenario, method, tau, node_size, rep, test, true_q, q):
    """Losses of q against the test rows' latent times, and its c-index when defined."""
    report = quantile_losses(test.latent, true_q, q, tau)
    try:
        cidx = c_index(q, test.response, test.event)
    except DataError:
        cidx = None
    _emit(rows, scenario, method, tau, node_size, rep, "l_mse", report.l_mse)
    _emit(rows, scenario, method, tau, node_size, rep, "l_mad", report.l_mad)
    _emit(rows, scenario, method, tau, node_size, rep, "l_quantile", report.l_quantile)
    _emit(rows, scenario, method, tau, node_size, rep, "c_index", cidx)


def _crf_variants(spec, node_size):
    """(method label, CqrConfig) pairs to run as censoring-adjusted forests."""
    if spec.scenario == "survival-comparison":
        return (
            ("crf-beran-rf", CqrConfig(taus=spec.taus, survival="beran-rf")),
            ("crf-km-knn", CqrConfig(taus=spec.taus, survival="km-knn", knn=node_size)),
        )
    if "crf" in spec.methods:
        return (("crf", CqrConfig(taus=spec.taus, survival="beran-rf")),)
    return ()


def _score_models(spec, rows):
    model = _SCENARIO_MODEL[spec.scenario]
    plain = spec.scenario != "survival-comparison"
    for rep, m, train, test, fcfg, forest in _replications(spec, [(spec.n_train, (), _node_sizes(spec))]):
        weights = _weights(forest, test.features)
        tables = [(label, _qhat_table(weights, train, cfg)) for label, cfg in _crf_variants(spec, m)]
        # plain weighted quantiles: of the observed response, and of the
        # latent response under a forest refitted on it
        if plain and "qrf" in spec.methods:
            tables.append(("qrf", _weighted_quantile_table(weights, train.response, spec.taus)))
        if plain and "qrf_oracle" in spec.methods:
            oracle = fit(replace(train, response=train.latent, event=np.ones(train.n, dtype=bool)), fcfg)
            oracle_q = _weighted_quantile_table(_weights(oracle, test.features), oracle.response, spec.taus)
            tables.append(("qrf_oracle", oracle_q))
        true_q = [true_quantile(model, test.features, tau) for tau in spec.taus]
        for label, q_hat in tables:
            for j, tau in enumerate(spec.taus):
                _emit_scores(rows, spec.scenario, label, tau, m, rep, test, true_q[j], q_hat[:, j])


def _run_illustrative(spec, rows):
    for rep in range(spec.replications):
        for n in _ILLUSTRATIVE_SIZES:
            for tau in spec.taus:
                u1, u2 = illustrative_roots(n, _child_seed(spec.seed, rep, n), tau)
                _emit(rows, spec.scenario, "u1", tau, n, rep, "root", u1)
                _emit(rows, spec.scenario, "u2", tau, n, rep, "root", u2)


def _score_coverage(spec, rows, level=0.95):
    alpha = (1.0 - level) / 2.0
    cfg = CqrConfig(taus=(alpha, 1.0 - alpha))
    for rep, m, train, test, _, forest in _replications(spec, [(spec.n_train, (), _node_sizes(spec)[:1])]):
        lo, hi = _qhat_table(_weights(forest, test.features), train, cfg).T
        covered = (test.latent >= lo) & (test.latent <= hi)
        _emit(rows, spec.scenario, "crf", level, m, rep, "coverage", covered.mean())
        _emit(rows, spec.scenario, "crf", level, m, rep, "interval_width", (hi - lo).mean())


def _score_runtime(spec, rows):
    cfg = CqrConfig(taus=(0.5,))
    plan = [(n, (n,), (max(1, n // 10),)) for n in _RUNTIME_SIZES]
    for rep, m, train, test, _, forest in _replications(spec, plan):
        start = time.perf_counter()
        _qhat_table(_weights(forest, test.features), train, cfg)
        elapsed = time.perf_counter() - start
        _emit(rows, spec.scenario, "crf", 0.5, m, rep, "seconds_per_prediction", elapsed / test.n)


def run(spec, out_dir, threads=1):
    """Execute a benchmark spec and write results.csv + aggregate.csv.

    Returns the two file paths. Tables are deterministic given (spec,
    seed), runtime measurements excepted. Everything runs serially:
    ``threads`` is checked, otherwise unused, kept while perfbench
    passes it.
    """
    check_int("threads", threads, 1)
    rows = []
    if spec.scenario == "illustrative41":
        _run_illustrative(spec, rows)
    elif spec.scenario == "coverage":
        _score_coverage(spec, rows)
    elif spec.scenario == "runtime-scaling":
        _score_runtime(spec, rows)
    else:
        _score_models(spec, rows)
    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, "results.csv")
    results = (
        [scenario, method, repr(float(tau)), node_size, rep, metric, repr(value)]
        for scenario, method, tau, node_size, rep, metric, value in rows
    )
    write_table(results_path, ["scenario", "method", "tau", "node_size", "replication", "metric", "value"], results)
    groups = {}
    for scenario, method, tau, node_size, rep, metric, value in rows:
        groups.setdefault((scenario, method, tau, node_size, metric), []).append(value)
    aggregate = []
    for (scenario, method, tau, node_size, metric), values in groups.items():
        arr = np.asarray(values)
        sd = repr(float(arr.std(ddof=1))) if arr.size > 1 else ""
        aggregate.append([scenario, method, repr(float(tau)), node_size, metric, repr(float(arr.mean())), sd, arr.size])
    aggregate_path = os.path.join(out_dir, "aggregate.csv")
    write_table(aggregate_path, ["scenario", "method", "tau", "node_size", "metric", "mean", "sd", "n_reps"], aggregate)
    return results_path, aggregate_path


def _number_list(kind):
    return lambda value: tuple(kind(v) for v in value.split(",") if v.strip())


# spec keys with numeric values and their parsers; each raises ValueError on bad text
_SPEC_PARSERS = {
    **dict.fromkeys(("replications", "n_train", "n_test", "trees", "seed"), int),
    "censor_rate": float,
    "taus": _number_list(float),
    "node_sizes": _number_list(int),
}


def load_spec(path):
    """Parse a key=value spec file (# comments and blank lines allowed)."""
    kv = {}
    try:
        with open_utf8(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "scenario":
            kv[key] = value
        elif key == "methods":
            kv[key] = tuple(v.strip() for v in value.split(",") if v.strip())
        elif key in _SPEC_PARSERS:
            try:
                kv[key] = _SPEC_PARSERS[key](value)
            except ValueError:
                raise DataError(f"{path}:{lineno}: {key} has a malformed value {value!r}") from None
        else:
            raise DataError(f"{path}:{lineno}: unknown key {key!r}")
    if "scenario" not in kv:
        raise DataError(f"{path}: spec must set scenario")
    try:
        return ExperimentSpec(**kv)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from None
