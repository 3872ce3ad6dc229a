import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from cqforest.bench import (
    METHODS,
    SCENARIOS,
    ExperimentSpec,
    illustrative_roots,
    load_spec,
    run,
)
from cqforest import forest as forest_module
from cqforest.data import DataError


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestSpec:
    def test_defaults(self):
        spec = ExperimentSpec(scenario="aft1d")
        assert spec.replications == 20 and spec.methods == METHODS

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(scenario="nope"),
            dict(scenario="aft1d", replications=0),
            dict(scenario="aft1d", n_train=0),
            dict(scenario="aft1d", trees=0),
            dict(scenario="aft1d", taus=()),
            dict(scenario="aft1d", taus=(0.5, 0.3)),
            dict(scenario="aft1d", taus=(0.5, 1.5)),
            dict(scenario="aft1d", node_sizes=(0,)),
            dict(scenario="aft1d", methods=("crf", "boost")),
            dict(scenario="aft1d", methods=()),
            dict(scenario="aft1d", censor_rate=0.0),
            dict(scenario="aft1d", censor_rate=float("inf")),
            dict(scenario="aft1d", censor_rate=float("nan")),
            dict(scenario="aft1d", seed=-1),
            dict(scenario="aft1d", node_sizes=(2.5,)),
            dict(scenario="aft1d", node_sizes=(True,)),
            dict(scenario="aft1d", replications=2.0),
            dict(scenario="aft1d", n_test=True),
        ],
    )
    def test_rejects_bad_spec(self, kwargs):
        with pytest.raises(DataError):
            ExperimentSpec(**kwargs)

    def test_numpy_integers_stored_as_int(self):
        spec = ExperimentSpec(scenario="aft1d", trees=np.int64(3), seed=np.uint32(4), node_sizes=(np.int16(5),))
        assert (spec.trees, spec.seed, spec.node_sizes) == (3, 4, (5,))
        assert all(type(v) is int for v in (spec.trees, spec.seed, *spec.node_sizes))


class TestLoadSpec:
    def test_parses_full_file(self, tmp_path):
        path = tmp_path / "run.spec"
        path.write_text(
            "# quantile benchmark\n"
            "scenario = sine1d\n"
            "\n"
            "replications=3  # small\n"
            "n_train = 60\n"
            "taus = 0.25, 0.75\n"
            "node_sizes = 10,20\n"
            "methods = crf, qrf\n"
            "censor_rate = 0.3\n"
            "seed = 9\n"
        )
        spec = load_spec(path)
        assert spec == ExperimentSpec(
            scenario="sine1d",
            replications=3,
            n_train=60,
            taus=(0.25, 0.75),
            node_sizes=(10, 20),
            methods=("crf", "qrf"),
            censor_rate=0.3,
            seed=9,
        )

    def test_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("scenario = aft1d\nturbo = on\n")
        with pytest.raises(DataError, match=r"bad\.spec:2: unknown key"):
            load_spec(path)
        path.write_text("just a line\n")
        with pytest.raises(DataError, match="expected key=value"):
            load_spec(path)
        path.write_text("replications = 2\n")
        with pytest.raises(DataError, match="must set scenario"):
            load_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_spec(tmp_path / "absent.spec")


class TestIllustrativeRoots:
    def test_deterministic(self):
        assert illustrative_roots(200, 5) == illustrative_roots(200, 5)

    def test_roots_near_target_at_large_n(self):
        u1, u2 = illustrative_roots(5000, 0)
        assert abs(u1 - 0.5) <= 0.05
        assert abs(u2 - 0.5) <= 0.05

    def test_tau_argument(self):
        u1, u2 = illustrative_roots(5000, 1, tau=0.25)
        assert abs(u1 - 0.25) <= 0.05
        assert abs(u2 - 0.25) <= 0.05


TINY = dict(replications=2, n_train=40, n_test=12, taus=(0.5,), trees=5, seed=1)


class TestRun:
    def test_deterministic_output(self, tmp_path):
        spec = ExperimentSpec(scenario="aft1d", **TINY)
        r1, _ = run(spec, tmp_path / "a")
        r2, _ = run(spec, tmp_path / "b")
        assert Path(r1).read_bytes() == Path(r2).read_bytes()

    @pytest.mark.parametrize("scenario", [s for s in SCENARIOS if s != "runtime-scaling"])
    def test_scenario_smoke(self, tmp_path, scenario):
        kwargs = dict(TINY)
        if scenario == "node-size-sweep":
            kwargs["node_sizes"] = (10, 20)  # override the default 5..60 sweep
        spec = ExperimentSpec(scenario=scenario, **kwargs)
        results_path, aggregate_path = run(spec, tmp_path / scenario)
        rows = read_rows(results_path)
        assert rows, scenario
        assert set(rows[0]) == {
            "scenario", "method", "tau", "node_size", "replication", "metric", "value",
        }
        assert {r["scenario"] for r in rows} == {scenario}
        for r in rows:
            assert np.isfinite(float(r["value"]))
        agg = read_rows(aggregate_path)
        assert {r["metric"] for r in agg} == {r["metric"] for r in rows}
        by_rep = {int(r["replication"]) for r in rows}
        assert by_rep == {0, 1}
        for r in agg:
            assert int(r["n_reps"]) == 2
            assert r["sd"] != ""

    def test_runtime_scaling_smoke(self, tmp_path):
        spec = ExperimentSpec(
            scenario="runtime-scaling", replications=1, n_test=5, taus=(0.5,), trees=3, seed=1
        )
        results_path, aggregate_path = run(spec, tmp_path / "rt")
        rows = read_rows(results_path)
        # node_size encodes the training scale: m = n/10 for n in 500/1000/2000
        assert [int(r["node_size"]) for r in rows] == [50, 100, 200]
        assert all(r["metric"] == "seconds_per_prediction" for r in rows)
        assert all(float(r["value"]) > 0 for r in rows)
        agg = read_rows(aggregate_path)
        assert all(r["sd"] == "" for r in agg)  # single replication

    def test_illustrative_node_size_encodes_n(self, tmp_path):
        spec = ExperimentSpec(scenario="illustrative41", **TINY)
        results_path, _ = run(spec, tmp_path / "il")
        rows = read_rows(results_path)
        assert {int(r["node_size"]) for r in rows} == {100, 500, 1000, 5000}
        assert {r["method"] for r in rows} == {"u1", "u2"}
        assert {r["metric"] for r in rows} == {"root"}

    def test_survival_comparison_labels(self, tmp_path):
        spec = ExperimentSpec(scenario="survival-comparison", **TINY)
        results_path, _ = run(spec, tmp_path / "sc")
        methods = {r["method"] for r in read_rows(results_path)}
        assert methods == {"crf-beran-rf", "crf-km-knn"}

    def test_method_subset(self, tmp_path):
        kwargs = dict(TINY, methods=("qrf",))
        spec = ExperimentSpec(scenario="aft1d", **kwargs)
        results_path, _ = run(spec, tmp_path / "qo")
        assert {r["method"] for r in read_rows(results_path)} == {"qrf"}

    def test_oracle_beats_plain_qrf_on_known_seed(self, tmp_path):
        # deterministic given the seed: fitting on the latent responses
        # must not lose to fitting on censored ones at the median
        spec = ExperimentSpec(
            scenario="aft1d",
            replications=3,
            n_train=150,
            n_test=80,
            taus=(0.5,),
            methods=("qrf", "qrf_oracle"),
            trees=30,
            seed=2,
        )
        _, aggregate_path = run(spec, tmp_path / "or")
        mse = {
            r["method"]: float(r["mean"])
            for r in read_rows(aggregate_path)
            if r["metric"] == "l_mse"
        }
        assert mse["qrf_oracle"] < mse["qrf"]


# sha256 of results.csv then aggregate.csv for PINNED_SPEC, one per
# deterministic scenario; the tables must not change while the
# replication loop is refactored
PINNED_SPEC = dict(replications=2, n_train=80, n_test=40, trees=8, seed=3, taus=(0.2, 0.5, 0.8))
PINNED_SHA256 = {
    "illustrative41": "2562ec3187e6fb43be78981a01403630dd3c64ee5c35f3003134e69363bc2df8",
    "aft1d": "84a4b99aa00332e846cef77a6c98998cda9974f3957a7ffe17bbbcf82160988c",
    "sine1d": "d6c87aa7d63decbd02cdea22d684132ca6b75aaa92ace4b231e5364bcf372cf9",
    "aft-multi": "f55ff7d7bdce93ba3eaa578359c2ac4d5df5142f94150232ece7254869c4b21e",
    "complex": "06e92c2d8a9e20c4a99a9475af8bd8fa0aeec0d5e1b5df61aa7c191baa47fc51",
    "survival-comparison": "31b1e25102690b3cde17400bed9a9826df10ebdb87e24a04afbd1b9635c0e367",
    "node-size-sweep": "faa38cd3c831d24d5e0f8ea91a9a84f7e9e50aab06458d5c2f63fd62494d3b3c",
    "coverage": "5a32d6ae469739917536ac2d691ce6e169e33134b43d7f7aa1d74649e7c9cd8e",
}


def pinned_spec(scenario):
    # coverage scores only the first node size, so give it two
    node_sizes = (10, 20) if scenario == "coverage" else ()
    return ExperimentSpec(scenario=scenario, node_sizes=node_sizes, **PINNED_SPEC)


def table_bytes(out_dir, spec, threads=1):
    return b"".join(Path(p).read_bytes() for p in run(spec, out_dir, threads=threads))


class TestPinnedTables:
    @pytest.mark.parametrize("scenario", sorted(PINNED_SHA256))
    def test_tables_match_pinned_digest(self, tmp_path, scenario):
        digest = hashlib.sha256(table_bytes(tmp_path, pinned_spec(scenario))).hexdigest()
        assert digest == PINNED_SHA256[scenario]

    @pytest.mark.parametrize("scenario", ["aft1d", "survival-comparison", "coverage"])
    def test_threads_do_not_change_tables(self, tmp_path, monkeypatch, scenario):
        # small blocks, so the crf root pass hands several to each thread
        monkeypatch.setattr(forest_module, "_BLOCK_CELLS", 1 << 9)
        spec = pinned_spec(scenario)
        assert table_bytes(tmp_path / "2", spec, threads=2) == table_bytes(tmp_path / "1", spec, threads=1)
