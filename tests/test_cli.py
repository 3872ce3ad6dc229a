import csv
import json

import numpy as np
import pytest

from cqforest.cli import main
from cqforest.data import DataError, SimConfig, detect_schema, load_csv, simulate, write_csv
from cqforest.estimator import CqrConfig, predict_batch
from cqforest.forest import ForestConfig, fit, load_forest


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """simulate -> fit -> predict round trip shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    train = root / "train.csv"
    model = root / "model.json"
    feats = root / "points.csv"
    pred = root / "pred.csv"
    assert main([
        "simulate", "--model", "aft1d", "--n", "120", "--lambda", "0.08",
        "--seed", "3", "--out", str(train),
    ]) == 0
    assert main([
        "fit", "--data", str(train), "--trees", "25", "--node-size", "12",
        "--seed", "5", "--model-out", str(model), "--threads", "2",
    ]) == 0
    with open(feats, "w", encoding="utf-8") as fh:
        fh.write("x1\n0.25\n1.0\n1.75\n")
    assert main([
        "predict", "--model", str(model), "--data", str(train), "--features", str(feats),
        "--taus", "0.25,0.5,0.75", "--out", str(pred),
    ]) == 0
    return root


class TestPipeline:
    def test_simulate_output_is_loadable(self, workspace):
        data = load_csv(workspace / "train.csv", detect_schema(workspace / "train.csv"))
        assert data.n == 120 and data.latent is not None
        assert 0.0 < 1.0 - data.event.mean() < 1.0

    def test_model_file_shape(self, workspace):
        doc = json.loads((workspace / "model.json").read_text())
        assert doc["format"] == "cqforest-forest"
        assert len(doc["trees"]) == 25

    def test_predictions_match_in_process(self, workspace):
        train = load_csv(workspace / "train.csv", detect_schema(workspace / "train.csv"))
        forest = fit(train, ForestConfig(min_node_size=12, n_trees=25, seed=5), threads=2)
        cfg = CqrConfig(taus=(0.25, 0.5, 0.75))
        expect = predict_batch(forest, train, np.array([[0.25], [1.0], [1.75]]), cfg)
        rows = read_rows(workspace / "pred.csv")
        assert len(rows) == 9
        for rec in rows:
            p = expect[int(rec["row"])][(0.25, 0.5, 0.75).index(float(rec["tau"]))]
            assert float(rec["q_hat"]) == p.q_hat  # file round-trips bitwise via repr
            assert float(rec["residual"]) == p.residual
            assert rec["degenerate_tail"] in ("0", "1")

    def test_quantiles_do_not_cross_per_row(self, workspace):
        rows = read_rows(workspace / "pred.csv")
        by_row = {}
        for rec in rows:
            by_row.setdefault(rec["row"], []).append((float(rec["tau"]), float(rec["q_hat"])))
        for chunks in by_row.values():
            qs = [q for _, q in sorted(chunks)]
            assert qs == sorted(qs)

    def test_evaluate_on_training_rows(self, workspace, tmp_path):
        # score predictions made at the training feature rows so the
        # evaluate command has aligned truth
        train = workspace / "train.csv"
        data = load_csv(train, detect_schema(train))
        feats = tmp_path / "train_feats.csv"
        with open(feats, "w", encoding="utf-8") as fh:
            fh.write("x1\n")
            for v in data.features[:, 0]:
                fh.write(f"{float(v)!r}\n")
        pred = tmp_path / "train_pred.csv"
        out = tmp_path / "eval.csv"
        assert main([
            "predict", "--model", str(workspace / "model.json"), "--data", str(train),
            "--features", str(feats), "--taus", "0.5", "--out", str(pred),
        ]) == 0
        assert main([
            "evaluate", "--pred", str(pred), "--truth", str(train), "--out", str(out),
        ]) == 0
        rows = read_rows(out)
        assert len(rows) == 1
        rec = rows[0]
        assert float(rec["tau"]) == 0.5 and int(rec["n_test"]) == 120
        assert rec["l_mse"] == "" and rec["l_mad"] == ""  # no true quantiles in files
        assert float(rec["l_quantile"]) > 0
        assert 0.5 < float(rec["c_index"]) <= 1.0  # fitted forest must rank above chance

    def test_km_knn_survival_flag(self, workspace, tmp_path):
        out = tmp_path / "knn_pred.csv"
        assert main([
            "predict", "--model", str(workspace / "model.json"), "--data", str(workspace / "train.csv"),
            "--features", str(workspace / "points.csv"), "--taus", "0.5",
            "--survival", "km-knn:15", "--out", str(out),
        ]) == 0
        assert len(read_rows(out)) == 3


class TestBenchCommand:
    def test_runs_spec_file(self, tmp_path):
        spec = tmp_path / "tiny.spec"
        spec.write_text(
            "scenario = aft1d\nreplications = 1\nn_train = 40\nn_test = 8\n"
            "taus = 0.5\ntrees = 4\nmethods = crf\n"
        )
        assert main(["bench", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "results.csv").exists()
        assert (tmp_path / "out" / "aggregate.csv").exists()

    @pytest.mark.parametrize("line", [
        "trees = abc", "trees = 1.5", "replications = x", "n_train = 4e2", "n_test = ", "seed = 0x1",
        "censor_rate = low", "taus = 0.5,x", "node_sizes = 5,2.5",
    ])
    def test_malformed_number_exits_3(self, tmp_path, capsys, line):
        spec = tmp_path / "bad.spec"
        spec.write_text(f"scenario = aft1d\n{line}\n")
        assert main(["bench", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]) == 3
        key = line.split("=")[0].strip()
        assert f"bad.spec:2: {key} has a malformed value" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_errors_exit_2(self, capsys):
        assert main([]) == 2
        assert main(["simulate"]) == 2  # required flags missing
        assert main(["simulate", "--model", "flat", "--n", "5", "--out", "x.csv"]) == 2
        assert main(["predict", "--model", "m", "--data", "d", "--features", "f",
                     "--taus", "abc", "--out", "o"]) == 2
        assert main(["predict", "--model", "m", "--data", "d", "--features", "f",
                     "--taus", "0.5", "--survival", "spline", "--out", "o"]) == 2
        assert main(["fit", "--data", "d", "--model-out", "m", "--turbo"]) == 2
        capsys.readouterr()

    def test_data_errors_exit_3(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        assert main(["fit", "--data", str(missing), "--model-out", str(tmp_path / "m.json")]) == 3
        assert "cqforest: error:" in capsys.readouterr().err

        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y\n1.0,2.0\n")  # no delta column
        assert main(["fit", "--data", str(bad), "--model-out", str(tmp_path / "m.json")]) == 3
        capsys.readouterr()

    def test_model_data_binding_checked(self, tmp_path, capsys):
        a = simulate(SimConfig(model="aft1d", n=30, censor_rate_param=0.08, seed=1))
        b = simulate(SimConfig(model="aft1d", n=30, censor_rate_param=0.08, seed=2))
        write_csv(tmp_path / "a.csv", a)
        write_csv(tmp_path / "b.csv", b)
        model = tmp_path / "model.json"
        assert main(["fit", "--data", str(tmp_path / "a.csv"), "--trees", "3",
                     "--model-out", str(model)]) == 0
        feats = tmp_path / "f.csv"
        feats.write_text("x1\n1.0\n")
        code = main(["predict", "--model", str(model), "--data", str(tmp_path / "b.csv"),
                     "--features", str(feats), "--taus", "0.5",
                     "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert "does not match" in capsys.readouterr().err

    def test_evaluate_row_mismatch_exit_3(self, tmp_path, capsys):
        truth = simulate(SimConfig(model="aft1d", n=5, censor_rate_param=0.08, seed=4))
        write_csv(tmp_path / "t.csv", truth)
        pred = tmp_path / "p.csv"
        pred.write_text("row,tau,q_hat\n0,0.5,1.0\n1,0.5,1.0\n")  # only 2 of 5 rows
        assert main(["evaluate", "--pred", str(pred), "--truth", str(tmp_path / "t.csv"),
                     "--out", str(tmp_path / "e.csv")]) == 3
        capsys.readouterr()


DROP = object()
# a well-formed tree over the 120 training rows except that node 3 is its own
# child: the child links still permute 1..4, so only "child > parent" catches it
DETACHED_CYCLE = {
    "feature": [0, -1, -1, 0, -1],
    "threshold": [1.0, None, None, 1.0, None],
    "left": [1, -1, -1, 3, -1],
    "right": [2, -1, -1, 4, -1],
    "leaf_rows": [None, list(range(118)), [118], None, [119]],
}
# (case, key path into the model JSON, new value: DROP deletes the key, a
# callable maps the old value)
CORRUPTIONS = [
    ("not-an-object", (), lambda doc: [doc]),
    ("no-trees", ("trees",), DROP),
    ("trees-not-a-list", ("trees",), {"0": 1}),
    ("n-train-string", ("n_train",), "120"),
    ("feature-names-not-a-list", ("feature_names",), 5),
    ("unknown-config-key", ("config", "turbo"), 1),
    ("missing-config-key", ("config", "seed"), DROP),
    ("config-bool-for-int", ("config", "n_trees"), True),
    ("tree-count-mismatch", ("config", "n_trees"), 24),
    ("tree-not-an-object", ("trees", 0), [1, 2]),
    ("ragged-arrays", ("trees", 0, "left"), [1]),
    ("feature-out-of-range", ("trees", 0, "feature", 0), 1),
    ("feature-below-minus-one", ("trees", 0, "feature", 0), -2),
    ("feature-not-integer", ("trees", 0, "feature", 0), 0.5),
    ("threshold-nan", ("trees", 0, "threshold", 0), float("nan")),
    ("threshold-string", ("trees", 0, "threshold", 0), "abc"),
    ("threshold-on-leaf", ("trees", 0, "threshold", -1), 1.0),
    ("child-out-of-range", ("trees", 0, "left", 0), 99999),
    ("shared-child", ("trees", 0, "right", 0), 1),
    ("detached-cycle", ("trees", 0), DETACHED_CYCLE),
    ("leaf-rows-on-internal-node", ("trees", 0, "leaf_rows", 0), [0]),
    ("leaf-rows-missing-on-leaf", ("trees", 0, "leaf_rows", -1), None),
    ("leaf-rows-empty", ("trees", 0, "leaf_rows", -1), []),
    ("leaf-row-out-of-range", ("trees", 0, "leaf_rows", -1, 0), 120),
    ("leaf-row-negative", ("trees", 0, "leaf_rows", -1, 0), -1),
    ("leaf-row-dropped", ("trees", 0, "leaf_rows", -1), lambda rows: rows[1:]),
]


def corrupt_model(workspace, tmp_path, path, value):
    doc = json.loads((workspace / "model.json").read_text())
    if not path:
        doc = value(doc)
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value(parent[path[-1]]) if callable(value) else value
    out = tmp_path / "corrupt.json"
    out.write_text(json.dumps(doc))
    return out


class TestCorruptModel:
    @pytest.mark.parametrize("case,path,value", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS])
    def test_predict_exits_3(self, workspace, tmp_path, capsys, case, path, value):
        model = corrupt_model(workspace, tmp_path, path, value)
        code = main(["predict", "--model", str(model), "--data", str(workspace / "train.csv"),
                     "--features", str(workspace / "points.csv"), "--taus", "0.5",
                     "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert "cqforest: error:" in capsys.readouterr().err

    def test_cycle_through_root_rejected_on_load(self, workspace, tmp_path):
        # checked on load alone: walking such a tree would never return
        model = corrupt_model(workspace, tmp_path, ("trees", 0, "left", 0), 0)
        train = load_csv(workspace / "train.csv", detect_schema(workspace / "train.csv"))
        with pytest.raises(DataError, match="do not form a tree"):
            load_forest(model, train)
