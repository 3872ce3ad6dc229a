import csv
import hashlib
import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from cqforest.cli import main
from cqforest.data import DataError, SimConfig, detect_schema, load_csv, simulate, write_csv
from cqforest.estimator import CqrConfig, predict_batch
from cqforest.forest import ForestConfig, _digest, _Nodes, _trees, fit, load_forest


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
        head, arrays = read_model(workspace / "model.json")
        assert head["format"] == "cqforest-forest" and head["version"] == 2
        assert arrays["roots"].size == 25
        assert arrays["rows"].size == 25 * 120 and arrays["rows"].dtype == np.int32

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


    def test_evaluate_repeated_prediction_exit_3(self, tmp_path, capsys):
        truth = simulate(SimConfig(model="aft1d", n=5, censor_rate_param=0.08, seed=4))
        write_csv(tmp_path / "t.csv", truth)
        pred = tmp_path / "p.csv"
        pred.write_text("row,tau,q_hat\n" + "".join(f"{i},0.5,1.0\n" for i in range(5)) + "2,0.50,9.0\n")
        assert main(["evaluate", "--pred", str(pred), "--truth", str(tmp_path / "t.csv"),
                     "--out", str(tmp_path / "e.csv")]) == 3
        assert f"{pred}:7: repeated prediction for row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["tau", "q_hat"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_evaluate_non_finite_prediction_exit_3(self, tmp_path, capsys, column, value):
        truth = simulate(SimConfig(model="aft1d", n=5, censor_rate_param=0.08, seed=4))
        write_csv(tmp_path / "t.csv", truth)
        rows = [[str(i), "0.5", "1.0"] for i in range(5)]
        rows[3][1 if column == "tau" else 2] = value
        pred = tmp_path / "p.csv"
        pred.write_text("row,tau,q_hat\n" + "".join(",".join(r) + "\n" for r in rows))
        out = tmp_path / "e.csv"
        assert main(["evaluate", "--pred", str(pred), "--truth", str(tmp_path / "t.csv"), "--out", str(out)]) == 3
        assert f"{pred}:5: tau and q_hat must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_ragged_prediction_rows_exit_3(self, tmp_path, capsys):
        truth = simulate(SimConfig(model="aft1d", n=3, censor_rate_param=0.08, seed=4))
        write_csv(tmp_path / "t.csv", truth)
        pred = tmp_path / "p.csv"
        pred.write_text("row,tau,q_hat,residual\n" + "".join(f"{i},0.5,1.0\n" for i in range(3)))
        out = tmp_path / "e.csv"
        assert main(["evaluate", "--pred", str(pred), "--truth", str(tmp_path / "t.csv"), "--out", str(out)]) == 3
        assert f"{pred}:2: expected 4 cells, got 3" in capsys.readouterr().err
        assert not out.exists()


def test_evaluate_without_usable_pairs_leaves_c_index_empty(tmp_path):
    # every truth row censored: no pair can be ranked, but the losses are defined
    truth = tmp_path / "t.csv"
    truth.write_text("x1,y,delta\n" + "".join(f"{i},{i + 1}.5,0\n" for i in range(4)))
    pred = tmp_path / "p.csv"
    pred.write_text("row,tau,q_hat\n" + "".join(f"{i},0.5,{i}.0\n" for i in range(4)))
    out = tmp_path / "e.csv"
    assert main(["evaluate", "--pred", str(pred), "--truth", str(truth), "--out", str(out)]) == 0
    [rec] = read_rows(out)
    assert rec["n_test"] == "4" and float(rec["l_quantile"]) > 0
    assert rec["l_mse"] == rec["l_mad"] == rec["c_index"] == ""


# each CLI command writing a file, on a small pipeline; the sha256 of the files
# were recorded before the CSV reading and writing moved into data.py
PINNED_RUNS = [
    "simulate --model aft1d --n 60 --lambda 0.08 --seed 3 --out {d}/train.csv",
    "simulate --model aft1d --n 12 --lambda 0.08 --seed 4 --out {d}/truth.csv",
    "fit --data {d}/train.csv --trees 6 --node-size 8 --seed 5 --model-out {d}/model.npz",
    "predict --model {d}/model.npz --data {d}/train.csv --features {d}/truth.csv --taus 0.25,0.5,0.75 --out {d}/pred.csv",
    "predict --model {d}/model.npz --data {d}/train.csv --features {d}/truth.csv --taus 0.5 --survival km-knn:10 "
    "--out {d}/knn.csv",
    "evaluate --pred {d}/pred.csv --truth {d}/truth.csv --out {d}/eval.csv",
]
PINNED_SHA256 = {
    "eval.csv": "3ff0799e9e74c10305b3537374853120b013ba846d26f2849c52d84b859c66dc",
    "knn.csv": "030566a7fad85972e914ed8c33b0690a69792811ffc4b4f21495db12918c433b",
    "model.npz": "7df56689c14de16eacda9b36aff4d24ccf52066af2d940d45ec5a2df61235459",
    "pred.csv": "130bd8ae98abd3c9ea5b051585e1e26110c87f4c4635dcea6809caba98bf5166",
    "train.csv": "0208fbef1667232716b9ebb84761536d832a6ef526e6b78008a90b374350afe6",
    "truth.csv": "b263bcaca6374d225a824e7d6c3886809a5f889737c9ef07414dd736364a29b6",
}


def test_output_files_match_pinned_digests(tmp_path):
    for argv in PINNED_RUNS:
        assert main(argv.format(d=tmp_path).split()) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()} == PINNED_SHA256


def with_repeated_column(good, bad, rows=None):
    """Copy the first ``rows`` data rows of a CSV, adding a second column named like its first."""
    lines = good.read_text(encoding="utf-8").splitlines()[: None if rows is None else rows + 1]
    name = lines[0].split(",")[0]
    bad.write_text("\n".join([f"{lines[0]},{name}"] + [f"{line},5.0" for line in lines[1:]]) + "\n")
    return bad


# (case, the good file the bad one copies, data rows kept, argv with the bad file in place of it)
REPEATED_COLUMN = [
    ("fit-data", "train.csv", None, "fit --data {bad} --trees 2 --model-out {tmp}/m.bin"),
    ("predict-features", "points.csv", None,
     "predict --model {ws}/model.json --data {ws}/train.csv --features {bad} --taus 0.5 --out {tmp}/p.csv"),
    ("evaluate-truth", "train.csv", 3, "evaluate --pred {ws}/pred.csv --truth {bad} --out {tmp}/e.csv"),
]


@pytest.mark.parametrize("case,good,rows,argv", REPEATED_COLUMN, ids=[c[0] for c in REPEATED_COLUMN])
def test_repeated_column_name_exits_3(workspace, tmp_path, capsys, case, good, rows, argv):
    bad = with_repeated_column(workspace / good, tmp_path / "bad.csv", rows)
    assert main(argv.format(bad=bad, ws=workspace, tmp=tmp_path).split()) == 3
    assert f"{bad}: column 'x1' appears more than once" in capsys.readouterr().err


THREADED = {
    "fit": "fit --data {ws}/train.csv --trees 2 --model-out {tmp}/m.bin --threads {threads}",
    "predict": "predict --model {ws}/model.json --data {ws}/train.csv --features {ws}/points.csv --taus 0.5 "
               "--out {tmp}/p.csv --threads {threads}",
    "bench": "bench --spec {tmp}/tiny.spec --out-dir {tmp}/out --threads {threads}",
}


@pytest.mark.parametrize("threads", ["0", "-2"])
@pytest.mark.parametrize("command", sorted(THREADED))
def test_threads_below_one_exit_3(workspace, tmp_path, capsys, command, threads):
    (tmp_path / "tiny.spec").write_text("scenario = aft1d\nreplications = 1\nn_train = 20\nn_test = 4\ntrees = 2\n")
    argv = THREADED[command].format(ws=workspace, tmp=tmp_path, threads=threads).split()
    assert main(argv) == 3
    assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not any(tmp_path.glob("m.bin")) and not any(tmp_path.glob("p.csv")) and not any(tmp_path.glob("out"))


SPEC = "scenario = aft1d\nreplications = 1\nn_train = 20\nn_test = 4\ntrees = 2\n"
# (case, argv, spec line, message) of a number out of its range
OUT_OF_RANGE = [
    ("simulate-seed", "simulate --model aft1d --n 10 --lambda 0.1 --seed -1 --out {tmp}/d.csv", "",
     "seed must be >= 0, got -1"),
    ("fit-seed", "fit --data {ws}/train.csv --trees 2 --seed -1 --model-out {tmp}/m.bin", "",
     "seed must be >= 0, got -1"),
    ("bench-seed", "bench --spec {tmp}/s.spec --out-dir {tmp}/out", "seed = -1", "seed must be >= 0, got -1"),
    ("simulate-lambda-inf", "simulate --model aft1d --n 10 --lambda inf --out {tmp}/d.csv", "",
     "censor_rate_param must be finite and > 0"),
    ("simulate-lambda-nan", "simulate --model aft1d --n 10 --lambda nan --out {tmp}/d.csv", "",
     "censor_rate_param must be finite and > 0"),
    ("bench-censor-rate-inf", "bench --spec {tmp}/s.spec --out-dir {tmp}/out", "censor_rate = inf",
     "censor_rate must be finite and positive"),
]


@pytest.mark.parametrize("case,argv,line,message", OUT_OF_RANGE, ids=[c[0] for c in OUT_OF_RANGE])
def test_number_out_of_range_exits_3(workspace, tmp_path, capsys, case, argv, line, message):
    (tmp_path / "s.spec").write_text(SPEC + line + "\n")
    assert main(argv.format(ws=workspace, tmp=tmp_path).split()) == 3
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["s.spec"]


def test_blank_first_line_fits_as_if_absent(workspace, tmp_path):
    padded = tmp_path / "padded.csv"
    padded.write_text("\n" + (workspace / "train.csv").read_text(encoding="utf-8"), encoding="utf-8")
    for data, model in ((workspace / "train.csv", "plain.npz"), (padded, "padded.npz")):
        assert main(["fit", "--data", str(data), "--trees", "3", "--model-out", str(tmp_path / model)]) == 0
    assert (tmp_path / "plain.npz").read_bytes() == (tmp_path / "padded.npz").read_bytes()


# (command, argv, the data CSVs it reads)
DATA_READS = [
    ("fit", "fit --data {ws}/train.csv --trees 2 --model-out {tmp}/m.bin", ["train.csv"]),
    ("predict", "predict --model {ws}/model.json --data {ws}/train.csv --features {ws}/points.csv --taus 0.5 "
                "--out {tmp}/p.csv", ["train.csv", "points.csv"]),
    ("evaluate", "evaluate --pred {ws}/pred.csv --truth {tmp}/truth.csv --out {tmp}/e.csv", ["pred.csv", "truth.csv"]),
]


@pytest.mark.parametrize("command,argv,reads", DATA_READS, ids=[c[0] for c in DATA_READS])
def test_each_data_csv_is_opened_once(workspace, tmp_path, monkeypatch, command, argv, reads):
    import cqforest.data as data_module

    # evaluate needs truth rows that line up with the 3 predicted rows
    lines = (workspace / "train.csv").read_text(encoding="utf-8").splitlines()
    (tmp_path / "truth.csv").write_text("\n".join(lines[:4]) + "\n", encoding="utf-8")
    opened = []
    real = data_module.open_utf8

    def counting(path):
        opened.append(Path(path).name)
        return real(path)

    # every CSV read goes through data.read_table, so patching data's open_utf8 sees them all
    monkeypatch.setattr(data_module, "open_utf8", counting)
    assert main(argv.format(ws=workspace, tmp=tmp_path).split()) == 0
    assert sorted(opened) == sorted(reads)


def read_model(path):
    """(header dict, arrays) of a model archive."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    return json.loads(str(arrays.pop("header"))), arrays


def write_model(path, head, arrays, redigest=True):
    """Save a model archive; with ``redigest`` the header's digest matches the arrays."""
    if redigest and isinstance(head, dict):
        head = {**head, "digest": _digest(arrays)}
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(json.dumps(head)), **arrays)
    return path


# (case, bytes put first, the good file the bad one copies, argv with the bad
# file in place of it); each bad file ends in a byte that is not UTF-8 after
# blank lines that fill more than the first decoded chunk, so the reader's body
# meets it, not its header read, unless the bytes put first already fail
NOT_UTF8 = [
    ("fit-data", b"", "train.csv", "fit --data {bad} --trees 2 --model-out {tmp}/m.bin"),
    ("fit-data-header", b"\xff", "train.csv", "fit --data {bad} --trees 2 --model-out {tmp}/m.bin"),
    ("predict-features", b"", "points.csv",
     "predict --model {ws}/model.json --data {ws}/train.csv --features {bad} --taus 0.5 --out {tmp}/p.csv"),
    ("evaluate-pred", b"", "pred.csv", "evaluate --pred {bad} --truth {ws}/train.csv --out {tmp}/e.csv"),
    ("evaluate-truth", b"", "train.csv", "evaluate --pred {ws}/pred.csv --truth {bad} --out {tmp}/e.csv"),
    ("bench-spec", b"", None, "bench --spec {bad} --out-dir {tmp}/out"),
]


@pytest.mark.parametrize("case,first,good,argv", NOT_UTF8, ids=[c[0] for c in NOT_UTF8])
def test_input_not_utf8_exits_3(workspace, tmp_path, capsys, case, first, good, argv):
    bad = tmp_path / "bad.txt"
    text = (workspace / good).read_bytes() if good else b"scenario = aft1d\n"
    bad.write_bytes(first + text + b"\n" * 70000 + b"\xff\n")
    assert main(argv.format(bad=bad, ws=workspace, tmp=tmp_path).split()) == 3
    assert f"{bad}: not UTF-8 text" in capsys.readouterr().err


DROP = object()


def header(path, value):
    """Corruption of the header at a key path: DROP deletes the key, a callable maps the old value."""
    def corrupt(head, arrays):
        if not path:
            return value(head), arrays
        parent = head
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value(parent[path[-1]]) if callable(value) else value
        return head, arrays
    return corrupt


def array(name, value):
    """Corruption replacing one array by ``value(arrays)``."""
    return lambda head, arrays: (head, {**arrays, name: value(arrays)})


def put(name, index, value, dtype=None):
    """Corruption setting one element of an array, in ``dtype`` if given; a callable index maps the arrays."""
    def edit(arrays):
        out = arrays[name].astype(dtype or arrays[name].dtype)
        out[index(arrays) if callable(index) else index] = value
        return out
    return array(name, edit)


def last0(arrays):
    """Id of tree 0's last node: a leaf, holding the last of tree 0's 120 rows."""
    return int(arrays["roots"][1]) - 1


def drop_rows(count):
    """Corruption deleting the last ``count(arrays)`` rows of tree 0 (its last leaf's)."""
    def corrupt(head, arrays):
        k = count(arrays)
        ptr = arrays["row_ptr"].copy()
        ptr[last0(arrays) + 1 :] -= k
        return head, {**arrays, "row_ptr": ptr, "rows": np.delete(arrays["rows"], np.arange(120 - k, 120))}
    return corrupt


def crafted(feature, left, right, leaf_rows):
    """A one-tree store splitting feature 0 at 1.0 on every internal node; ``leaf_rows`` maps leaves to rows."""
    i32 = lambda v: np.array(v, dtype=np.int32)  # noqa: E731
    threshold = np.where(np.array(feature) >= 0, 1.0, np.nan)
    sizes = [len(leaf_rows.get(i, ())) for i in range(len(feature))]
    rows = i32([r for i in sorted(leaf_rows) for r in leaf_rows[i]])
    roots = np.zeros(1, dtype=np.int64)
    return _Nodes(i32(feature), threshold, i32(left), i32(right), roots, np.cumsum([0] + sizes), rows)


def store(trees):
    """The model arrays of the one-tree stores ``trees``, laid out back to back as ``fit`` lays them out."""
    return {
        **{k: np.concatenate([getattr(tree, k) for tree in trees]) for k in ("feature", "threshold", "left", "right")},
        "roots": np.cumsum([0] + [tree.feature.size for tree in trees[:-1]]),
        "row_ptr": np.cumsum([0] + [n for tree in trees for n in np.diff(tree.row_ptr)]),
        "rows": np.concatenate([tree.rows for tree in trees]),
    }


def with_trees(*trees):
    """Corruption replacing the model's first trees by ``trees``."""
    return lambda head, arrays: (head, store([*trees, *_trees(_Nodes(**arrays))[len(trees):]]))


# node 3 is its own child: the child links still permute 1..4, so only
# "child > parent" catches it
DETACHED_CYCLE = crafted([0, -1, -1, 0, -1], [1, -1, -1, 3, -1], [2, -1, -1, 4, -1],
                         {1: range(118), 2: [118], 4: [119]})
# node 1 of a 3-node tree links to local ids 4 and 5, the leaves 1 and 2 of
# the next tree, whose root links only to its nodes 3 and 4: across the two
# trees every non-root node has one parent above it, so only "child < tree
# size" catches it
CROSS_TREE = (
    crafted([0, 0, -1], [1, 4, -1], [2, 5, -1], {2: range(120)}),
    crafted([0, -1, -1, -1, -1], [3, -1, -1, -1, -1], [4, -1, -1, -1, -1],
            {1: range(30), 2: range(30, 60), 3: range(60, 90), 4: range(90, 120)}),
)


# (case, corruption of the fitted model's (header, arrays)); each corrupt model
# is saved with a digest that matches its arrays, so the header or structure
# checks must catch it, not the digest
CORRUPTIONS = [
    ("not-an-object", header((), lambda doc: [doc])),
    ("no-trees", lambda head, arrays: (head, {k: v for k, v in arrays.items() if k != "roots"})),
    ("trees-not-a-list", array("roots", lambda a: a["roots"].astype(np.float64))),
    ("n-train-string", header(("n_train",), "120")),
    ("feature-names-not-a-list", header(("feature_names",), 5)),
    ("unknown-config-key", header(("config", "turbo"), 1)),
    ("missing-config-key", header(("config", "seed"), DROP)),
    ("config-bool-for-int", header(("config", "n_trees"), True)),
    ("tree-count-mismatch", header(("config", "n_trees"), 24)),
    ("tree-not-an-object", array("left", lambda a: a["left"][:, None])),
    ("ragged-arrays", array("left", lambda a: a["left"][:-1])),
    ("feature-out-of-range", put("feature", 0, 1)),
    ("feature-below-minus-one", put("feature", 0, -2)),
    ("feature-not-integer", put("feature", 0, 0.5, np.float64)),
    ("threshold-nan", put("threshold", 0, np.nan)),
    ("threshold-string", array("threshold", lambda a: a["threshold"].astype(str))),
    ("threshold-on-leaf", put("threshold", last0, 1.0)),
    ("child-out-of-range", put("left", 0, 99999)),
    ("shared-child", put("right", 0, 1)),
    ("detached-cycle", with_trees(DETACHED_CYCLE)),
    ("leaf-rows-on-internal-node", put("row_ptr", 1, 1)),
    ("leaf-rows-missing-on-leaf", drop_rows(lambda a: 120 - int(a["row_ptr"][last0(a)]))),
    ("leaf-rows-empty", put("row_ptr", last0, 120)),  # the node before takes them: 120 in all
    ("leaf-row-out-of-range", put("rows", 119, 120)),
    ("leaf-row-negative", put("rows", 119, -1)),
    ("leaf-row-dropped", drop_rows(lambda a: 1)),
    ("roots-not-increasing", put("roots", 2, 0)),
    ("row-ptr-falling", put("row_ptr", 1, -1)),
    ("child-leaves-its-tree", with_trees(*CROSS_TREE)),
]


def corrupt_model(workspace, tmp_path, corruption):
    head, arrays = read_model(workspace / "model.json")
    return write_model(tmp_path / "corrupt.json", *corruption(head, arrays))


def npy(path, workspace):
    with open(path, "wb") as fh:
        np.save(fh, np.arange(5))


def object_npz(path, workspace):
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array([{"format": "cqforest-forest"}], dtype=object))


def no_header(path, workspace):
    with open(path, "wb") as fh:
        np.savez(fh, **read_model(workspace / "model.json")[1])


def shape_beyond_memory(path, workspace):
    """An archive whose one array claims 10**12 int32 elements (4 TiB) and holds none."""
    with zipfile.ZipFile(path, "w") as archive, archive.open("rows.npy", "w") as fh:
        np.lib.format.write_array_header_2_0(fh, {"descr": "<i4", "fortran_order": False, "shape": (10**12,)})


def v1_json(path, workspace):
    """The model as the JSON document of format version 1."""
    head, arrays = read_model(workspace / "model.json")
    del head["digest"]
    trees = [
        {
            "feature": t.feature.tolist(),
            "threshold": [None if np.isnan(v) else v for v in t.threshold.tolist()],
            "left": t.left.tolist(),
            "right": t.right.tolist(),
            "leaf_rows": [t.rows[a:b].tolist() if b > a else None for a, b in zip(t.row_ptr[:-1], t.row_ptr[1:])],
        }
        for t in _trees(_Nodes(**arrays))
    ]
    path.write_text(json.dumps({**head, "version": 1, "trees": trees}))


# (case, writer of a file that is not a model archive)
FOREIGN = [
    ("empty-file", lambda path, ws: path.write_bytes(b"")),
    ("truncated", lambda path, ws: path.write_bytes((ws / "model.json").read_bytes()[:-100])),
    ("random-bytes", lambda path, ws: path.write_bytes(np.random.default_rng(0).bytes(4096))),
    ("bare-npy", npy),
    ("object-array-npz", object_npz),
    ("no-header", no_header),
    ("shape-beyond-memory", shape_beyond_memory),
    ("version-1-json", v1_json),
    ("not-utf8", lambda path, ws: path.write_bytes(b"\xff\xfe{")),
]


class TestCorruptModel:
    def predict(self, workspace, tmp_path, model):
        return main(["predict", "--model", str(model), "--data", str(workspace / "train.csv"),
                     "--features", str(workspace / "points.csv"), "--taus", "0.5",
                     "--out", str(tmp_path / "p.csv")])

    @pytest.mark.parametrize("case,corruption", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS])
    def test_predict_exits_3(self, workspace, tmp_path, capsys, case, corruption):
        assert self.predict(workspace, tmp_path, corrupt_model(workspace, tmp_path, corruption)) == 3
        err = capsys.readouterr().err
        assert "cqforest: error:" in err and "digest" not in err

    def test_in_range_edit_caught_by_digest(self, workspace, tmp_path, capsys):
        head, arrays = read_model(workspace / "model.json")
        arrays["threshold"][0] = np.nextafter(arrays["threshold"][0], np.inf)
        model = write_model(tmp_path / "edited.json", head, arrays, redigest=False)
        assert self.predict(workspace, tmp_path, model) == 3
        assert "do not match their digest" in capsys.readouterr().err

    def test_member_not_npy_exits_3(self, workspace, tmp_path, capsys):
        model = tmp_path / "raw.json"
        with zipfile.ZipFile(workspace / "model.json") as good, zipfile.ZipFile(model, "w") as bad:
            for info in good.infolist():
                bad.writestr(info.filename, b"not an array" if info.filename == "rows.npy" else good.read(info))
        assert self.predict(workspace, tmp_path, model) == 3
        assert "model arrays must be" in capsys.readouterr().err

    @pytest.mark.parametrize("case,write", FOREIGN, ids=[c[0] for c in FOREIGN])
    def test_foreign_file_exits_3(self, workspace, tmp_path, capsys, case, write):
        model = tmp_path / "foreign.json"
        write(model, workspace)
        assert self.predict(workspace, tmp_path, model) == 3
        err = capsys.readouterr().err
        assert "cqforest: error:" in err and "re-fit" in err

    def test_cycle_through_root_rejected_on_load(self, workspace, tmp_path):
        # checked on load alone: walking such a tree would never return
        model = corrupt_model(workspace, tmp_path, put("left", 0, 0))
        train = load_csv(workspace / "train.csv", detect_schema(workspace / "train.csv"))
        with pytest.raises(DataError, match="do not form a tree"):
            load_forest(model, train)
