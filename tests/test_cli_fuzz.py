"""Property test of the CLI's input files: one damaged cell or line exits 0 or 3, never 4.

Each example damages one CSV that ``fit``, ``predict`` or ``evaluate`` reads,
runs the command on it, and requires exit 0, or exit 3 with an error that
names the damaged file. A ragged row, a repeated column name or a byte that
is not UTF-8 must exit 3; a blank line anywhere, above the header too, or a
cell quoted over two lines, must change nothing in the output.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cqforest.cli import main  # noqa: E402


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    for argv in [
        "simulate --model aft-multi --n 40 --lambda 0.08 --seed 3 --out {d}/train.csv",
        "simulate --model aft-multi --n 6 --lambda 0.08 --seed 4 --out {d}/truth.csv",
        "fit --data {d}/train.csv --trees 3 --node-size 8 --seed 5 --model-out {d}/model.npz",
        "predict --model {d}/model.npz --data {d}/train.csv --features {d}/truth.csv --taus 0.3,0.6 "
        "--out {d}/pred.csv",
    ]:
        assert main(argv.format(d=root).split()) == 0
    lines = (root / "truth.csv").read_text(encoding="utf-8").splitlines()
    (root / "points.csv").write_text(
        "\n".join(",".join(line.split(",")[:5]) for line in lines) + "\n", encoding="utf-8"
    )
    return root


# (input, the good file it damages, argv with the damaged file in place of it)
INPUTS = [
    ("fit --data", "train.csv", "fit --data {bad} --trees 2 --node-size 8 --model-out {out}"),
    ("predict --data", "train.csv",
     "predict --model {ws}/model.npz --data {bad} --features {ws}/points.csv --taus 0.5 --out {out}"),
    ("predict --features", "points.csv",
     "predict --model {ws}/model.npz --data {ws}/train.csv --features {bad} --taus 0.5 --out {out}"),
    ("evaluate --pred", "pred.csv", "evaluate --pred {bad} --truth {ws}/truth.csv --out {out}"),
    ("evaluate --truth", "truth.csv", "evaluate --pred {ws}/pred.csv --truth {bad} --out {out}"),
]

# raw CSV text put in place of one cell; the last is a quoted cell spanning two lines
CELLS = ["abc", "nan", "inf", "-inf", "1e400", "", " ", '"a\nb"']

DAMAGE = st.one_of(
    st.tuples(st.just("cell"), st.integers(min_value=0), st.integers(min_value=0), st.sampled_from(CELLS)),
    st.tuples(st.sampled_from(["quote", "short", "long", "blank", "repeat"]), st.integers(min_value=0),
              st.integers(min_value=0), st.just(None)),
    st.tuples(st.just("byte"), st.integers(min_value=0), st.just(0), st.just(None)),
)


def damaged(text, kind, at, col, value):
    """``text`` with one cell or line damaged; ``at`` and ``col`` are taken modulo the lines and cells."""
    if kind == "byte":
        raw = text.encode("utf-8")
        at %= len(raw) + 1
        return raw[:at] + b"\xff" + raw[at:]
    lines = text.splitlines()
    at %= len(lines)
    cells = lines[at].split(",")
    col %= len(cells)
    if kind == "cell":
        cells[col] = value
    elif kind == "quote":  # the same value, quoted over two lines
        cells[col] = f'"{cells[col]}\n"'
    elif kind == "short":
        del cells[col]
    elif kind == "long":
        cells.insert(col, "1.0")
    elif kind == "blank":
        lines.insert(at, "")
    else:  # a header naming one of its columns twice
        cells = lines[0].split(",")
        cells.append(cells[col % len(cells)])
        at = 0
    if kind != "blank":
        lines[at] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode("utf-8")


def run(argv):
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv.split())
    return code, err.getvalue()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=st.sampled_from(INPUTS), damage=DAMAGE)
def test_damaged_input_exits_0_or_3_naming_the_file(workspace, case, damage):
    name, good, argv = case
    text = (workspace / good).read_text(encoding="utf-8")
    bad, out = workspace / f"bad_{good}", workspace / "out"
    expected = workspace / ("expected_" + name.replace(" --", "_"))
    if not expected.exists():
        assert run(argv.format(bad=workspace / good, ws=workspace, out=expected)) == (0, "")
    bad.write_bytes(damaged(text, *damage))
    out.unlink(missing_ok=True)
    code, err = run(argv.format(bad=bad, ws=workspace, out=out))
    assert code in (0, 3), err
    if code == 3:
        assert err.startswith(f"cqforest: error: {bad}"), err
    kind, at = damage[:2]
    if kind in ("short", "long", "repeat", "byte"):
        assert code == 3
    if kind in ("quote", "blank"):
        assert code == 0, err
        assert out.read_bytes() == expected.read_bytes()
