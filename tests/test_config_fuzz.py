"""Property tests of the integer and real-number contracts of every config.

Each CLI example sets one numeric flag of a command that succeeds as given,
or one numeric key of a bench spec, to a drawn integer, float or special
value; the run must exit 0, 2 or 3 and never 4. Sizes stay small (``--n``
up to 60, ``--trees`` up to 4, bench runs of a few dozen rows). Larger
values of ``--n`` and ``--trees`` are tried only above physical memory,
where the up-front size check must refuse them (exit 3) before anything
is allocated; values in between would allocate, and are not tried. Every ``ForestConfig`` that ``fit``
accepts, numpy scalars included, must save and load back equal, with
Python field types. Each library argument of ``test_data.NUMERIC_ARGUMENTS``,
given a drawn number, numpy scalar or non-number, must either succeed or
raise ``DataError``; its reals stay within +-50, so ``true_quantile`` is
not driven to overflow. So must each array argument of
``test_data.ARRAY_ARGUMENTS`` and ``QUERY_ARGUMENTS``, given such a value,
a list or a nested list of them, or a numpy array of any dtype.
"""

import contextlib
import io
import os
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cqforest.cli import main  # noqa: E402
from cqforest.data import DataError, SimConfig, simulate  # noqa: E402
from cqforest.forest import ForestConfig, fit, load_forest, save_forest  # noqa: E402
from test_data import ARRAY_ARGUMENTS, NUMERIC_ARGUMENTS, QUERY_ARGUMENTS  # noqa: E402


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("config_fuzz")
    for argv in [
        "simulate --model aft-multi --n 40 --lambda 0.08 --seed 3 --out {d}/train.csv",
        "fit --data {d}/train.csv --trees 2 --node-size 5 --seed 5 --model-out {d}/model.npz",
    ]:
        assert main(argv.format(d=root).split()) == 0
    return root


PREDICT = "predict --model {ws}/model.npz --data {ws}/train.csv --features {ws}/train.csv --out {out} "


def number(low, high):
    """Flag text: an integer in [low, high], a float or a special value."""
    return st.one_of(
        st.integers(low, high).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["nan", "inf", "-inf", "1e-320", "-0.0", "1e308", "0.5", "2.5"]),
    )


def numbers(low, high):
    """One to three comma-separated ``number`` texts."""
    return st.lists(number(low, high), min_size=1, max_size=3).map(",".join)


# one numeric flag of a command that succeeds as given, with {v} in place of
# its value, and the values drawn for it
FLAGS = [
    ("simulate --model aft1d --n {v} --lambda 0.1 --seed 1 --out {out}", number(-2, 60)),
    ("simulate --model aft1d --n 20 --lambda {v} --seed 1 --out {out}", number(-1, 3)),
    ("simulate --model aft1d --n 20 --lambda 0.1 --seed {v} --out {out}", number(-(2**70), 2**70)),
    ("fit --data {ws}/train.csv --trees {v} --node-size 5 --model-out {out}", number(-2, 4)),
    ("fit --data {ws}/train.csv --trees 2 --node-size {v} --model-out {out}", number(-2, 45)),
    ("fit --data {ws}/train.csv --trees 2 --mtry {v} --model-out {out}", number(-2, 7)),
    ("fit --data {ws}/train.csv --trees 2 --seed {v} --model-out {out}", number(-(2**70), 2**70)),
    ("fit --data {ws}/train.csv --trees 2 --threads {v} --model-out {out}", number(-2, 3)),
    (PREDICT + "--taus {v}", numbers(-1, 2)),
    (PREDICT + "--taus 0.5 --survival km-knn:{v}", number(-2, 45)),
    (PREDICT + "--taus 0.5 --threads {v}", number(-2, 3)),
]
# a spec that runs as given, and each numeric key with the values drawn for it
SPEC = ["replications = 1", "n_train = 20", "n_test = 4", "trees = 2"]
SPEC_KEYS = [
    ("replications", number(-1, 2)), ("n_train", number(-1, 30)), ("n_test", number(-1, 8)),
    ("trees", number(-1, 3)), ("seed", number(-(2**70), 2**70)), ("censor_rate", number(-1, 2)),
    ("taus", numbers(-1, 2)), ("node_sizes", numbers(-1, 35)),
]


def drawn(cases):
    """A ``(template, value)`` pair for one of ``cases``' ``(template, strategy)``."""
    return st.sampled_from(cases).flatmap(lambda case: st.tuples(st.just(case[0]), case[1]))


def run(argv):
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv.split())
    return code, err.getvalue()


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(case=drawn(FLAGS))
def test_numeric_flag_exits_0_2_or_3(workspace, case):
    argv, value = case
    code, err = run(argv.format(ws=workspace, out=workspace / "out", v=value))
    assert code in (0, 2, 3), err


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(scenario=st.sampled_from(["aft1d", "aft-multi", "coverage", "survival-comparison"]),
       entry=drawn(SPEC_KEYS))
def test_numeric_spec_value_exits_0_or_3(workspace, scenario, entry):
    key, value = entry
    lines = [f"scenario = {scenario}", *(line for line in SPEC if not line.startswith(key)), f"{key} = {value}"]
    path = workspace / "fuzz.spec"
    path.write_text("\n".join(lines) + "\n")
    code, err = run(f"bench --spec {path} --out-dir {workspace / 'bench_out'}")
    assert code in (0, 3), err


# more bytes than the machine's physical memory: every --n or --trees at least this large is refused up front
PHYSICAL = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
HUGE = [
    ("simulate --model aft1d --n {v} --lambda 0.1 --seed 1 --out {out}", "n"),
    ("simulate --model complex --n {v} --lambda 0.1 --seed 1 --out {out}", "n"),
    ("fit --data {ws}/train.csv --trees {v} --node-size 5 --model-out {out}", "n_trees"),
]


def assert_refused_up_front(workspace, argv, name, value):
    """The CLI run exits 3 naming the argument, having allocated next to nothing and written nothing."""
    out = workspace / "huge"
    tracemalloc.start()
    try:
        code, err = run(argv.format(ws=workspace, out=out, v=value))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and f"{name}={value} needs" in err and "physical memory" in err, err
    assert peak < 4 << 20 and not out.exists()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=st.sampled_from(HUGE), value=st.integers(PHYSICAL + 1, 2**200))
def test_size_beyond_physical_memory_exits_3_before_allocating(workspace, case, value):
    assert_refused_up_front(workspace, *case, value)


@pytest.mark.parametrize("case,value,need", [
    (HUGE[0], 10**12, 8 * 10**12),  # one float64 feature a row
    (HUGE[2], 10**11, 40 * 10**11),  # a uint8 row id per bag row, 40 rows a tree
])
def test_documented_huge_commands_exit_3(workspace, case, value, need):
    if need <= PHYSICAL:
        pytest.skip("this machine holds the allocation, so the command would run")
    assert_refused_up_front(workspace, *case, value)


def test_library_refuses_sizes_beyond_physical_memory(small_data):
    with pytest.raises(DataError, match=r"^n=\d+ needs \d[\d,]* bytes"):
        SimConfig(model="aft-multi", n=PHYSICAL // 40 + 1, censor_rate_param=0.1)
    SimConfig(model="aft-multi", n=PHYSICAL // 40 - 1, censor_rate_param=0.1)  # only a config: nothing is drawn
    trees = PHYSICAL // small_data.n + 1  # one byte a row: n=30 fits uint8
    with pytest.raises(DataError, match=rf"^n_trees={trees} needs"):
        fit(small_data, ForestConfig(min_node_size=5, n_trees=trees))


def as_int(values):
    """An integer from ``values``, as a Python int or as one of numpy's integer types that holds it."""
    return values.flatmap(
        lambda v: st.sampled_from([int, np.int64, np.uint64] + ([np.int8, np.uint16, np.int32] if v < 128 else []))
        .map(lambda kind: kind(v))
    )


CONFIGS = st.fixed_dictionaries({
    "min_node_size": as_int(st.integers(1, 12)),
    "n_trees": as_int(st.integers(1, 3)),
    "mtry": st.none() | as_int(st.integers(1, 6)),
    "min_child_fraction": st.floats(0.0, 0.5, exclude_min=True).flatmap(
        lambda v: st.sampled_from([float(v), np.float64(v), np.float32(v)])),
    "bootstrap": st.sampled_from([True, False, np.True_, np.False_]),
    "seed": as_int(st.integers(0, 2**63 - 1)),
})


@pytest.fixture(scope="module")
def small_data():
    return simulate(SimConfig(model="aft-multi", n=30, censor_rate_param=0.08, seed=1))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(fields=CONFIGS)
def test_accepted_config_saves_and_loads_equal(small_data, tmp_path_factory, fields):
    try:
        cfg = ForestConfig(**fields)
        forest = fit(small_data, cfg)
    except DataError:  # a float32 fraction that rounds to 0, an mtry above p
        return
    path = tmp_path_factory.getbasetemp() / "round_trip.npz"
    save_forest(forest, path)
    loaded = load_forest(path, small_data).config
    assert loaded == cfg
    assert [type(v) for v in astuple(loaded)] == [type(v) for v in astuple(cfg)]
    assert all(type(v) in (int, float, bool, type(None)) for v in astuple(cfg))


# a number of each kind a library argument may be handed: Python or numpy, in range or not, or not a number at all
ARGUMENT_VALUES = st.one_of(
    st.integers(-3, 40),
    st.floats(-50.0, 50.0),
    st.integers(-3, 40).flatmap(lambda v: st.sampled_from([np.int64(v), np.uint8(max(v, 0)), np.float32(v)])),
    st.floats(-50.0, 50.0).map(np.float64),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e-320, -0.0, None, True, np.True_, "1", [1]]),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(argument=st.sampled_from(NUMERIC_ARGUMENTS), value=ARGUMENT_VALUES)
def test_library_argument_succeeds_or_raises_data_error(argument, value):
    _, _, call, _ = argument
    try:
        call(value)
    except DataError:
        pass


# an array of each kind a library array argument may be handed: one value, a (nested) list, or a numpy array
ARRAY_VALUES = st.one_of(
    ARGUMENT_VALUES,
    st.lists(ARGUMENT_VALUES, max_size=4),
    st.lists(st.lists(ARGUMENT_VALUES, max_size=3), max_size=3),
    st.lists(st.floats(-50.0, 50.0), max_size=4).flatmap(
        lambda v: st.sampled_from([np.float64, np.float32, np.complex128, object, str]).map(lambda t: np.array(v, t))),
    st.lists(st.integers(-3, 40), max_size=4).flatmap(
        lambda v: st.sampled_from([np.int64, np.int8, np.bool_]).map(lambda t: np.array(v, t))),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(call=st.sampled_from([case[2] for case in ARRAY_ARGUMENTS] + [case[1] for case in QUERY_ARGUMENTS]),
       value=ARRAY_VALUES)
def test_library_array_argument_succeeds_or_raises_data_error(call, value):
    try:
        call(value)
    except DataError:
        pass
