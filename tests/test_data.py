import ast
import functools
import math
import re
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import ndtri

from cqforest import data as data_module
from cqforest.bench import ExperimentSpec, illustrative_roots
from cqforest.data import (
    CsvSchema,
    DataError,
    Dataset,
    MODELS,
    SimConfig,
    _column,
    check_floats,
    check_int,
    check_real,
    check_rows,
    detect_schema,
    load_csv,
    load_features_csv,
    model_dim,
    read_table,
    simulate,
    true_quantile,
    write_csv,
)
from cqforest.estimator import (
    CqrConfig,
    candidate_set,
    predict_batch,
    predict_interval,
    predict_quantile,
    predict_quantiles,
    predict_with_weights,
    score,
)
from cqforest.forest import (
    ForestConfig,
    WeightVector,
    fit,
    forest_weights,
    mass_above,
    quantile_from_weights,
    support_grid,
    weight_matrix,
)
from cqforest.metrics import c_index, quantile_losses
from cqforest.survival import BeranNWConfig, SurvivalCurve, beran_nw, km, km_knn, nearest_rows


def test_model_dims():
    assert [model_dim(m) for m in MODELS] == [1, 1, 5, 5]
    with pytest.raises(DataError):
        model_dim("nope")


class TestDataset:
    def test_basic_construction(self):
        d = Dataset(
            features=[[0.0], [1.0]], response=[1.0, 2.0], event=[1, 0], latent=[1.0, 5.0]
        )
        assert d.n == 2 and d.p == 1
        assert d.event.dtype == bool
        assert not d.features.flags.writeable
        assert not d.response.flags.writeable

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(DataError):
            Dataset(features=[[1.0]], response=[1.0, 2.0], event=[1, 1])
        with pytest.raises(DataError):
            Dataset(features=[[np.nan]], response=[1.0], event=[1])
        with pytest.raises(DataError):
            Dataset(features=[[1.0]], response=[1.0], event=[2])

    def test_rejects_inconsistent_latent(self):
        # censored rows must sit strictly below their latent time
        with pytest.raises(DataError):
            Dataset(features=[[0.0]], response=[2.0], event=[0], latent=[2.0])
        # observed rows must equal their latent time
        with pytest.raises(DataError):
            Dataset(features=[[0.0]], response=[2.0], event=[1], latent=[3.0])


class TestSimulate:
    def test_shapes_and_consistency(self):
        for model in MODELS:
            d = simulate(SimConfig(model=model, n=50, censor_rate_param=0.1, seed=3))
            assert d.features.shape == (50, model_dim(model))
            assert d.latent is not None
            obs = d.event
            assert np.array_equal(d.response[obs], d.latent[obs])
            assert (d.response[~obs] < d.latent[~obs]).all()

    def test_deterministic_and_seed_sensitive(self):
        a = simulate(SimConfig(model="sine1d", n=40, censor_rate_param=0.2, seed=9))
        b = simulate(SimConfig(model="sine1d", n=40, censor_rate_param=0.2, seed=9))
        c = simulate(SimConfig(model="sine1d", n=40, censor_rate_param=0.2, seed=10))
        assert np.array_equal(a.features, b.features) and np.array_equal(a.response, b.response)
        assert not np.array_equal(a.response, c.response)

    def test_draw_order_frozen(self):
        # independent replay of the documented generator: X, then noise,
        # then censoring, from one stream
        d = simulate(SimConfig(model="aft1d", n=3, censor_rate_param=0.08, seed=0))
        assert d.features[:, 0] == pytest.approx(
            [1.2739233746429086, 0.5395734275277406, 0.08194704787238938], abs=0
        )
        assert d.latent == pytest.approx(
            [3.6891401521041804, 1.4606369614991668, 1.2097643206866202], abs=0
        )
        censor = [8.419786908340399, 9.441266972817392, 35.20982473844657]
        assert d.response == pytest.approx(np.minimum(d.latent, censor), abs=0)

    def test_censoring_fraction_moves_with_rate(self):
        lo = simulate(SimConfig(model="aft1d", n=4000, censor_rate_param=0.08, seed=1))
        hi = simulate(SimConfig(model="aft1d", n=4000, censor_rate_param=0.20, seed=1))
        frac_lo = 1 - lo.event.mean()
        frac_hi = 1 - hi.event.mean()
        assert frac_lo < frac_hi
        assert 0.1 < frac_lo < 0.3
        assert 0.4 < frac_hi < 0.6

    def test_sine_model_signal(self):
        d = simulate(SimConfig(model="sine1d", n=2000, censor_rate_param=0.2, seed=5))
        assert d.features.min() >= 0.0 and d.features.max() <= 2 * math.pi
        # latent = 2.5 + sin(x) + eps with sd 0.3
        resid = d.latent - (2.5 + np.sin(d.features[:, 0]))
        assert abs(resid.mean()) < 0.05
        assert 0.25 < resid.std() < 0.35

    def test_invalid_config(self):
        with pytest.raises(DataError):
            SimConfig(model="nope", n=10, censor_rate_param=0.1)
        with pytest.raises(DataError):
            SimConfig(model="aft1d", n=0, censor_rate_param=0.1)
        with pytest.raises(DataError):
            SimConfig(model="aft1d", n=10, censor_rate_param=-1.0)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(censor_rate_param=math.inf), "censor_rate_param must be finite"),
        (dict(censor_rate_param=math.nan), "censor_rate_param must be finite"),
        (dict(noise_sd=math.inf), "noise_sd must be finite"),
        (dict(noise_sd=math.nan), "noise_sd must be finite"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(n=2.5), "n must be an integer"),
        (dict(n=True), "n must be an integer"),
    ])
    def test_rejects_non_finite_rates_and_non_integers(self, kwargs, message):
        with pytest.raises(DataError, match=message):
            SimConfig(**{"model": "aft1d", "n": 10, "censor_rate_param": 0.1, **kwargs})

    def test_numpy_integers_stored_as_int(self):
        cfg = SimConfig(model="aft1d", n=np.int32(10), censor_rate_param=0.1, seed=np.uint64(3))
        assert type(cfg.n) is int and type(cfg.seed) is int
        plain = simulate(SimConfig(model="aft1d", n=10, censor_rate_param=0.1, seed=3))
        assert simulate(cfg).response.tobytes() == plain.response.tobytes()


class TestCheckInt:
    @pytest.mark.parametrize("value", [3, np.int8(3), np.uint64(3), np.int64(3)])
    def test_accepts_python_and_numpy_integers(self, value):
        out = check_int("k", value, 1)
        assert out == 3 and type(out) is int

    @pytest.mark.parametrize("value,message", [
        (0, "k must be >= 1, got 0"),
        (True, "k must be an integer"),
        (np.True_, "k must be an integer"),
        (1.0, "k must be an integer"),
        (np.float32(2), "k must be an integer"),
        ("2", "k must be an integer"),
        (None, "k must be an integer"),
    ])
    def test_refuses(self, value, message):
        with pytest.raises(DataError, match=message):
            check_int("k", value, 1)


class TestCheckReal:
    @pytest.mark.parametrize("value", [0.25, np.float32(0.25), np.float64(0.25), 1, np.int64(1)])
    def test_accepts_python_and_numpy_reals(self, value):
        out = check_real("r", value)
        assert out == value and type(out) is float

    @pytest.mark.parametrize("value", [True, np.True_, "0.25", None, 1j, [0.25]])
    def test_refuses(self, value):
        with pytest.raises(DataError, match="r must be a real number"):
            check_real("r", value)

    @pytest.mark.parametrize("low,high,value,message", [
        (-math.inf, math.inf, math.nan, "r must be finite and > -inf, got nan"),
        (-math.inf, math.inf, -math.inf, "r must be finite and > -inf, got -inf"),
        (0, math.inf, math.inf, "r must be finite and > 0, got inf"),
        (0, math.inf, 0, "r must be finite and > 0, got 0.0"),
        (0, 1, 1, "r must lie in (0, 1), got 1.0"),
        (0, 1, math.nan, "r must lie in (0, 1), got nan"),
    ])
    def test_refuses_values_outside_the_open_interval(self, low, high, value, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            check_real("r", value, low, high)


# each real-valued config field, with a builder of its config from the field's value
REAL_FIELDS = {
    "min_child_fraction": lambda v: ForestConfig(min_node_size=1, min_child_fraction=v),
    "censor_rate_param": lambda v: SimConfig(model="aft1d", n=10, censor_rate_param=v),
    "noise_sd": lambda v: SimConfig(model="aft1d", n=10, censor_rate_param=0.1, noise_sd=v),
    "censor_rate": lambda v: ExperimentSpec(scenario="aft1d", censor_rate=v),
    "search_radius": lambda v: CqrConfig(search_radius=v),
    "bandwidth": lambda v: BeranNWConfig(bandwidth=v),
}
OPTIONAL_REAL_FIELDS = ("censor_rate", "search_radius")  # None means "not set"


class TestRealConfigFields:
    @pytest.mark.parametrize("value", [True, "0.25", None], ids=["bool", "string", "none"])
    @pytest.mark.parametrize("name", list(REAL_FIELDS))
    def test_refuses_non_reals(self, name, value):
        if value is None and name in OPTIONAL_REAL_FIELDS:
            assert getattr(REAL_FIELDS[name](None), name) is None
            return
        with pytest.raises(DataError, match=f"{name} must be a real number"):
            REAL_FIELDS[name](value)

    @pytest.mark.parametrize("name", list(REAL_FIELDS))
    def test_numpy_floats_stored_as_float(self, name):
        for value in (np.float32(0.25), np.float64(0.25)):
            stored = getattr(REAL_FIELDS[name](value), name)
            assert stored == 0.25 and type(stored) is float


@functools.cache
def small_forest():
    """A two-tree forest on 30 simulated rows, and those rows."""
    data = simulate(SimConfig(model="aft1d", n=30, censor_rate_param=0.1, seed=1))
    return fit(data, ForestConfig(min_node_size=5, n_trees=2, seed=1)), data


# every public numeric argument that a rule in data.py checks: (id, the name its
# message gives, a call passing it the value, values out of its range)
POSITIVE = (0, -0.5)
NUMERIC_ARGUMENTS = [
    ("SimConfig.censor_rate_param", "censor_rate_param", REAL_FIELDS["censor_rate_param"], POSITIVE),
    ("SimConfig.noise_sd", "noise_sd", REAL_FIELDS["noise_sd"], POSITIVE),
    ("ExperimentSpec.censor_rate", "censor_rate", REAL_FIELDS["censor_rate"], POSITIVE),
    ("CqrConfig.search_radius", "search_radius", REAL_FIELDS["search_radius"], POSITIVE),
    ("BeranNWConfig.bandwidth", "bandwidth", REAL_FIELDS["bandwidth"], POSITIVE),
    ("true_quantile.noise_sd", "noise_sd", lambda v: true_quantile("aft1d", [1.0], 0.9, noise_sd=v), POSITIVE),
    # 1e-17 and 1 - 2**-53 lie in (0, 1), but the interval's two taus round to 0.5 and 0.5, or to 0 and 1
    ("predict_interval.level", "level", lambda v: predict_interval(*small_forest(), [1.0], v),
     (0, 1, 1.5, 1e-17, 1 - 2**-53)),
    ("WeightVector.n", "n", lambda v: WeightVector([0, 1], [0.5, 0.5], v), (0, -1, 2.7)),
    ("nearest_rows.k", "k", lambda v: nearest_rows(WeightVector.uniform(4), v), (0, 2.5)),
    ("candidate_set.k", "k", lambda v: candidate_set(WeightVector.uniform(4), np.arange(4.0), "km-knn", v),
     (0, 2.5)),
    ("km_knn.k", "k", lambda v: km_knn(small_forest()[1], WeightVector.uniform(30), v), (0, 2.5)),
    ("illustrative_roots.n", "n", lambda v: illustrative_roots(v, 0), (0, 2.5)),
]
# values every numeric argument refuses; None is allowed where it means "not set"
NOT_NUMBERS = [True, "0.5", None, math.nan, math.inf, -math.inf]


class TestNumericArguments:
    @pytest.mark.parametrize("name,call,value", [
        pytest.param(name, call, value, id=f"{case}-{value!r}")
        for case, name, call, out_of_range in NUMERIC_ARGUMENTS
        for value in (*NOT_NUMBERS, *out_of_range)
        if not (value is None and name in OPTIONAL_REAL_FIELDS)
    ])
    def test_refuses_with_a_data_error_naming_the_argument(self, name, call, value):
        with pytest.raises(DataError, match=rf"\b{name}\b"):
            call(value)

    def test_true_quantile_default_noise_sd_is_simconfig_s(self):
        assert true_quantile("aft1d", [1.0], 0.9) == true_quantile("aft1d", [1.0], 0.9, SimConfig.noise_sd)


class TestCheckFloats:
    @pytest.mark.parametrize("values", [[1, 2], [[1.5], [2.0]], np.arange(3, dtype=np.int8),
                                        np.arange(3, dtype=np.uint16), np.arange(3, dtype=np.float32), 2.5])
    def test_numbers_convert_as_float64_does(self, values):
        out = check_floats("a", values)
        assert out.dtype == np.float64
        assert out.tobytes() == np.asarray(values, dtype=np.float64).tobytes()

    def test_a_float64_array_is_not_copied(self):
        a = np.arange(4.0)
        assert check_floats("a", a) is a

    @pytest.mark.parametrize("values", [["1"], [1.0, None], None, [[1.0], [1.0, 2.0]], np.array([True]),
                                        np.array([1j]), np.array([1.0], dtype=object), [2**70]])
    def test_refuses_non_numbers(self, values):
        with pytest.raises(DataError, match="^a must be an array of real numbers$"):
            check_floats("a", values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_values(self, bad):
        with pytest.raises(DataError, match="^a must be finite$"):
            check_floats("a", [1.0, bad])

    def test_query_points_keep_infinities_but_not_nan(self):
        assert check_floats("q", [-math.inf, math.inf], finite=False).tolist() == [-math.inf, math.inf]
        with pytest.raises(DataError, match="^q must not be NaN$"):
            check_floats("q", [1.0, math.nan], finite=False)


class TestCheckRows:
    @pytest.mark.parametrize("values", [[0, 2], np.array([0, 2], dtype=np.uint8), [0.0, 2.0], np.array([-0.0, 2.0])])
    def test_whole_numbers_become_int64(self, values):
        out = check_rows("rows", values)
        assert out.dtype == np.int64 and out.tolist() == [0, 2]

    @pytest.mark.parametrize("bad", [0.5, math.nan, math.inf, "1", None])
    def test_refuses_what_is_not_a_whole_number(self, bad):
        with pytest.raises(DataError, match=r"^rows must be (whole numbers|finite|an array of real numbers)$"):
            check_rows("rows", [0, bad])

    def test_a_float_beyond_int64_stays_out_of_range(self):
        assert check_rows("rows", [-1e300, 1e300]).tolist() == [-1, 2**62]


W3 = WeightVector([0, 1, 2], [0.25, 0.25, 0.5], 3)
Y3 = [1.0, 2.0, 3.0]
X3 = [[0.0], [1.0], [2.0]]
CURVE = SurvivalCurve([1.0, 2.0], [0.5, 0.25])

# every public array argument that check_floats or check_rows checks: (id, the name its message
# gives, a call passing it the value, a value it accepts, whether it holds row indices)
ARRAY_ARGUMENTS = [
    ("Dataset.features", "features", lambda v: Dataset(features=v, response=Y3, event=[1, 0, 1]), X3, False),
    ("Dataset.response", "response", lambda v: Dataset(features=X3, response=v, event=[1, 0, 1]), Y3, False),
    ("Dataset.latent", "latent", lambda v: Dataset(features=X3, response=Y3, event=[1, 0, 1], latent=v),
     [1.0, 2.5, 3.0], False),
    ("km.y", "response", lambda v: km(v, [1, 0, 1]), Y3, False),
    ("c_index.pred", "pred", lambda v: c_index(v, Y3, [1, 0, 1]), Y3, False),
    ("c_index.y", "response", lambda v: c_index(Y3, v, [1, 0, 1]), Y3, False),
    ("predict_quantile.x", "test features", lambda v: predict_quantile(*small_forest(), v, 0.5), [1.0], False),
    ("predict_quantiles.x", "test features", lambda v: predict_quantiles(*small_forest(), v, CqrConfig()), [1.0],
     False),
    ("predict_interval.x", "test features", lambda v: predict_interval(*small_forest(), v, 0.8), [1.0], False),
    ("predict_batch.xmat", "test features", lambda v: predict_batch(*small_forest(), v, CqrConfig()), X3, False),
    ("predict_with_weights.x", "x",
     lambda v: predict_with_weights(v, WeightVector.uniform(30), small_forest()[1], CqrConfig()), [1.0], False),
    ("forest_weights.x", "test features", lambda v: forest_weights(small_forest()[0], v), [1.0], False),
    ("weight_matrix.xmat", "test features", lambda v: weight_matrix(small_forest()[0], v), X3, False),
    ("beran_nw.x", "x", lambda v: beran_nw(small_forest()[1], v, BeranNWConfig(bandwidth=0.5)), [1.0], False),
    ("true_quantile.x", "x", lambda v: true_quantile("aft1d", v, 0.5), [1.0], False),
    ("WeightVector.index", "index", lambda v: WeightVector(v, [0.5, 0.5], 3), [0, 2], True),
    ("WeightVector.value", "value", lambda v: WeightVector([0, 2], v, 3), [0.5, 0.5], False),
    ("WeightVector.from_dense", "dense", WeightVector.from_dense, [0.5, 0.0, 0.5], False),
    ("WeightVector.uniform_subset", "rows", lambda v: WeightVector.uniform_subset(v, 3), [0, 2], True),
    ("mass_above.y", "y", lambda v: mass_above(W3, v, 2.0), Y3, False),
    ("support_grid.y", "y", lambda v: support_grid(W3, v), Y3, False),
    ("candidate_set.y", "y", lambda v: candidate_set(W3, v, "beran-rf"), Y3, False),
    ("quantile_from_weights.y", "y", lambda v: quantile_from_weights(W3, v, 0.5), Y3, False),
    ("SurvivalCurve.jump_times", "jump_times", lambda v: SurvivalCurve(v, [0.5, 0.25]), [1.0, 2.0], False),
    ("SurvivalCurve.values", "values", lambda v: SurvivalCurve([1.0, 2.0], v), [0.5, 0.25], False),
    ("quantile_losses.truth_T", "truth_T", lambda v: quantile_losses(v, Y3, Y3, 0.5), Y3, False),
    ("quantile_losses.true_Q", "true_Q", lambda v: quantile_losses(Y3, v, Y3, 0.5), Y3, False),
    ("quantile_losses.pred_Q", "pred_Q", lambda v: quantile_losses(Y3, Y3, v, 0.5), Y3, False),
]
# query points of a step function, which has a value at +-inf: (id, call, a value it accepts)
QUERY_ARGUMENTS = [
    ("mass_above.q", lambda v: mass_above(W3, Y3, v), [1.0, 2.0]),
    ("SurvivalCurve.evaluate.q", CURVE.evaluate, [1.0, 2.0]),
    ("score.q", lambda v: score(v, 0.5, W3, CURVE, Y3), [1.0, 2.0]),
]


def spoiled(good, entry):
    """``good``, a list or a list of lists, with its first number replaced by ``entry``."""
    if isinstance(good[0], list):
        return [spoiled(good[0], entry), *good[1:]]
    return [entry, *good[1:]]


RAGGED = [[1.0], [1.0, 2.0]]


def bad_arrays(good, rows):
    """A ragged nesting, and ``good`` with a string, None, bool, NaN or +-inf entry (or a fraction, for row indices).

    numpy reads a bool among numbers as 0 or 1, so only the rule can refuse it.
    """
    entries = {"string": "1", "none": None, "bool": True, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
    if rows:
        entries["fraction"] = 0.5
    return {"ragged": RAGGED, **{kind: spoiled(good, entry) for kind, entry in entries.items()}}


class TestArrayArguments:
    @pytest.mark.parametrize("call,good", [
        pytest.param(call, good, id=case) for case, _, call, good, _ in ARRAY_ARGUMENTS
    ] + [pytest.param(call, good, id=case) for case, call, good in QUERY_ARGUMENTS])
    def test_accepts_its_good_value(self, call, good):
        call(good)
        call(np.array(good))

    @pytest.mark.parametrize("name,call,value", [
        pytest.param(name, call, value, id=f"{case}-{kind}")
        for case, name, call, good, rows in ARRAY_ARGUMENTS
        for kind, value in bad_arrays(good, rows).items()
    ])
    def test_refuses_with_a_data_error_naming_the_argument(self, name, call, value):
        with pytest.raises(DataError, match=rf"\b{name}\b"):
            call(value)

    @pytest.mark.parametrize("call,value", [
        pytest.param(call, value, id=f"{case}-{kind}")
        for case, call, good in QUERY_ARGUMENTS
        for kind, value in {"ragged": RAGGED, "string": spoiled(good, "1"), "none": spoiled(good, None),
                            "nan": spoiled(good, math.nan)}.items()
    ])
    def test_query_points_refuse_nan_and_non_numbers(self, call, value):
        with pytest.raises(DataError, match=r"\bq\b"):
            call(value)

    def test_query_points_keep_their_values_at_infinity(self):
        y = np.array(Y3)
        assert mass_above(W3, y, [-math.inf, math.inf]).tolist() == [1.0, 0.0]
        assert mass_above(W3, y, math.inf) == 0.0 and mass_above(W3, y, -math.inf) == 1.0
        assert CURVE.evaluate([-math.inf, math.inf]).tolist() == [1.0, 0.25]
        assert score(math.inf, 0.5, W3, CURVE, y) == 0.5 * 0.25
        assert score(-math.inf, 0.5, W3, CURVE, y) == 0.5 - 1.0


# one fault of a response vector with its event flags, and the message every reader gives for it
OUTCOME_FAULTS = [
    ([1.0, math.nan, 3.0], [1, 0, 1], "response values must be finite"),
    ([1.0, 2.0, 3.0], [1, 2, 0], "event flags must be 0/1 or boolean"),
    ([1.0, 2.0, 3.0], [1.0, 0.5, 0.0], "event flags must be 0/1 or boolean"),
    ([1.0, 2.0, 3.0], [1, 0], "event flags must match the response length"),
    ([], [], "response must be a nonempty 1-d array"),
    ([[1.0, 2.0]], [[1, 0]], "response must be a nonempty 1-d array"),
]


@pytest.mark.parametrize("y,event,message", OUTCOME_FAULTS)
def test_outcome_fault_gives_one_message_through_each_reader(y, event, message):
    readers = {
        "Dataset": lambda: Dataset(features=np.zeros((max(np.size(y), 1), 1)), response=y, event=event),
        "km": lambda: km(y, event),
        "c_index": lambda: c_index(np.zeros(np.shape(y)), y, event),
    }
    for read in readers.values():
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            read()


class TestTrueQuantile:
    def test_frozen_values(self):
        assert true_quantile("aft1d", 1.0, 0.5) == pytest.approx(2.718281828459045, abs=1e-12)
        assert true_quantile("aft1d", 1.0, 0.9) == pytest.approx(3.9926911197855035, rel=1e-12)
        assert true_quantile("sine1d", math.pi / 2, 0.1) == pytest.approx(
            3.1155345303366198, rel=1e-12
        )
        x5 = [1.0, 0.5, 2.0, 0.0, 1.5]
        assert true_quantile("aft-multi", x5, 0.3) == pytest.approx(4.025623662963633, rel=1e-12)
        assert true_quantile("complex", x5, 0.7) == pytest.approx(6.801130863152066, rel=1e-12)

    def test_monotone_in_tau_and_shapes(self):
        taus = [0.1, 0.3, 0.5, 0.7, 0.9]
        q = [true_quantile("sine1d", 1.0, t) for t in taus]
        assert all(b > a for a, b in zip(q, q[1:]))
        arr = true_quantile("aft1d", np.array([[0.5], [1.5]]), 0.5)
        assert arr.shape == (2,)
        assert isinstance(true_quantile("aft1d", 0.5, 0.5), float)

    def test_median_matches_signal(self):
        # at tau=0.5 the noise quantile is 0, leaving the pure signal
        assert true_quantile("sine1d", 2.0, 0.5) == pytest.approx(2.5 + math.sin(2.0), rel=1e-14)

    def test_rejects_bad_tau(self):
        with pytest.raises(DataError):
            true_quantile("aft1d", 1.0, 0.0)
        with pytest.raises(DataError):
            true_quantile("aft1d", 1.0, 1.0)

    @pytest.mark.parametrize("model", MODELS)
    def test_bitwise_scipy_ndtri(self, model):
        # at these taus the stdlib inverse normal differs from scipy's ndtri in the last bits
        x = np.random.default_rng(4).uniform(0.0, 2.0, size=(40, model_dim(model)))
        signal = data_module._signal(model, x)
        link = np.exp if model in ("aft1d", "aft-multi") else (lambda v: v)
        stdlib_differs = False
        for tau in (0.1, 0.9, 0.025, 0.975):
            expected = link(signal + 0.3 * ndtri(tau))
            assert (true_quantile(model, x, tau) == expected).all()
            stdlib = link(signal + 0.3 * NormalDist().inv_cdf(tau))
            stdlib_differs |= not np.array_equal(stdlib, expected)
        # the pin has teeth: swapping in the stdlib quantile changes some bits on this grid
        assert stdlib_differs


class TestCsv:
    def test_round_trip_bitwise(self, tmp_path):
        d = simulate(SimConfig(model="aft-multi", n=30, censor_rate_param=0.05, seed=2))
        path = tmp_path / "d.csv"
        write_csv(path, d)
        schema = CsvSchema(features=tuple(f"x{j}" for j in range(1, 6)), latent="latent")
        back = load_csv(path, schema)
        assert np.array_equal(back.features, d.features)
        assert np.array_equal(back.response, d.response)
        assert np.array_equal(back.event, d.event)
        assert np.array_equal(back.latent, d.latent)

    def test_detect_schema(self, tmp_path):
        d = simulate(SimConfig(model="sine1d", n=5, censor_rate_param=0.2, seed=0))
        path = tmp_path / "d.csv"
        write_csv(path, d)
        schema = detect_schema(path)
        assert schema.features == ("x1",)
        assert schema.latent == "latent"
        back = load_csv(path, schema)
        assert np.array_equal(back.response, d.response)

    def test_load_features_csv(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x1,x2,y\n1.0,2.0,9\n3.5,4.0,9\n")
        mat, names = load_features_csv(path, names=("x1", "x2"))
        assert names == ["x1", "x2"]
        assert np.array_equal(mat, [[1.0, 2.0], [3.5, 4.0]])
        # unnamed fallback skips reserved columns
        mat2, names2 = load_features_csv(path, n_features=2)
        assert names2 == ["x1", "x2"] and np.array_equal(mat2, mat)
        with pytest.raises(DataError):
            load_features_csv(path, n_features=3)

    @pytest.mark.parametrize(
        "text, n_features, error",
        [
            ("x1,x2,y\n1.0,2.0,9\n", 2, None),
            ("x1,x2,y\n1.0,2.0,9\n", 3, "expected 3 feature columns"),
            ("x1,x2\n", None, "no data rows"),
            ("", None, "empty file"),
        ],
        ids=["ok", "wrong-width", "no-rows", "empty"],
    )
    def test_load_features_csv_opens_file_once(self, tmp_path, monkeypatch, text, n_features, error):
        path = tmp_path / "f.csv"
        path.write_text(text)
        opened = []
        real = data_module.open_utf8

        def counting(p):
            opened.append(p)
            return real(p)

        monkeypatch.setattr(data_module, "open_utf8", counting)
        if error is None:
            load_features_csv(path, n_features=n_features)
        else:
            with pytest.raises(DataError, match=error):
                load_features_csv(path, n_features=n_features)
        assert opened == [path]

    def test_error_messages(self, tmp_path):
        schema = CsvSchema(features=("x1",))
        cases = {
            "empty.csv": ("", "empty file"),
            "nohdr.csv": ("x1,y\n1,2\n", "missing column"),
            "norows.csv": ("x1,y,delta\n", "no data rows"),
            "badflag.csv": ("x1,y,delta\n1,2,7\n", "invalid event flag"),
            "nonnum.csv": ("x1,y,delta\n1,abc,1\n", "non-numeric"),
            "short.csv": ("x1,y,delta\n1,2\n", "expected 3 cells"),
            "missing.csv": ("x1,y,delta\n1,,1\n", "missing value"),
            "nonfinite.csv": ("x1,y,delta\n1,inf,1\n", "non-finite"),
        }
        for fname, (text, msg) in cases.items():
            p = tmp_path / fname
            p.write_text(text)
            with pytest.raises(DataError, match=msg):
                load_csv(p, schema)

    def test_blank_lines_above_the_header_are_skipped(self, tmp_path):
        plain, padded, blank = tmp_path / "plain.csv", tmp_path / "padded.csv", tmp_path / "blank.csv"
        plain.write_text("x1,y,delta\n1,2,1\n3,4,0\n")
        padded.write_text("\n  \n" + plain.read_text())
        a, b = load_csv(plain), load_csv(padded)
        assert (a.features.tobytes(), a.response.tobytes(), a.event.tobytes()) == (
            b.features.tobytes(), b.response.tobytes(), b.event.tobytes())
        padded.write_text("\n\nx1,y,delta\n1,abc,1\n")
        with pytest.raises(DataError, match=r"padded.csv:4: non-numeric"):
            load_csv(padded)
        blank.write_text("\n \n")
        with pytest.raises(DataError, match="empty file"):
            load_csv(blank)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "absent.csv", CsvSchema(features=("x1",)))

    @pytest.mark.parametrize(
        "column, cell, msg",
        [
            ("y", "abc", "non-numeric cell 'abc' in column 'y'"),
            ("y", "", "missing value in column 'y'"),
            ("x1", "inf", "non-finite value in column 'x1'"),
            ("delta", "2", "invalid event flag '2' in column 'delta'"),
        ],
    )
    def test_cell_error_names_physical_line(self, tmp_path, column, cell, msg):
        # a quoted cell spanning lines 2-3 and a blank line 4 come before the bad cell on line 5
        rec = {"x1": "3.0", "y": "2.0", "delta": "1", column: cell}
        path = tmp_path / "d.csv"
        path.write_text('x1,y,delta\n"1.0\n",2.0,1\n\n' + ",".join(rec.values()) + "\n")
        expected = f"^{re.escape(f'{path}:5: {msg}')}$"
        with pytest.raises(DataError, match=expected):
            load_csv(path)
        if column == "x1":
            with pytest.raises(DataError, match=expected):
                load_features_csv(path)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("latent", [True, False])
    def test_write_csv_reads_back(self, tmp_path, model, latent):
        d = simulate(SimConfig(model=model, n=20, censor_rate_param=0.1, seed=5))
        if not latent:
            d = Dataset(features=d.features, response=d.response, event=d.event)
        names = [f"f{j}" for j in range(d.p)]
        for path, feature_names in ((tmp_path / "a.csv", None), (tmp_path / "b.csv", names)):
            write_csv(path, d, feature_names)
            schema = detect_schema(path)
            back = load_csv(path)
            assert back.p == d.p and len(schema.features) == d.p
            assert (schema.latent == "latent") == latent
            assert np.array_equal(back.features, d.features) and np.array_equal(back.event, d.event)
            assert np.array_equal(back.response, d.response)
            assert (back.latent is None) if not latent else np.array_equal(back.latent, d.latent)

    def test_oversized_cell_is_a_data_error(self, tmp_path):
        # the csv module refuses a cell beyond its field size limit (131072 characters)
        path = tmp_path / "d.csv"
        path.write_text("x1,y,delta\n" + "1" * 200_000 + ",2.0,1\n")
        for read in (load_csv, load_features_csv):
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: malformed CSV"):
                read(path)
        path.write_text("x1" * 100_000 + ",y,delta\n1,2,1\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: malformed CSV"):
            detect_schema(path)

    @pytest.mark.parametrize("cell,expected", [
        ("7", 7), (" -2 ", -2), ("", "missing value in column 'row'"),
        ("x", "non-integer cell 'x' in column 'row'"), ("2.0", "non-integer cell '2.0' in column 'row'"),
        ("1e3", "non-integer cell '1e3' in column 'row'"), ("nan", "non-integer cell 'nan' in column 'row'"),
    ])
    def test_int_column(self, tmp_path, cell, expected):
        path = tmp_path / "p.csv"
        path.write_text(f"row,tau\n0,0.5\n{cell},0.5\n")
        column = functools.partial(_column, path, *read_table(path))
        if isinstance(expected, int):
            values = column("row", kind="int")
            assert values == [0, expected] and all(type(v) is int for v in values)
        else:
            with pytest.raises(DataError, match=f"^{re.escape(f'{path}:3: {expected}')}$"):
                column("row", kind="int")

    def test_features_csv_without_feature_columns(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("y,delta\n1.0,1\n")
        with pytest.raises(DataError, match="no feature columns found"):
            load_features_csv(path)


def test_csv_module_is_imported_only_by_data():
    src = Path(data_module.__file__).parent
    importers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "csv" or name.startswith("csv.") for name in names):
                importers.add(path.name)
    assert importers == {"data.py"}
