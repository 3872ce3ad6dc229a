from dataclasses import replace

import numpy as np
import pytest

from cqforest.data import DataError, Dataset, SimConfig, simulate
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
    load_forest,
    mass_above,
    quantile_from_weights,
    save_forest,
    support_grid,
)
from cqforest.survival import beran_rf, km, km_knn, nearest_rows

from _oracles import score_direct


def all_event_dataset(y):
    y = np.asarray(y, dtype=np.float64)
    return Dataset(
        features=np.zeros((y.size, 1)),
        response=y,
        event=np.ones(y.size, dtype=bool),
    )


def make_dataset(y, event):
    y = np.asarray(y, dtype=np.float64)
    return Dataset(features=np.zeros((y.size, 1)), response=y, event=np.asarray(event))


class TestConfig:
    def test_defaults(self):
        cfg = CqrConfig()
        assert cfg.taus == (0.5,) and cfg.survival == "beran-rf" and cfg.knn is None

    def test_taus_coerced_to_floats(self):
        assert CqrConfig(taus=[0.25, 0.75]).taus == (0.25, 0.75)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(survival="cox"),
            dict(survival="km-knn"),  # knn missing
            dict(survival="km-knn", knn=0),
            dict(knn=5),  # knn without km-knn
            dict(taus=()),
            dict(taus=(0.0,)),
            dict(taus=(0.5, 1.2)),
            dict(taus=(0.5, 0.5)),
            dict(taus=(0.7, 0.3)),
            dict(taus=("half",)),
            dict(search_radius=0.0),
            dict(survival="km-knn", knn=True),
            dict(survival="km-knn", knn=2.5),
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(DataError):
            CqrConfig(**kwargs)


class TestScore:
    def test_uncensored_hand_values(self):
        y = [1.0, 2.0, 3.0, 4.0]
        d = all_event_dataset(y)
        w = WeightVector.uniform(4)
        curve = beran_rf(d, w)  # constant one
        assert score(2.0, 0.5, w, curve, y) == 0.0
        assert score(0.5, 0.5, w, curve, y) == -0.5  # everything above: -tau
        assert score(4.0, 0.5, w, curve, y) == 0.5  # nothing above: 1 - tau
        assert np.array_equal(
            score(np.array([0.5, 2.0, 4.0]), 0.5, w, curve, y), [-0.5, 0.0, 0.5]
        )

    def test_rejects_bad_tau(self):
        y = [1.0]
        d = all_event_dataset(y)
        w = WeightVector.uniform(1)
        with pytest.raises(DataError):
            score(1.0, 0.0, w, beran_rf(d, w), y)

    def test_matches_direct_oracle_under_censoring(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 15))
            y = rng.integers(1, 8, n).astype(float)
            event = rng.integers(0, 2, n)
            raw = rng.uniform(0, 1, n)
            w = WeightVector.from_dense(raw / raw.sum())
            d = make_dataset(y, event)
            curve = beran_rf(d, w)
            tau = float(rng.uniform(0.05, 0.95))
            for q in np.unique(np.concatenate([y, y + 0.5])):
                expect = score_direct(float(q), tau, w.dense(), curve.evaluate(float(q)), y)
                assert score(float(q), tau, w, curve, y) == pytest.approx(expect, abs=1e-12)


class TestCandidateSet:
    def test_support_rows_only(self):
        y = [9.0, 8.0, 7.0, 6.0, 5.0, 4.0]
        w = WeightVector(index=[2, 5], value=[0.5, 0.5], n=6)
        assert np.array_equal(candidate_set(w, y, "beran-rf"), [4.0, 7.0])

    def test_full_support_sorted_distinct(self):
        y = [3.0, 1.0, 3.0, 2.0]
        w = WeightVector.uniform(4)
        assert np.array_equal(candidate_set(w, y, "beran-rf"), [1.0, 2.0, 3.0])

    def test_km_knn_uses_top_k(self):
        y = [10.0, 20.0, 30.0, 40.0]
        w = WeightVector.from_dense([0.4, 0.1, 0.2, 0.3])
        assert np.array_equal(candidate_set(w, y, "km-knn", k=2), [10.0, 40.0])

    def test_errors(self):
        w = WeightVector.uniform(2)
        with pytest.raises(DataError):
            candidate_set(w, [1.0, 2.0], "km-knn")  # k missing
        with pytest.raises(DataError):
            candidate_set(w, [1.0, 2.0], "nope")


class TestUncensoredReduction:
    def test_equals_weighted_cdf_quantile_exactly(self):
        # with every row observed the root of S is the weighted quantile
        rng = np.random.default_rng(12)
        for seed in range(5):
            sim = simulate(SimConfig(model="aft1d", n=80, censor_rate_param=0.01, seed=seed))
            d = Dataset(features=sim.features, response=sim.latent, event=np.ones(80, dtype=bool))
            forest = fit(d, ForestConfig(min_node_size=8, n_trees=30, seed=seed))
            for _ in range(4):
                x = rng.uniform(0.0, 2.0, 1)
                w = forest_weights(forest, x)
                for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
                    pred = predict_quantile(forest, d, x, tau)
                    assert pred.q_hat == quantile_from_weights(w, d.response, tau)

    def test_single_observed_row(self):
        d = all_event_dataset([7.5])
        w = WeightVector.uniform(1)
        for tau in (0.05, 0.5, 0.95):
            p = predict_with_weights([0.0], w, d, CqrConfig(taus=(tau,)))[0]
            assert p.q_hat == 7.5 and p.candidate_count == 1


class TestRootSelection:
    def test_censoring_shifts_root_upward(self):
        # half the mass censored at 2 inflates the quantile relative to
        # treating every row as observed
        y = [1.0, 2.0, 3.0, 4.0]
        d = make_dataset(y, [1, 0, 1, 1])
        w = WeightVector.uniform(4)
        pred = predict_with_weights([0.0], w, d, CqrConfig(taus=(0.5,)))[0]
        naive = quantile_from_weights(w, np.asarray(y), 0.5)
        assert pred.q_hat >= naive

    def test_degenerate_tail_flag(self):
        d = make_dataset([1.0, 2.0, 3.0], [1, 1, 0])
        w = WeightVector.uniform(3)
        out = predict_with_weights([0.0], w, d, CqrConfig(taus=(0.5, 0.9)))
        assert out[0].q_hat == 2.0 and not out[0].degenerate_tail
        # at tau=0.9 the curve is exhausted: S(3) = 0 via G(3) = 0
        assert out[1].q_hat == 3.0 and out[1].degenerate_tail
        assert out[1].residual == 0.0

    def test_search_radius_restricts_candidates(self):
        d = all_event_dataset([1.0, 5.0, 50.0])
        w = WeightVector.uniform(3)
        free = predict_with_weights([0.0], w, d, CqrConfig(taus=(0.9,)))[0]
        assert free.q_hat == 50.0
        capped = predict_with_weights(
            [0.0], w, d, CqrConfig(taus=(0.9,), search_radius=10.0)
        )[0]
        assert capped.q_hat == 5.0 and capped.candidate_count == 2
        with pytest.raises(DataError, match="search radius"):
            predict_with_weights(
                [0.0], w, d, CqrConfig(taus=(0.9,), search_radius=0.5)
            )

    def test_refined_set_attains_global_minimum(self):
        # |S| minimized over the support candidates equals the minimum
        # over every training response: S is constant between support
        # points, so the coarse grid loses nothing
        rng = np.random.default_rng(13)
        d = simulate(SimConfig(model="sine1d", n=120, censor_rate_param=0.2, seed=21))
        forest = fit(d, ForestConfig(min_node_size=12, n_trees=40, seed=3))
        for _ in range(20):
            x = rng.uniform(0.0, 2.0 * np.pi, 1)
            w = forest_weights(forest, x)
            curve = beran_rf(d, w)
            cands, above = support_grid(w, d.response)
            full = np.unique(d.response)
            for tau in (0.2, 0.5, 0.8):
                refined = np.abs((1.0 - tau) * curve.evaluate(cands) - above)
                everywhere = np.abs(score(full, tau, w, curve, d.response))
                assert refined.min() == everywhere.min()


@pytest.fixture(scope="module")
def fitted():
    d = simulate(SimConfig(model="aft1d", n=150, censor_rate_param=0.08, seed=30))
    forest = fit(d, ForestConfig(min_node_size=15, n_trees=60, seed=4))
    return d, forest


class TestGridPredictors:
    def test_non_crossing(self, fitted):
        d, forest = fitted
        cfg = CqrConfig(taus=(0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95))
        for x in ([0.3], [1.0], [1.7]):
            qs = [p.q_hat for p in predict_quantiles(forest, d, x, cfg)]
            assert (np.diff(qs) >= 0).all()

    def test_interval_endpoints_match_grid(self, fitted):
        d, forest = fitted
        lo, hi = predict_interval(forest, d, [1.0], 0.8)
        grid = predict_quantiles(forest, d, [1.0], CqrConfig(taus=(0.1, 0.9)))
        assert lo <= hi
        assert (lo, hi) == (grid[0].q_hat, grid[1].q_hat)
        with pytest.raises(DataError):
            predict_interval(forest, d, [1.0], 1.0)

    def test_interval_keeps_every_config_field(self, fitted):
        d, forest = fitted
        cfg = CqrConfig(taus=(0.5,), survival="km-knn", knn=20, search_radius=2.0)
        lo, hi = predict_interval(forest, d, [1.0], 0.6, cfg)
        grid = predict_quantiles(forest, d, [1.0], replace(cfg, taus=(0.2, 0.8)))
        assert (lo, hi) == (grid[0].q_hat, grid[1].q_hat)

    def test_batch_matches_per_point(self, fitted):
        d, forest = fitted
        cfg = CqrConfig(taus=(0.25, 0.5, 0.75))
        xmat = np.array([[0.4], [0.9], [1.5]])
        batch = predict_batch(forest, d, xmat, cfg)
        threaded = predict_batch(forest, d, xmat, cfg, threads=3)
        for i, row in enumerate(batch):
            single = predict_quantiles(forest, d, xmat[i], cfg)
            for a, b, c in zip(row, single, threaded[i]):
                assert a.q_hat == b.q_hat == c.q_hat
                assert a.residual == b.residual == c.residual
                assert a.tau == b.tau

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, fitted, bad):
        d, forest = fitted
        with pytest.raises(DataError, match="finite"):
            predict_quantile(forest, d, [bad], 0.5)
        with pytest.raises(DataError, match="finite"):
            predict_batch(forest, d, np.array([[1.0], [bad]]), CqrConfig())
        with pytest.raises(DataError, match="finite"):
            forest_weights(forest, [bad])

    def test_km_knn_mode_matches_manual_composition(self, fitted):
        d, forest = fitted
        cfg = CqrConfig(taus=(0.3, 0.6), survival="km-knn", knn=20)
        for x in ([0.5], [1.2]):
            w = forest_weights(forest, x)
            rows = nearest_rows(w, 20)
            curve = km(d.response[rows], d.event[rows])
            cands = np.unique(d.response[rows])
            preds = predict_quantiles(forest, d, x, cfg)
            for p in preds:
                s = score(cands, p.tau, w, curve, d.response)
                nonneg = np.flatnonzero(s >= 0.0)
                idx = int(nonneg[0]) if nonneg.size else int(np.argmin(np.abs(s)))
                assert p.q_hat == cands[idx]
                assert p.candidate_count == cands.size


class TestScaleEquivariance:
    def test_doubling_the_response_doubles_predictions_exactly(self):
        base = simulate(SimConfig(model="aft1d", n=100, censor_rate_param=0.08, seed=40))
        scaled = Dataset(
            features=base.features,
            response=2.0 * base.response,
            event=base.event,
            latent=2.0 * base.latent,
        )
        cfg = ForestConfig(min_node_size=10, n_trees=40, seed=7)
        f1, f2 = fit(base, cfg), fit(scaled, cfg)
        grid = CqrConfig(taus=(0.1, 0.5, 0.9))
        for x in ([0.2], [0.8], [1.6]):
            p1 = predict_quantiles(f1, base, x, grid)
            p2 = predict_quantiles(f2, scaled, x, grid)
            for a, b in zip(p1, p2):
                assert b.q_hat == 2.0 * a.q_hat  # bitwise: doubling is exact


def predictor_calls(forest, data):
    cfg = CqrConfig(taus=(0.25, 0.75))
    return [
        lambda: predict_quantile(forest, data, [1.0], 0.5),
        lambda: predict_quantiles(forest, data, [1.0], cfg),
        lambda: predict_interval(forest, data, [1.0], 0.8),
        lambda: predict_batch(forest, data, np.array([[0.5], [1.0]]), cfg),
    ]


class TestTrainingDataCheck:
    """Predictors refuse data other than the forest's own, instead of answering from it."""

    @pytest.fixture(scope="class")
    def aft(self):
        d = simulate(SimConfig(model="aft1d", n=200, censor_rate_param=0.08, seed=1))
        return d, fit(d, ForestConfig(min_node_size=20, n_trees=50, seed=2))

    @pytest.mark.parametrize("call", range(4))
    def test_other_data_of_the_same_size(self, aft, call):
        d, forest = aft
        other = simulate(SimConfig(model="aft1d", n=200, censor_rate_param=0.08, seed=9))
        with pytest.raises(DataError, match="not the training data"):
            predictor_calls(forest, other)[call]()

    @pytest.mark.parametrize("call", range(4))
    def test_smaller_data(self, aft, call):
        d, forest = aft
        other = simulate(SimConfig(model="aft1d", n=120, censor_rate_param=0.08, seed=9))
        with pytest.raises(DataError, match="not the training data"):
            predictor_calls(forest, other)[call]()

    def test_same_responses_other_events(self, aft):
        d, forest = aft
        other = Dataset(features=d.features, response=d.response, event=np.ones(d.n, dtype=bool))
        with pytest.raises(DataError, match="not the training data"):
            predict_quantiles(forest, other, [1.0], CqrConfig())

    def test_equal_copy_is_accepted(self, aft):
        d, forest = aft
        copy = Dataset(features=d.features.copy(), response=d.response.copy(), event=d.event.copy())
        cfg = CqrConfig(taus=(0.25, 0.5, 0.75))
        expected = [p.q_hat for p in predict_quantiles(forest, d, [1.0], cfg)]
        assert [p.q_hat for p in predict_quantiles(forest, copy, [1.0], cfg)] == expected

    def test_loaded_forest_is_bound_to_its_data(self, aft, tmp_path):
        d, forest = aft
        save_forest(forest, tmp_path / "m.npz")
        copy = Dataset(features=d.features.copy(), response=d.response.copy(), event=d.event.copy())
        loaded = load_forest(tmp_path / "m.npz", copy)
        assert loaded.response is copy.response and loaded.event is copy.event
        expected = predict_quantiles(forest, d, [1.0], CqrConfig())[0].q_hat
        assert predict_quantiles(loaded, copy, [1.0], CqrConfig())[0].q_hat == expected
        with pytest.raises(DataError, match="not the training data"):
            predict_quantiles(loaded, replace(copy, event=np.ones(d.n, dtype=bool)), [1.0], CqrConfig())


class TestWeightLengthCheck:
    """A WeightVector over n rows is refused against responses of another length."""

    @pytest.fixture(scope="class")
    def data(self):
        return simulate(SimConfig(model="aft1d", n=200, censor_rate_param=0.08, seed=1))

    @pytest.mark.parametrize(
        "call",
        [
            lambda w, d: predict_with_weights([1.0], w, d, CqrConfig()),
            lambda w, d: quantile_from_weights(w, d.response, 0.5),
            lambda w, d: support_grid(w, d.response),
            lambda w, d: mass_above(w, d.response, 1.0),
            lambda w, d: candidate_set(w, d.response, "beran-rf"),
            lambda w, d: candidate_set(w, d.response, "km-knn", k=10),
            lambda w, d: beran_rf(d, w),
            lambda w, d: km_knn(d, w, 10),
        ],
        ids=["predict_with_weights", "quantile_from_weights", "support_grid", "mass_above",
             "candidate_set", "candidate_set_knn", "beran_rf", "km_knn"],
    )
    @pytest.mark.parametrize("n", [50, 250])
    def test_wrong_length_weights(self, data, call, n):
        with pytest.raises(DataError, match="weights span"):
            call(WeightVector.uniform(n), data)


def test_predict_batch_refuses_non_integer_threads():
    data = simulate(SimConfig(model="aft1d", n=40, censor_rate_param=0.1, seed=1))
    forest = fit(data, ForestConfig(min_node_size=5, n_trees=2, seed=1))
    for threads in (2.5, True):
        with pytest.raises(DataError, match="threads must be an integer"):
            predict_batch(forest, data, data.features[:2], CqrConfig(), threads=threads)
