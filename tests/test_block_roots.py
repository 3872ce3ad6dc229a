"""The block root pass against the per-point reference, byte for byte.

``_oracles.root_pass`` solves one point at a time the way the package did
before it solved blocks of points. Every field of every prediction
(q_hat, residual, candidate count, degenerate flag) must match it in its
bytes, in both survival modes, whatever the blocking.
"""

import tracemalloc

import numpy as np
import pytest

from cqforest import estimator
from cqforest import forest as forest_module
from cqforest.data import DataError, Dataset, SimConfig, simulate
from cqforest.estimator import CqrConfig, predict_batch, predict_quantiles, predict_with_weights
from cqforest.forest import (
    ForestConfig,
    WeightVector,
    _points,
    _weight_rows,
    fit,
    forest_weights,
    quantile_from_weights,
)

from _oracles import root_pass

TAUS = (0.1, 0.3, 0.5, 0.7, 0.9)


def in_response_order(rows, y):
    """(index, value) rows as the block pass reads them: each put in (response, index) order through ``_row``."""
    return [forest_module._row(WeightVector(i, v, y.size), y) for i, v in rows]


def block_table(rows, data, cfg):
    """(points, taus, 4) float64 table of the block pass's prediction fields; hand-built rows may come in index order."""
    rows = in_response_order(rows, data.response)
    preds = estimator._predictions(np.zeros((len(rows), 1)), rows, data, cfg)
    return np.array(
        [[(p.q_hat, p.residual, p.candidate_count, p.degenerate_tail) for p in per_point] for per_point in preds],
        dtype=np.float64,
    )


def oracle_table(rows, data, cfg):
    return np.array(
        [root_pass(WeightVector(i, v, data.n), data, cfg.taus, cfg.survival, cfg.knn, cfg.search_radius)
         for i, v in rows],
        dtype=np.float64,
    )


def assert_same_bytes(rows, data, cfg):
    got, want = block_table(rows, data, cfg), oracle_table(rows, data, cfg)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def random_rows(rng, n, count, max_support=None):
    """Sparse weight rows: sorted distinct indices, positive weights normalized to sum 1."""
    rows = []
    for _ in range(count):
        size = int(rng.integers(1, (max_support or n) + 1))
        index = np.sort(rng.choice(n, size, replace=False))
        raw = rng.uniform(0.05, 1.0, size)
        rows.append((index, raw / raw.sum()))
    return rows


def tie_heavy(seed, n=60, levels=8):
    rng = np.random.default_rng(seed)
    return Dataset(
        features=rng.integers(0, 3, (n, 2)).astype(float),
        response=rng.integers(1, levels + 1, n).astype(float),
        event=rng.integers(0, 2, n).astype(bool),
    )


MODES = [CqrConfig(taus=TAUS), CqrConfig(taus=TAUS, survival="km-knn", knn=7)]


@pytest.mark.parametrize("cfg", MODES, ids=["beran-rf", "km-knn"])
class TestAgainstPerPointReference:
    def test_forest_weights_aft1d_and_ties(self, cfg):
        for data in (simulate(SimConfig(model="aft1d", n=200, censor_rate_param=0.08, seed=2)), tie_heavy(3, n=200)):
            forest = fit(data, ForestConfig(min_node_size=10, n_trees=20, seed=4))
            xmat = _points(data.features[::5], data.p)
            rows = list(_weight_rows(forest, xmat))
            # the forest's rows already come in the order block_table puts hand-built rows in
            for (i, v), (j, u) in zip(rows, in_response_order(rows, data.response)):
                assert i.tobytes() == j.tobytes() and v.tobytes() == u.tobytes()
            assert_same_bytes(rows, data, cfg)

    def test_ties_with_mixed_event_flags(self, cfg):
        data = Dataset(
            features=np.zeros((9, 1)),
            response=[2.0, 1.0, 2.0, 3.0, 2.0, 1.0, 3.0, 3.0, 4.0],
            event=[0, 1, 1, 0, 0, 0, 1, 0, 1],
        )
        rows = [
            (np.arange(9), np.full(9, 1 / 9)),
            (np.array([0, 2, 4]), np.array([0.5, 0.25, 0.25])),
            (np.array([1, 3, 5, 6, 7]), np.array([0.1, 0.2, 0.3, 0.2, 0.2])),
        ]
        assert_same_bytes(rows, data, cfg)

    def test_random_rows_on_tie_heavy_data(self, cfg):
        rng = np.random.default_rng(5)
        data = tie_heavy(6)
        assert_same_bytes(random_rows(rng, data.n, 40), data, cfg)

    def test_one_row_supports(self, cfg):
        data = tie_heavy(7)
        rows = [(np.array([i]), np.array([1.0])) for i in (0, 13, 59)]
        assert_same_bytes(rows, data, cfg)
        # and mixed with wide rows in one block
        rows += random_rows(np.random.default_rng(8), data.n, 5)
        assert_same_bytes(rows, data, cfg)

    def test_blocks_of_mixed_width_straddle_the_cap(self, cfg, monkeypatch):
        data = tie_heavy(9, n=120)
        rows = random_rows(np.random.default_rng(10), data.n, 30)
        whole = block_table(rows, data, cfg)
        monkeypatch.setattr(forest_module, "_BLOCK_CELLS", 40 * 3 * len(TAUS))
        assert len(list(forest_module._blocks(rows, len(TAUS)))) > 3
        assert block_table(rows, data, cfg).tobytes() == whole.tobytes()
        assert_same_bytes(rows, data, cfg)


class TestKnnPadding:
    def test_supports_smaller_than_knn(self):
        # low indices inside the support force the padding around them
        data = tie_heavy(11, n=40)
        rows = [
            (np.array([0, 2, 3]), np.array([0.2, 0.5, 0.3])),
            (np.array([1]), np.array([1.0])),
            (np.array([5, 30, 39]), np.array([0.6, 0.2, 0.2])),
        ] + random_rows(np.random.default_rng(12), data.n, 10, max_support=12)
        for k in (1, 4, 12, 25, 40):
            assert_same_bytes(rows, data, CqrConfig(taus=TAUS, survival="km-knn", knn=k))

    def test_knn_above_n_is_refused(self):
        data = tie_heavy(13, n=10)
        with pytest.raises(DataError, match="k must lie"):
            block_table([(np.arange(10), np.full(10, 0.1))], data, CqrConfig(survival="km-knn", knn=11))


def _solvable(row, data, cfg):
    try:
        oracle_table([row], data, cfg)
    except ValueError:
        return False
    return True


class TestSearchRadius:
    @pytest.mark.parametrize("survival,knn", [("beran-rf", None), ("km-knn", 5)])
    def test_restricted_candidates_match(self, survival, knn):
        data = tie_heavy(14)
        rows = random_rows(np.random.default_rng(15), data.n, 30)
        for radius in (3.5, 6.0, 100.0):
            cfg = CqrConfig(taus=TAUS, survival=survival, knn=knn, search_radius=radius)
            inside = [row for row in rows if np.abs(data.response[row[0]]).min() <= radius]
            if survival == "km-knn":  # keep the rows whose k nearest rows reach inside
                inside = [row for row in inside if _solvable(row, data, cfg)]
            assert len(inside) >= 5
            assert_same_bytes(inside, data, cfg)
            if radius < 100.0:  # the radius drops candidates
                free = block_table(inside, data, CqrConfig(taus=TAUS, survival=survival, knn=knn))
                assert (block_table(inside, data, cfg)[:, 0, 2] < free[:, 0, 2]).any()

    def test_no_candidate_inside_the_radius(self):
        data = Dataset(features=np.zeros((4, 1)), response=[1.0, 5.0, 6.0, 7.0], event=[1, 1, 0, 1])
        ok = (np.array([0, 1]), np.array([0.5, 0.5]))
        far = (np.array([2, 3]), np.array([0.5, 0.5]))
        cfg = CqrConfig(taus=(0.5,), search_radius=2.0)
        assert block_table([ok], data, cfg)[0, 0, 0] == 1.0
        with pytest.raises(ValueError, match="search radius"):
            oracle_table([ok, far], data, cfg)
        with pytest.raises(DataError, match="no candidates inside the search radius"):
            block_table([ok, far], data, cfg)


class TestWeightedQuantileTable:
    def test_matches_quantile_from_weights(self, monkeypatch):
        data = tie_heavy(16, n=80)
        rows = random_rows(np.random.default_rng(17), data.n, 25)
        want = np.array([quantile_from_weights(WeightVector(i, v, data.n), data.response, TAUS) for i, v in rows])
        rows = in_response_order(rows, data.response)
        assert forest_module._weighted_quantile_table(rows, data.response, TAUS).tobytes() == want.tobytes()
        monkeypatch.setattr(forest_module, "_BLOCK_CELLS", 100)
        assert forest_module._weighted_quantile_table(rows, data.response, TAUS).tobytes() == want.tobytes()


class TestBlockChecks:
    """A block pass trusts its rows; the one-row check that WeightVector runs refuses each bad row."""

    @pytest.mark.parametrize(
        "index,value,message",
        [
            ([0, 1], [0.5, np.nan], "finite and nonnegative"),
            ([0, 1], [1.5, -0.5], "finite and nonnegative"),
            ([], [], "empty support"),
            ([1, 0], [0.5, 0.5], "unique and within"),
            ([1, 1], [0.5, 0.5], "unique and within"),
            ([0, 10], [0.5, 0.5], "unique and within"),
            ([-1, 2], [0.5, 0.5], "unique and within"),
            ([0, 1], [0.5, 0.4], "sum to 1"),
        ],
    )
    def test_bad_row_in_a_block(self, index, value, message):
        # a block's rows come from the forest's own leaves or from WeightVectors,
        # so a bad row is refused where it enters, before any block pass sees it
        with pytest.raises(DataError, match=message):
            forest_module._check_row(np.array(index, dtype=np.int64), np.array(value, dtype=np.float64), 10)


class TestPublicPredictorsAgree:
    def test_batch_single_point_and_with_weights(self):
        data = tie_heavy(19, n=150)
        forest = fit(data, ForestConfig(min_node_size=8, n_trees=15, seed=3))
        xmat = data.features[:12]
        for cfg in MODES:
            batch = predict_batch(forest, data, xmat, cfg)
            for x, per_point in zip(xmat, batch):
                single = predict_quantiles(forest, data, x, cfg)
                given = predict_with_weights(x, forest_weights(forest, x), data, cfg)
                for a, b, c in zip(per_point, single, given):
                    assert (a.q_hat, a.residual, a.candidate_count, a.degenerate_tail) == (
                        b.q_hat, b.residual, b.candidate_count, b.degenerate_tail) == (
                        c.q_hat, c.residual, c.candidate_count, c.degenerate_tail)


def test_predict_batch_never_builds_a_dense_weight_matrix():
    # the parent's (n_test, n_train) float64 matrix alone is 48.8 MiB here
    data = simulate(SimConfig(model="aft1d", n=16000, censor_rate_param=0.08, seed=1))
    forest = fit(data, ForestConfig(min_node_size=100, n_trees=10, seed=1))
    xmat = data.features[:400]
    dense_mib = xmat.shape[0] * data.n * 8 / 2**20
    for cfg in MODES[:1] + [CqrConfig(taus=TAUS, survival="km-knn", knn=50)]:
        tracemalloc.start()
        try:
            predict_batch(forest, data, xmat, cfg)
            peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak_mib < 8.0 <= dense_mib / 4, (cfg.survival, peak_mib)


def test_non_crossing_clamp_binds_where_the_fallback_would_cross():
    # tau 0.1: S = 0.9 g - above = [-0.5, 0.0] takes the second candidate;
    # tau 0.9: S = 0.1 g - above = [-0.5, -0.8] is all negative, and the
    # smallest |S| is at the first candidate, below tau 0.1's root
    cand = np.array([[1.0, 2.0]])
    q_hat, residual, degenerate, count = forest_module._roots(
        cand, np.ones((1, 2), dtype=bool), np.array([[0.5, 0.9]]), np.array([[0.0, 1.0]]), (0.1, 0.9))
    assert q_hat.tolist() == [[2.0, 2.0]]
    assert residual.tolist() == [[0.0, abs((1.0 - 0.9) * 1.0 - 0.9)]]
    assert degenerate.tolist() == [[False, False]] and count.tolist() == [2]
