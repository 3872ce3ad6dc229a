"""Forest weight rows come out in (response, index) order, with the weights of the index-ordered reference.

``_weight_rows`` reads each point's bins in response order, so its rows
reach the block pass already sorted by response, ties by index. Each row
must be exactly the former index-ordered row (``_oracles.weight_rows``)
with its entries permuted, and the predictions it drives must match the
per-point reference byte for byte, on tie-heavy data too. The order is
applied to the bins, never to the store: a query must not copy the
forest's ``rows`` store.
"""

import tracemalloc

import numpy as np
import pytest

from cqforest.data import SimConfig, simulate
from cqforest.estimator import CqrConfig, predict_batch, predict_quantiles
from cqforest.forest import (
    ForestConfig, WeightVector, _points, _weight_rows, fit, forest_weights, quantile_from_weights, weighted_quantile,
)

from _oracles import root_pass, weight_rows
from test_block_roots import MODES, tie_heavy
from test_forest import _corpus


def assert_rows_match_the_reference(forest, xmat):
    y = forest.response
    rows = list(_weight_rows(forest, _points(xmat, forest.n_features)))
    want = weight_rows(forest.trees, xmat, forest.n_train)
    assert len(rows) == len(want) == xmat.shape[0]
    for (index, value), (ref_index, ref_value) in zip(rows, want):
        ys = y.take(index)
        # strictly increasing in (response, index)
        assert ((ys[1:] > ys[:-1]) | ((ys[1:] == ys[:-1]) & (index[1:] > index[:-1]))).all()
        by_index = np.argsort(index)
        assert index[by_index].tobytes() == ref_index.tobytes()
        assert value[by_index].tobytes() == ref_value.tobytes()


@pytest.mark.parametrize("data,cfg", list(_corpus()))
def test_corpus_rows_are_the_reference_in_response_order(data, cfg):
    forest = fit(data, cfg)
    assert_rows_match_the_reference(forest, data.features[::7])


@pytest.fixture(scope="module")
def ties():
    data = tie_heavy(21, n=300, levels=6)
    return data, fit(data, ForestConfig(min_node_size=6, n_trees=25, seed=22))


def test_tie_heavy_rows_are_the_reference_in_response_order(ties):
    data, forest = ties
    assert_rows_match_the_reference(forest, data.features)


@pytest.mark.parametrize("cfg", MODES, ids=["beran-rf", "km-knn"])
def test_tie_heavy_predictions_flip_no_q_hat(ties, cfg):
    data, forest = ties
    xmat = data.features[::3]
    got = np.array([[(p.q_hat, p.residual, p.candidate_count, p.degenerate_tail) for p in per_point]
                    for per_point in predict_batch(forest, data, xmat, cfg)], dtype=np.float64)
    want = np.array([root_pass(WeightVector(i, v, data.n), data, cfg.taus, cfg.survival, cfg.knn)
                     for i, v in weight_rows(forest.trees, xmat, data.n)], dtype=np.float64)
    assert np.count_nonzero(got[..., 0] != want[..., 0]) == 0  # q_hat flips
    assert got.tobytes() == want.tobytes()


def test_forest_weights_stay_index_ascending(ties):
    data, forest = ties
    w = forest_weights(forest, data.features[0])
    index, value = weight_rows(forest.trees, data.features[:1], data.n)[0]
    assert w.index.tobytes() == index.astype(w.index.dtype).tobytes() and w.value.tobytes() == value.tobytes()


def test_weighted_quantile_reads_the_walk_row_as_quantile_from_weights(ties):
    # the walk's row goes to the read-out as it comes, with no WeightVector and no second sort
    data, forest = ties
    grid = (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
    for x in [(a, b) for a in grid for b in grid]:
        for tau in (0.25, 0.5, (0.9, 0.1, 0.5, 0.5)):
            got = weighted_quantile(forest, x, tau)
            want = quantile_from_weights(forest_weights(forest, x), data.response, tau)
            assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_a_query_does_not_copy_the_rows_store():
    data = simulate(SimConfig(model="aft-multi", n=4000, censor_rate_param=0.08, seed=23))
    forest = fit(data, ForestConfig(min_node_size=20, n_trees=100, seed=24))
    cfg = CqrConfig(taus=(0.1, 0.5, 0.9))
    x = data.features[0]
    store = forest._nodes.rows.nbytes
    tracemalloc.start()
    try:
        predict_quantiles(forest, data, x, cfg)  # derives the walk tables and the response order
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        predict_quantiles(forest, data, x, cfg)
        peak = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    by_response = forest._by_response.nbytes
    assert by_response == np.dtype(np.intp).itemsize * data.n
    # what the first query keeps is the walk tables and the response order, no copy of the store
    walk = sum(a.nbytes for a in forest._nodes.walk[:2])
    assert kept < walk + by_response + (16 << 10) < walk + store, (kept, walk, by_response, store)
    assert peak < store / 4, (peak, store)
