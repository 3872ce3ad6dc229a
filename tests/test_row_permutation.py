"""Relabelling the training rows changes no prediction: the metamorphic gate of a y-ordered relabelling.

A fitted forest's rows are renamed by a permutation: new row j is old row
perm[j], so the store's leaf rows map through the inverse permutation and
the response, events and features are permuted with it. The trees, and
so each point's weight on each (renamed) row, are unchanged. On tie-free
responses every step that reads the weights orders rows by response
alone, so the beran-rf roots and the plain weighted quantiles must come
out bit for bit the same.
"""

from dataclasses import replace

import numpy as np
import pytest

from cqforest.data import Dataset, SimConfig, simulate
from cqforest.estimator import CqrConfig, predict_batch
from cqforest.forest import (
    Forest,
    ForestConfig,
    _points,
    _weight_rows,
    _weighted_quantile_table,
    data_checksum,
    fit,
    forest_weights,
)

TAUS = (0.1, 0.3, 0.5, 0.7, 0.9)


@pytest.fixture(scope="module")
def relabelled():
    """The data and forest, the same relabelled by a permutation, the inverse permutation, and test points."""
    data = simulate(SimConfig(model="aft-multi", n=400, censor_rate_param=0.08, seed=21))
    assert np.unique(data.response).size == data.n  # tie-free, which the identity needs
    forest = fit(data, ForestConfig(min_node_size=10, n_trees=50, seed=4))
    perm = np.random.default_rng(8).permutation(data.n)
    inv = np.argsort(perm)
    moved = Dataset(features=data.features[perm], response=data.response[perm], event=data.event[perm])
    nodes = replace(forest._nodes, rows=inv[forest._nodes.rows].astype(np.int32))
    moved_forest = Forest(config=forest.config, n_train=data.n, n_features=data.p, response=moved.response,
                          event=moved.event, checksum=data_checksum(moved), _nodes=nodes)
    xmat = simulate(SimConfig(model="aft-multi", n=60, censor_rate_param=0.08, seed=22)).features
    return data, forest, moved, moved_forest, inv, xmat


def fields(preds):
    return np.array([[(p.q_hat, p.residual, p.candidate_count, p.degenerate_tail) for p in per_point]
                     for per_point in preds], dtype=np.float64)


def test_each_point_keeps_its_weights(relabelled):
    data, forest, moved, moved_forest, inv, xmat = relabelled
    for x in xmat:
        before, after = forest_weights(forest, x), forest_weights(moved_forest, x)
        assert after.dense()[inv].tobytes() == before.dense().tobytes()


def test_beran_rf_roots_are_bit_identical(relabelled):
    # km-knn is exempt by design: nearest_rows breaks ties between equal weights
    # (common, since weights are sums of a few 1/(B·leaf size) terms) to the lower
    # row index, so renaming rows can change which rows enter its k-row curve
    data, forest, moved, moved_forest, inv, xmat = relabelled
    cfg = CqrConfig(taus=TAUS)
    want = fields(predict_batch(forest, data, xmat, cfg))
    assert fields(predict_batch(moved_forest, moved, xmat, cfg)).tobytes() == want.tobytes()


def test_weighted_quantile_table_is_bit_identical(relabelled):
    data, forest, moved, moved_forest, inv, xmat = relabelled
    points = _points(xmat, data.p)
    want = _weighted_quantile_table(list(_weight_rows(forest, points)), data.response, TAUS)
    got = _weighted_quantile_table(list(_weight_rows(moved_forest, points)), moved.response, TAUS)
    assert got.tobytes() == want.tobytes()
