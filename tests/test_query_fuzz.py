"""Property tests of a query's selections: the fixed-depth tree walk, the weight rows and the k nearest rows.

The walk must reach the leaves of the stack walk in ``_oracles`` (points
drawn on the forest's own thresholds included), each weight row must be
the index-ordered reference row put in (response, index) order, and
``_nearest`` must pick the rows of the stable-argsort rule, whatever the
order of a row's entries.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cqforest.data import Dataset  # noqa: E402
from cqforest.forest import ForestConfig, apply, fit  # noqa: E402
from cqforest.survival import _nearest  # noqa: E402

from _oracles import top_k_rows, tree_leaves  # noqa: E402
from test_forest import leaves_by_tree  # noqa: E402
from test_survival import padded_block  # noqa: E402
from test_weight_order import assert_rows_match_the_reference  # noqa: E402

X_VALUES = [-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]


@st.composite
def forests_and_points(draw):
    """A small tie-heavy forest (single-leaf trees included) and points, each coordinate often a threshold."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 3))
    x = np.array(draw(st.lists(st.sampled_from(X_VALUES), min_size=n * p, max_size=n * p))).reshape(n, p)
    y = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), min_size=n, max_size=n)))
    cfg = ForestConfig(
        min_node_size=draw(st.integers(1, n)),
        n_trees=draw(st.integers(1, 4)),
        mtry=draw(st.integers(1, p)),
        bootstrap=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    forest = fit(Dataset(features=x, response=y, event=np.ones(n, dtype=bool)), cfg)
    nodes = forest._nodes
    per_feature = [
        sorted(set(nodes.threshold[nodes.feature == j].tolist()) | set(X_VALUES) | {-9.0, 9.0}) for j in range(p)
    ]
    m = draw(st.integers(1, 6))
    points = np.array([[draw(st.sampled_from(per_feature[j])) for j in range(p)] for _ in range(m)])
    return forest, points


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=forests_and_points())
def test_walk_reaches_the_stack_walks_leaves(case):
    forest, xs = case
    walked = leaves_by_tree(forest._nodes, xs)
    for t, tree in enumerate(forest.trees):
        want = tree_leaves(tree, xs)
        assert np.array_equal(walked[:, t], want)
        assert np.array_equal(apply(tree, xs), want)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=forests_and_points())
def test_weight_rows_are_the_reference_in_response_order(case):
    assert_rows_match_the_reference(*case)


@st.composite
def weight_blocks(draw):
    """Sparse rows over n rows, entries in drawn (not index) order, weights from three values; k in [1, n]."""
    n = draw(st.integers(1, 30))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        index = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        raw = np.array(draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=len(index), max_size=len(index))))
        rows.append((np.array(index), raw / raw.sum()))
    return rows, n, draw(st.integers(1, n))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(case=weight_blocks())
def test_nearest_picks_the_stable_argsort_rows(case):
    rows, n, k = case
    for (index, value), top in zip(rows, _nearest(*padded_block(rows, n), k, n)):
        dense = np.zeros(n)
        dense[index] = value
        assert top.tolist() == top_k_rows(dense, k)
