"""Property test of the grower: rank-coded split search grows the float-sort reference's trees."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cqforest.data import Dataset  # noqa: E402
from cqforest.forest import ForestConfig, fit  # noqa: E402

from _oracles import differing_trees, reference_trees  # noqa: E402

# few distinct values, so ties are heavy; both zeros, and three adjacent
# floats: the midpoint of the upper two rounds up to the larger one
ULP1 = float(np.nextafter(1.0, 2.0))
X_VALUES = [-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, ULP1, float(np.nextafter(ULP1, 2.0)), 3.0]
Y_VALUES = [0.1, 1.0, 1.5, 2.0, 2.0, 7.25]


@st.composite
def cases(draw):
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, 4))
    x = np.array(draw(st.lists(st.sampled_from(X_VALUES), min_size=n * p, max_size=n * p))).reshape(n, p)
    for j in draw(st.sets(st.integers(0, p - 1), max_size=p)):
        x[:, j] = x[0, j]  # a constant column
    y = np.array(draw(st.lists(st.sampled_from(Y_VALUES), min_size=n, max_size=n)))
    cfg = ForestConfig(
        min_node_size=draw(st.integers(1, min(6, n))),
        n_trees=3,
        mtry=draw(st.integers(1, p)),
        min_child_fraction=draw(st.sampled_from([0.1, 0.25, 0.5])),
        bootstrap=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return Dataset(features=x, response=y, event=np.ones(n, dtype=bool)), cfg


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=cases())
def test_trees_equal_float_sort_reference(case):
    data, cfg = case
    forest = fit(data, cfg)
    assert differing_trees(forest.trees, reference_trees(data.features, data.response, cfg, cfg.mtry)) == []
