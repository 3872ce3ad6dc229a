"""Property test of the block root pass: random sparse rows, any blocking, byte-equal to the per-point reference."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cqforest import estimator  # noqa: E402
from cqforest.data import DataError, Dataset  # noqa: E402
from cqforest.estimator import CqrConfig  # noqa: E402

from test_block_roots import block_table, oracle_table  # noqa: E402


@st.composite
def problems(draw):
    n = draw(st.integers(1, 30))
    y = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    event = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        index = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        raw = np.array(draw(st.lists(st.integers(1, 9), min_size=len(index), max_size=len(index))), dtype=float)
        rows.append((np.array(index, dtype=np.int64), raw / raw.sum()))
    taus = tuple(sorted(draw(st.sets(st.sampled_from((0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)), min_size=1))))
    survival = draw(st.sampled_from(("beran-rf", "km-knn")))
    knn = draw(st.integers(1, n)) if survival == "km-knn" else None
    radius = draw(st.sampled_from((None, None, 2.5, 4.5)))
    data = Dataset(features=np.zeros((n, 1)), response=np.array(y, dtype=float), event=np.array(event))
    return rows, data, CqrConfig(taus=taus, survival=survival, knn=knn, search_radius=radius)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(problem=problems(), cells=st.sampled_from((1, 50, estimator._BLOCK_CELLS)))
def test_random_sparse_rows_match_the_reference(problem, cells):
    rows, data, cfg = problem
    try:
        want = oracle_table(rows, data, cfg)
    except ValueError:
        with pytest.raises(DataError, match="search radius"):
            block_table(rows, data, cfg)
        return
    saved = estimator._BLOCK_CELLS
    estimator._BLOCK_CELLS = cells
    try:
        got = block_table(rows, data, cfg)
    finally:
        estimator._BLOCK_CELLS = saved
    assert got.tobytes() == want.tobytes()
