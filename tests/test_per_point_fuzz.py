"""Property test: each public per-point function, now a block of one, against its former body.

``_oracles`` keeps the per-point bodies the package ran before its
public functions became blocks of one over the block kernels. Every
function must give the same bytes: values, dtypes and shapes, curves'
jump times and values.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import _oracles  # noqa: E402
from cqforest.data import DataError, Dataset  # noqa: E402
from cqforest.estimator import candidate_set  # noqa: E402
from cqforest.forest import WeightVector, mass_above, quantile_from_weights, support_grid  # noqa: E402
from cqforest.survival import (  # noqa: E402
    BeranNWConfig,
    SurvivalCurve,
    _kernel_values,
    beran_nw,
    beran_rf,
    km,
    km_knn,
    nearest_rows,
)

TAUS = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)


def assert_same(got, want):
    """Equal in type and bytes: floats, arrays (dtype and shape too), curves, or tuples of these."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for a, b in zip(got, want):
            assert_same(a, b)
    elif isinstance(want, SurvivalCurve):
        assert isinstance(got, SurvivalCurve)
        assert_same(got.jump_times, want.jump_times)
        assert_same(got.values, want.values)
    elif isinstance(want, float):
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
    else:
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


@st.composite
def problems(draw):
    """A dataset with tie-heavy (or nearly distinct) responses, one point's weights, k and taus."""
    n = draw(st.integers(1, 40))
    levels = draw(st.sampled_from((2, 4, 8, 1000)))
    y = np.array(draw(st.lists(st.integers(1, levels), min_size=n, max_size=n)), dtype=float) / 4
    event = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    x = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=float)
    data = Dataset(features=x.reshape(n, 1), response=y, event=event)
    index = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
    raw = np.array(draw(st.lists(st.integers(1, 9), min_size=len(index), max_size=len(index))), dtype=float)
    w = WeightVector(index, raw / raw.sum(), n)
    k = draw(st.integers(1, n))
    tau = draw(st.sampled_from(TAUS))
    taus = tuple(sorted(draw(st.sets(st.sampled_from(TAUS), min_size=1))))
    nw = BeranNWConfig(bandwidth=draw(st.sampled_from((0.5, 1.5, 4.0))),
                       kernel=draw(st.sampled_from(("gaussian", "epanechnikov"))))
    return data, w, k, tau, taus, float(draw(st.integers(0, 4))), nw


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(problem=problems())
def test_public_functions_match_their_former_bodies(problem):
    data, w, k, tau, taus, x, nw = problem
    y, event = data.response, data.event
    probes = np.concatenate([y, y - 0.125, [y.min() - 1.0, y.max() + 1.0]])
    assert_same(mass_above(w, y, probes), _oracles.mass_above(w, y, probes))
    for q in (y[w.index[0]], y[w.index[-1]] - 0.125, y.max() + 1.0):
        assert_same(mass_above(w, y, q), _oracles.mass_above(w, y, q))
    assert_same(support_grid(w, y), _oracles.support_grid(w, y))
    assert_same(quantile_from_weights(w, y, tau), _oracles.quantile_from_weights(w, y, tau))
    assert_same(quantile_from_weights(w, y, taus), _oracles.quantile_from_weights(w, y, taus))
    assert_same(candidate_set(w, y, "beran-rf"), _oracles.candidate_set(w, y, "beran-rf"))
    assert_same(candidate_set(w, y, "km-knn", k), _oracles.candidate_set(w, y, "km-knn", k))
    assert_same(nearest_rows(w, k), _oracles.nearest_rows(w, k))
    assert_same(km(y, event), _oracles.km(y, event))
    assert_same(km(y[w.index], event[w.index].astype(int)), _oracles.km(y[w.index], event[w.index]))
    assert_same(km_knn(data, w, k), _oracles.km_knn(data, w, k))
    assert_same(beran_rf(data, w), _oracles.beran_rf(data, w))
    kv = _kernel_values(nw.kernel, np.sqrt(((data.features - x) ** 2).sum(axis=1)) / nw.bandwidth)
    if kv.sum() <= 0:
        with pytest.raises(DataError, match="empty kernel neighborhood"):
            beran_nw(data, [x], nw)
    else:
        keep = np.flatnonzero(kv)
        want = _oracles.weighted_product_limit(y[keep], event[keep], kv[keep] / kv.sum())
        assert_same(beran_nw(data, [x], nw), want)
