"""Censored quantile prediction from forest weights.

The estimating equation at a test point x is

    S(q; tau) = (1 - tau) * G(q) - sum_i w_i * 1(Y_i > q),

where w are the forest weights at x and G is an estimated censoring
survival curve (``beran_rf`` under the same weights, or ``km_knn`` on the
k highest-weight rows). S is a right-continuous step function of q that
can change value only at observed responses of positive-weight rows, so
the root is located by scanning that finite candidate set: we take the
smallest candidate where S turns nonnegative (the step through zero).
When no candidate reaches zero — possible only under a restricted
candidate set — we fall back to the smallest candidate minimizing |S|.

With fully observed data G is identically 1 and the selected candidate
coincides with the weighted-CDF quantile read straight off the forest.

Every predictor solves a block of points at once (``_solve``): the
points' sparse weight rows are padded on the right to the block's widest
support, and each step of the per-point solve (sort, suffix sums,
censoring curve, root) runs row-wise over the whole block. Each row gets
the same sums and products of the same doubles in the same order as a
point solved alone, so the results do not depend on the blocking. The
kernels live with their steps (``_Support`` in ``forest.py``, the
censoring curves in ``survival.py``), and the public per-point functions
are blocks of one over them.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import DataError, check_int, check_real, check_tau, check_taus
from .forest import (
    WeightVector,
    _blocks,
    _groups,
    _points,
    _row,
    _Support,
    _take_rows,
    _weight_rows,
    mass_above,
    support_grid,
)
from .survival import _beran_rf, _km_knn, nearest_rows

SURVIVAL_MODES = ("beran-rf", "km-knn")


@dataclass(frozen=True)
class CqrConfig:
    """Prediction settings.

    ``survival`` picks the censoring-curve estimator; ``knn`` is the
    neighborhood size and is required (and only allowed) for "km-knn".
    ``taus`` is the strictly increasing quantile grid used by the
    multi-level predictors. ``search_radius`` restricts candidates to
    [-r, r] when set.
    """

    taus: tuple = (0.5,)
    survival: str = "beran-rf"
    knn: int | None = None
    search_radius: float | None = None

    def __post_init__(self):
        if self.survival not in SURVIVAL_MODES:
            raise DataError(f"unknown survival mode {self.survival!r}")
        if self.survival == "km-knn":
            object.__setattr__(self, "knn", check_int("knn", self.knn, 1))
        elif self.knn is not None:
            raise DataError("knn only applies to km-knn mode")
        object.__setattr__(self, "taus", check_taus(self.taus))
        if self.search_radius is not None:
            object.__setattr__(self, "search_radius", check_real("search_radius", self.search_radius))
            if not self.search_radius > 0:
                raise DataError("search_radius must be positive")


@dataclass
class QuantilePrediction:
    """One estimated quantile with root diagnostics.

    ``residual`` is |S(q_hat)|; ``degenerate_tail`` flags that the
    censoring curve had already reached 0 at q_hat, where the equation
    carries no information and the estimate leans on the raw weights.
    """

    x: np.ndarray
    tau: float
    q_hat: float
    residual: float
    candidate_count: int
    degenerate_tail: bool


def score(q, tau, w, curve, y):
    """Evaluate S(q; tau) at scalar or array q (strict indicator Y > q)."""
    tau = check_tau(tau)
    g = curve.evaluate(q)
    above = mass_above(w, y, q)
    return (1.0 - tau) * g - above


def candidate_set(w, y, mode, k=None):
    """Distinct response values where S can change, sorted ascending.

    "beran-rf": responses of all positive-weight rows; "km-knn":
    responses of the k highest-weight rows.
    """
    if mode == "km-knn":
        if k is None:
            raise DataError("km-knn candidates require k")
        w = WeightVector.uniform_subset(nearest_rows(w, k), w.n)
    elif mode != "beran-rf":
        raise DataError(f"unknown survival mode {mode!r}")
    return support_grid(w, y)[0]


def _row_searchsorted(a, v):
    """np.searchsorted(a[i], v[i], side="right") for every row i of row-wise ascending a.

    Complex numbers sort lexicographically, real part first, so the keys
    i + 1j * a[i, j] put every row in its own stretch of one sorted array.
    """
    rows = np.arange(a.shape[0])[:, None]
    keys = np.empty(a.shape, dtype=np.complex128)
    keys.real, keys.imag = rows, a
    probe = np.empty(v.shape, dtype=np.complex128)
    probe.real, probe.imag = rows, v
    return np.searchsorted(keys.ravel(), probe.ravel(), side="right").reshape(v.shape) - rows * a.shape[1]


def _roots(cand, valid, above, g, taus):
    """Root of S over each row's valid candidates at every tau, with its diagnostics.

    Returns q_hat, |S(q_hat)| and the degenerate-tail flag, each
    (points, taus), and the candidate count per point.
    """
    s = (1.0 - np.array(taus))[:, None] * g[:, None, :] - above[:, None, :]
    s = np.where(valid[:, None, :], s, -np.inf)
    nonneg = s >= 0.0
    pos = np.where(nonneg.any(axis=2), nonneg.argmax(axis=2), np.abs(s).argmin(axis=2))
    # quantiles must not cross as tau grows; the step selection is already
    # monotone except via the |S| fallback, so clamping is usually a no-op
    pos = np.maximum.accumulate(pos, axis=1)
    residual = np.abs(_take_rows(s.reshape(-1, s.shape[2]), pos.reshape(-1, 1))).reshape(pos.shape)
    return _take_rows(cand, pos), residual, _take_rows(g, pos) == 0.0, valid.sum(axis=1)


def _solve(rows, data, cfg, taus):
    """q_hat, residual, degenerate flag (each (points, taus)) and candidate count for a block of weight rows."""
    sup = _Support(rows, data.response)
    if cfg.survival == "beran-rf":
        first, end = _groups(sup.ys, sup.nnz)
        cand, valid, above, g = sup.ys, end, sup.suffix[:, 1:], _beran_rf(sup, data.event, first)
    else:
        cand, valid, g = _km_knn(sup, data, cfg.knn)
        above = _take_rows(sup.suffix, _row_searchsorted(sup.ys, cand))
    if cfg.search_radius is not None:
        valid = valid & (np.abs(cand) <= cfg.search_radius)
        if not valid.any(axis=1).all():
            raise DataError("no candidates inside the search radius")
    return _roots(cand, valid, above, g, taus)


def _solve_rows(rows, data, cfg, taus, threads=1):
    """``_solve`` over every block of rows, in order; threads > 1 maps the blocks over a thread pool."""

    def solve(block):
        return _solve(block, data, cfg, taus)

    blocks = _blocks(rows, len(taus), cfg.knn or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(solve, blocks))
    return [solve(block) for block in blocks]


def _qhat_table(rows, data, cfg, threads=1):
    """(points, len(cfg.taus)) q_hat table from the points' weight rows."""
    return np.concatenate([q for q, *_ in _solve_rows(rows, data, cfg, cfg.taus, threads)])


def _predictions(xmat, rows, data, cfg, taus, threads=1):
    """QuantilePrediction lists in tau order, one per row of xmat, from the points' weight rows."""
    out = []
    for q, residual, degenerate, count in _solve_rows(rows, data, cfg, taus, threads):
        for qs, rs, ds, c in zip(q.tolist(), residual.tolist(), degenerate.tolist(), count.tolist()):
            x = xmat[len(out)]
            out.append([QuantilePrediction(x, tau, a, r, c, d) for tau, a, r, d in zip(taus, qs, rs, ds)])
    return out


def predict_with_weights(x, w, data, cfg):
    """Grid predictions at x from precomputed weights.

    Lets callers that already hold a ``WeightVector`` skip the forest
    pass; otherwise identical to ``predict_quantiles``.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    return _predictions(x[None, :], [_row(w, data.response)], data, cfg, cfg.taus)[0]


def _check_data(forest, data):
    """DataError unless ``data`` holds the responses and events the forest was fitted on or loaded with."""
    if data.n != forest.n_train or not all(
        a is b or np.array_equal(a, b) for a, b in ((data.response, forest.response), (data.event, forest.event))
    ):
        raise DataError("data is not the training data this forest was fitted on or loaded with")


def _predict_points(forest, data, xmat, cfg, taus, threads=1):
    _check_data(forest, data)
    xmat = _points(xmat, forest.n_features)
    return _predictions(xmat, _weight_rows(forest, xmat), data, cfg, taus, threads)


def predict_quantile(forest, data, x, tau, cfg=CqrConfig()):
    """Estimated tau-quantile of the latent response at x.

    Computes forest weights at x, fits the configured censoring curve,
    and picks the root of the estimating equation over the candidate
    responses.
    """
    tau = check_tau(tau)
    return _predict_points(forest, data, np.asarray(x, dtype=np.float64).reshape(1, -1), cfg, (tau,))[0][0]


def predict_quantiles(forest, data, x, cfg):
    """Predictions for the whole cfg.taus grid, non-crossing enforced."""
    return _predict_points(forest, data, np.asarray(x, dtype=np.float64).reshape(1, -1), cfg, cfg.taus)[0]


def predict_interval(forest, data, x, level, cfg=CqrConfig()):
    """Central prediction interval (lo, hi) at the given coverage level.

    The endpoints are the quantiles at tau = (1-level)/2 and 1 - (1-level)/2,
    taken from the non-crossing grid predictor, so lo <= hi always.
    """
    if not 0.0 < level < 1.0:
        raise DataError("level must lie in (0, 1)")
    alpha = (1.0 - level) / 2.0
    lo, hi = predict_quantiles(forest, data, x, replace(cfg, taus=(alpha, 1.0 - alpha)))
    return lo.q_hat, hi.q_hat


def predict_batch(forest, data, xmat, cfg, threads=1):
    """Grid predictions for every row of xmat.

    Returns a list (one entry per row) of lists of QuantilePrediction in
    cfg.taus order. One walk of the forest gives every point's sparse
    weight row; the roots are then solved a block of points at a time,
    with memory O(n_train + support) per point and no (n_test, n_train)
    matrix. ``threads > 1`` spreads the blocks over a thread pool with
    the same results; a block's numpy calls are large enough to release
    the GIL for most of their time, so the pool can use several cores.
    """
    check_int("threads", threads, 1)
    return _predict_points(forest, data, xmat, cfg, cfg.taus, threads)
