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
point solved alone, so the results do not depend on the blocking.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import DataError, check_tau, check_taus, check_threads
from .forest import _points, _weight_rows, mass_above
from .survival import nearest_rows

SURVIVAL_MODES = ("beran-rf", "km-knn")

# cells of a block's (points x support width x taus) table: enough to spread
# each numpy call over many points, few enough that each table (256 KiB of
# float64) stays small next to the batch, whatever its size
_BLOCK_CELLS = 1 << 15


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
            if self.knn is None or self.knn < 1:
                raise DataError("km-knn mode requires knn >= 1")
        elif self.knn is not None:
            raise DataError("knn only applies to km-knn mode")
        object.__setattr__(self, "taus", check_taus(self.taus))
        if self.search_radius is not None and not self.search_radius > 0:
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
    y = np.asarray(y, dtype=np.float64)
    if mode == "beran-rf":
        rows = w.index
    elif mode == "km-knn":
        if k is None:
            raise DataError("km-knn candidates require k")
        rows = nearest_rows(w, k)
    else:
        raise DataError(f"unknown survival mode {mode!r}")
    if rows.size == 0:
        raise DataError("empty candidate support")
    return np.unique(y[rows])


def _take_rows(a, pos):
    """a[i, pos[i, j]] for every (i, j), as one flat take."""
    return a.ravel().take(pos + np.arange(0, a.size, a.shape[1])[:, None])


def _groups(ys, nnz):
    """Tie groups of rows sorted ascending: (first, end).

    ``first[i, j]`` is the position where the group of ys[i, j] starts;
    ``end`` marks the last position of each group among the first
    ``nnz[i]`` entries of row i.
    """
    start = np.ones(ys.shape, dtype=bool)
    start[:, 1:] = ys[:, 1:] > ys[:, :-1]
    cols = np.arange(ys.shape[1])
    first = np.maximum.accumulate(np.where(start, cols, 0), axis=1)
    end = np.ones(ys.shape, dtype=bool)
    end[:, :-1] = start[:, 1:]
    return first, end & (cols < nnz[:, None])


def _reversed_cumsum(a):
    """Row-wise sums from the right: out[i, j] = a[i, j] + a[i, j+1] + ..., added right to left."""
    return np.cumsum(a[:, ::-1], axis=1)[:, ::-1]


class _Support:
    """A block of sparse weight rows, padded on the right and sorted by response.

    ``rows`` are (index, value) pairs: strictly increasing training-row
    indices with positive weights summing to one. ``WeightVector``'s
    checks run here, once for the whole block, with its messages. Rows
    are padded to the widest support with index n (response +inf, event
    true) and weight 0, so a stable sort leaves every pad after the real
    entries, a reversed cumsum adds only 0.0 before them and a cumprod
    multiplies only by 1.0 after them: each row's real entries get the
    same bits as the row alone.

    ``idx``/``val`` are the padded rows in index order; ``order`` sorts
    each row stably by response, ``ys`` holds the sorted responses and
    ``suffix[:, j]`` the weight at sorted positions j and above (0 at
    j = width), the sums ``mass_above`` reads.
    """

    def __init__(self, rows, y):
        n = y.size
        self.nnz = nnz = np.array([index.size for index, _ in rows])
        index = np.concatenate([index for index, _ in rows])
        value = np.concatenate([value for _, value in rows])
        starts = np.cumsum(nnz) - nnz
        if (value < 0).any() or not np.isfinite(value).all():
            raise DataError("weights must be finite and nonnegative")
        if (nnz == 0).any():
            raise DataError("weight vector has empty support")
        step = np.diff(index)
        step[starts[1:] - 1] = 1  # where one row ends and the next begins
        if index.min() < 0 or index.max() >= n or (step <= 0).any():
            raise DataError("weight indices must be unique and within [0, n)")
        if (np.abs(np.add.reduceat(value, starts) - 1.0) > 1e-8).any():
            raise DataError("weights must sum to 1")
        width = int(nnz.max())
        if nnz.size == 1:  # a single-point query needs no padding (about 3% of its time)
            self.idx, self.val, ys = index[None, :], value[None, :], y.take(index)[None, :]
        else:
            # a row-major boolean mask lists each row's real cells in the rows' concatenated order
            real = np.arange(width) < nnz[:, None]
            self.idx = np.full(real.shape, n)
            self.val = np.zeros(real.shape)
            ys = np.full(real.shape, np.inf)
            self.idx[real], self.val[real], ys[real] = index, value, y.take(index)
        self.order = np.argsort(ys, axis=1, kind="stable")
        self.ys = _take_rows(ys, self.order)
        self.suffix = np.zeros((nnz.size, width + 1))
        self.suffix[:, :width] = _reversed_cumsum(_take_rows(self.val, self.order))


def _curve_values(cum):
    """min(cum, 1) for a block of cumulative product-limit factors, after SurvivalCurve's value check."""
    if (cum < 0).any() or (np.diff(cum, axis=1) > 0).any():
        raise DataError("curve values must be nonincreasing within [0, 1]")
    return np.minimum(cum, 1.0)


def _beran_rf(sup, event, first):
    """``beran_rf`` at every row of the block, read at each stable-sorted position.

    Rows are ordered by response, events first within ties, then by
    index, as ``beran_rf`` orders them; the tie groups sit at the same
    positions as in ``sup.ys``, and each shares the risk mass counted at
    its start (``first``). A curve read at a group's last position is its
    value at that group's response.
    """
    censored = ~_take_rows(np.append(event, True).take(sup.idx), sup.order)
    # the stable response order is already grouped, so one stable sort of
    # (group, censored) keys moves events first within each tie group
    events_first = np.argsort(2 * first + censored, axis=1, kind="stable")
    u = _take_rows(_take_rows(sup.val, sup.order), events_first) / sup.val.max(axis=1)[:, None]
    risk = _take_rows(_reversed_cumsum(u), first)
    censored = _take_rows(censored, events_first)
    factors = 1.0 - np.divide(u, risk, out=np.zeros_like(u), where=censored)
    return _curve_values(np.cumprod(factors, axis=1))


def _nearest(sup, k, n):
    """Every row's k highest-weight rows as ``nearest_rows`` picks them, ascending: (points, k).

    Ties go to the lower index; a row with fewer than k weighted rows
    fills the open slots with the lowest-index rows outside its support.
    """
    if not 1 <= k <= n:
        raise DataError("k must lie in [1, n]")
    idx, val, nnz = sup.idx, sup.val, sup.nnz
    if idx.shape[1] < k:
        idx = np.concatenate([idx, np.full((nnz.size, k - idx.shape[1]), n)], axis=1)
        val = np.concatenate([val, np.zeros((nnz.size, k - val.shape[1]))], axis=1)
    top = _take_rows(idx, np.argsort(-val, axis=1, kind="stable")[:, :k])
    short = np.flatnonzero(nnz < k)
    if short.size:
        # at most nnz of rows 0..k-1 carry weight, so they hold enough free rows
        taken = np.zeros((short.size, k + 1), dtype=bool)
        taken[np.arange(short.size)[:, None], np.minimum(idx[short], k)] = True
        free = ~taken[:, :k]
        rank = np.cumsum(free, axis=1)
        r, c = np.nonzero(free & (rank <= (k - nnz[short])[:, None]))
        top[short[r], nnz[short[r]] + rank[r, c] - 1] = c
    return np.sort(top, axis=1)


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


def _km_knn(sup, data, k):
    """Candidates, their validity, mass above and ``km_knn`` curve value, each (points, k).

    The candidates are the responses of each row's k nearest rows, sorted
    as ``km`` sorts them; a group's last position holds its candidate.
    """
    near = _nearest(sup, k, data.n)
    y, ev = data.response.take(near), data.event.take(near)
    order = np.lexsort((~ev, y), axis=1)
    ys = _take_rows(y, order)
    first, end = _groups(ys, np.full(near.shape[0], k))
    factors = np.where(_take_rows(ev, order), 1.0, 1.0 - 1.0 / (k - first))
    above = _take_rows(sup.suffix, _row_searchsorted(sup.ys, ys))
    return ys, end, above, _curve_values(np.cumprod(factors, axis=1))


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
        cand, valid, above, g = _km_knn(sup, data, cfg.knn)
    if cfg.search_radius is not None:
        valid = valid & (np.abs(cand) <= cfg.search_radius)
        if not valid.any(axis=1).all():
            raise DataError("no candidates inside the search radius")
    return _roots(cand, valid, above, g, taus)


def _blocks(rows, n_taus, min_width=1):
    """Runs of consecutive rows whose padded (points x width x taus) table fits in _BLOCK_CELLS.

    The width is the block's widest support, and at least ``min_width``
    (km-knn's candidate tables are k wide).
    """
    block, width = [], min_width
    for row in rows:
        wider = max(width, row[0].size)
        if block and (len(block) + 1) * wider * n_taus > _BLOCK_CELLS:
            yield block
            block, wider = [], max(min_width, row[0].size)
        block.append(row)
        width = wider
    if block:
        yield block


def _solve_rows(rows, data, cfg, taus, threads=1):
    """``_solve`` over every block of rows, in order; threads > 1 maps the blocks over a thread pool."""

    def solve(block):
        return _solve(block, data, cfg, taus)

    blocks = _blocks(rows, len(taus), cfg.knn or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(solve, blocks))
    return [solve(block) for block in blocks]


def _qhat_table(rows, data, cfg):
    """(points, len(cfg.taus)) q_hat table from the points' weight rows."""
    return np.concatenate([q for q, *_ in _solve_rows(rows, data, cfg, cfg.taus)])


def _weighted_quantile_table(rows, y, taus):
    """(points, len(taus)) weighted quantiles of y: ``quantile_from_weights`` at every row."""
    taus = np.array(taus)
    out = []
    for block in _blocks(rows, taus.size):
        sup = _Support(block, y)
        _, end = _groups(sup.ys, sup.nnz)
        reached = end[:, None, :] & (sup.suffix[:, None, 1:] <= (1.0 - taus)[:, None])
        out.append(_take_rows(sup.ys, reached.argmax(axis=2)))
    return np.concatenate(out)


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
    return _predictions(x[None, :], [(w.index, w.value)], data, cfg, cfg.taus)[0]


def _predict_points(forest, data, xmat, cfg, taus, threads=1):
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
    grid = CqrConfig(
        taus=(alpha, 1.0 - alpha),
        survival=cfg.survival,
        knn=cfg.knn,
        search_radius=cfg.search_radius,
    )
    lo, hi = predict_quantiles(forest, data, x, grid)
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
    check_threads(threads)
    return _predict_points(forest, data, xmat, cfg, cfg.taus, threads)
