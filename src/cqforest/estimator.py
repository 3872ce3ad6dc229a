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
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import DataError, check_tau, check_taus
from .forest import forest_weights, mass_above, weight_matrix, WeightVector
from .survival import beran_rf, km_knn, nearest_rows

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


def _fit_curve(data, w, cfg):
    if cfg.survival == "beran-rf":
        return beran_rf(data, w)
    return km_knn(data, w, cfg.knn)


def _candidate_scores(data, w, cfg):
    """Candidates, their strict-above mass, and curve values, shared by all taus."""
    cands = candidate_set(w, data.response, cfg.survival, cfg.knn)
    above = mass_above(w, data.response, cands)
    if cfg.search_radius is not None:
        keep = np.abs(cands) <= cfg.search_radius
        if not keep.any():
            raise DataError("no candidates inside the search radius")
        cands, above = cands[keep], above[keep]
    curve = _fit_curve(data, w, cfg)
    return cands, above, curve.evaluate(cands)


def _select_root(scores):
    """Index of the smallest candidate with S >= 0, else argmin |S|."""
    nonneg = np.flatnonzero(scores >= 0.0)
    if nonneg.size:
        return int(nonneg[0])
    return int(np.argmin(np.abs(scores)))


def _predictions_at(x, w, data, cfg, taus):
    cands, above, g = _candidate_scores(data, w, cfg)
    out = []
    prev_idx = 0
    for tau in taus:
        s = (1.0 - tau) * g - above
        idx = _select_root(s)
        # quantiles must not cross as tau grows; the step selection is
        # already monotone except via the |S| fallback, so clamping is
        # usually a no-op
        idx = max(idx, prev_idx)
        prev_idx = idx
        out.append(
            QuantilePrediction(
                x=x,
                tau=float(tau),
                q_hat=float(cands[idx]),
                residual=float(abs(s[idx])),
                candidate_count=int(cands.size),
                degenerate_tail=bool(g[idx] == 0.0),
            )
        )
    return out


def predict_with_weights(x, w, data, cfg):
    """Grid predictions at x from precomputed weights.

    Lets callers that already extracted a weight matrix (batch loops,
    benchmarks) skip the per-point forest pass; otherwise identical to
    ``predict_quantiles``.
    """
    return _predictions_at(np.asarray(x, dtype=np.float64).ravel(), w, data, cfg, cfg.taus)


def predict_quantile(forest, data, x, tau, cfg=CqrConfig()):
    """Estimated tau-quantile of the latent response at x.

    Computes forest weights at x, fits the configured censoring curve,
    and picks the root of the estimating equation over the candidate
    responses.
    """
    tau = check_tau(tau)
    x = np.asarray(x, dtype=np.float64).ravel()
    w = forest_weights(forest, x)
    return _predictions_at(x, w, data, cfg, (tau,))[0]


def predict_quantiles(forest, data, x, cfg):
    """Predictions for the whole cfg.taus grid, non-crossing enforced."""
    x = np.asarray(x, dtype=np.float64).ravel()
    w = forest_weights(forest, x)
    return _predictions_at(x, w, data, cfg, cfg.taus)


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
    cfg.taus order. Weights for all rows are extracted in one pass over
    the forest; root finding then runs point by point. ``threads > 1``
    spreads the points over a thread pool, which gives the same results
    but is slower than one thread, since the work holds the GIL.
    """
    xmat = np.atleast_2d(np.asarray(xmat, dtype=np.float64))
    wmat = weight_matrix(forest, xmat)

    def one(i):
        w = WeightVector.from_dense(wmat[i])
        return _predictions_at(xmat[i], w, data, cfg, cfg.taus)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, range(xmat.shape[0])))
    return [one(i) for i in range(xmat.shape[0])]
