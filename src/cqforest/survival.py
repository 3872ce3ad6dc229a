"""Estimators of the censoring survival function G(q) = P(C >= q).

All estimators are product-limit constructions over the observed
follow-up times, where a *censored* row (event flag 0) contributes a
factor (1 - mass_i / risk_i) and an event row contributes 1. They differ
only in how rows are weighted or selected:

``km``        plain Kaplan-Meier on counts (every row weighs 1);
``beran_nw``  kernel-weighted rows, weights from a Nadaraya-Watson
              smoother around the test point;
``km_knn``    plain Kaplan-Meier restricted to the k training rows with
              the largest forest weight at the test point;
``beran_rf``  rows weighted directly by the forest weights.

Risk sets are inclusive (rows with y_j >= y_i), and all rows tied at one
follow-up time share the risk mass counted at the start of the tie group,
so the result does not depend on within-tie ordering.
"""

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import DataError

log = logging.getLogger(__name__)


class SurvivalCurve:
    """Right-continuous step function starting at 1.

    ``jump_times`` are the strictly increasing times where the value
    changes; ``values[j]`` is the curve value for q in
    [jump_times[j], jump_times[j+1]).
    """

    __slots__ = ("jump_times", "values")

    def __init__(self, jump_times, values):
        jump_times = np.asarray(jump_times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if jump_times.shape != values.shape or jump_times.ndim != 1:
            raise DataError("jump_times/values shape mismatch")
        if jump_times.size and not (np.diff(jump_times) > 0).all():
            raise DataError("jump times must be strictly increasing")
        if ((values < 0) | (values > 1)).any() or (np.diff(values) > 0).any():
            raise DataError("curve values must be nonincreasing within [0, 1]")
        self.jump_times = jump_times
        self.values = values

    def evaluate(self, q):
        """Curve value at scalar or array q (1 before the first jump)."""
        q = np.asarray(q, dtype=np.float64)
        padded = np.append(1.0, self.values)
        out = padded[np.searchsorted(self.jump_times, q, side="right")]
        return float(out) if q.ndim == 0 else out

    __call__ = evaluate

    def to_csv(self, path):
        """Write the jumps as two columns (jump_time, value) for plotting."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["jump_time", "value"])
            for t, v in zip(self.jump_times, self.values):
                writer.writerow([repr(float(t)), repr(float(v))])

    def __eq__(self, other):
        if not isinstance(other, SurvivalCurve):
            return NotImplemented
        return np.array_equal(self.jump_times, other.jump_times) and np.array_equal(
            self.values, other.values
        )

    def __repr__(self):
        return f"SurvivalCurve({self.jump_times.size} jumps)"


def _curve_from_factors(times, factors):
    """Fold sorted per-row factors into a step curve.

    ``times`` must be ascending; consecutive equal times share one jump.
    Jumps whose cumulative product equals the preceding value exactly
    (event-only tie groups, factor 1) are dropped.
    """
    cum = np.cumprod(factors)
    last = np.append(np.flatnonzero(np.diff(times) > 0), times.size - 1)
    vals = np.minimum(cum[last], 1.0)
    jt = times[last]
    keep = vals != np.append(1.0, vals[:-1])
    return SurvivalCurve(jt[keep], vals[keep])


def _sorted_rows(y, event):
    """Order rows by follow-up time, event rows first within ties."""
    return np.lexsort((~event, y))


def _check_survival_inputs(y, event):
    y = np.asarray(y, dtype=np.float64)
    event = np.asarray(event)
    if y.ndim != 1 or y.size == 0:
        raise DataError("response must be a nonempty 1-d array")
    if event.shape != y.shape:
        raise DataError("event flags must match the response length")
    if not np.isfinite(y).all():
        raise DataError("response values must be finite")
    if event.dtype != np.bool_:
        if not np.isin(event, (0, 1)).all():
            raise DataError("event flags must be 0/1")
        event = event.astype(bool)
    return y, event


def km(y, event):
    """Kaplan-Meier estimate of the censoring survival function.

    Counts only: the risk set at time t holds every row with y >= t, and
    each censored row at t removes a 1/risk share of the remaining mass.
    """
    y, event = _check_survival_inputs(y, event)
    order = _sorted_rows(y, event)
    ys, evs = y[order], event[order]
    risk = ys.size - np.searchsorted(ys, ys, side="left")
    factors = np.where(evs, 1.0, 1.0 - 1.0 / risk)
    return _curve_from_factors(ys, factors)


def _weighted_product_limit(y, event, weights):
    """Product-limit curve where row i carries mass weights[i].

    Weights are rescaled by their maximum before any ratio is formed, so
    a uniform weight vector reproduces the count-based estimate exactly,
    whatever the common weight value is.
    """
    order = _sorted_rows(y, event)
    ys, evs = y[order], event[order]
    u = weights[order] / weights.max()
    suffix = np.append(np.cumsum(u[::-1])[::-1], 0.0)
    first = np.append(0, np.flatnonzero(np.diff(ys) > 0) + 1)
    gid = np.cumsum(np.append(0, (np.diff(ys) > 0).astype(np.int64)))
    risk = suffix[first[gid]]
    factors = np.where(evs, 1.0, 1.0 - u / risk)
    return _curve_from_factors(ys, factors)


def beran_rf(data, w):
    """Censoring survival curve under forest weights at one test point.

    Only rows in the support of ``w`` enter; each contributes its own
    weight to the risk sets and removes a w_i/risk share when censored.
    """
    y = data.response[w.index]
    event = data.event[w.index]
    return _weighted_product_limit(y, event, w.value)


@dataclass(frozen=True)
class BeranNWConfig:
    """Kernel smoother settings: positive ``bandwidth``, named ``kernel``."""

    bandwidth: float
    kernel: str = "gaussian"

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise DataError("bandwidth must be positive")
        if self.kernel not in ("gaussian", "epanechnikov"):
            raise DataError(f"unknown kernel {self.kernel!r}")


def _kernel_values(kernel, z):
    if kernel == "gaussian":
        return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return np.where(np.abs(z) <= 1.0, 0.75 * (1.0 - z * z), 0.0)


def beran_nw(data, x, cfg):
    """Kernel-weighted censoring survival curve at x.

    Rows are weighted by k(||X_i - x|| / bandwidth) with a Gaussian or
    Epanechnikov kernel; rows with zero kernel weight drop out of the
    risk sets entirely.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size != data.p:
        raise DataError("test point has the wrong dimension")
    z = np.sqrt(((data.features - x) ** 2).sum(axis=1)) / cfg.bandwidth
    kv = _kernel_values(cfg.kernel, z)
    total = kv.sum()
    if total <= 0:
        raise DataError("empty kernel neighborhood: all kernel weights are zero")
    keep = np.flatnonzero(kv)
    return _weighted_product_limit(
        data.response[keep], data.event[keep], kv[keep] / total
    )


def nearest_rows(w, k):
    """Indices of the k rows with the largest weight, ties to lower index.

    Returned sorted ascending. If fewer than k rows carry positive
    weight, zero-weight rows (lowest indices first) pad the set.
    """
    if not 1 <= k <= w.n:
        raise DataError("k must lie in [1, n]")
    # w.index is ascending, so a stable sort sends ties to the lower index
    ranked = w.index[np.argsort(-w.value, kind="stable")][:k]
    n_zero = int(k) - ranked.size
    if n_zero:
        log.debug("nearest_rows: padded %d of %d slots with zero-weight rows", n_zero, k)
        # at most k - n_zero of rows 0..k-1 carry weight, so they hold enough padding
        pad = np.setdiff1d(np.arange(k), w.index, assume_unique=True)[:n_zero]
        ranked = np.concatenate([ranked, pad])
    return np.sort(ranked)


def km_knn(data, w, k):
    """Kaplan-Meier censoring curve on the k highest-weight rows.

    A localized variant of ``km``: restrict to the forest neighborhood
    of the test point, then weigh those rows equally.
    """
    rows = nearest_rows(w, k)
    return km(data.response[rows], data.event[rows])
