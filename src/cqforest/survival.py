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

Two block kernels, sharing no code, compute every curve: the weighted
product-limit ``_beran_rf`` and the count product-limit ``_km``. Each
public function is a block of one over them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import DataError, check_real, write_table
from .forest import WeightVector, _groups, _reversed_cumsum, _row, _Support, _take_rows


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
        rows = ([repr(float(t)), repr(float(v))] for t, v in zip(self.jump_times, self.values))
        write_table(path, ["jump_time", "value"], rows)

    def __eq__(self, other):
        if not isinstance(other, SurvivalCurve):
            return NotImplemented
        return np.array_equal(self.jump_times, other.jump_times) and np.array_equal(
            self.values, other.values
        )

    def __repr__(self):
        return f"SurvivalCurve({self.jump_times.size} jumps)"


def _curve_values(cum):
    """min(cum, 1) for a block of cumulative product-limit factors, after SurvivalCurve's value check."""
    if (cum < 0).any() or (np.diff(cum, axis=1) > 0).any():
        raise DataError("curve values must be nonincreasing within [0, 1]")
    return np.minimum(cum, 1.0)


def _step_curve(ys, end, g):
    """A block of one's curve: value ``g`` at each tie group's ``end``, jumping only where it changes."""
    ys, g = ys[end], g[end]
    keep = g != np.append(1.0, g[:-1])
    return SurvivalCurve(ys[keep], g[keep])


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


def _km(y, event):
    """Kaplan-Meier on counts at every row of (points, m) responses and flags: sorted ys, group ends, values.

    Rows are sorted by response, events first within ties; the risk count
    of a censored row is the number of entries from its tie group's start.
    """
    order = np.lexsort((~event, y), axis=1)
    ys = _take_rows(y, order)
    first, end = _groups(ys, np.full(y.shape[0], y.shape[1]))
    factors = np.where(_take_rows(event, order), 1.0, 1.0 - 1.0 / (y.shape[1] - first))
    return ys, end, _curve_values(np.cumprod(factors, axis=1))


def km(y, event):
    """Kaplan-Meier estimate of the censoring survival function.

    Counts only: the risk set at time t holds every row with y >= t, and
    each censored row at t removes a 1/risk share of the remaining mass.
    """
    y, event = _check_survival_inputs(y, event)
    return _step_curve(*_km(y[None, :], event[None, :]))


def _beran_rf(sup, event, first):
    """``beran_rf`` at every row of a ``_Support`` block, read at each stable-sorted position.

    Rows are ordered by response, events first within ties, then by
    index; each tie group shares the risk mass counted at its start
    (``first``). Weights are rescaled by the row's maximum, so a uniform
    row gives ``_km``'s factors exactly. A group's last position holds
    the curve at its response.
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


def beran_rf(data, w):
    """Censoring survival curve under forest weights at one test point.

    Only rows in the support of ``w`` enter; each contributes its own
    weight to the risk sets and removes a w_i/risk share when censored.
    """
    sup = _Support.of(w, data.response)
    first, end = _groups(sup.ys, sup.nnz)
    return _step_curve(sup.ys, end, _beran_rf(sup, data.event, first))


@dataclass(frozen=True)
class BeranNWConfig:
    """Kernel smoother settings: positive ``bandwidth``, named ``kernel``."""

    bandwidth: float
    kernel: str = "gaussian"

    def __post_init__(self):
        object.__setattr__(self, "bandwidth", check_real("bandwidth", self.bandwidth))
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
    return beran_rf(data, WeightVector(keep, kv[keep] / total, data.n))


def _nearest(idx, val, nnz, k, n):
    """Every padded row's k highest-weight rows as ``nearest_rows`` picks them, ascending: (points, k).

    Ties go to the lower index; a row with fewer than k weighted rows
    fills the open slots with the lowest-index rows outside its support.
    """
    if not 1 <= k <= n:
        raise DataError("k must lie in [1, n]")
    if idx.shape[1] < k:
        idx = np.concatenate([idx, np.full((nnz.size, k - idx.shape[1]), n)], axis=1)
        val = np.concatenate([val, np.zeros((nnz.size, k - val.shape[1]))], axis=1)
    # indices ascend along each row, so a stable sort sends ties to the lower index
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


def nearest_rows(w, k):
    """Indices of the k rows with the largest weight, ties to lower index.

    Returned sorted ascending. If fewer than k rows carry positive
    weight, zero-weight rows (lowest indices first) pad the set.
    """
    return _nearest(w.index[None, :], w.value[None, :], np.array([w.index.size]), k, w.n)[0]


def _km_knn(sup, data, k):
    """``_km`` on each row's k nearest rows: sorted responses, group ends and curve values, each (points, k)."""
    near = _nearest(sup.idx, sup.val, sup.nnz, k, data.n)
    return _km(data.response.take(near), data.event.take(near))


def km_knn(data, w, k):
    """Kaplan-Meier censoring curve on the k highest-weight rows.

    A localized variant of ``km``: restrict to the forest neighborhood
    of the test point, then weigh those rows equally.
    """
    _row(w, data.response)
    rows = nearest_rows(w, k)
    return km(data.response[rows], data.event[rows])
