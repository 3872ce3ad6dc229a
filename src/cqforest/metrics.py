"""Evaluation metrics for quantile predictions under censoring.

MSE and MAD compare predicted quantiles against true ones (simulation
only); the pinball loss scores predictions against realized survival
times; the concordance index scores the ranking of predictions against
censored outcomes.
"""

from dataclasses import dataclass

import numpy as np

from .data import DataError, check_floats, check_outcomes, check_tau


@dataclass(frozen=True)
class EvalReport:
    """Per-(dataset, tau) evaluation summary.

    ``l_mse``/``l_mad`` are None when true quantiles are unavailable
    (real data).
    """

    tau: float
    n_test: int
    l_mse: float | None = None
    l_mad: float | None = None
    l_quantile: float | None = None


def pinball(u, tau):
    """Quantile loss rho_tau(u) = u * (tau - 1(u < 0)); vectorizes over u."""
    tau = check_tau(tau)
    u = np.asarray(u, dtype=np.float64)
    out = u * (tau - (u < 0))
    return float(out) if out.ndim == 0 else out


def quantile_losses(truth_T, true_Q, pred_Q, tau):
    """Mean pinball, and mean squared/absolute quantile error when available.

    Parameters
    ----------
    truth_T : array
        Realized (latent) survival times of the test rows.
    true_Q : array or None
        True conditional tau-quantiles; pass None when unknown, which
        leaves ``l_mse``/``l_mad`` unset.
    pred_Q : array
        Predicted tau-quantiles, aligned with ``truth_T``.
    tau : float

    Returns
    -------
    EvalReport
        Concordance needs the censored outcomes: see ``c_index``.
    """
    truth_T = check_floats("truth_T", truth_T)
    pred_Q = check_floats("pred_Q", pred_Q)
    if truth_T.shape != pred_Q.shape or truth_T.ndim != 1 or truth_T.size == 0:
        raise DataError("truth/prediction vectors must be equal-length and nonempty")
    l_quantile = float(np.mean(pinball(truth_T - pred_Q, tau)))
    l_mse = l_mad = None
    if true_Q is not None:
        true_Q = check_floats("true_Q", true_Q)
        if true_Q.shape != pred_Q.shape:
            raise DataError("true quantile vector length mismatch")
        err = pred_Q - true_Q
        l_mse = float(np.mean(err * err))
        l_mad = float(np.mean(np.abs(err)))
    return EvalReport(
        tau=float(tau), n_test=truth_T.size, l_mse=l_mse, l_mad=l_mad, l_quantile=l_quantile
    )


# ordered pairs per block of c_index: keeps its n x block boolean
# temporaries near 4 MiB each, whatever the number of rows
_PAIR_CELLS = 1 << 22


def c_index(pred, y, event):
    """Concordance index of predictions against censored outcomes.

    A pair is usable iff the smaller observed time is an event, or the
    times are equal with exactly one event (censored-censored and
    event-event ties are not ranked). The pair is concordant when the
    case failing first has the strictly smaller prediction; prediction
    ties score 0.5.
    """
    pred = check_floats("pred", pred)
    y, event = check_outcomes(y, event)
    if pred.shape != y.shape:
        raise DataError("pred, y, event must be equal-length vectors")
    # ordered pairs (i, j) with i the case failing first, a block of i at a time;
    # the counts are integers, so the result does not depend on the blocking
    n_usable = wins = ties = 0
    block = max(1, _PAIR_CELLS // max(1, y.size))
    for lo in range(0, y.size, block):
        yi, ei, pi = y[lo : lo + block, None], event[lo : lo + block, None], pred[lo : lo + block, None]
        usable = ((yi < y) & ei) | ((yi == y) & ei & ~event)
        n_usable += int(usable.sum())
        wins += int((usable & (pi < pred)).sum())
        ties += int((usable & (pi == pred)).sum())
    if n_usable == 0:
        raise DataError("no usable pairs for the concordance index")
    return float((wins + 0.5 * ties) / n_usable)
