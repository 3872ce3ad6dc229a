"""Brute-force reference implementations used to pin expected test values.

Everything here is a direct, naive transcription of the defining formulas
(plain Python loops, no shared code with the package). Slow on purpose.
"""

import math

import numpy as np


def pinball_loss(u, tau):
    return u * (tau - (1.0 if u < 0 else 0.0))


def weighted_quantile_grid(y, w, tau):
    """Smallest grid point minimizing the weighted pinball sum over q in {y_i}."""
    grid = sorted(set(float(v) for v in y))
    best_q, best_loss = None, math.inf
    for q in grid:
        loss = sum(wi * pinball_loss(yi - q, tau) for yi, wi in zip(y, w))
        if loss < best_loss - 1e-15:
            best_q, best_loss = q, loss
    return best_q


def km_censoring_survival(y, event, q):
    """Count-based product-limit estimate of P(C >= q).

    Factor (1 - 1/r_i)^(1-delta_i) per row with y_i <= q, where the risk
    count r_i = #{j: y_j >= y_i} includes every tied row.
    """
    n = len(y)
    value = 1.0
    for i in sorted(range(n), key=lambda i: y[i]):
        if y[i] <= q and not event[i]:
            risk = sum(1 for j in range(n) if y[j] >= y[i])
            value *= 1.0 - 1.0 / risk
    return value


def weighted_censoring_survival(y, event, w, q):
    """Weight-based product-limit estimate of P(C >= q | x).

    Factor (1 - w_i / sum_{j: y_j >= y_i} w_j)^(1-delta_i) per row with
    y_i <= q and w_i > 0; zero-weight rows contribute factor 1.
    """
    n = len(y)
    value = 1.0
    for i in sorted(range(n), key=lambda i: y[i]):
        if y[i] <= q and not event[i] and w[i] > 0:
            risk = sum(w[j] for j in range(n) if y[j] >= y[i])
            value *= 1.0 - w[i] / risk
    return value


def top_k_rows(w, k):
    """Indices of the k largest weights, ties broken toward the lower index."""
    order = sorted(range(len(w)), key=lambda i: (-w[i], i))
    return sorted(order[:k])


def nadaraya_watson_weights(x, features, bandwidth, kernel):
    """Normalized kernel weights K(||x - X_i|| / a) / sum_j K(...)."""
    def k_gauss(z):
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    def k_epan(z):
        return 0.75 * (1.0 - z * z) if abs(z) <= 1.0 else 0.0

    kf = k_gauss if kernel == "gaussian" else k_epan
    raw = []
    for row in features:
        dist = math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(np.atleast_1d(x), np.atleast_1d(row))))
        raw.append(kf(dist / bandwidth))
    total = sum(raw)
    if total == 0:
        raise ValueError("all kernel weights zero")
    return [r / total for r in raw]


def score_direct(q, tau, w, g_at_q, y):
    """(1 - tau) * G(q) - sum_i w_i 1(y_i > q), with a strict inequality."""
    s = 0.0
    for yi, wi in zip(y, w):
        if yi > q:
            s += wi
    return (1.0 - tau) * g_at_q - s


def c_index_pairs(pred, y, event):
    """Exhaustive ordered-pair concordance count.

    Pair (i, j) is usable iff y_i < y_j with event_i, or y_i == y_j with
    event_i and not event_j. Concordant when pred_i < pred_j; prediction
    ties count 0.5.
    """
    num = 0.0
    den = 0
    n = len(y)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            usable = (y[i] < y[j] and event[i]) or (
                y[i] == y[j] and event[i] and not event[j]
            )
            if not usable:
                continue
            den += 1
            if pred[i] < pred[j]:
                num += 1.0
            elif pred[i] == pred[j]:
                num += 0.5
    if den == 0:
        raise ZeroDivisionError("no comparable pairs")
    return num / den


def tree_leaves(tree, xmat):
    """Leaf node id per row of xmat, by a depth-first stack walk of one tree."""
    out = np.empty(xmat.shape[0], dtype=np.int32)
    stack = [(0, np.arange(xmat.shape[0]))]
    while stack:
        nid, idx = stack.pop()
        if idx.size == 0:
            continue
        if tree.feature[nid] < 0:
            out[idx] = nid
            continue
        go_left = xmat[idx, tree.feature[nid]] <= tree.threshold[nid]
        stack.append((tree.left[nid], idx[go_left]))
        stack.append((tree.right[nid], idx[~go_left]))
    return out


def scattered_weights(trees, xmat, n):
    """(n_points, n) weights: tree by tree, add 1/(B * |leaf|) per co-leafed in-bag row.

    B = len(trees). Each tree's mass goes in with one np.add.at per leaf,
    so duplicated bag rows accumulate one copy at a time.
    """
    out = np.zeros((xmat.shape[0], n))
    for tree in trees:
        leaves = tree_leaves(tree, xmat)
        for leaf in np.unique(leaves):
            rows = tree.leaf_rows[leaf]
            pts = np.flatnonzero(leaves == leaf)
            np.add.at(out, (pts[:, None], rows[None, :]), 1.0 / (len(trees) * rows.size))
    return out
