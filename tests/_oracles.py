"""Reference implementations used to pin expected test values.

Most of these are direct, naive transcriptions of the defining formulas
(plain Python loops, no shared code with the package). Slow on purpose.
The rest are the package's own former implementations, kept as the
reference for the faster code that replaced them:

- the float-sort tree grower (``grow_tree``);
- the index-ordered forest weight rows (``weight_rows``);
- the per-point root pass (``root_pass``) and the per-point bodies it is
  built from: ``mass_above``, ``support_grid``,
  ``quantile_from_weights``, ``candidate_set``, ``nearest_rows``, the
  count product-limit ``km`` and ``km_knn``, and the weighted
  product-limit ``beran_rf``. The package now runs each of these as a
  block of one over its block kernels; these bodies share no code with
  them.
"""

import math

import numpy as np

from cqforest.survival import SurvivalCurve


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
            rows = tree.rows[tree.row_ptr[leaf] : tree.row_ptr[leaf + 1]]
            pts = np.flatnonzero(leaves == leaf)
            np.add.at(out, (pts[:, None], rows[None, :]), 1.0 / (len(trees) * rows.size))
    return out


def weight_rows(trees, xmat, n):
    """Each point's sparse forest weights as (index, value), index ascending: the package's former ``_weight_rows``.

    The leaves come from the stack walk, one tree at a time; the point's
    leaf rows are gathered in tree order and leaf-row order within a leaf
    and summed over training-row ids by one ``bincount``, so each weight
    adds the same doubles in the same order as ``scattered_weights``.
    """
    leaves = np.column_stack([tree_leaves(tree, xmat) for tree in trees])
    out = []
    for point_leaves in leaves:
        parts = [tree.rows[tree.row_ptr[leaf] : tree.row_ptr[leaf + 1]] for tree, leaf in zip(trees, point_leaves)]
        mass = np.bincount(np.concatenate(parts),
                           weights=np.concatenate([np.full(r.size, 1.0 / (len(trees) * r.size)) for r in parts]),
                           minlength=n)
        index = np.flatnonzero(mass)
        out.append((index, mass[index]))
    return out


def _float_split(xb, yb, rows, feats, min_child):
    """Best (feature, cut) of one node, sorting the float x values themselves."""
    size = rows.size
    lo, hi = min_child, size - min_child
    if lo > hi:
        return None
    total = yb[rows].sum()
    best_gain = -math.inf
    best = None
    for f in feats:
        xv = xb[rows, f]
        order = np.argsort(xv, kind="stable")
        xs = xv[order]
        ok = xs[lo : hi + 1] > xs[lo - 1 : hi]
        if not ok.any():
            continue
        pos = np.flatnonzero(ok) + lo
        csum = np.cumsum(yb[rows[order]])
        left_sum = csum[pos - 1]
        proxy = left_sum * left_sum / pos + (total - left_sum) * (total - left_sum) / (size - pos)
        j = int(np.argmax(proxy))
        if proxy[j] > best_gain:
            best_gain = proxy[j]
            best = (f, order, int(pos[j]))
    if best is None or best_gain <= total * total / size:
        return None
    f, order, cut = best
    xs = xb[rows[order], f]
    thr = (xs[cut - 1] + xs[cut]) / 2.0
    if thr >= xs[cut]:
        thr = xs[cut - 1]
    return f, float(thr), rows[order[:cut]], rows[order[cut:]]


def grow_tree(x, y, cfg, mtry, rng):
    """One CART tree grown by float-value sorting at every node.

    Consumes ``rng`` as the package's grower does: the bag first, then one
    ``rng.choice(p, mtry)`` per node it tries to split, depth first, left
    child first. Returns (feature, threshold, left, right, leaf_rows), with
    leaf_rows[i] the sorted in-bag rows of leaf i and None on internal nodes.
    """
    n, p = x.shape
    bag = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
    xb, yb = x[bag], y[bag]
    feature, threshold, left, right, leaf_rows = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(math.nan)
        left.append(-1)
        right.append(-1)
        leaf_rows.append(None)
        return len(feature) - 1

    stack = [(new_node(), np.arange(n))]
    while stack:
        nid, node_rows = stack.pop()
        split = None
        if node_rows.size >= 2 * cfg.min_node_size and not (yb[node_rows] == yb[node_rows[0]]).all():
            feats = np.sort(rng.choice(p, size=mtry, replace=False))
            min_child = max(cfg.min_node_size, int(math.ceil(cfg.min_child_fraction * node_rows.size - 1e-9)))
            split = _float_split(xb, yb, node_rows, feats, min_child)
        if split is None:
            leaf_rows[nid] = np.sort(bag[node_rows])
            continue
        feature[nid], threshold[nid], lrows, rrows = split
        lid, rid = new_node(), new_node()
        left[nid], right[nid] = lid, rid
        stack.append((rid, rrows))
        stack.append((lid, lrows))
    return feature, threshold, left, right, leaf_rows


def reference_trees(x, y, cfg, mtry):
    """Every tree of a forest grown by ``grow_tree``, one SeedSequence spawn per tree."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    return [grow_tree(x, y, cfg, mtry, np.random.default_rng(s)) for s in seeds]


def differing_trees(trees, refs):
    """Indices of the one-tree stores whose nodes or leaf rows differ from their reference in any byte.

    The stores' arrays are compared as stored (int32 ids, int64 row
    pointers, float64 thresholds, and rows in the smallest unsigned dtype
    that holds the n training rows); the reference is cast to those
    dtypes, its leaf rows laid out back to back in node order.
    """
    if len(trees) != len(refs):
        raise ValueError(f"{len(trees)} trees against {len(refs)} references")
    out = []
    for t, (tree, (feature, threshold, left, right, leaf_rows)) in enumerate(zip(trees, refs)):
        sizes = [0 if r is None else len(r) for r in leaf_rows]
        n = sum(sizes)  # a tree's leaves hold its n-row bag
        pairs = [
            (tree.feature, np.asarray(feature, dtype=np.int32)),
            (tree.threshold, np.asarray(threshold, dtype=np.float64)),
            (tree.left, np.asarray(left, dtype=np.int32)),
            (tree.right, np.asarray(right, dtype=np.int32)),
            (tree.roots, np.zeros(1, dtype=np.int64)),
            (tree.row_ptr, np.cumsum([0] + sizes, dtype=np.int64)),
            (tree.rows, np.concatenate([r for r in leaf_rows if r is not None]).astype(np.min_scalar_type(n))),
        ]
        if not all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in pairs):
            out.append(t)
    return out


def mass_above(w, y, q):
    """sum_i w_i 1(y_i > q) for scalar or array q, from one sorted suffix-sum stream."""
    ys = np.asarray(y)[w.index]
    order = np.argsort(ys, kind="stable")
    ysort = ys[order]
    suffix = np.append(np.cumsum(w.value[order][::-1])[::-1], 0.0)
    q = np.asarray(q, dtype=np.float64)
    out = suffix[np.searchsorted(ysort, q, side="right")]
    return float(out) if q.ndim == 0 else out


def support_grid(w, y):
    """Distinct support responses, ascending, and the weight mass strictly above each."""
    cands = np.unique(np.asarray(y)[w.index])
    return cands, mass_above(w, y, cands)


def quantile_from_weights(w, y, tau):
    """Smallest support value whose weighted CDF reaches tau; an array for a sequence of taus."""
    scalar = np.ndim(tau) == 0
    taus = np.array([tau] if scalar else tau, dtype=np.float64)
    cands, above = support_grid(w, y)
    q = cands[np.argmax(above[:, None] <= 1.0 - taus, axis=0)]
    return float(q[0]) if scalar else q


def nearest_rows(w, k):
    """The k rows with the largest weight, ties to the lower index, padded with the lowest zero-weight rows; ascending."""
    # w.index is ascending, so a stable sort sends ties to the lower index
    ranked = w.index[np.argsort(-w.value, kind="stable")][:k]
    n_zero = int(k) - ranked.size
    if n_zero:
        # at most k - n_zero of rows 0..k-1 carry weight, so they hold enough padding
        pad = np.setdiff1d(np.arange(k), w.index, assume_unique=True)[:n_zero]
        ranked = np.concatenate([ranked, pad])
    return np.sort(ranked)


def candidate_set(w, y, mode, k=None):
    """Distinct responses of the positive-weight rows ("beran-rf") or of the k nearest rows ("km-knn")."""
    rows = w.index if mode == "beran-rf" else nearest_rows(w, k)
    return np.unique(np.asarray(y, dtype=np.float64)[rows])


def _curve_from_factors(times, factors):
    """Fold ascending per-row factors into a step curve; a jump that leaves the value unchanged is dropped."""
    cum = np.cumprod(factors)
    last = np.append(np.flatnonzero(np.diff(times) > 0), times.size - 1)
    vals = np.minimum(cum[last], 1.0)
    jt = times[last]
    keep = vals != np.append(1.0, vals[:-1])
    return SurvivalCurve(jt[keep], vals[keep])


def km(y, event):
    """Count product-limit curve: rows by time, events first within ties; risk counted from the tie group's start."""
    y, event = np.asarray(y, dtype=np.float64), np.asarray(event).astype(bool)
    order = np.lexsort((~event, y))
    ys, evs = y[order], event[order]
    risk = ys.size - np.searchsorted(ys, ys, side="left")
    return _curve_from_factors(ys, np.where(evs, 1.0, 1.0 - 1.0 / risk))


def weighted_product_limit(y, event, weights):
    """Product-limit curve where row i carries mass weights[i], rescaled by the largest weight."""
    order = np.lexsort((~event, y))
    ys, evs = y[order], event[order]
    u = weights[order] / weights.max()
    suffix = np.append(np.cumsum(u[::-1])[::-1], 0.0)
    first = np.append(0, np.flatnonzero(np.diff(ys) > 0) + 1)
    gid = np.cumsum(np.append(0, (np.diff(ys) > 0).astype(np.int64)))
    risk = suffix[first[gid]]
    return _curve_from_factors(ys, np.where(evs, 1.0, 1.0 - u / risk))


def beran_rf(data, w):
    """The weighted product-limit over the support of ``w``."""
    return weighted_product_limit(data.response[w.index], data.event[w.index], w.value)


def km_knn(data, w, k):
    """The count product-limit over the k nearest rows."""
    rows = nearest_rows(w, k)
    return km(data.response[rows], data.event[rows])


def root_pass(w, data, taus, survival="beran-rf", knn=None, search_radius=None):
    """The per-point root of S(q; tau) at every tau, solved one point at a time.

    ``w`` is one point's ``WeightVector``. This is the solver the package
    used before it solved blocks of points, built from the per-point
    references above (``candidate_set``, ``mass_above``, ``beran_rf`` or
    ``km_knn``) and ``SurvivalCurve.evaluate``, none of which runs the
    block kernels. The root selector and the non-crossing clamp are its
    former private code: the smallest candidate with S >= 0 (else the
    smallest argmin |S|), never below the previous tau's. Returns one
    (q_hat, residual, candidate_count, degenerate_tail) tuple per tau;
    raises ValueError when no candidate lies inside the radius.
    """
    cands = candidate_set(w, data.response, survival, knn)
    above = mass_above(w, data.response, cands)
    if search_radius is not None:
        keep = np.abs(cands) <= search_radius
        if not keep.any():
            raise ValueError("no candidates inside the search radius")
        cands, above = cands[keep], above[keep]
    curve = beran_rf(data, w) if survival == "beran-rf" else km_knn(data, w, knn)
    g = curve.evaluate(cands)
    out = []
    prev = 0
    for tau in taus:
        s = (1.0 - tau) * g - above
        nonneg = np.flatnonzero(s >= 0.0)
        idx = max(int(nonneg[0]) if nonneg.size else int(np.argmin(np.abs(s))), prev)
        prev = idx
        out.append((float(cands[idx]), float(abs(s[idx])), int(cands.size), bool(g[idx] == 0.0)))
    return out
