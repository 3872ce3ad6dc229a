"""Bagged CART regression trees and the local weights they induce.

Trees are grown by greedy variance-reduction splits on the observed
response, censoring flags ignored. For a test point x, each tree puts
mass 1/|leaf| on every in-bag row sharing x's leaf (bootstrap duplicates
counted), and the forest weight is the average over trees. Those weights
drive everything downstream: weighted means/quantiles and the censoring-
adjusted estimating equation.
"""

import hashlib
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import DataError, check_tau


@dataclass(frozen=True)
class ForestConfig:
    """Growth parameters.

    ``min_node_size`` is the minimum terminal-leaf sample count (the key
    bias/variance knob). ``min_child_fraction`` additionally forces each
    child of a split to hold at least that fraction of its parent's rows.
    ``mtry`` defaults to ceil(p/3) at fit time.
    """

    min_node_size: int
    n_trees: int = 1000
    mtry: int | None = None
    min_child_fraction: float = 0.1
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise DataError("n_trees must be >= 1")
        if self.min_node_size < 1:
            raise DataError("min_node_size must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise DataError("mtry must be >= 1")
        if not 0.0 < self.min_child_fraction <= 0.5:
            raise DataError("min_child_fraction must lie in (0, 0.5]")


@dataclass
class Tree:
    """One fitted tree in flat-array form.

    ``feature[i] == -1`` marks node i as a leaf; internal nodes route x to
    ``left`` iff x[feature] <= threshold, and child ids are local to the
    tree. ``leaf_rows[i]`` holds the original training-row indices in
    leaf i, bootstrap multiplicity included; leaves partition the bag.
    In a ``Forest`` these arrays are views into the forest's flat store.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_rows: list


class WeightVector:
    """Sparse nonnegative weights over training rows, summing to one.

    Stored as parallel arrays ``index`` (sorted, unique row ids) and
    ``value`` (strictly positive); ``n`` is the training-set size.
    """

    __slots__ = ("index", "value", "n")

    def __init__(self, index, value, n):
        index = np.asarray(index, dtype=np.int64)
        value = np.asarray(value, dtype=np.float64)
        if index.shape != value.shape or index.ndim != 1:
            raise DataError("index/value shape mismatch")
        if (value < 0).any() or not np.isfinite(value).all():
            raise DataError("weights must be finite and nonnegative")
        keep = value > 0
        index, value = index[keep], value[keep]
        if (np.diff(index) <= 0).any():  # from_dense indices arrive strictly increasing
            order = np.argsort(index, kind="stable")
            index, value = index[order], value[order]
        if index.size == 0:
            raise DataError("weight vector has empty support")
        if index[0] < 0 or index[-1] >= n or (np.diff(index) == 0).any():
            raise DataError("weight indices must be unique and within [0, n)")
        if abs(float(value.sum()) - 1.0) > 1e-8:
            raise DataError("weights must sum to 1")
        self.index = index
        self.value = value
        self.n = int(n)

    @classmethod
    def from_dense(cls, dense):
        dense = np.asarray(dense, dtype=np.float64)
        idx = np.flatnonzero(dense)
        return cls(idx, dense[idx], dense.size)

    @classmethod
    def uniform(cls, n):
        return cls(np.arange(n), np.full(n, 1.0 / n), n)

    @classmethod
    def uniform_subset(cls, rows, n):
        rows = np.asarray(rows, dtype=np.int64)
        return cls(rows, np.full(rows.size, 1.0 / rows.size), n)

    def dense(self):
        out = np.zeros(self.n)
        out[self.index] = self.value
        return out

    @property
    def support_size(self):
        return self.index.size


@dataclass(frozen=True)
class _Nodes:
    """Every tree's nodes and leaf rows, concatenated in tree order.

    ``roots[t]`` is the global id of tree t's root; its children keep
    tree-local ids, so node ``roots[t] + left[g]`` is the left child of
    global node g. The in-bag rows of leaf g are
    ``rows[row_ptr[g]:row_ptr[g + 1]]`` (empty for internal nodes).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    roots: np.ndarray
    row_ptr: np.ndarray
    rows: np.ndarray


def _pack(trees, n_trees, n):
    """One flat store for ``n_trees`` trees of ``n`` in-bag rows each, and the trees as views into it.

    ``trees`` may be lazy: each tree's leaf rows are copied into the
    store as the tree arrives and its own arrays are then dropped, so
    the forest's leaf rows are never held twice.
    """
    rows = np.empty(n_trees * n, dtype=np.int64)
    kept, sizes = [], []
    for t, tree in enumerate(trees):
        np.concatenate([r for r in tree.leaf_rows if r is not None], out=rows[t * n : (t + 1) * n])
        sizes += [0 if r is None else len(r) for r in tree.leaf_rows]
        kept.append((tree.feature, tree.threshold, tree.left, tree.right))
    features, thresholds, lefts, rights = zip(*kept)
    bounds = np.cumsum([0] + [f.size for f in features])
    feature, threshold, left, right = map(np.concatenate, (features, thresholds, lefts, rights))
    row_ptr = np.cumsum([0] + sizes)
    nodes = _Nodes(feature, threshold, left, right, roots=bounds[:-1], row_ptr=row_ptr, rows=rows)
    ptr = row_ptr.tolist()
    views = [
        Tree(
            feature=feature[a:b],
            threshold=threshold[a:b],
            left=left[a:b],
            right=right[a:b],
            leaf_rows=[rows[ptr[g] : ptr[g + 1]] if ptr[g + 1] > ptr[g] else None for g in range(a, b)],
        )
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]
    return nodes, views


@dataclass
class Forest:
    """A fitted forest bound to its training data.

    ``trees`` may be given as any iterable of ``config.n_trees`` trees,
    each holding ``n_train`` in-bag rows. On construction they are packed
    into one flat store (``_pack``) and ``trees`` becomes a list of views
    into it, so the forest is held once and walked in one pass.
    """

    config: ForestConfig
    trees: list
    n_train: int
    n_features: int
    response: np.ndarray
    checksum: str
    feature_names: tuple | None = field(default=None)
    _nodes: _Nodes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._nodes, self.trees = _pack(self.trees, self.config.n_trees, self.n_train)


def _pure(y):
    return bool((y == y[0]).all())


def _best_split(xb, yb, rows, feats, min_child):
    """Best (feature, cut) by variance reduction, or None.

    Maximizes sum_L^2/n_L + sum_R^2/n_R (equivalent to minimizing child
    SSE); ties resolve to the lowest feature index, then the lowest
    threshold. Candidate cuts keep both children >= min_child rows and
    fall between distinct sorted feature values.
    """
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
        # adjacent floats can round the midpoint up; pin the boundary so
        # "x <= threshold goes left" still separates the two groups
        thr = xs[cut - 1]
    return f, float(thr), rows[order[:cut]], rows[order[cut:]]


def _grow_tree(x, y, cfg, mtry, rng):
    n = y.size
    p = x.shape[1]
    bag = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
    xb, yb = x[bag], y[bag]
    feature, threshold, left, right, leaf_rows = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(None)
        left.append(-1)
        right.append(-1)
        leaf_rows.append(None)
        return len(feature) - 1

    stack = [(new_node(), np.arange(n))]
    while stack:
        nid, node_rows = stack.pop()
        split = None
        if node_rows.size >= 2 * cfg.min_node_size and not _pure(yb[node_rows]):
            feats = np.sort(rng.choice(p, size=mtry, replace=False))
            min_child = max(cfg.min_node_size, int(math.ceil(cfg.min_child_fraction * node_rows.size - 1e-9)))
            split = _best_split(xb, yb, node_rows, feats, min_child)
        if split is None:
            leaf_rows[nid] = np.sort(bag[node_rows])
            continue
        f, thr, lrows, rrows = split
        feature[nid] = f
        threshold[nid] = thr
        lid, rid = new_node(), new_node()
        left[nid], right[nid] = lid, rid
        stack.append((rid, rrows))
        stack.append((lid, lrows))
    thr_arr = np.array([np.nan if t is None else t for t in threshold])
    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=thr_arr,
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        leaf_rows=leaf_rows,
    )


def data_checksum(data):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(data.features).tobytes())
    h.update(np.ascontiguousarray(data.response).tobytes())
    return h.hexdigest()


def fit(data, cfg, threads=1, feature_names=None):
    """Grow a forest of cfg.n_trees bagged trees on (features, response).

    Each tree draws its own bootstrap bag (n draws with replacement) and
    its own feature subsamples from an independent stream derived from
    ``cfg.seed`` and the tree index, so results do not depend on thread
    scheduling. Censoring flags play no role here.
    """
    if cfg.min_node_size > data.n:
        raise DataError("min_node_size exceeds the number of training rows")
    mtry = cfg.mtry if cfg.mtry is not None else math.ceil(data.p / 3)
    if mtry > data.p:
        raise DataError("mtry exceeds the number of features")
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    x, y = data.features, data.response

    def build(seq):
        return _grow_tree(x, y, cfg, mtry, np.random.default_rng(seq))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = list(pool.map(build, seeds))
    else:
        trees = map(build, seeds)  # lazy: each tree is grown as the packing reaches it
    return Forest(
        config=cfg,
        trees=trees,
        n_train=data.n,
        n_features=data.p,
        response=data.response,
        checksum=data_checksum(data),
        feature_names=tuple(feature_names) if feature_names else None,
    )


def _descend(nodes, roots, xmat):
    """Leaf reached by every lane, a lane being one (point, tree) pair.

    Lanes are point-major: lane ``i * len(roots) + t`` walks the tree
    rooted at ``roots[t]`` for row i of xmat. Each step moves every lane
    still on an internal node down one level, so the Python loop runs
    once per level, not once per node or tree. Returns global node ids.
    """
    base = np.tile(roots, xmat.shape[0])
    point = np.repeat(np.arange(xmat.shape[0]), roots.size)
    node = base.copy()
    live = np.flatnonzero(nodes.feature[node] >= 0)
    while live.size:
        at = node[live]
        go_left = xmat[point[live], nodes.feature[at]] <= nodes.threshold[at]
        node[live] = base[live] + np.where(go_left, nodes.left[at], nodes.right[at])
        live = live[nodes.feature[node[live]] >= 0]
    return node


def apply(tree, xmat):
    """Leaf node id for every row of xmat, vectorized over rows."""
    return _descend(tree, np.zeros(1, dtype=np.int64), xmat).astype(np.int32)


# lanes per walk: enough to spread each level's numpy calls over many
# lanes, few enough that the walk adds little to a batch's peak memory
_WALK_LANES = 1 << 14


def _leaf_mass(rows, size, b, n):
    """Length-n weights adding 1/(b * size[j]) for each row of the j-th leaf.

    ``rows`` holds the leaves' in-bag rows back to back, ``size[j]`` of
    them for leaf j. bincount adds its inputs in the order given,
    starting from zero, so the result is bit-identical to a scatter that
    adds the same leaves in the same order.
    """
    return np.bincount(rows, weights=np.repeat(1.0 / (b * size), size), minlength=n)


def _weight_rows(nodes, xmat, b, n):
    """Dense weights at each row of xmat, one length-n array per point.

    Each point gathers the in-bag rows of its leaf in every tree, in
    tree order and leaf-row order within a leaf (the order a tree-by-tree
    scatter adds them in), and sums them with one ``_leaf_mass``. Points
    are walked in blocks of about ``_WALK_LANES`` lanes, so the walk's
    temporaries stay near 1 MiB whatever the batch size.
    """
    block = max(1, _WALK_LANES // nodes.roots.size)
    for lo in range(0, xmat.shape[0], block):
        leaves = _descend(nodes, nodes.roots, xmat[lo : lo + block]).reshape(-1, nodes.roots.size)
        for point_leaves in leaves:
            start = nodes.row_ptr[point_leaves]
            size = nodes.row_ptr[point_leaves + 1] - start
            gather = np.arange(size.sum()) + np.repeat(start - (np.cumsum(size) - size), size)
            yield _leaf_mass(nodes.rows[gather], size, b, n)


def _points(xmat, p):
    """xmat as a finite float matrix with p columns, else DataError."""
    xmat = np.atleast_2d(np.asarray(xmat, dtype=np.float64))
    if xmat.ndim != 2 or xmat.shape[1] != p:
        raise DataError("test features have the wrong dimension")
    if not np.isfinite(xmat).all():
        raise DataError("test features must be finite")
    return xmat


def tree_weights(tree, x, n):
    """Weights 1/|leaf| on the in-bag rows co-leafed with x, 0 elsewhere.

    ``n`` is the training-set size; x needs a value for every feature
    the tree splits on.
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    x = _points(x, max(x.shape[1], int(tree.feature.max()) + 1))
    rows = np.asarray(tree.leaf_rows[apply(tree, x)[0]])
    return WeightVector.from_dense(_leaf_mass(rows, np.array([rows.size]), 1, int(n)))


def weight_matrix(forest, xmat):
    """Dense (n_test, n_train) forest-weight matrix for a batch of points."""
    xmat = _points(xmat, forest.n_features)
    out = np.empty((xmat.shape[0], forest.n_train))
    for i, row in enumerate(_weight_rows(forest._nodes, xmat, len(forest.trees), forest.n_train)):
        out[i] = row
    return out


def forest_weights(forest, x):
    """Average of the per-tree weight vectors at x (sparse result)."""
    dense = weight_matrix(forest, np.asarray(x, dtype=np.float64).reshape(1, -1))[0]
    return WeightVector.from_dense(dense)


def support_grid(w, y):
    """Distinct support response values and the weight mass strictly above each.

    Returns ``(cands, above)`` with cands ascending and
    above[j] = sum of w_i over rows with y_i > cands[j], read from the
    same suffix sums as ``mass_above`` so downstream comparisons are
    reproducible.
    """
    cands = np.unique(np.asarray(y)[w.index])
    return cands, mass_above(w, y, cands)


def mass_above(w, y, q):
    """sum_i w_i 1(y_i > q) for scalar or array q."""
    ys = np.asarray(y)[w.index]
    order = np.argsort(ys, kind="stable")
    ysort = ys[order]
    suffix = np.append(np.cumsum(w.value[order][::-1])[::-1], 0.0)
    q = np.asarray(q, dtype=np.float64)
    out = suffix[np.searchsorted(ysort, q, side="right")]
    return float(out) if q.ndim == 0 else out


def quantile_from_weights(w, y, tau):
    """Smallest support value whose weighted CDF reaches tau.

    A float for one tau, an array for a sequence of taus; every level is
    read from one support grid.
    """
    scalar = np.ndim(tau) == 0
    taus = np.array([check_tau(t) for t in ([tau] if scalar else tau)])
    cands, above = support_grid(w, y)
    q = cands[np.argmax(above[:, None] <= 1.0 - taus, axis=0)]
    return float(q[0]) if scalar else q


def weighted_mean(forest, x):
    """Forest-weighted mean of the training responses at x."""
    w = forest_weights(forest, x)
    return float(np.dot(w.value, forest.response[w.index]))


def weighted_quantile(forest, x, tau):
    """Forest-weighted tau-quantile of the training responses at x.

    This is the plain quantile-forest read-out of the weighted empirical
    CDF; it knows nothing about censoring.
    """
    return quantile_from_weights(forest_weights(forest, x), forest.response, tau)


FOREST_FORMAT = "cqforest-forest"
FOREST_VERSION = 1


def save_forest(forest, path):
    """Serialize to a versioned JSON model file with exact float round-trip.

    The file is written one tree record at a time, so the whole document
    is never built in memory; the bytes are those of ``json.dump`` of it.
    """
    head = {
        "format": FOREST_FORMAT,
        "version": FOREST_VERSION,
        "config": {
            "min_node_size": forest.config.min_node_size,
            "n_trees": forest.config.n_trees,
            "mtry": forest.config.mtry,
            "min_child_fraction": forest.config.min_child_fraction,
            "bootstrap": forest.config.bootstrap,
            "seed": forest.config.seed,
        },
        "n_train": forest.n_train,
        "n_features": forest.n_features,
        "feature_names": list(forest.feature_names) if forest.feature_names else None,
        "checksum": forest.checksum,
    }
    with open(path, "w", encoding="utf-8") as fh:
        # "trees" is the last key: open its list in place of the closing brace
        fh.write(json.dumps(head)[:-1] + ', "trees": [')
        for i, tree in enumerate(forest.trees):
            rec = {
                "feature": tree.feature.tolist(),
                "threshold": [None if math.isnan(t) else t for t in tree.threshold.tolist()],
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "leaf_rows": [None if r is None else r.tolist() for r in tree.leaf_rows],
            }
            fh.write((", " if i else "") + json.dumps(rec))
        fh.write("]}")


_DOC_TYPES = {"n_train": int, "n_features": int, "checksum": str, "config": dict, "trees": list}
_CONFIG_TYPES = {
    "min_node_size": int,
    "n_trees": int,
    "mtry": (int, type(None)),
    "min_child_fraction": (int, float),
    "bootstrap": bool,
    "seed": int,
}
_TREE_KEYS = ("feature", "threshold", "left", "right", "leaf_rows")


def _has_type(value, types):
    # JSON true/false load as bool, a subclass of int; only bool fields take them
    types = types if isinstance(types, tuple) else (types,)
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


def _int_array(values, size):
    a = np.asarray(values)
    if a.shape != (size,) or a.dtype.kind != "i":
        raise DataError(f"expected a list of {size} integers")
    return a


def _load_tree(rec, p, n):
    """Tree from its JSON record, or DataError unless the record is a valid tree.

    Valid means: equal-length arrays; features in [-1, p); finite
    thresholds on internal nodes only; internal nodes' children forming
    a permutation of 1..m-1, each greater than its parent (so every node
    is reached from the root exactly once and the walk terminates); and
    leaf rows on exactly the leaves, nonempty, in [0, n) and n in total.
    """
    if not isinstance(rec, dict) or not all(isinstance(rec.get(k), list) for k in _TREE_KEYS):
        raise DataError("malformed tree record")
    m = len(rec["feature"])
    if m == 0 or any(len(rec[k]) != m for k in _TREE_KEYS):
        raise DataError("tree arrays must be nonempty and of equal length")
    try:
        feature, left, right = (_int_array(rec[k], m) for k in ("feature", "left", "right"))
        threshold = np.array(rec["threshold"], dtype=np.float64)  # null loads as nan
    except (TypeError, ValueError):
        raise DataError("malformed tree arrays") from None
    if threshold.shape != (m,):
        raise DataError("malformed tree arrays")
    internal = feature >= 0
    parents = np.flatnonzero(internal)
    children = np.concatenate([left[internal], right[internal]])
    if (feature < -1).any() or (feature >= p).any():
        raise DataError("split feature out of range")
    if not np.isfinite(threshold[internal]).all() or not np.isnan(threshold[~internal]).all():
        raise DataError("thresholds must be finite on internal nodes and null on leaves")
    if not np.array_equal(np.sort(children), np.arange(1, m)) or not (
        (left[internal] > parents).all() and (right[internal] > parents).all()
    ):
        raise DataError("child links do not form a tree")
    leaf_rows = rec["leaf_rows"]
    if not np.array_equal([r is not None for r in leaf_rows], ~internal):
        raise DataError("leaf rows must be present on exactly the leaves")
    leaves = np.flatnonzero(~internal)
    lists = [leaf_rows[i] for i in leaves]
    if not all(isinstance(r, list) and r for r in lists):
        raise DataError("leaf rows must be nonempty lists")
    try:
        rows = _int_array(list(itertools.chain.from_iterable(lists)), n)
    except ValueError:
        raise DataError(f"leaf rows must be {n} integers in total") from None
    if (rows < 0).any() or (rows >= n).any():
        raise DataError("leaf row out of range")
    loaded = [None] * m
    ends = list(itertools.accumulate(len(r) for r in lists))
    for i, a, b in zip(leaves.tolist(), [0] + ends, ends):
        loaded[i] = rows[a:b]
    return Tree(
        feature=feature.astype(np.int32),
        threshold=threshold,
        left=left.astype(np.int32),
        right=right.astype(np.int32),
        leaf_rows=loaded,
    )


def load_forest(path, data):
    """Load a model file and bind it to its training data.

    The file stores a checksum of the training arrays; a mismatch means
    the supplied data is not what the forest was fitted on. Every field
    is validated (see ``_load_tree`` for the tree structure), so a
    corrupt file raises DataError instead of mispredicting or hanging.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not a valid model file ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != FOREST_FORMAT:
        raise DataError(f"{path}: unrecognized model format")
    if doc.get("version") != FOREST_VERSION:
        raise DataError(f"{path}: unsupported model version {doc.get('version')!r}")
    for key, types in _DOC_TYPES.items():
        if not _has_type(doc.get(key), types):
            raise DataError(f"{path}: missing or malformed {key!r}")
    names = doc.get("feature_names")
    if names is not None and not (isinstance(names, list) and all(isinstance(v, str) for v in names)):
        raise DataError(f"{path}: feature_names must be a list of strings")
    if doc["n_train"] != data.n or doc["n_features"] != data.p:
        raise DataError(f"{path}: model was fitted on different data dimensions")
    if doc["checksum"] != data_checksum(data):
        raise DataError(f"{path}: training data does not match this model")
    config = doc["config"]
    if set(config) != set(_CONFIG_TYPES) or not all(_has_type(config[k], t) for k, t in _CONFIG_TYPES.items()):
        raise DataError(f"{path}: malformed forest config")
    try:
        cfg = ForestConfig(**config)
        if len(doc["trees"]) != cfg.n_trees:
            raise DataError(f"expected {cfg.n_trees} trees, found {len(doc['trees'])}")
        return Forest(
            config=cfg,
            trees=(_load_tree(rec, data.p, data.n) for rec in doc["trees"]),
            n_train=data.n,
            n_features=data.p,
            response=data.response,
            checksum=doc["checksum"],
            feature_names=tuple(names) if names else None,
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
