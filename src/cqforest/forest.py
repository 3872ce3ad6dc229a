"""Bagged CART regression trees and the local weights they induce.

Trees are grown by greedy variance-reduction splits on the observed
response, censoring flags ignored. For a test point x, each tree puts
mass 1/|leaf| on every in-bag row sharing x's leaf (bootstrap duplicates
counted), and the forest weight is the average over trees. Those weights
drive everything downstream: weighted means/quantiles and the censoring-
adjusted estimating equation.
"""

import hashlib
import json
import math
import zipfile
from array import array
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .data import DataError, check_int, check_real, check_tau


@dataclass(frozen=True)
class ForestConfig:
    """Growth parameters.

    ``min_node_size`` is the minimum terminal-leaf sample count (the key
    bias/variance knob). ``min_child_fraction`` additionally forces each
    child of a split to hold at least that fraction of its parent's rows.
    ``mtry`` defaults to ceil(p/3) at fit time. Integer fields take
    Python or numpy integers, and every field is stored as its Python
    type, so a config saves and loads back equal.
    """

    min_node_size: int
    n_trees: int = 1000
    mtry: int | None = None
    min_child_fraction: float = 0.1
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        for name, low in (("min_node_size", 1), ("n_trees", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))
        if self.mtry is not None:
            object.__setattr__(self, "mtry", check_int("mtry", self.mtry, 1))
        object.__setattr__(self, "min_child_fraction", check_real("min_child_fraction", self.min_child_fraction))
        if not 0.0 < self.min_child_fraction <= 0.5:
            raise DataError("min_child_fraction must lie in (0, 0.5]")
        if not isinstance(self.bootstrap, (bool, np.bool_)):
            raise DataError(f"bootstrap must be a bool, got {self.bootstrap!r}")
        object.__setattr__(self, "bootstrap", bool(self.bootstrap))


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
        keep = value != 0  # a negative or non-finite value stays, for _check_row to refuse
        index, value = index[keep], value[keep]
        if (np.diff(index) <= 0).any():  # from_dense indices arrive strictly increasing
            order = np.argsort(index, kind="stable")
            index, value = index[order], value[order]
        _check_row(index, value, n)
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


def _trees(nodes):
    """Every tree of the store as a one-tree ``_Nodes``: views into it, with root 0 and row_ptr from 0."""
    bounds = np.append(nodes.roots, nodes.feature.size).tolist()
    ptr = nodes.row_ptr
    return [
        _Nodes(nodes.feature[a:b], nodes.threshold[a:b], nodes.left[a:b], nodes.right[a:b],
               np.zeros(1, dtype=np.int64), ptr[a : b + 1] - ptr[a], nodes.rows[ptr[a] : ptr[b]])
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


@dataclass
class Forest:
    """A fitted forest bound to its training data.

    ``response`` and ``event`` are the arrays of the data it was fitted
    on or loaded with; the predictors take no other data.
    ``_nodes`` is the flat store holding every tree (grown as one
    ``_Group`` in ``fit``, read back whole by ``load_forest``), so the
    forest is held once and walked in one pass; ``trees`` lists each
    tree as a one-tree store of views into it, built on first use.
    """

    config: ForestConfig
    n_train: int
    n_features: int
    response: np.ndarray
    event: np.ndarray = field(repr=False, compare=False)
    checksum: str
    _nodes: _Nodes = field(repr=False, compare=False)
    feature_names: tuple | None = field(default=None)

    @cached_property
    def trees(self):
        return _trees(self._nodes)


# cells (nodes x mtry x padded width) scored in one pass: enough to spread
# a step's numpy calls over many small nodes, few enough that the pass's
# temporaries stay well under 1 MiB; a wider node is scored alone, unpadded
_CHUNK_CELLS = 1 << 14
# cells of padding worth one more pass: a node pads to its chunk's width
# only while that costs less than scoring it in a pass of its own
_PAD_CELLS = 1 << 9


def _chunks(nodes, mtry):
    """Runs of ``nodes`` (largest first) to score in one padded pass each."""
    chunk = []
    for node in nodes:
        if chunk and ((len(chunk) + 1) * mtry * chunk[0][0] > _CHUNK_CELLS
                      or (chunk[0][0] - node[0]) * mtry > _PAD_CELLS):
            yield chunk
            chunk = []
        chunk.append(node)
    if chunk:
        yield chunk


class _Group:
    """Every tree of the forest grown in lockstep: each step splits the next node of every tree.

    Every tree keeps its own rng and depth-first stack, so it draws its
    bag and its feature subsets, and numbers its nodes, exactly as if it
    were grown alone. ``bag`` is the forest's ``rows`` store, holding the
    trees' bags back to back; a node is a range of its tree's bag, and a
    split writes the range back sorted by the chosen feature, so the left
    child is its first ``cut`` rows and the right child the rest. A step's
    nodes are sorted by size and scored a chunk at a time, padded on the
    right to the chunk's widest. ``ranks`` and ``y`` carry a pad entry at
    row n: its rank is the dtype's largest, which a stable sort keeps
    after every real rank, and its response is 0.0. Splits and leaves are
    recorded in flat integer arrays, four entries per record.
    """

    def __init__(self, x, ranks, y, cfg, mtry, seeds):
        self.x, self.ranks, self.y, self.cfg, self.mtry = x, ranks, y, cfg, mtry
        n = x.shape[0]
        self.rngs = [np.random.default_rng(s) for s in seeds]
        self.bag = np.empty(len(seeds) * n, dtype=np.int32)
        for t, rng in enumerate(self.rngs):
            self.bag[t * n : (t + 1) * n] = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        self.stacks = [[(0, 0, n)] for _ in seeds]  # (node id, start in the tree's bag, size) per tree
        self.counts = [1] * len(seeds)  # nodes per tree so far
        self.splits = array("i")  # (tree, node id, feature, left child id) per split
        self.thresholds = array("d")  # per split
        self.leaves = array("i")  # (tree, node id, start in the tree's bag, size) per leaf

    def grow(self):
        """Grow every tree and return the forest's store."""
        live = range(len(self.rngs))
        twice = 2 * self.cfg.min_node_size
        while live:
            wide = []
            for t in live:
                stack = self.stacks[t]
                while stack:
                    nid, start, size = stack.pop()
                    if size >= twice:
                        wide.append((size, t, nid, start))
                        break
                    self.leaves.extend((t, nid, start, size))
            wide.sort(reverse=True)
            for chunk in _chunks(wide, self.mtry):
                self._split(chunk)
            live = [t for t in live if self.stacks[t]]
        return self._finish()

    def _split(self, chunk):
        """Split each node of ``chunk`` or make it a leaf, in one padded pass."""
        bag = self.bag
        n, p = self.x.shape
        nodes = np.array(chunk)
        size, tree = nodes[:, 0], nodes[:, 1]
        start = tree * n + nodes[:, 3]  # in the forest's bag
        width = int(size[0])
        at = start[:, None] + np.arange(width)
        rows = bag.take(at, mode="clip")
        pad = at >= (start + size)[:, None]
        rows[pad] = n
        yv = self.y.take(rows)
        leaf = ((yv == yv[:, :1]) | pad).all(1)
        act = np.flatnonzero(~leaf)
        if act.size:
            if act.size < size.size:
                size, tree, start, at, rows, yv, pad = (a[act] for a in (size, tree, start, at, rows, yv, pad))
            trees = tree.tolist()
            if self.mtry < p:
                feats = np.array([np.sort(self.rngs[t].choice(p, size=self.mtry, replace=False)) for t in trees])
            else:  # a full draw sorts to arange(p), and nothing reads rng after the draws
                feats = np.broadcast_to(np.arange(p), (act.size, p))
            total = np.array([v[:s].sum() for v, s in zip(yv, size.tolist())])
            found = self._best(feats, size, total, rows, yv)
            leaf[act] = True
            if found is not None:
                k, f, cut, order = found
                ordered = rows[k].take(order + (np.arange(k.size) * width)[:, None])
                keep = ~pad[k]
                bag[at[k][keep]] = ordered[keep]
                self._record(act[k], chunk, f, cut, ordered)
                leaf[act[k]] = False
        self.leaves.frombytes(nodes[leaf][:, [1, 2, 3, 0]].astype(np.intc).tobytes())

    def _best(self, feats, size, total, rows, yv):
        """The nodes that split, and their feature, cut and row order; None if none does.

        Each node takes its best (feature, cut) by variance reduction, as
        the first maximum of sum_L^2/n_L + sum_R^2/n_R in feature-major
        order: ties resolve to the lowest feature index, then the lowest
        cut. Cuts keep both children >= min_child rows and fall between
        distinct ranks. ``order`` is each splitting node's stable sort by
        its chosen feature.
        """
        cfg, n = self.cfg, self.x.shape[0]
        k_all, m = feats.shape
        width = rows.shape[1]
        lo = np.maximum(cfg.min_node_size, np.ceil(cfg.min_child_fraction * size - 1e-9).astype(np.int64))
        hi = size - lo
        w0, w1 = int(lo.min()), int(hi.max())
        if w0 > w1:
            return None
        rv = self.ranks.take((feats * (n + 1))[:, :, None] + rows[:, None, :])
        order = rv.argsort(axis=-1, kind="stable")
        rs = rv.take(order + (np.arange(k_all * m) * width).reshape(k_all, m, 1))
        pos = np.arange(w0, w1 + 1)
        bad = rs[..., w0 : w1 + 1] == rs[..., w0 - 1 : w1]
        bad |= ((pos < lo[:, None]) | (pos > hi[:, None]))[:, None, :]
        del rv, rs
        left = yv.take(order + (np.arange(k_all) * width)[:, None, None]).cumsum(-1)[..., w0 - 1 : w1]
        # left * left / pos + right * right / (size - pos), term by term in place
        proxy = total[:, None, None] - left
        proxy *= proxy
        with np.errstate(divide="ignore", invalid="ignore"):
            proxy /= size[:, None, None] - pos
        left = left * left
        left /= pos
        proxy += left
        del left
        np.copyto(proxy, -np.inf, where=bad)
        proxy = proxy.reshape(k_all, -1)
        # a score is NaN only when the node's total is not finite; then no
        # gain clears total * total / size, here or in a per-feature search
        at = proxy.argmax(1)
        best = proxy[np.arange(k_all), at]
        k = np.flatnonzero((best > -np.inf) & ~(best <= total * total / size))
        if not k.size:
            return None
        j, cut = np.divmod(at[k], w1 - w0 + 1)
        return k, feats[k, j], cut + w0, order[k, j]

    def _record(self, idx, chunk, f, cut, ordered):
        """Record the splits of chunk nodes ``idx`` and push their children."""
        r = np.arange(idx.size)
        below = self.x[ordered[r, cut - 1], f]
        above = self.x[ordered[r, cut], f]
        thr = (below + above) / 2.0
        # adjacent floats can round the midpoint up; pin the boundary so
        # "x <= threshold goes left" still separates the two groups
        thr = np.where(thr >= above, below, thr)
        for i, fi, ti, ci in zip(idx.tolist(), f.tolist(), thr.tolist(), cut.tolist()):
            size, t, nid, start = chunk[i]
            lid = self.counts[t]
            self.counts[t] = lid + 2
            self.splits.extend((t, nid, fi, lid))
            self.thresholds.append(ti)
            self.stacks[t].append((lid + 1, start + ci, size - ci))
            self.stacks[t].append((lid, start, ci))

    def _finish(self):
        """The store: node arrays from the records, and each tree's bag put into store order in place.

        A tree's leaves hold its bag's rows in node order and each leaf's
        rows ascending, so one sort by (leaf's node id, row), keyed as
        the one integer ``node id * n + row``, orders the tree's n-row
        slice of the bag (about 9x faster than ``np.lexsort`` on the two
        keys at n=5000).
        """
        counts = np.array(self.counts)
        roots = np.cumsum(counts) - counts
        feature = np.full(counts.sum(), -1, dtype=np.int32)
        threshold = np.full(feature.size, np.nan)
        left = np.full(feature.size, -1, dtype=np.int32)
        right = left.copy()
        st, snid, sf, slid = np.frombuffer(self.splits, dtype=np.intc).reshape(-1, 4).T
        at = roots[st] + snid
        feature[at], threshold[at], left[at], right[at] = sf, np.frombuffer(self.thresholds), slid, slid + 1
        lt, lnid, lstart, lsize = np.frombuffer(self.leaves, dtype=np.intc).reshape(-1, 4).T
        sizes = np.zeros(feature.size, dtype=np.int64)
        sizes[roots[lt] + lnid] = lsize
        n = self.x.shape[0]
        by_start = np.lexsort((lstart, lt))  # leaves in bag order, tree by tree
        base, lsize = lnid[by_start] * np.int64(n), lsize[by_start]
        ends = np.cumsum(np.bincount(lt, minlength=counts.size)).tolist()
        for t, (a, b) in enumerate(zip([0] + ends[:-1], ends)):
            key = np.repeat(base[a:b], lsize[a:b])
            key += self.bag[t * n : (t + 1) * n]
            key.sort()
            self.bag[t * n : (t + 1) * n] = key % n
        return _Nodes(feature, threshold, left, right, roots, np.concatenate([[0], np.cumsum(sizes)]), self.bag)


def _ranks(x):
    """Each column's dense rank among its distinct values, as a (p, n) array.

    Equal values (-0.0 and 0.0 included) share a rank and ranks increase
    with x, so sorting and comparing ranks orders rows as their floats
    do. The dtype is the smallest unsigned one that holds every rank.
    """
    codes = np.array([np.unique(col, return_inverse=True)[1] for col in x.T])
    return codes.astype(np.min_scalar_type(codes.max()))


def data_checksum(data):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(data.features).tobytes())
    h.update(np.ascontiguousarray(data.response).tobytes())
    return h.hexdigest()


def fit(data, cfg, threads=1, feature_names=None):
    """Grow a forest of cfg.n_trees bagged trees on (features, response).

    Each tree draws its own bootstrap bag (n draws with replacement) and
    its own feature subsamples from an independent stream derived from
    ``cfg.seed`` and the tree index. All trees grow in lockstep in one
    ``_Group``, whose bag becomes the forest's ``rows`` store. ``threads``
    must be at least 1 but growth is serial: a thread pool over groups of
    trees ran slower than one thread, because the Python bookkeeping
    holds the GIL. Censoring flags play no role here.
    """
    check_int("threads", threads, 1)
    if cfg.min_node_size > data.n:
        raise DataError("min_node_size exceeds the number of training rows")
    mtry = cfg.mtry if cfg.mtry is not None else math.ceil(data.p / 3)
    if mtry > data.p:
        raise DataError("mtry exceeds the number of features")
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    ranks = _ranks(data.features)
    # each rank and response gets a pad entry at row n, for _Group's padded pass
    ranks = np.column_stack([ranks, np.full(data.p, np.iinfo(ranks.dtype).max, dtype=ranks.dtype)])
    y = np.append(data.response, 0.0)
    return Forest(
        config=cfg,
        n_train=data.n,
        n_features=data.p,
        response=data.response,
        event=data.event,
        checksum=data_checksum(data),
        _nodes=_Group(data.features, ranks, y, cfg, mtry, seeds).grow(),
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
    """Leaf node id for every row of xmat in a one-tree store (an entry of ``Forest.trees``)."""
    return _descend(tree, tree.roots, xmat).astype(np.int32)


# lanes per walk: enough to spread each level's numpy calls over many
# lanes, few enough that the walk adds little to a batch's peak memory
_WALK_LANES = 1 << 14


def _weight_rows(forest, xmat):
    """Sparse weights at each row of xmat, one (index, value) pair per point.

    Each point gathers the in-bag rows of its leaf in every tree, in
    tree order and leaf-row order within a leaf (the order a tree-by-tree
    scatter adds them in), and adds 1/(trees * leaf size) per row with one
    ``bincount``. bincount adds its inputs in the order given, starting
    from zero, so the sum is bit-identical to that scatter; the indices
    are its nonzero entries, ascending. Points are walked in blocks of
    about ``_WALK_LANES`` lanes, so the walk's temporaries stay near
    1 MiB whatever the batch size. ``xmat`` must already have passed
    ``_points``.
    """
    nodes, n = forest._nodes, forest.n_train
    b = nodes.roots.size  # trees
    block = max(1, _WALK_LANES // b)
    for lo in range(0, xmat.shape[0], block):
        leaves = _descend(nodes, nodes.roots, xmat[lo : lo + block]).reshape(-1, b)
        for point_leaves in leaves:
            start = nodes.row_ptr[point_leaves]
            size = nodes.row_ptr[point_leaves + 1] - start
            gather = np.arange(size.sum()) + np.repeat(start - (np.cumsum(size) - size), size)
            mass = np.bincount(nodes.rows[gather], weights=np.repeat(1.0 / (b * size), size), minlength=n)
            index = np.flatnonzero(mass)
            yield index, mass[index]


def _points(xmat, p):
    """xmat as a finite float matrix with p columns, else DataError."""
    xmat = np.atleast_2d(np.asarray(xmat, dtype=np.float64))
    if xmat.ndim != 2 or xmat.shape[1] != p:
        raise DataError("test features have the wrong dimension")
    if not np.isfinite(xmat).all():
        raise DataError("test features must be finite")
    return xmat


def weight_matrix(forest, xmat):
    """Dense (n_test, n_train) forest-weight matrix for a batch of points."""
    xmat = _points(xmat, forest.n_features)
    out = np.zeros((xmat.shape[0], forest.n_train))
    for i, (index, value) in enumerate(_weight_rows(forest, xmat)):
        out[i, index] = value
    return out


def forest_weights(forest, x):
    """Average of the per-tree weight vectors at x (sparse result)."""
    xmat = _points(np.asarray(x, dtype=np.float64).reshape(1, -1), forest.n_features)
    index, value = next(_weight_rows(forest, xmat))
    return WeightVector(index, value, forest.n_train)


# cells of a block's (points x support width x taus) table: enough to spread
# each numpy call over many points, few enough that each table (256 KiB of
# float64) stays small next to the batch, whatever its size
_BLOCK_CELLS = 1 << 15


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


def _check_row(index, value, n):
    """DataError unless (index, value) is a weight row over n rows.

    That is: a nonempty, strictly increasing index within [0, n), and
    finite, nonnegative weights summing to one.
    """
    if (value < 0).any() or not np.isfinite(value).all():
        raise DataError("weights must be finite and nonnegative")
    if not index.size:
        raise DataError("weight vector has empty support")
    if index[0] < 0 or index[-1] >= n or (np.diff(index) <= 0).any():
        raise DataError("weight indices must be unique and within [0, n)")
    if abs(value.sum() - 1.0) > 1e-8:
        raise DataError("weights must sum to 1")


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
    indices with positive weights summing to one. They are trusted, as
    they come from one of two sources: the forest's own leaves through
    ``_weight_rows``, or a ``WeightVector``, which checked its row when it
    was built. Rows are padded to the
    widest support with index n (response +inf, event true) and weight
    0, so a stable sort leaves every pad after the real entries, a
    reversed cumsum adds only 0.0 before them and a cumprod multiplies
    only by 1.0 after them: each row's real entries get the same bits as
    the row alone.

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

    @classmethod
    def of(cls, w, y):
        """The block of one ``WeightVector`` over responses y."""
        y = np.asarray(y, dtype=np.float64)
        return cls([_row(w, y)], y)


def _row(w, y):
    """The (index, value) row of ``WeightVector`` w, else DataError if w does not span y's rows."""
    if w.n != y.size:
        raise DataError(f"weights span {w.n} rows, but there are {y.size} responses")
    return w.index, w.value


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


def support_grid(w, y):
    """Distinct support response values and the weight mass strictly above each.

    Returns ``(cands, above)`` with cands ascending and
    above[j] = sum of w_i over rows with y_i > cands[j], read from the
    same suffix sums as ``mass_above`` so downstream comparisons are
    reproducible.
    """
    sup = _Support.of(w, y)
    _, end = _groups(sup.ys, sup.nnz)
    return sup.ys[end], sup.suffix[:, 1:][end]


def mass_above(w, y, q):
    """sum_i w_i 1(y_i > q) for scalar or array q."""
    sup = _Support.of(w, y)
    q = np.asarray(q, dtype=np.float64)
    out = sup.suffix[0][np.searchsorted(sup.ys[0], q, side="right")]
    return float(out) if q.ndim == 0 else out


def quantile_from_weights(w, y, tau):
    """Smallest support value whose weighted CDF reaches tau.

    A float for one tau, an array for a sequence of taus; every level is
    read from one support grid.
    """
    scalar = np.ndim(tau) == 0
    taus = [check_tau(t) for t in ([tau] if scalar else tau)]
    y = np.asarray(y, dtype=np.float64)
    q = _weighted_quantile_table([_row(w, y)], y, taus)[0]
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
FOREST_VERSION = 2
# the arrays of a model file: the fields of ``_Nodes``, with their dtypes
_STORE = {"feature": np.int32, "threshold": np.float64, "left": np.int32, "right": np.int32,
          "roots": np.int64, "row_ptr": np.int64, "rows": np.int32}


def _digest(arrays):
    """SHA-256 over each array's name, dtype, shape and bytes, in name order.

    Each array is hashed in place through its buffer, so the digest holds
    no copy of the store.
    """
    h = hashlib.sha256()
    for name, a in sorted(arrays.items()):
        h.update(f"{name}:{a.dtype.str}:{a.shape};".encode())
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()


def save_forest(forest, path):
    """Write the forest's flat store to ``path`` (as given) as one ``.npz`` archive.

    The archive holds the ``_Nodes`` arrays under their field names and
    a 0-d string array ``header``: JSON with the format tag, version,
    config, training-data dimensions, feature names, the training-data
    checksum and the arrays' SHA-256 digest.
    """
    arrays = {k: np.asarray(getattr(forest._nodes, k), dtype=t) for k, t in _STORE.items()}
    head = {
        "format": FOREST_FORMAT,
        "version": FOREST_VERSION,
        "config": asdict(forest.config),
        "n_train": forest.n_train,
        "n_features": forest.n_features,
        "feature_names": list(forest.feature_names) if forest.feature_names else None,
        "checksum": forest.checksum,
        "digest": _digest(arrays),
    }
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(json.dumps(head)), **arrays)


_DOC_TYPES = {"n_train": int, "n_features": int, "checksum": str, "config": dict, "digest": str}
# what np.load, zipfile and json raise on bytes that are not a model archive;
# MemoryError comes from an array header claiming more elements than fit in memory
_UNREADABLE = (ValueError, KeyError, EOFError, OSError, RuntimeError, NotImplementedError, MemoryError,
               zipfile.BadZipFile)


def _has_type(value, types):
    # JSON true/false load as bool, a subclass of int, and no header field takes them
    return isinstance(value, types) and not isinstance(value, bool)


def _check_store(nodes, n_trees, p, n):
    """DataError unless the store holds ``n_trees`` valid trees over p features and n rows.

    Each check runs over all trees at once. Together they make every
    tree's walk reach each of its nodes exactly once and end at a leaf
    holding in-bag rows; pointers are compared, never subtracted, until
    they are known to be in range, so no check can overflow.
    """
    feature, left, right, roots = nodes.feature, nodes.left, nodes.right, nodes.roots
    m = feature.size
    if roots.size != n_trees:
        raise DataError(f"expected {n_trees} trees, found {roots.size}")
    if any(a.size != m for a in (nodes.threshold, left, right)) or nodes.row_ptr.size != m + 1:
        raise DataError("tree arrays must be of equal length")
    if roots[0] != 0 or (roots[1:] <= roots[:-1]).any() or roots[-1] >= m:
        raise DataError("tree roots must increase strictly from 0")
    if (feature < -1).any() or (feature >= p).any():
        raise DataError("split feature out of range")
    internal = feature >= 0
    if not np.isfinite(nodes.threshold[internal]).all() or not np.isnan(nodes.threshold[~internal]).all():
        raise DataError("thresholds must be finite on internal nodes and NaN on leaves")
    size = np.diff(np.append(roots, m))
    tree = np.tile(np.repeat(np.arange(n_trees), size)[internal], 2)
    parent = np.tile(np.flatnonzero(internal), 2) - roots[tree]
    child = np.concatenate([left[internal], right[internal]])
    if not ((child > parent) & (child < size[tree])).all() or not np.array_equal(
        np.sort(roots[tree] + child), np.setdiff1d(np.arange(m), roots)
    ):
        raise DataError("child links do not form a tree")
    ptr = nodes.row_ptr
    if (ptr[1:] < ptr[:-1]).any():
        raise DataError("row_ptr must not fall")
    if not np.array_equal(ptr[1:] > ptr[:-1], ~internal):
        raise DataError("leaf rows must be nonempty on exactly the leaves")
    per_tree = ptr[np.append(roots, m)]
    if nodes.rows.size != n_trees * n or not np.array_equal(per_tree, np.arange(n_trees + 1) * n):
        raise DataError(f"leaf rows must be {n} integers per tree")
    if (nodes.rows < 0).any() or (nodes.rows >= n).any():
        raise DataError("leaf row out of range")


def load_forest(path, data):
    """Load a model file and bind it to its training data.

    The file stores a checksum of the training arrays; a mismatch means
    the supplied data is not what the forest was fitted on. The header,
    the arrays' digest and the tree structure (``_check_store``) are all
    validated, so a corrupt file raises DataError instead of
    mispredicting or hanging. Only format version 2 is read.
    """
    with open(path, "rb") as fh:
        try:
            if fh.read(4) != b"PK\x03\x04":  # the zip signature np.savez writes first
                raise ValueError("not an .npz archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:  # a member that is not .npy data loads as bytes
                arrays = {name: np.asarray(archive[name]) for name in archive.files}
            doc = json.loads(str(arrays.pop("header")))
        except _UNREADABLE as exc:
            raise DataError(f"{path}: not a valid model file ({exc}); re-fit models saved as JSON") from None
    if not isinstance(doc, dict) or doc.get("format") != FOREST_FORMAT:
        raise DataError(f"{path}: unrecognized model format")
    if doc.get("version") != FOREST_VERSION:
        raise DataError(f"{path}: unsupported model version {doc.get('version')!r}; re-fit the model")
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
    if set(config) != {f.name for f in fields(ForestConfig)}:
        raise DataError(f"{path}: malformed forest config")
    if set(arrays) != set(_STORE) or any(arrays[k].dtype != t or arrays[k].ndim != 1 for k, t in _STORE.items()):
        raise DataError(f"{path}: model arrays must be the 1-d {', '.join(_STORE)} of their saved dtypes")
    if doc["digest"] != _digest(arrays):
        raise DataError(f"{path}: model arrays do not match their digest")
    nodes = _Nodes(**arrays)
    try:
        cfg = ForestConfig(**config)
        _check_store(nodes, cfg.n_trees, data.p, data.n)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return Forest(
        config=cfg,
        n_train=data.n,
        n_features=data.p,
        response=data.response,
        event=data.event,
        checksum=doc["checksum"],
        _nodes=nodes,
        feature_names=tuple(names) if names else None,
    )
