import hashlib
import json
import math
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest

from cqforest import forest as forest_module
from cqforest.data import DataError, Dataset, SimConfig, simulate
from cqforest.forest import (
    Forest,
    ForestConfig,
    WeightVector,
    apply,
    data_checksum,
    fit,
    forest_weights,
    load_forest,
    mass_above,
    quantile_from_weights,
    save_forest,
    support_grid,
    weight_matrix,
    weighted_mean,
    weighted_quantile,
    _check_store,
    _descend,
    _Nodes,
    _ranks,
)

from _oracles import differing_trees, reference_trees, scattered_weights, tree_leaves, weighted_quantile_grid


def toy_dataset(n=60, p=1, seed=0, model="aft1d"):
    return simulate(SimConfig(model=model, n=n, censor_rate_param=0.1, seed=seed))


def leaf_bags(tree):
    """The in-bag rows of each leaf of a one-tree store, in node order, bootstrap multiplicity included."""
    return [r for r in np.split(tree.rows, tree.row_ptr[1:-1]) if r.size]


def uncensored(features, response):
    features = np.asarray(features, dtype=np.float64)
    response = np.asarray(response, dtype=np.float64)
    return Dataset(features=features, response=response, event=np.ones(response.size, dtype=bool))


class TestConfig:
    def test_validation(self):
        with pytest.raises(DataError):
            ForestConfig(min_node_size=0)
        with pytest.raises(DataError):
            ForestConfig(min_node_size=1, n_trees=0)
        with pytest.raises(DataError):
            ForestConfig(min_node_size=1, mtry=0)
        with pytest.raises(DataError):
            ForestConfig(min_node_size=1, min_child_fraction=0.6)

    @pytest.mark.parametrize("kwargs", [
        dict(min_node_size=2.5), dict(mtry=1.0), dict(n_trees=True), dict(seed=-1), dict(bootstrap="yes"),
        dict(bootstrap=1), dict(min_child_fraction=True), dict(min_child_fraction="0.2"),
        dict(min_child_fraction=float("nan")),
    ])
    def test_rejects_wrong_types(self, kwargs):
        with pytest.raises(DataError):
            ForestConfig(**{"min_node_size": 1, **kwargs})

    def test_numpy_fields_stored_as_python_and_saved(self, tmp_path):
        d = toy_dataset(n=40)
        cfg = ForestConfig(min_node_size=np.int64(5), n_trees=np.int32(2), mtry=np.uint8(1),
                           min_child_fraction=np.float32(0.2), bootstrap=np.True_, seed=np.int64(3))
        assert [type(v) for v in astuple(cfg)] == [int, int, int, float, bool, int]
        save_forest(fit(d, cfg), tmp_path / "m.npz")
        assert load_forest(tmp_path / "m.npz", d).config == cfg

    def test_fit_rejects_impossible_sizes(self):
        d = toy_dataset(n=10)
        with pytest.raises(DataError):
            fit(d, ForestConfig(min_node_size=11, n_trees=1))
        with pytest.raises(DataError):
            fit(d, ForestConfig(min_node_size=1, n_trees=1, mtry=2))


def assert_threads_agree():
    """A forest's store is the same, byte for byte, at 1, 2 and 4 threads."""
    d = toy_dataset(n=150, seed=8, model="aft-multi")
    cfg = ForestConfig(min_node_size=4, n_trees=12, mtry=2, seed=9)
    stores = [fit(d, cfg, threads=k)._nodes for k in (1, 2, 4)]
    for key in ("feature", "threshold", "left", "right", "roots", "row_ptr", "rows"):
        first = getattr(stores[0], key)
        for other in stores[1:]:
            assert getattr(other, key).dtype == first.dtype
            assert getattr(other, key).tobytes() == first.tobytes(), key


class TestGrowth:
    def test_hand_split(self):
        # variance reduction is maximized by separating the two response
        # clusters; threshold is the midpoint of the middle gap
        d = uncensored([[0.0], [1.0], [2.0], [3.0]], [0.0, 0.0, 10.0, 10.0])
        f = fit(d, ForestConfig(min_node_size=1, n_trees=1, mtry=1, bootstrap=False, seed=0))
        tree = f.trees[0]
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 1.5
        assert (tree.left[0], tree.right[0]) == (1, 2)
        assert tree.row_ptr.tolist() == [0, 0, 2, 4] and tree.rows.tolist() == [0, 1, 2, 3]

    def test_single_row(self):
        d = uncensored([[1.0]], [5.0])
        f = fit(d, ForestConfig(min_node_size=1, n_trees=3, seed=1))
        for tree in f.trees:
            assert tree.feature.tolist() == [-1]
            assert tree.row_ptr.tolist() == [0, 1] and tree.rows.tolist() == [0]

    def test_constant_response_single_leaf(self):
        d = uncensored(np.linspace(0, 1, 100).reshape(-1, 1), np.full(100, 7.0))
        f = fit(d, ForestConfig(min_node_size=1, n_trees=5, seed=2))
        for tree in f.trees:
            assert len(tree.feature) == 1 and tree.feature[0] == -1

    def test_leaves_partition_bag_and_respect_node_size(self):
        d = toy_dataset(n=90, seed=4)
        cfg = ForestConfig(min_node_size=7, n_trees=20, seed=5)
        f = fit(d, cfg)
        # fit draws tree t's bootstrap bag first from its own spawned stream
        seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
        for tree, seq in zip(f.trees, seeds):
            assert all(len(r) >= cfg.min_node_size for r in leaf_bags(tree))
            bag = np.random.default_rng(seq).integers(0, d.n, size=d.n)
            assert np.array_equal(np.sort(tree.rows), np.sort(bag))
            # internal nodes route left iff x <= threshold; spot-check by
            # dropping every training point down the tree
            leaves = apply(tree, d.features)
            for i, leaf in enumerate(leaves):
                assert tree.feature[leaf] == -1

    def test_child_fraction_constraint(self):
        d = toy_dataset(n=100, seed=6)
        cfg = ForestConfig(min_node_size=2, n_trees=10, min_child_fraction=0.3, seed=7)
        f = fit(d, cfg)

        def node_sizes(tree):
            # reconstruct per-node row counts by routing the bag
            sizes = {}
            xb = d.features[tree.rows]
            for xi in xb:
                nid = 0
                while True:
                    sizes[nid] = sizes.get(nid, 0) + 1
                    if tree.feature[nid] < 0:
                        break
                    nid = tree.left[nid] if xi[tree.feature[nid]] <= tree.threshold[nid] else tree.right[nid]
            return sizes

        for tree in f.trees[:3]:
            sizes = node_sizes(tree)
            for nid in range(len(tree.feature)):
                if tree.feature[nid] >= 0:
                    parent = sizes[nid]
                    for child in (tree.left[nid], tree.right[nid]):
                        assert sizes[child] >= 0.3 * parent - 1e-9

    def test_threads_do_not_change_result(self):
        assert_threads_agree()

    def test_fit_holds_little_beyond_the_forest(self):
        # the bag is the forest's own store, the split and leaf records are
        # flat int32 arrays (16 bytes a record), and a scoring pass's
        # temporaries are capped by its cell cap; at 200 trees (the cli
        # scale) the peak above the kept forest reads 1.77 MiB, and 2.27
        # MiB with int64 records, so the bound keeps the records compact
        d = toy_dataset(n=5000, seed=10, model="aft-multi")
        for n_trees, bound_mib in ((20, 2.0), (200, 2.2)):
            tracemalloc.start()
            try:
                forest = fit(d, ForestConfig(min_node_size=50, n_trees=n_trees, seed=11))
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert forest.trees and (peak - kept) / 2**20 < bound_mib, (n_trees, kept, peak)


def tie_heavy(model, n, seed):
    """A draw with x and y rounded to one decimal, x zero on the first tenth of rows and -0.0 on the first thirtieth."""
    d = simulate(SimConfig(model=model, n=n, censor_rate_param=0.1, seed=seed))
    x = np.round(d.features, 1)
    x[: n // 10] = 0.0
    x[: n // 30] = -0.0
    return uncensored(x, np.round(d.response, 1))


def _corpus():
    for model in ("aft1d", "sine1d", "aft-multi", "complex"):
        plain = toy_dataset(n=300, seed=41, model=model)
        yield pytest.param(plain, ForestConfig(min_node_size=5, n_trees=6, seed=42), id=model)
        ties = tie_heavy(model, 300, 43)
        cfg = ForestConfig(min_node_size=1, n_trees=4, mtry=1, seed=44)
        yield pytest.param(ties, cfg, id=f"{model}-ties-mtry1")
        cfg = ForestConfig(min_node_size=2, n_trees=3, mtry=ties.p, bootstrap=False, seed=45)
        yield pytest.param(ties, cfg, id=f"{model}-ties-full-nobag")


class TestRankSplits:
    """The rank-coded lockstep grower against the float-sort reference in _oracles."""

    @pytest.mark.parametrize("data,cfg", list(_corpus()))
    def test_trees_equal_float_sort_reference(self, data, cfg):
        mtry = cfg.mtry or math.ceil(data.p / 3)
        forest = fit(data, cfg)
        assert differing_trees(forest.trees, reference_trees(data.features, data.response, cfg, mtry)) == []

    def test_wide_ranks_tree_equals_reference(self):
        d = toy_dataset(n=70_000, seed=46)
        assert _ranks(d.features).dtype == np.uint32
        cfg = ForestConfig(min_node_size=3000, n_trees=1, seed=47)
        forest = fit(d, cfg)
        assert differing_trees(forest.trees, reference_trees(d.features, d.response, cfg, 1)) == []

    @pytest.mark.parametrize("caps", [
        pytest.param({"_CHUNK_CELLS": 1}, id="one-node-per-chunk"),
        pytest.param({"_CHUNK_CELLS": 1 << 40, "_PAD_CELLS": 1 << 40}, id="one-chunk-per-step"),
    ])
    @pytest.mark.parametrize("data,cfg", list(_corpus()))
    def test_caps_do_not_change_trees(self, data, cfg, caps, monkeypatch):
        for name, value in caps.items():
            monkeypatch.setattr(forest_module, name, value)
        mtry = cfg.mtry or math.ceil(data.p / 3)
        forest = fit(data, cfg)
        assert differing_trees(forest.trees, reference_trees(data.features, data.response, cfg, mtry)) == []

    @pytest.mark.parametrize("distinct,dtype,n", [(256, np.uint8, 1024), (65_536, np.uint16, 65_536)])
    def test_pad_rank_ties_the_largest_rank(self, distinct, dtype, n, monkeypatch):
        # the pad takes the rank dtype's largest value, which here is also the
        # largest real rank; every step is one chunk, so most nodes are padded
        monkeypatch.setattr(forest_module, "_CHUNK_CELLS", 1 << 40)
        monkeypatch.setattr(forest_module, "_PAD_CELLS", 1 << 40)
        rng = np.random.default_rng(distinct)
        x = rng.permutation(np.arange(n) % distinct).astype(np.float64).reshape(-1, 1)
        d = uncensored(x, np.round(rng.normal(size=n), 1))
        assert _ranks(d.features).dtype == dtype and _ranks(d.features).max() == np.iinfo(dtype).max
        cfg = ForestConfig(min_node_size=max(5, n // 40), n_trees=4, seed=48)
        forest = fit(d, cfg)
        assert differing_trees(forest.trees, reference_trees(d.features, d.response, cfg, 1)) == []

    def test_overflowing_sums_equal_reference(self):
        # node totals and running sums reach +-inf, so some split scores are NaN
        rng = np.random.default_rng(49)
        x = rng.integers(0, 5, size=(40, 3)).astype(np.float64)
        d = uncensored(x, rng.choice([1e308, -1e308, 1.7e308, 1.0, -5e307], size=40))
        for mtry in (1, 2, 3):
            cfg = ForestConfig(min_node_size=2, n_trees=8, mtry=mtry, seed=50 + mtry)
            with np.errstate(over="ignore", invalid="ignore"):
                forest = fit(d, cfg)
                refs = reference_trees(d.features, d.response, cfg, mtry)
            assert differing_trees(forest.trees, refs) == []

    @pytest.mark.parametrize("distinct,dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16),
                                                (65_536, np.uint16), (65_537, np.uint32)])
    def test_rank_dtype_holds_every_rank(self, distinct, dtype):
        col = np.arange(distinct, dtype=np.float64)[::-1]
        ranks = _ranks(np.column_stack([col, np.zeros(distinct)]))
        assert ranks.dtype == dtype and ranks.shape == (2, distinct)
        assert np.array_equal(ranks[0], np.arange(distinct)[::-1]) and not ranks[1].any()

    def test_signed_zeros_and_ties_share_a_rank(self):
        ranks = _ranks(np.array([[0.5], [-0.0], [0.0], [-1.0], [0.5], [-0.0]]))
        assert ranks.tolist() == [[2, 1, 1, 0, 2, 1]]


class TestWeightVector:
    def test_validation(self):
        with pytest.raises(DataError):
            WeightVector([0, 1], [0.6, 0.6], 2)  # sums to 1.2
        with pytest.raises(DataError):
            WeightVector([0, 0], [0.5, 0.5], 2)  # duplicate index
        with pytest.raises(DataError):
            WeightVector([1, 0, 1], [0.25, 0.5, 0.25], 2)  # duplicate index, unsorted
        with pytest.raises(DataError):
            WeightVector([0, 5], [0.5, 0.5], 3)  # out of range
        with pytest.raises(DataError):
            WeightVector([0], [-1.0], 1)
        with pytest.raises(DataError):
            WeightVector([], [], 4)  # empty support

    def test_dense_round_trip(self):
        w = WeightVector.from_dense([0.0, 0.25, 0.75, 0.0])
        assert np.array_equal(w.index, [1, 2])
        assert np.array_equal(w.dense(), [0.0, 0.25, 0.75, 0.0])
        u = WeightVector.uniform_subset([3, 1], 5)
        assert np.array_equal(u.index, [1, 3]) and np.array_equal(u.value, [0.5, 0.5])


class TestWeights:
    def test_single_leaf_uniform(self):
        d = uncensored(np.arange(10.0).reshape(-1, 1), np.arange(10.0))
        f = fit(d, ForestConfig(min_node_size=10, n_trees=1, bootstrap=False, seed=0))
        w = forest_weights(f, [4.0])
        assert np.array_equal(w.dense(), np.full(10, 0.1))

    def test_two_point_leaf(self):
        d = uncensored([[0.0], [1.0], [2.0], [3.0]], [0.0, 0.0, 10.0, 10.0])
        f = fit(d, ForestConfig(min_node_size=1, n_trees=1, mtry=1, bootstrap=False, seed=0))
        w = forest_weights(f, [2.5])
        assert np.array_equal(w.index, [2, 3])
        assert np.array_equal(w.value, [0.5, 0.5])

    def test_bootstrap_multiplicity(self):
        # a row duplicated in the bag gets proportionally larger weight
        d = uncensored([[0.0], [1.0]], [0.0, 1.0])
        f = fit(d, ForestConfig(min_node_size=2, n_trees=1, seed=3))
        counts = np.bincount(f.trees[0].rows, minlength=2)
        w = forest_weights(f, [0.0])
        assert np.array_equal(w.dense(), counts / 2.0)

    def test_apply_skips_nodes_no_row_reaches(self):
        # node 2 splits on a feature these rows lack; walking into it with an
        # empty row set would index out of bounds
        nan = np.nan
        tree = _Nodes(
            feature=np.array([0, -1, 7, -1, -1], dtype=np.int32),
            threshold=np.array([0.5, nan, 0.0, nan, nan]),
            left=np.array([1, -1, 3, -1, -1], dtype=np.int32),
            right=np.array([2, -1, 4, -1, -1], dtype=np.int32),
            roots=np.zeros(1, dtype=np.int64),
            row_ptr=np.array([0, 0, 1, 1, 2, 3]),
            rows=np.array([0, 1, 2], dtype=np.int32),
        )
        assert np.array_equal(apply(tree, np.array([[0.1], [0.2]])), [1, 1])

    def test_forest_weights_average_trees(self):
        d = toy_dataset(n=40, seed=11)
        f = fit(d, ForestConfig(min_node_size=5, n_trees=7, seed=12))
        x = np.array([0.7])
        # each tree's own weights, 1/|leaf| on its co-leafed in-bag rows
        dense = np.mean([scattered_weights([tree], x[None, :], d.n)[0] for tree in f.trees], axis=0)
        assert forest_weights(f, x).dense() == pytest.approx(dense, abs=1e-15)

    def test_weight_matrix_matches_per_point(self):
        d = toy_dataset(n=50, seed=13)
        f = fit(d, ForestConfig(min_node_size=5, n_trees=9, seed=14))
        xs = d.features[:6]
        mat = weight_matrix(f, xs)
        for i in range(6):
            assert np.array_equal(mat[i], forest_weights(f, xs[i]).dense())

    def test_normalization_and_leaf_bound(self):
        d = toy_dataset(n=70, seed=15)
        f = fit(d, ForestConfig(min_node_size=6, n_trees=15, seed=16))
        min_leaf = min(len(r) for t in f.trees for r in leaf_bags(t))
        # bagging duplicates inflate a single row's weight by its in-leaf
        # multiplicity, so the 1/min_leaf bound scales by the worst one
        max_dup = max(int(np.bincount(t.rows).max()) for t in f.trees)
        rng = np.random.default_rng(17)
        for _ in range(25):
            x = rng.uniform(0, 2, 1)
            w = forest_weights(f, x)
            assert abs(w.value.sum() - 1.0) <= 1e-10
            assert (w.value >= 0).all()
            assert w.value.max() <= max_dup / min_leaf + 1e-12

    def test_leaf_bound_without_bootstrap(self):
        # with multiplicities gone the classic bound is exact
        d = toy_dataset(n=70, seed=15)
        f = fit(d, ForestConfig(min_node_size=6, n_trees=15, bootstrap=False, seed=16))
        min_leaf = min(len(r) for t in f.trees for r in leaf_bags(t))
        rng = np.random.default_rng(17)
        for _ in range(25):
            w = forest_weights(f, rng.uniform(0, 2, 1))
            assert w.value.max() <= 1.0 / min_leaf + 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(18)
        x_train = rng.uniform(0, 2, (40, 2))
        y_train = rng.normal(size=40)
        d1 = uncensored(x_train, y_train)
        perm = rng.permutation(40)
        d2 = uncensored(x_train[perm], y_train[perm])
        cfg = ForestConfig(min_node_size=4, n_trees=3, mtry=2, bootstrap=False, seed=19)
        f1, f2 = fit(d1, cfg), fit(d2, cfg)
        for x in rng.uniform(0, 2, (5, 2)):
            w1 = forest_weights(f1, x).dense()
            w2 = forest_weights(f2, x).dense()
            assert np.array_equal(w2, w1[perm])


class TestFlatWalkAndScatter:
    """The lane walk and per-point bincount against the stack walk and per-tree scatter."""

    @pytest.fixture(scope="class")
    def multi(self):
        d = toy_dataset(n=300, seed=30, model="aft-multi")
        f = fit(d, ForestConfig(min_node_size=5, n_trees=25, seed=31))
        xs = toy_dataset(n=40, seed=32, model="aft-multi").features
        return d, f, xs

    def test_bootstrap_duplicates_present(self, multi):
        _, f, _ = multi
        assert any(np.unique(r).size < r.size for t in f.trees for r in leaf_bags(t))

    def test_weight_matrix_bytes(self, multi):
        d, f, xs = multi
        assert weight_matrix(f, xs).tobytes() == scattered_weights(f.trees, xs, d.n).tobytes()
        # a batch of one point
        assert weight_matrix(f, xs[:1]).tobytes() == scattered_weights(f.trees, xs[:1], d.n).tobytes()

    def test_forest_weights_bytes(self, multi):
        d, f, xs = multi
        ref = scattered_weights(f.trees, xs[:10], d.n)
        for x, row in zip(xs[:10], ref):
            assert forest_weights(f, x).dense().tobytes() == row.tobytes()

    def test_tree_weights_bytes(self, multi):
        # a one-tree store is a forest's store: the forest of one tree gives that tree's weights
        d, f, xs = multi
        for tree in f.trees[:8]:
            one = replace(f, config=replace(f.config, n_trees=1), _nodes=tree)
            ref = scattered_weights([tree], xs[:1], d.n)[0]
            assert forest_weights(one, xs[0]).dense().tobytes() == ref.tobytes()

    def test_apply_matches_stack_walk(self, multi):
        d, f, xs = multi
        for tree in f.trees:
            assert np.array_equal(apply(tree, xs), tree_leaves(tree, xs))
            assert np.array_equal(apply(tree, d.features), tree_leaves(tree, d.features))

    def test_one_tree_forest(self):
        d = toy_dataset(n=80, seed=33, model="aft-multi")
        f = fit(d, ForestConfig(min_node_size=4, n_trees=1, seed=34))
        xs = d.features[:15]
        assert weight_matrix(f, xs).tobytes() == scattered_weights(f.trees, xs, d.n).tobytes()

    def test_loaded_forest(self, multi, tmp_path):
        d, f, xs = multi
        path = tmp_path / "model.json"
        save_forest(f, path)
        g = load_forest(path, d)
        assert weight_matrix(g, xs).tobytes() == scattered_weights(f.trees, xs, d.n).tobytes()

    def test_trees_are_views_of_the_flat_store(self, multi, tmp_path):
        d, f, _ = multi
        path = tmp_path / "model.json"
        save_forest(f, path)
        for forest in (f, load_forest(path, d)):
            nodes = forest._nodes
            for tree in forest.trees:
                assert isinstance(tree, _Nodes)
                for key in ("feature", "threshold", "left", "right", "rows"):
                    assert np.shares_memory(getattr(tree, key), getattr(nodes, key))

    @pytest.mark.parametrize("bootstrap", [True, False], ids=["bootstrap", "no-bootstrap"])
    def test_trees_are_valid_one_tree_stores(self, bootstrap, tmp_path):
        d = toy_dataset(n=200, seed=37, model="aft-multi")
        f = fit(d, ForestConfig(min_node_size=5, n_trees=12, bootstrap=bootstrap, seed=38))
        xs = toy_dataset(n=30, seed=39, model="aft-multi").features
        path = tmp_path / "model.npz"
        save_forest(f, path)
        for forest in (f, load_forest(path, d)):
            nodes = forest._nodes
            walked = _descend(nodes, nodes.roots, xs).reshape(xs.shape[0], -1)
            assert len(forest.trees) == nodes.roots.size
            for t, tree in enumerate(forest.trees):
                _check_store(tree, 1, d.p, d.n)
                assert np.array_equal(apply(tree, xs), walked[:, t] - nodes.roots[t])

    def test_trees_are_built_on_first_use(self, tmp_path):
        d = toy_dataset(n=80, seed=35, model="aft-multi")
        f = fit(d, ForestConfig(min_node_size=4, n_trees=3, seed=36))
        path = tmp_path / "model.json"
        save_forest(f, path)
        for forest in (f, load_forest(path, d)):
            weight_matrix(forest, d.features[:5])  # the walk reads the flat store only
            assert "trees" not in vars(forest)
            assert len(forest.trees) == 3 and "trees" in vars(forest)


def stacked(trees):
    """One store holding the one-tree stores ``trees`` back to back, as ``fit`` lays out a forest."""
    return _Nodes(
        *(np.concatenate([getattr(t, k) for t in trees]) for k in ("feature", "threshold", "left", "right")),
        roots=np.cumsum([0] + [t.feature.size for t in trees[:-1]]),
        row_ptr=np.cumsum([0] + [c for t in trees for c in np.diff(t.row_ptr)]),
        rows=np.concatenate([t.rows for t in trees]),
    )


def on_thresholds(tree):
    """One point per internal node of a one-feature tree, at that node's threshold: it reaches the node and ties it."""
    return tree.threshold[tree.feature >= 0].reshape(-1, 1)


def leaves_by_tree(nodes, xmat):
    """The fixed-depth walk's leaves, (points, trees), as tree-local ids."""
    return _descend(nodes, nodes.roots, xmat).reshape(xmat.shape[0], -1) - nodes.roots


class TestFixedDepthWalk:
    """The fixed-depth walk against the stack walk in _oracles, on the grower corpus and on hand-built stores."""

    @pytest.mark.parametrize("data,cfg", list(_corpus()))
    def test_leaves_equal_stack_walk(self, data, cfg):
        forest = fit(data, cfg)
        xs = np.concatenate([data.features, toy_dataset(n=50, seed=46, model="complex").features[:, : data.p]])
        walked = leaves_by_tree(forest._nodes, xs)
        for t, tree in enumerate(forest.trees):
            assert np.array_equal(walked[:, t], tree_leaves(tree, xs))
            assert np.array_equal(apply(tree, xs), tree_leaves(tree, xs))

    @pytest.mark.parametrize("model", ["aft1d", "sine1d"])
    def test_points_on_a_threshold_go_left(self, model):
        d = tie_heavy(model, 300, 47)
        forest = fit(d, ForestConfig(min_node_size=1, n_trees=5, seed=48))
        for tree in forest.trees:
            xs = on_thresholds(tree)
            assert xs.size
            assert np.array_equal(apply(tree, xs), tree_leaves(tree, xs))
        xs = np.concatenate([on_thresholds(tree) for tree in forest.trees])
        walked = leaves_by_tree(forest._nodes, xs)
        for t, tree in enumerate(forest.trees):
            assert np.array_equal(walked[:, t], tree_leaves(tree, xs))

    def test_single_leaf_trees(self):
        d = toy_dataset(n=40, seed=49, model="aft-multi")
        leaf = fit(d, ForestConfig(min_node_size=40, n_trees=3, seed=50))
        assert leaf._nodes.walk[2] == 0 and all(tree.feature.tolist() == [-1] for tree in leaf.trees)
        xs = toy_dataset(n=9, seed=51, model="aft-multi").features
        assert np.array_equal(_descend(leaf._nodes, leaf._nodes.roots, xs), np.tile([0, 1, 2], 9))
        assert np.array_equal(apply(leaf.trees[1], xs), np.zeros(9))
        # depth-0 trees among deep ones: a leaf root steps back to itself for the deep trees' depth
        deep = fit(d, ForestConfig(min_node_size=2, n_trees=3, seed=52))
        trees = [leaf.trees[0], deep.trees[0], leaf.trees[1], deep.trees[1], deep.trees[2], leaf.trees[2]]
        nodes = stacked(trees)
        _check_store(nodes, len(trees), d.p, d.n)
        assert nodes.walk[2] == max(tree.walk[2] for tree in trees) > 0
        walked = leaves_by_tree(nodes, xs)
        for t, tree in enumerate(trees):
            assert np.array_equal(walked[:, t], tree_leaves(tree, xs))

    def test_walk_tables(self):
        d = toy_dataset(n=120, seed=53, model="aft-multi")
        f = fit(d, ForestConfig(min_node_size=3, n_trees=4, seed=54))
        nodes = f._nodes
        child, feature, depth = nodes.walk
        assert nodes.walk is nodes.walk  # derived once per store
        assert child.dtype == feature.dtype == np.int32
        assert (child.nbytes + feature.nbytes) / nodes.feature.size == 12
        internal = nodes.feature >= 0
        g = np.arange(nodes.feature.size)
        root = nodes.roots[np.searchsorted(nodes.roots, g, side="right") - 1]
        assert np.array_equal(child[0::2], np.where(internal, root + nodes.left, g))
        assert np.array_equal(child[1::2], np.where(internal, root + nodes.right, g))
        assert np.array_equal(feature, np.where(internal, nodes.feature, 0))
        # depth: the longest root-to-leaf path of any tree
        level = {int(r): 0 for r in nodes.roots}
        for node in g:  # children come after their parent
            if internal[node]:
                level[int(child[2 * node])] = level[int(child[2 * node + 1])] = level[int(node)] + 1
        assert depth == max(level.values())

    @pytest.mark.parametrize("n,dtype", [(255, np.uint8), (256, np.uint16), (65_535, np.uint16),
                                         (65_536, np.uint32)])
    def test_rows_in_the_smallest_dtype_holding_n(self, n, dtype, tmp_path):
        # the dtype holds the pad row n of growth as well as every row
        d = uncensored(np.arange(n, dtype=np.float64).reshape(-1, 1) % 7, np.arange(n) % 5)
        small = n < 1000
        cfg = ForestConfig(min_node_size=5 if small else n, n_trees=3 if small else 1, seed=55)
        f = fit(d, cfg)
        path = tmp_path / "model.npz"
        save_forest(f, path)
        with np.load(path) as archive:
            assert archive["rows"].dtype == np.int32
        g = load_forest(path, d)
        for nodes in (f._nodes, g._nodes):
            assert nodes.rows.dtype == dtype and nodes.rows.size == cfg.n_trees * n
            assert np.array_equal(nodes.rows, f._nodes.rows)
        if small:
            assert differing_trees(f.trees, reference_trees(d.features, d.response, cfg, 1)) == []


class TestSupportGrid:
    def test_distinct_sorted_and_mass(self):
        y = np.array([3.0, 1.0, 2.0, 2.0, 5.0])
        w = WeightVector.from_dense([0.1, 0.2, 0.3, 0.15, 0.25])
        cands, above = support_grid(w, y)
        assert np.array_equal(cands, [1.0, 2.0, 3.0, 5.0])
        brute = [sum(wv for yv, wv in zip(y, w.dense()) if yv > c) for c in cands]
        assert above == pytest.approx(brute, abs=1e-12)
        assert above[-1] == 0.0

    def test_mass_above_arbitrary_points(self):
        y = np.array([1.0, 2.0, 3.0])
        w = WeightVector.uniform(3)
        qs = np.array([0.0, 1.0, 1.5, 3.0, 9.0])
        got = mass_above(w, y, qs)
        assert got == pytest.approx([1.0, 2 / 3, 2 / 3, 0.0, 0.0], abs=1e-12)
        assert mass_above(w, y, 2.0) == pytest.approx(1 / 3, abs=1e-12)


class TestWeightedQuantile:
    def test_uniform_four(self):
        assert quantile_from_weights(WeightVector.uniform(4), np.array([1.0, 2.0, 3.0, 4.0]), 0.5) == 2.0

    def test_uniform_five(self):
        # pinned against brute-force pinball minimization over the grid
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert quantile_from_weights(WeightVector.uniform(5), y, 0.5) == 3.0

    def test_point_mass(self):
        w = WeightVector.from_dense([0.0, 1.0, 0.0])
        y = np.array([4.0, 8.0, 15.0])
        for tau in (0.1, 0.5, 0.9):
            assert quantile_from_weights(w, y, tau) == 8.0

    def test_matches_pinball_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            n = int(rng.integers(2, 25))
            y = np.round(rng.normal(size=n), 2)  # induce occasional ties
            raw = rng.uniform(0.1, 1.0, n)
            w = WeightVector.from_dense(raw / raw.sum())
            tau = float(rng.uniform(0.05, 0.95))
            got = quantile_from_weights(w, y, tau)
            assert got == weighted_quantile_grid(y, w.dense(), tau)

    def test_grid_equals_scalar_calls(self):
        rng = np.random.default_rng(35)
        taus = (0.9, 0.05, 0.5, 0.25, 0.5 + 1e-12, 0.1, 0.99, 0.5, 0.75)  # any order, repeats too
        cases = []
        for _ in range(20):
            n = int(rng.integers(2, 30))
            raw = rng.uniform(0.1, 1.0, n)
            cases.append((rng.normal(size=n), raw / raw.sum()))  # random weights
            cases.append((rng.integers(0, 3, n).astype(float), raw / raw.sum()))  # tie-heavy responses
        cases.append((np.array([4.0, 8.0, 15.0]), np.array([0.0, 1.0, 0.0])))  # one-row support
        for y, dense in cases:
            w = WeightVector.from_dense(dense)
            grid = quantile_from_weights(w, y, taus)
            assert isinstance(grid, np.ndarray) and grid.shape == (len(taus),)
            for q, tau in zip(grid, taus):
                scalar = quantile_from_weights(w, y, tau)
                assert isinstance(scalar, float)
                assert q == scalar
                assert q == weighted_quantile_grid(y, w.dense(), tau)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, np.nan, "half", None])
    def test_grid_rejects_bad_levels(self, bad):
        w = WeightVector.uniform(3)
        y = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DataError):
            quantile_from_weights(w, y, bad)
        with pytest.raises(DataError):
            quantile_from_weights(w, y, [0.1, bad, 0.9])

    def test_monotone_in_tau(self):
        d = toy_dataset(n=60, seed=21)
        f = fit(d, ForestConfig(min_node_size=6, n_trees=10, seed=22))
        qs = [weighted_quantile(f, [1.0], t) for t in np.linspace(0.05, 0.95, 19)]
        assert all(b >= a for a, b in zip(qs, qs[1:]))

    def test_rejects_bad_tau(self):
        d = toy_dataset(n=20, seed=23)
        f = fit(d, ForestConfig(min_node_size=5, n_trees=2, seed=0))
        with pytest.raises(DataError):
            weighted_quantile(f, [1.0], 1.0)


class TestWeightedMean:
    def test_single_leaf_equals_sample_mean(self):
        y = np.linspace(-3, 5, 30)
        d = uncensored(np.linspace(0, 1, 30).reshape(-1, 1), y)
        f = fit(d, ForestConfig(min_node_size=30, n_trees=1, bootstrap=False, seed=0))
        assert weighted_mean(f, [0.5]) == pytest.approx(y.mean(), rel=1e-14)


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        d = toy_dataset(n=45, seed=24)
        f = fit(d, ForestConfig(min_node_size=5, n_trees=6, seed=25), feature_names=("x1",))
        path = tmp_path / "model.json"
        save_forest(f, path)
        g = load_forest(path, d)
        assert g.config == f.config
        assert g.feature_names == ("x1",)
        xs = d.features[:5]
        assert np.array_equal(weight_matrix(g, xs), weight_matrix(f, xs))
        assert len(f.trees) == len(g.trees)
        for tree_a, tree_b in zip(f.trees, g.trees):
            for key in ("feature", "threshold", "left", "right", "roots", "row_ptr", "rows"):
                a, b = getattr(tree_a, key), getattr(tree_b, key)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key

    def test_archive_holds_the_flat_store(self, tmp_path):
        d = toy_dataset(n=60, seed=28, model="aft-multi")
        f = fit(d, ForestConfig(min_node_size=5, n_trees=4, seed=29), feature_names=tuple("abcde"))
        assert f.config.mtry is None
        path = tmp_path / "model.json"
        save_forest(f, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]  # the path is kept as given
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        head = json.loads(str(arrays.pop("header")))
        assert list(arrays) == ["feature", "threshold", "left", "right", "roots", "row_ptr", "rows"]
        for name, a in arrays.items():  # by value: the file's rows are int32, the store's compact
            assert np.array_equal(a, getattr(f._nodes, name), equal_nan=True), name
        assert arrays["rows"].dtype == np.int32
        digest = head.pop("digest")
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
        assert head == {
            "format": "cqforest-forest",
            "version": 2,
            "config": {
                "min_node_size": 5,
                "n_trees": 4,
                "mtry": None,
                "min_child_fraction": f.config.min_child_fraction,
                "bootstrap": True,
                "seed": 29,
            },
            "n_train": d.n,
            "n_features": d.p,
            "feature_names": list("abcde"),
            "checksum": data_checksum(d),
        }

    def test_digest_hashes_arrays_in_place(self):
        # a cli-scale store (200 trees of 5000 rows): copying each array to
        # bytes before hashing peaked at 7.6 MiB, two copies of ``rows``
        arrays = {"rows": np.arange(200 * 5000, dtype=np.int32) % 5000, "row_ptr": np.arange(30_405),
                  "threshold": np.linspace(0.0, 1.0, 30_404)}
        tracemalloc.start()
        try:
            digest = forest_module._digest(arrays)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < arrays["rows"].nbytes / 8, peak
        # the same digest as hashing copies, so model files saved before still load
        h = hashlib.sha256()
        for name, a in sorted(arrays.items()):
            h.update(f"{name}:{a.dtype.str}:{a.shape};".encode() + a.tobytes())
        assert digest == h.hexdigest()

    def test_checksum_guards_against_wrong_data(self, tmp_path):
        d = toy_dataset(n=30, seed=26)
        other = toy_dataset(n=30, seed=27)
        f = fit(d, ForestConfig(min_node_size=5, n_trees=2, seed=0))
        path = tmp_path / "model.json"
        save_forest(f, path)
        with pytest.raises(DataError, match="does not match"):
            load_forest(path, other)

    def test_rejects_foreign_files(self, tmp_path):
        d = toy_dataset(n=10, seed=0)
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        with pytest.raises(DataError, match="not a valid model file"):
            load_forest(bad, d)
        bad.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(DataError, match="re-fit"):
            load_forest(bad, d)
        with open(bad, "wb") as fh:
            np.savez(fh, header=np.array(json.dumps({"format": "something-else"})))
        with pytest.raises(DataError, match="unrecognized"):
            load_forest(bad, d)

    def test_checksum_is_data_dependent(self):
        a = toy_dataset(n=12, seed=1)
        b = toy_dataset(n=12, seed=2)
        assert data_checksum(a) != data_checksum(b)
        assert data_checksum(a) == data_checksum(a)
