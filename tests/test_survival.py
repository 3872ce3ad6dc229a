import hashlib

import numpy as np
import pytest

from cqforest.data import DataError, Dataset, SimConfig, simulate
from cqforest.forest import WeightVector
from cqforest.survival import (
    BeranNWConfig,
    SurvivalCurve,
    beran_nw,
    beran_rf,
    km,
    km_knn,
    nearest_rows,
    _nearest,
)

from _oracles import (
    km_censoring_survival,
    nadaraya_watson_weights,
    top_k_rows,
    weighted_censoring_survival,
)
from _oracles import nearest_rows as argsort_nearest_rows


def padded_block(rows, n):
    """(idx, val, nnz) of sparse rows given as (index, value) pairs in any order, padded with row n and weight 0."""
    nnz = np.array([len(index) for index, _ in rows])
    idx = np.full((len(rows), nnz.max()), n)
    val = np.zeros(idx.shape)
    for i, (index, value) in enumerate(rows):
        idx[i, : nnz[i]], val[i, : nnz[i]] = index, value
    return idx, val, nnz


def make_dataset(x, y, event):
    x = np.asarray(x, dtype=np.float64).reshape(len(y), -1)
    return Dataset(features=x, response=np.asarray(y, float), event=np.asarray(event))


class TestCurve:
    def test_evaluate_semantics(self):
        c = SurvivalCurve([2.0, 4.0], [0.5, 0.25])
        assert c.evaluate(1.9) == 1.0
        assert c.evaluate(2.0) == 0.5  # right-continuous: drops at the jump
        assert c.evaluate(3.9) == 0.5
        assert c.evaluate(4.0) == 0.25
        assert c.evaluate(100.0) == 0.25  # constant beyond the last jump
        assert np.array_equal(c.evaluate([0.0, 2.0, 5.0]), [1.0, 0.5, 0.25])

    def test_empty_curve_is_one(self):
        c = SurvivalCurve([], [])
        assert c.evaluate(123.0) == 1.0

    def test_validation(self):
        with pytest.raises(DataError):
            SurvivalCurve([2.0, 1.0], [0.5, 0.2])  # jumps not increasing
        with pytest.raises(DataError):
            SurvivalCurve([1.0, 2.0], [0.2, 0.5])  # values increasing
        with pytest.raises(DataError):
            SurvivalCurve([1.0], [1.5])  # out of range

    def test_csv_export(self, tmp_path):
        c = SurvivalCurve([1.5, 3.0], [0.75, 0.5])
        path = tmp_path / "curve.csv"
        c.to_csv(path)
        assert path.read_text().splitlines() == ["jump_time,value", "1.5,0.75", "3.0,0.5"]

    def test_csv_export_matches_pinned_digest(self, tmp_path):
        # sha256 recorded before the CSV writing moved into data.write_table
        data = simulate(SimConfig(model="aft1d", n=40, censor_rate_param=0.3, seed=1))
        path = tmp_path / "curve.csv"
        km(data.response, data.event).to_csv(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "5b6292e21853b923f4f09fcdddaff02c6200cc34cfeef461e701e7fc962d281f"


class TestKm:
    def test_hand_case_single_censor(self):
        # only the censored row at y=2 contributes a factor, (1 - 1/2)
        c = km(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1]))
        assert np.array_equal(c.jump_times, [2.0])
        assert c.values == pytest.approx([0.5], abs=1e-12)
        assert c.evaluate(1.999) == 1.0
        assert c.evaluate(2.0) == pytest.approx(0.5, abs=1e-12)

    def test_all_events_constant_one(self):
        c = km(np.array([3.0, 1.0, 2.0]), np.ones(3, dtype=bool))
        assert c.jump_times.size == 0

    def test_all_censored_hits_zero(self):
        c = km(np.array([1.0, 2.0]), np.array([0, 0]))
        assert np.array_equal(c.jump_times, [1.0, 2.0])
        assert c.values == pytest.approx([0.5, 0.0], abs=1e-12)
        assert c.evaluate(2.0) == 0.0
        assert c.evaluate(10.0) == 0.0

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            y = rng.integers(1, 6, n).astype(float)  # heavy ties
            event = rng.integers(0, 2, n)
            c = km(y, event)
            for q in np.unique(np.concatenate([y, y - 0.5, y + 0.5])):
                expect = km_censoring_survival(list(y), list(event), float(q))
                assert c.evaluate(float(q)) == pytest.approx(expect, abs=1e-12)

    def test_row_order_irrelevant(self):
        y = np.array([2.0, 2.0, 1.0, 3.0, 2.0])
        event = np.array([0, 1, 1, 0, 0])
        a = km(y, event)
        perm = [3, 0, 4, 2, 1]
        b = km(y[perm], event[perm])
        assert a == b

    def test_rejects_bad_input(self):
        with pytest.raises(DataError):
            km(np.array([]), np.array([]))
        with pytest.raises(DataError):
            km(np.array([1.0]), np.array([2]))
        with pytest.raises(DataError):
            km(np.array([np.inf]), np.array([1]))


class TestBeranRf:
    def test_hand_case_four_rows(self):
        # factors: y=2 censored, risk .3+.2+.1 -> 1 - .3/.6 = 1/2;
        # y=4 censored, risk .1 -> 0
        d = make_dataset([[0.0]] * 4, [1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0])
        w = WeightVector.from_dense([0.4, 0.3, 0.2, 0.1])
        c = beran_rf(d, w)
        assert np.array_equal(c.jump_times, [2.0, 4.0])
        assert c.values == pytest.approx([0.5, 0.0], abs=1e-12)

    def test_all_events_constant(self):
        d = make_dataset([[0.0]] * 3, [1.0, 2.0, 3.0], [1, 1, 1])
        c = beran_rf(d, WeightVector.uniform(3))
        assert c.jump_times.size == 0

    def test_uniform_weights_equal_km(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            y = np.round(rng.exponential(2.0, n), 1)
            event = rng.integers(0, 2, n)
            d = make_dataset(np.zeros((n, 1)), y, event)
            assert beran_rf(d, WeightVector.uniform(n)) == km(y, event)

    def test_matches_weighted_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 15))
            y = rng.integers(1, 8, n).astype(float)
            event = rng.integers(0, 2, n)
            raw = rng.uniform(0.0, 1.0, n)
            raw[rng.integers(0, n)] = 0.0  # force a zero-weight row
            if raw.sum() == 0:
                raw[0] = 1.0
            w = WeightVector.from_dense(raw / raw.sum())
            d = make_dataset(np.zeros((n, 1)), y, event)
            c = beran_rf(d, w)
            for q in np.unique(y):
                expect = weighted_censoring_survival(list(y), list(event), list(w.dense()), float(q))
                assert c.evaluate(float(q)) == pytest.approx(expect, abs=1e-12)

    def test_jumps_only_at_censored_support_rows(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            y = np.round(rng.normal(5, 2, n), 1)
            event = rng.integers(0, 2, n)
            raw = rng.uniform(0, 1, n)
            w = WeightVector.from_dense(raw / raw.sum())
            d = make_dataset(np.zeros((n, 1)), y, event)
            c = beran_rf(d, w)
            censored_support = set(y[(~(event.astype(bool))) & (w.dense() > 0)])
            assert set(c.jump_times) <= censored_support
            assert ((c.values >= 0) & (c.values <= 1)).all()
            assert (np.diff(c.values) <= 0).all()


class TestBeranNw:
    def test_huge_bandwidth_reduces_to_km(self):
        d = simulate(SimConfig(model="aft1d", n=40, censor_rate_param=0.2, seed=5))
        cfg = BeranNWConfig(bandwidth=1e9, kernel="gaussian")
        c = beran_nw(d, [1.0], cfg)
        reference = km(d.response, d.event)
        probes = np.concatenate([d.response, [0.0, 100.0]])
        assert c.evaluate(probes) == pytest.approx(reference.evaluate(probes), abs=1e-9)

    def test_single_censored_point_drops_to_zero(self):
        d = make_dataset([[0.0]], [3.0], [0])
        c = beran_nw(d, [0.1], BeranNWConfig(bandwidth=1.0))
        assert c.evaluate(3.0) == 0.0

    def test_epanechnikov_hand_case(self):
        # x=0.3, a=0.5: kernel weights (0.2, 0.3, 0.3, 0.2, 0); the far
        # fifth row drops out, and the censored rows at y=2 and y=3 give
        # factors 1 - 0.2/0.7 = 5/7 and 1 - 0.3/0.3 = 0
        d = make_dataset(
            [[0.0], [0.2], [0.4], [0.6], [1.2]],
            [2.0, 1.0, 3.0, 2.5, 5.0],
            [0, 1, 0, 1, 0],
        )
        cfg = BeranNWConfig(bandwidth=0.5, kernel="epanechnikov")
        c = beran_nw(d, [0.3], cfg)
        assert np.array_equal(c.jump_times, [2.0, 3.0])
        assert c.values == pytest.approx([5.0 / 7.0, 0.0], abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for kernel in ("gaussian", "epanechnikov"):
            for _ in range(10):
                n = int(rng.integers(2, 12))
                feats = rng.uniform(0, 1, (n, 2))
                y = rng.integers(1, 6, n).astype(float)
                event = rng.integers(0, 2, n)
                d = make_dataset(feats, y, event)
                x = rng.uniform(0, 1, 2)
                cfg = BeranNWConfig(bandwidth=0.8, kernel=kernel)
                w = nadaraya_watson_weights(x, feats, 0.8, kernel)
                c = beran_nw(d, x, cfg)
                for q in np.unique(y):
                    expect = weighted_censoring_survival(list(y), list(event), w, float(q))
                    assert c.evaluate(float(q)) == pytest.approx(expect, abs=1e-12)

    def test_empty_neighborhood_error(self):
        d = make_dataset([[0.0], [0.1]], [1.0, 2.0], [0, 0])
        with pytest.raises(DataError, match="empty kernel neighborhood"):
            beran_nw(d, [50.0], BeranNWConfig(bandwidth=0.5, kernel="epanechnikov"))

    def test_config_validation(self):
        with pytest.raises(DataError):
            BeranNWConfig(bandwidth=0.0)
        with pytest.raises(DataError):
            BeranNWConfig(bandwidth=1.0, kernel="tricube")


class TestKmKnn:
    def test_k_equals_n_uniform_is_km(self):
        rng = np.random.default_rng(7)
        y = np.round(rng.exponential(2, 15), 1)
        event = rng.integers(0, 2, 15)
        d = make_dataset(np.zeros((15, 1)), y, event)
        assert km_knn(d, WeightVector.uniform(15), 15) == km(y, event)

    def test_k1_censored_row(self):
        d = make_dataset([[0.0], [1.0]], [4.0, 9.0], [0, 1])
        w = WeightVector.from_dense([0.9, 0.1])
        c = km_knn(d, w, 1)
        assert np.array_equal(c.jump_times, [4.0])
        assert c.values == pytest.approx([0.0], abs=0)

    def test_six_row_case_equals_km_on_subset(self):
        y = np.array([5.0, 1.0, 4.0, 2.0, 6.0, 3.0])
        event = np.array([0, 1, 0, 1, 1, 0])
        d = make_dataset(np.zeros((6, 1)), y, event)
        w = WeightVector.from_dense([0.05, 0.3, 0.05, 0.25, 0.05, 0.3])
        rows = top_k_rows(w.dense(), 3)
        assert rows == [1, 3, 5]
        assert km_knn(d, w, 3) == km(y[rows], event[rows])

    def test_nearest_rows_ties_and_zero_fill(self):
        w = WeightVector.from_dense([0.0, 0.5, 0.0, 0.5, 0.0])
        assert np.array_equal(nearest_rows(w, 2), [1, 3])
        # fewer positive rows than k: lowest-index zero rows fill the set
        assert np.array_equal(nearest_rows(w, 4), [0, 1, 2, 3])
        # equal weights break toward the lower row index
        u = WeightVector.from_dense([0.25, 0.25, 0.25, 0.25])
        assert np.array_equal(nearest_rows(u, 2), [0, 1])

    def test_matches_brute_force_selection(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 20))
            y = np.round(rng.exponential(3, n), 1)
            event = rng.integers(0, 2, n)
            raw = rng.uniform(0, 1, n)
            w = WeightVector.from_dense(raw / raw.sum())
            d = make_dataset(np.zeros((n, 1)), y, event)
            k = int(rng.integers(1, n + 1))
            rows = top_k_rows(w.dense(), k)
            assert np.array_equal(nearest_rows(w, k), rows)
            assert km_knn(d, w, k) == km(y[rows], np.asarray(event)[rows])

    def test_sparse_ties_and_padding_match_brute_force(self):
        # weights on a scattered support with repeated values: ties inside
        # the support, and k beyond it so zero-weight rows pad the set
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(5, 40))
            dense = np.zeros(n)
            support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            dense[support] = rng.choice([1.0, 2.0, 3.0], size=support.size)
            w = WeightVector.from_dense(dense / dense.sum())
            for k in {1, w.support_size, min(w.support_size + 3, n), n}:
                assert np.array_equal(nearest_rows(w, k), top_k_rows(w.dense(), k))

    def test_padding_takes_lowest_zero_weight_rows(self):
        w = WeightVector.from_dense([0.0, 0.0, 0.25, 0.0, 0.75, 0.0, 0.0])
        assert np.array_equal(nearest_rows(w, 5), [0, 1, 2, 3, 4])
        assert np.array_equal(nearest_rows(w, 5), top_k_rows(w.dense(), 5))

    def test_k_bounds(self):
        d = make_dataset([[0.0]], [1.0], [0])
        w = WeightVector.uniform(1)
        with pytest.raises(DataError):
            km_knn(d, w, 0)
        with pytest.raises(DataError):
            km_knn(d, w, 2)


class TestNearestSelection:
    """``_nearest``'s selection against the stable-argsort rule (``top_k_rows``, ``_oracles.nearest_rows``)."""

    def tie_heavy_rows(self, rng, n, count):
        """Rows over n training rows whose weights take three values, so ties fall at the k-th weight."""
        rows = []
        for _ in range(count):
            support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)  # out of index order
            raw = rng.choice([1.0, 2.0, 3.0], size=support.size)
            rows.append((support, raw / raw.sum()))
        return rows

    def test_block_matches_stable_argsort(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            rows = self.tie_heavy_rows(rng, n, 6)
            sizes = sorted({len(index) for index, _ in rows})
            # nnz < k, nnz == k and k == n, for some row of the block
            for k in {1, n, *sizes, *(min(s + 2, n) for s in sizes)}:
                got = _nearest(*padded_block(rows, n), k, n)
                for (index, value), top in zip(rows, got):
                    dense = np.zeros(n)
                    dense[index] = value
                    w = WeightVector(index, value, n)
                    assert top.tolist() == top_k_rows(dense, k)
                    assert np.array_equal(top, argsort_nearest_rows(w, k))

    def test_rows_out_of_index_order(self):
        index = np.array([6, 2, 9, 0, 4])
        value = np.array([0.25, 0.125, 0.25, 0.125, 0.25])
        for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
            idx, val, nnz = padded_block([(index[order], value[order])], 10)
            assert _nearest(idx, val, nnz, 2, 10).tolist() == [[4, 6]]
            assert _nearest(idx, val, nnz, 4, 10).tolist() == [[0, 4, 6, 9]]
            assert _nearest(idx, val, nnz, 7, 10).tolist() == [[0, 1, 2, 3, 4, 6, 9]]

    def test_every_row_with_fewer_weighted_rows_than_k(self):
        # a block where no row holds k weighted rows: every kept entry above the k-th is real, the rest fill
        rows = [(np.array([3]), np.array([1.0])), (np.array([1, 0]), np.array([0.5, 0.5]))]
        assert _nearest(*padded_block(rows, 6), 4, 6).tolist() == [[0, 1, 2, 3], [0, 1, 2, 3]]
        assert _nearest(*padded_block(rows, 6), 6, 6).tolist() == [list(range(6))] * 2


class TestMonotoneRangeProperty:
    def test_all_estimators_produce_valid_curves(self):
        rng = np.random.default_rng(9)
        d = simulate(SimConfig(model="sine1d", n=60, censor_rate_param=0.3, seed=10))
        for _ in range(15):
            raw = rng.uniform(0, 1, 60) * (rng.uniform(0, 1, 60) < 0.4)
            if raw.sum() == 0:
                raw[0] = 1.0
            w = WeightVector.from_dense(raw / raw.sum())
            x = rng.uniform(0, 2 * np.pi, 1)
            curves = [
                km(d.response, d.event),
                beran_rf(d, w),
                km_knn(d, w, int(rng.integers(1, 61))),
                beran_nw(d, x, BeranNWConfig(bandwidth=1.0)),
            ]
            for c in curves:
                assert (np.diff(c.jump_times) > 0).all()
                assert ((c.values >= 0) & (c.values <= 1)).all()
                assert (np.diff(c.values) < 0).all()  # only value-changing jumps kept
