import numpy as np
import pytest

from cqforest import metrics
from cqforest.data import DataError
from cqforest.metrics import EvalReport, c_index, pinball, quantile_losses

from _oracles import c_index_pairs, pinball_loss


class TestPinball:
    def test_hand_values(self):
        assert pinball(0.0, 0.3) == 0.0
        assert pinball(2.0, 0.3) == pytest.approx(0.6, abs=1e-15)  # under-prediction
        assert pinball(-2.0, 0.3) == pytest.approx(1.4, abs=1e-15)  # over-prediction

    def test_vectorized(self):
        out = pinball(np.array([-1.0, 0.0, 1.0]), 0.25)
        assert out == pytest.approx([0.75, 0.0, 0.25], abs=1e-15)

    def test_matches_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            u = float(rng.normal(0, 3))
            tau = float(rng.uniform(0.01, 0.99))
            assert pinball(u, tau) == pytest.approx(pinball_loss(u, tau), abs=1e-15)

    def test_rejects_bad_tau(self):
        for tau in (0.0, 1.0, -0.1):
            with pytest.raises(DataError):
                pinball(1.0, tau)


class TestQuantileLosses:
    def test_perfect_predictions(self):
        q = np.array([1.0, 2.0, 3.0])
        r = quantile_losses(q, q, q, 0.5)
        assert r == EvalReport(tau=0.5, n_test=3, l_mse=0.0, l_mad=0.0, l_quantile=0.0)

    def test_hand_case(self):
        # pinball(1-2, .5) = 0.5 and pinball(3-2, .5) = 0.5 -> mean 0.5
        r = quantile_losses([1.0, 3.0], [1.0, 3.0], [2.0, 2.0], 0.5)
        assert r.l_quantile == pytest.approx(0.5, abs=1e-15)
        assert r.l_mse == pytest.approx(1.0, abs=1e-15)
        assert r.l_mad == pytest.approx(1.0, abs=1e-15)

    def test_unit_shift(self):
        rng = np.random.default_rng(15)
        tq = rng.normal(0, 1, 20)
        r = quantile_losses(rng.normal(0, 1, 20), tq, tq + 1.0, 0.3)
        assert r.l_mse == pytest.approx(1.0, abs=1e-12)
        assert r.l_mad == pytest.approx(1.0, abs=1e-12)

    def test_true_quantiles_optional(self):
        r = quantile_losses([1.0, 2.0], None, [1.5, 1.5], 0.5)
        assert r.l_mse is None and r.l_mad is None
        assert r.l_quantile is not None and r.n_test == 2

    def test_length_errors(self):
        with pytest.raises(DataError):
            quantile_losses([1.0, 2.0], None, [1.0], 0.5)
        with pytest.raises(DataError):
            quantile_losses([1.0], [1.0, 2.0], [1.0], 0.5)
        with pytest.raises(DataError):
            quantile_losses([], None, [], 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(DataError, match="must be finite"):
            quantile_losses([1.0, 2.0], None, [1.5, bad], 0.5)
        with pytest.raises(DataError, match="must be finite"):
            quantile_losses([bad, 2.0], None, [1.5, 1.5], 0.5)
        with pytest.raises(DataError, match="must be finite"):
            quantile_losses([1.0, 2.0], [bad, 2.0], [1.5, 1.5], 0.5)


class TestCIndex:
    def test_perfect_ranking(self):
        assert c_index([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0], [1, 1, 1, 1]) == 1.0

    def test_reversed_ranking(self):
        assert c_index([4.0, 3.0, 2.0, 1.0], [10.0, 20.0, 30.0, 40.0], [1, 1, 1, 1]) == 0.0

    def test_constant_predictions(self):
        assert c_index([5.0, 5.0, 5.0], [1.0, 2.0, 3.0], [1, 1, 1]) == 0.5

    def test_censored_hand_case(self):
        # usable ordered pairs: (0,1), (0,2), (0,3), (2,3); the swap in
        # the first two predictions discords exactly one of them
        pred = [2.0, 1.0, 3.0, 4.0]
        y = [10.0, 20.0, 30.0, 40.0]
        event = [1, 0, 1, 0]
        assert c_index(pred, y, event) == pytest.approx(0.75, abs=1e-15)

    def test_matches_pair_oracle(self):
        rng = np.random.default_rng(16)
        done = 0
        while done < 30:
            n = int(rng.integers(2, 12))
            pred = rng.integers(0, 5, n).astype(float)  # force prediction ties
            y = rng.integers(1, 5, n).astype(float)  # force outcome ties
            event = rng.integers(0, 2, n)
            try:
                expect = c_index_pairs(list(pred), list(y), list(event))
            except ZeroDivisionError:
                continue
            assert c_index(pred, y, event) == pytest.approx(expect, abs=1e-12)
            done += 1

    def test_blocks_match_pair_oracle_exactly(self, monkeypatch):
        # a few rows per block, so the pair counts are summed over many blocks
        rng = np.random.default_rng(19)
        n = 150
        pred = rng.integers(0, 6, n).astype(float)  # prediction ties
        y = rng.integers(1, 8, n).astype(float)  # outcome ties
        event = rng.integers(0, 2, n)
        expect = c_index_pairs(list(pred), list(y), list(event))
        assert c_index(pred, y, event) == expect
        monkeypatch.setattr(metrics, "_PAIR_CELLS", 7 * n)
        assert c_index(pred, y, event) == expect

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(17)
        pred = rng.normal(0, 1, 15)
        y = rng.exponential(2, 15)
        event = rng.integers(0, 2, 15)
        event[0] = 1
        base = c_index(pred, y, event)
        assert c_index(np.exp(pred), y, event) == pytest.approx(base, abs=1e-15)
        assert c_index(3.0 * pred + 7.0, y, event) == pytest.approx(base, abs=1e-15)

    def test_complement_identity(self):
        # without prediction ties, negating the predictions flips every
        # usable pair: c(p) + c(-p) = 1
        rng = np.random.default_rng(18)
        pred = rng.permutation(12).astype(float)
        y = rng.integers(1, 6, 12).astype(float)
        event = np.ones(12, dtype=int)
        assert c_index(pred, y, event) + c_index(-pred, y, event) == pytest.approx(1.0, abs=1e-15)

    def test_no_usable_pairs(self):
        with pytest.raises(DataError, match="no usable pairs"):
            c_index([1.0, 2.0], [3.0, 4.0], [0, 0])

    def test_shape_errors(self):
        with pytest.raises(DataError):
            c_index([1.0], [1.0, 2.0], [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(DataError, match="must be finite"):
            c_index([1.0, bad, 3.0], [1.0, 2.0, 3.0], [1, 0, 1])
        with pytest.raises(DataError, match="must be finite"):
            c_index([1.0, 2.0, 3.0], [1.0, bad, 3.0], [1, 0, 1])

    @pytest.mark.parametrize("event", [[2, 0, 1], [1, -1, 0], [0.5, 1.0, 0.0]])
    def test_rejects_event_flags_other_than_0_1(self, event):
        with pytest.raises(DataError, match="event flags"):
            c_index([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], event)

    def test_accepts_boolean_and_0_1_flags(self):
        assert c_index([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [True, False, True]) == 1.0
        assert c_index([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 0.0, 1.0]) == 1.0
