import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deepcate import dgp, metrics

finite_vectors = arrays(
    np.float64,
    st.integers(min_value=2, max_value=40),
    elements=st.floats(-100, 100, allow_nan=False),
)


class TestIpwAte:
    def test_plug_in_hand_value(self):
        # Y = Z with constant p = 0.5 and exactly half treated:
        # mean(Z / 0.5) = 2 * treated fraction = 1.0
        Z = np.array([1.0, 0.0] * 5)
        Y = Z.copy()
        p = np.full(10, 0.5)
        assert metrics.ipw_ate(Y, Z, p) == pytest.approx(1.0)

    def test_unbiased_under_randomization(self):
        # Monte Carlo oracle: with pi = 0.5 independent of X the estimator
        # recovers the true ATE of the small regime (0.20)
        n = 50_000
        X, _ = dgp.gen_covariates(n, seed=31)
        alpha = dgp.true_alpha(X)
        beta = dgp.true_beta(X, "small")
        rng = np.random.default_rng(32)
        Z = (rng.random(n) < 0.5).astype(float)
        Y = alpha + beta * Z + alpha.std(ddof=1) * rng.standard_normal(n)
        est = metrics.ipw_ate(Y, Z, np.full(n, 0.5))
        assert est == pytest.approx(0.20, abs=0.08)

    def test_no_controls_degenerates_to_weighted_mean(self):
        # all-treated data is legal as long as p < 1; the estimate is just
        # mean(Y / p), documented as high-variance rather than an error
        Y = np.array([2.0, 4.0])
        Z = np.ones(2)
        p = np.array([0.5, 0.8])
        assert metrics.ipw_ate(Y, Z, p) == pytest.approx((4.0 + 5.0) / 2)

    def test_rejects_boundary_propensities(self):
        Y = np.array([1.0, 2.0])
        Z = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="strictly inside"):
            metrics.ipw_ate(Y, Z, np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="strictly inside"):
            metrics.ipw_ate(Y, Z, np.array([0.5, 0.0]))

    def test_rejects_non_binary_treatment(self):
        with pytest.raises(ValueError, match="binary"):
            metrics.ipw_ate(np.ones(3), np.array([0.0, 0.5, 1.0]), np.full(3, 0.5))

    def test_sample_level_identity_with_synthetic_potential_outcomes(self, rng):
        # the defining algebraic identity: with Y = Z*Y1 + (1-Z)*Y0 the IPW
        # term equals Y1*Z/p - Y0*(1-Z)/(1-p) row for row, exactly
        n = 100
        Y1 = rng.normal(size=n)
        Y0 = rng.normal(size=n)
        Z = (rng.random(n) < 0.4).astype(float)
        p = np.full(n, 0.4)
        Y = Z * Y1 + (1 - Z) * Y0
        lhs = Y * Z / p - Y * (1 - Z) / (1 - p)
        rhs = Y1 * Z / p - Y0 * (1 - Z) / (1 - p)
        np.testing.assert_array_equal(lhs, rhs)


class TestPearson:
    def test_perfect_correlation(self, rng):
        a = rng.normal(size=20)
        assert metrics.pearson_corr(a, a) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self, rng):
        a = rng.normal(size=20)
        assert metrics.pearson_corr(a, -a) == pytest.approx(-1.0)

    def test_orthogonalized_vectors_uncorrelated(self, rng):
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        a = a - a.mean()
        b = b - b.mean()
        b = b - (a @ b) / (a @ a) * a  # remove the a-component
        assert abs(metrics.pearson_corr(a, b)) < 1e-12

    def test_rejects_constant_input(self):
        with pytest.raises(ValueError, match="variance"):
            metrics.pearson_corr(np.ones(5), np.arange(5.0))


class TestTrialMetrics:
    def test_exact_estimate(self, rng):
        beta = rng.normal(size=30)
        alpha = rng.normal(size=30)
        m = metrics.trial_metrics(beta, metrics.eval_truth(beta.copy(), alpha), runtime=1.5)
        assert m.rmse == 0.0
        assert m.abs_bias == 0.0
        assert m.correlation == pytest.approx(1.0)
        assert m.true_ate == pytest.approx(beta.mean())
        assert m.true_mean_alpha == pytest.approx(alpha.mean())
        assert m.runtime_seconds == 1.5

    def test_constant_shift(self, rng):
        beta = rng.normal(size=30)
        m = metrics.trial_metrics(beta + 0.1, metrics.eval_truth(beta, beta), runtime=0.0)
        assert m.rmse == pytest.approx(0.1)
        assert m.abs_bias == pytest.approx(0.1)
        assert m.correlation == pytest.approx(1.0)

    def test_constant_estimate_marks_correlation_undefined(self, rng):
        beta = rng.normal(size=30)
        m = metrics.trial_metrics(np.full(30, 2.0), metrics.eval_truth(beta, beta), runtime=0.0)
        assert m.correlation is None
        assert np.isfinite(m.rmse)

    def test_constant_truth_marks_correlation_undefined(self, rng):
        truth = metrics.eval_truth(np.full(30, 2.0), rng.normal(size=30))
        assert truth.beta_ss == 0.0
        m = metrics.trial_metrics(rng.normal(size=30), truth, runtime=0.0)
        assert m.correlation is None
        assert m.true_ate == 2.0

    @given(a=finite_vectors, b=finite_vectors)
    def test_rmse_dominates_bias(self, a, b):
        n = min(a.size, b.size)
        m = metrics.trial_metrics(a[:n], metrics.eval_truth(b[:n], b[:n]), runtime=0.0)
        assert m.rmse >= m.abs_bias - 1e-12

    @given(data=st.data())
    def test_permutation_invariance(self, data):
        n = data.draw(st.integers(3, 25))
        elements = st.floats(-50, 50, allow_nan=False)
        a = data.draw(arrays(np.float64, n, elements=elements))
        b = data.draw(arrays(np.float64, n, elements=elements))
        c = data.draw(arrays(np.float64, n, elements=elements))
        perm = data.draw(st.permutations(range(n)))
        perm = np.asarray(perm)
        m1 = metrics.trial_metrics(a, metrics.eval_truth(b, c), runtime=0.0)
        m2 = metrics.trial_metrics(a[perm], metrics.eval_truth(b[perm], c[perm]), runtime=0.0)
        assert m1.rmse == pytest.approx(m2.rmse, rel=1e-9, abs=1e-12)
        assert m1.abs_bias == pytest.approx(m2.abs_bias, rel=1e-9, abs=1e-12)
        assert m1.mean_beta_hat == pytest.approx(m2.mean_beta_hat, rel=1e-9, abs=1e-12)


def _tm(rmse, bias=0.05, corr=0.9):
    return metrics.TrialMetrics(
        mean_beta_hat=0.3,
        true_ate=0.2,
        true_mean_alpha=1.95,
        runtime_seconds=1.0,
        correlation=corr,
        rmse=rmse,
        abs_bias=bias,
    )


class TestAggregate:
    def test_single_trial_row_equals_trial(self):
        row = metrics.aggregate_results([_tm(0.25)], "bcf", 1000, "small")
        assert row.trials == 1
        assert row.mean_rmse == pytest.approx(0.25)
        assert row.mean_correlation == pytest.approx(0.9)
        assert (row.method, row.n, row.regime) == ("bcf", 1000, "small")

    def test_two_trial_average(self):
        row = metrics.aggregate_results([_tm(0.2), _tm(0.4)], "shared", 500, "small")
        assert row.mean_rmse == pytest.approx(0.3)

    def test_undefined_correlations_excluded(self, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="deepcate.metrics"):
            row = metrics.aggregate_results(
                [_tm(0.2, corr=None), _tm(0.4, corr=0.8)], "ols", 250, "small"
            )
        assert row.mean_correlation == pytest.approx(0.8)
        assert "undefined correlation" in caplog.text

    def test_all_undefined_gives_none(self):
        row = metrics.aggregate_results([_tm(0.2, corr=None)], "ols", 250, "small")
        assert row.mean_correlation is None

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            metrics.aggregate_results([], "ols", 250, "small")


class TestResultsCsv:
    def test_round_trip(self, tmp_path):
        rows = (
            metrics.aggregate_results([_tm(0.2), _tm(0.4)], "shared", 250, "small"),
            metrics.aggregate_results([_tm(0.1, corr=None)], "ols", 250, "small"),
        )
        table = metrics.ResultsTable(rows)
        path = tmp_path / "results.csv"
        metrics.write_results_csv(table, path)
        back = metrics.read_results_csv(path)
        assert back == table

    def test_bit_stable(self, tmp_path):
        table = metrics.ResultsTable(
            (metrics.aggregate_results([_tm(1 / 3)], "bcf", 1000, "large"),)
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        metrics.write_results_csv(table, p1)
        metrics.write_results_csv(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lookup(self):
        table = metrics.ResultsTable(
            (metrics.aggregate_results([_tm(0.3)], "naive", 500, "small"),)
        )
        assert table.row("naive", 500, "small").mean_rmse == pytest.approx(0.3)
        with pytest.raises(KeyError):
            table.row("bcf", 500, "small")


_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2e-310, 1.7e308, -1.7e308]),
)
_cells = st.one_of(
    _finite,
    _finite.map(np.float64),
    st.integers(),
    st.none(),
    st.text(st.sampled_from('ab ,"\n;é'), max_size=8),
)


class TestTableCodec:
    @given(rows=st.lists(st.lists(_cells, min_size=3, max_size=3), max_size=6))
    def test_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("codec") / "t.csv"
        metrics.write_csv(path, ("a", "b", "c"), rows)
        back = metrics.read_csv(path, ("a", "b", "c"))
        assert len(back) == len(rows)
        for row, got in zip(rows, back):
            for cell, text in zip(row, got):
                if isinstance(cell, float):
                    assert np.float64(text).tobytes() == np.float64(cell).tobytes()
                elif cell is None:
                    assert text == ""
                else:
                    assert text == str(cell)

    def test_skips_byte_order_mark(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
        assert metrics.read_csv(path, ("a", "b")) == [["1", "2"]]

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "t.csv"
        metrics.write_csv(path, ("a", "c"), [(1, 2)])
        with pytest.raises(ValueError, match=r"line 1: unexpected columns \['a', 'c'\]"):
            metrics.read_csv(path, ("a", "b"))

    def test_rejects_short_row_naming_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('a,b\n"x\ny",2\n3\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 4: expected 2 cells, got 1"):
            metrics.read_csv(path, ("a", "b"))

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="line 1: empty file"):
            metrics.read_csv(path, ("a", "b"))

    def test_rejects_non_utf8_naming_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n1,2\n3,\xff\n")
        with pytest.raises(ValueError, match="line 3: byte 0xff is not UTF-8"):
            metrics.read_csv(path, ("a", "b"))

    def test_write_rejects_carriage_return_naming_row_and_column(self, tmp_path):
        # csv quotes only the "\n" of the line terminator, so "\r" would split the row
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="data row 2, column 'b': cell holds a carriage return"):
            metrics.write_csv(path, ("a", "b"), [("x", 1), (2.5, "x\ry")])
        assert not path.exists()
