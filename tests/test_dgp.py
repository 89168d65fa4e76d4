import hashlib

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deepcate import dgp

# frozen reference values from a 40-digit erf series (mpmath.ncdf)
NORM_CDF_ORACLE = {
    0.0: 0.5,
    1.0: 0.84134474606854294859,
    1.96: 0.97500210485177956586,
    -1.96: 0.024997895148220434137,
    -3.5: 0.00023262907903552503635,
    2.5: 0.99379033467422386483,
    -0.75: 0.22662735237686819933,
}


class TestNormCdf:
    @pytest.mark.parametrize("x,expected", sorted(NORM_CDF_ORACLE.items()))
    def test_matches_high_precision_oracle(self, x, expected):
        assert dgp.norm_cdf(x) == pytest.approx(expected, abs=1e-7)

    def test_vectorized(self):
        xs = np.array(sorted(NORM_CDF_ORACLE))
        out = dgp.norm_cdf(xs)
        assert out.shape == xs.shape
        np.testing.assert_allclose(out, [NORM_CDF_ORACLE[x] for x in sorted(NORM_CDF_ORACLE)], atol=1e-7)

    def test_symmetry(self):
        xs = np.linspace(-6, 6, 101)
        np.testing.assert_allclose(dgp.norm_cdf(xs) + dgp.norm_cdf(-xs), 1.0, atol=1e-14)

    def test_within_5e_16_of_mpmath_on_a_grid(self):
        xs = np.linspace(-8.0, 8.0, 2001)
        with mpmath.workdps(40):
            exact = np.array([float(mpmath.ncdf(float(x))) for x in xs])
        np.testing.assert_allclose(dgp.norm_cdf(xs), exact, rtol=0, atol=5e-16)

    @pytest.mark.parametrize("x", [0.5, -1, np.float64(1.96)])
    def test_scalar_returns_float(self, x):
        out = dgp.norm_cdf(x)
        assert type(out) is float
        assert out == dgp.norm_cdf(np.array([x]))[0]

    def test_zero_d_array_keeps_zero_d(self):
        out = dgp.norm_cdf(np.array(1.0))
        assert np.shape(out) == ()
        assert out == pytest.approx(NORM_CDF_ORACLE[1.0], abs=5e-16)

    def test_two_d_array_keeps_its_shape(self):
        xs = np.array(sorted(NORM_CDF_ORACLE)[:6]).reshape(2, 3)
        out = dgp.norm_cdf(xs)
        assert isinstance(out, np.ndarray) and out.dtype == np.float64
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(out.ravel(), dgp.norm_cdf(xs.ravel()))


class TestCovariates:
    def test_moments_at_scale(self):
        X, u = dgp.gen_covariates(100_000, seed=11)
        # 3-sigma CLT bounds on the standard-normal columns
        assert abs(X[:, 0].mean()) < 0.02
        assert abs(X[:, 0].var() - 1.0) < 0.05
        assert abs(X[:, 1].mean()) < 0.02
        assert abs(X[:, 2].mean()) < 0.02
        # binomial(2, 0.5) pmf: 1/4, 1/2, 1/4
        counts = np.bincount(X[:, 3].astype(int), minlength=3) / 100_000
        assert counts[0] == pytest.approx(0.25, abs=0.01)
        assert counts[1] == pytest.approx(0.50, abs=0.01)
        assert counts[2] == pytest.approx(0.25, abs=0.01)
        assert set(np.unique(X[:, 4])) <= {0.0, 1.0}
        assert X[:, 4].mean() == pytest.approx(0.5, abs=0.01)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_deterministic_in_seed(self):
        X1, u1 = dgp.gen_covariates(500, seed=3)
        X2, u2 = dgp.gen_covariates(500, seed=3)
        np.testing.assert_array_equal(X1, X2)
        np.testing.assert_array_equal(u1, u2)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            dgp.gen_covariates(0, seed=1)


class TestSurfaces:
    def test_beta_at_x1_zero(self):
        X = np.zeros((2, 5))
        np.testing.assert_allclose(dgp.true_beta(X, "small"), 0.20)
        np.testing.assert_allclose(dgp.true_beta(X, "large"), 5.0)

    def test_beta_hand_value(self):
        X = np.zeros((1, 5))
        X[0, 0] = 2.0
        X[0, 3] = 1.0
        assert dgp.true_beta(X, "small")[0] == pytest.approx(1.20)

    def test_beta_population_mean(self):
        X, _ = dgp.gen_covariates(10_000, seed=21)
        assert dgp.true_beta(X, "small").mean() == pytest.approx(0.20, abs=0.05)

    def test_alpha_at_origin(self):
        X = np.zeros((1, 5))
        assert dgp.true_alpha(X)[0] == pytest.approx(2.0)

    def test_alpha_hand_value(self):
        X = np.zeros((1, 5))
        X[0, 1] = 1.0
        assert dgp.true_alpha(X)[0] == pytest.approx(1.8)

    def test_alpha_population_mean(self):
        X, _ = dgp.gen_covariates(10_000, seed=22)
        assert dgp.true_alpha(X).mean() == pytest.approx(1.95, abs=0.05)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 20), st.just(5)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    def test_regime_shift_is_4_8(self, X):
        np.testing.assert_allclose(
            dgp.true_beta(X, "large") - dgp.true_beta(X, "small"), 4.8, atol=1e-12
        )

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            dgp.true_alpha(np.zeros((3, 4)))


class TestPropensity:
    def test_formula_against_direct_computation(self, rng):
        alpha = rng.normal(size=200)
        u = rng.random(200)
        expected = 0.70 * dgp.norm_cdf(alpha / alpha.std(ddof=1) - 3.5) + u / 10 + 0.10
        np.testing.assert_allclose(dgp.true_pi(alpha, u), expected, atol=1e-14)

    def test_within_1e_15_of_mpmath(self, rng):
        alpha = rng.normal(size=500) * 2.0
        u = rng.random(500)
        t = alpha / alpha.std(ddof=1) - 3.5
        with mpmath.workdps(40):
            exact = np.array(
                [float(0.70 * mpmath.ncdf(float(ti)) + mpmath.mpf(float(ui)) / 10 + mpmath.mpf("0.1"))
                 for ti, ui in zip(t, u)]
            )
        np.testing.assert_allclose(dgp.true_pi(alpha, u), exact, rtol=0, atol=1e-15)

    def test_standardized_ratio_of_3_5_gives_0_45(self):
        # closed form for a vector whose last entry sits exactly 3.5 sample
        # sds out: k symmetric base points of square-sum S plus outlier x,
        # ddof=1 variance = (S + x^2 k/(k+1))/k, solve x = 3.5 sd
        k, S = 12, 12.0
        x = np.sqrt(3.5**2 * (S / k) / (1.0 - 3.5**2 / (k + 1)))
        alpha = np.array([-1.0, 1.0] * 6 + [x])
        assert alpha[-1] / alpha.std(ddof=1) == pytest.approx(3.5, abs=1e-12)
        pi = dgp.true_pi(alpha, np.zeros(k + 1))
        assert pi[-1] == pytest.approx(0.45, abs=1e-9)

    def test_lower_limit_is_0_10(self):
        # a far-below outlier among many points: its standardized value is
        # about -sqrt(n), deep in the CDF tail, so pi collapses to 0.10
        alpha = np.concatenate([np.linspace(-1, 1, 199), [-100.0]])
        pi = dgp.true_pi(alpha, np.zeros(200))
        assert pi[-1] == pytest.approx(0.10, abs=1e-12)

    def test_bounds_and_paper_moments(self):
        X, u = dgp.gen_covariates(10_000, seed=23)
        pi = dgp.true_pi(dgp.true_alpha(X), u)
        assert pi.min() > 0.10 and pi.max() < 0.90
        assert pi.mean() == pytest.approx(0.37, abs=0.04)

    def test_monotone_in_alpha_at_fixed_u(self, rng):
        alpha = np.sort(rng.normal(size=300))
        pi = dgp.true_pi(alpha, np.full(300, 0.5))
        assert np.all(np.diff(pi) >= 0.0)

    def test_rejects_zero_variance(self):
        with pytest.raises(ValueError, match="variance"):
            dgp.true_pi(np.ones(5), np.zeros(5))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            dgp.true_pi(np.array([1.0]), np.array([0.5]))


class TestSampleDgp:
    def test_kappa_to_zero_recovers_exact_outcome(self):
        s = dgp.sample_dgp(dgp.DgpConfig(n=500, regime="small", kappa=1e-12, seed=5))
        resid = s.Y - s.alpha_true - s.beta_true * s.Z
        assert np.max(np.abs(resid)) < 1e-8

    def test_treated_fraction_tracks_mean_pi(self):
        s = dgp.sample_dgp(dgp.DgpConfig(n=10_000, regime="small", kappa=1.0, seed=6))
        bound = 3 * np.sqrt(0.25 / s.n)
        assert abs(s.Z.mean() - s.pi_true.mean()) < bound

    def test_noise_variance_ratio_matches_kappa_squared(self):
        kappa = 1.0
        s = dgp.sample_dgp(dgp.DgpConfig(n=100_000, regime="small", kappa=kappa, seed=7))
        noise = s.Y - s.alpha_true - s.beta_true * s.Z
        ratio = noise.var() / s.alpha_true.var()
        assert ratio == pytest.approx(kappa**2, rel=0.05)

    def test_deterministic(self):
        a = dgp.sample_dgp(dgp.DgpConfig(n=100, regime="large", kappa=0.5, seed=8))
        b = dgp.sample_dgp(dgp.DgpConfig(n=100, regime="large", kappa=0.5, seed=8))
        np.testing.assert_array_equal(a.Y, b.Y)
        np.testing.assert_array_equal(a.Z, b.Z)

    @pytest.mark.parametrize(
        "regime, kappa, seed, digests, sigma",
        [
            (
                "small", 1.0, 123,
                ("10fd734be858868eb49fa027aadfabeb5e47bbf2836ae1157a5935f23ae471ed",
                 "b95cf6cf686e92b8d39f9e20927a7351260e76360fe21e2bb7231deb0d6fd292",
                 "b5eef199b7989024e4d88af49f0901a2d1fbd41e25d7f86d226c954135844079"),
                "0x1.62eb4b19e6f94p-1",
            ),
            (
                "large", 0.5, 124,
                ("fe922e35277569df130c77c380642b2e497f6df912bc0ddc2b010121f821a583",
                 "d09e19053ea1d74f6b59e61f9801f0db233b50ffad0b0bca4b8bc454a4fee38c",
                 "91ee5112037268e0a27b154f9c5b8cf0f370fe6b34be6626cdea792eed7597c7"),
                "0x1.5ee1c9466567bp-2",
            ),
        ],
    )
    def test_draw_is_pinned(self, regime, kappa, seed, digests, sigma):
        # sha256 of the bytes of Z, Y and pi_true: a reordered or reseeded
        # draw changes them, although it stays deterministic in the seed
        s = dgp.sample_dgp(dgp.DgpConfig(n=200, regime=regime, kappa=kappa, seed=seed))
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (s.Z, s.Y, s.pi_true))
        assert got == digests
        assert s.sigma.hex() == sigma

    def test_sigma_is_sd_alpha_times_kappa(self):
        s = dgp.sample_dgp(dgp.DgpConfig(n=1000, regime="small", kappa=0.7, seed=9))
        assert s.sigma == pytest.approx(s.alpha_true.std(ddof=1) * 0.7)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            dgp.DgpConfig(n=1, regime="small")
        with pytest.raises(ValueError):
            dgp.DgpConfig(n=10, regime="medium")
        with pytest.raises(ValueError):
            dgp.DgpConfig(n=10, regime="small", kappa=0.0)

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_kappa_not_finite_and_positive(self, kappa):
        with pytest.raises(ValueError, match="kappa must be finite and > 0"):
            dgp.DgpConfig(n=10, regime="small", kappa=kappa, seed=1)

    def test_csv_round_trip(self, tmp_path):
        s = dgp.sample_dgp(dgp.DgpConfig(n=50, regime="small", kappa=1.0, seed=10))
        path = tmp_path / "sample.csv"
        dgp.write_sample_csv(s, path)
        back = dgp.read_sample_csv(path)
        np.testing.assert_array_equal(back.X, s.X)
        np.testing.assert_array_equal(back.Y, s.Y)
        np.testing.assert_array_equal(back.pi_true, s.pi_true)
        assert back.sigma == s.sigma

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: empty file"),
            (",".join(dgp.SAMPLE_CSV_COLUMNS) + "\n", "line 2: no data rows"),
        ],
    )
    def test_read_rejects_empty_or_header_only(self, tmp_path, text, message):
        path = tmp_path / "sample.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            dgp.read_sample_csv(path)
