import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deepcate import dgp, models, nn
from deepcate.metrics import pearson_corr


def quick_cfg(seed=0, epochs=30, batch=32, lr=0.01):
    return nn.TrainConfig(epochs=epochs, batch_size=batch, loss="mse", lr=lr, shuffle_seed=seed)


@pytest.fixture(scope="module")
def toy_data():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(120, 5))
    Z = (rng.random(120) < 0.5).astype(float)
    Y = 1.0 + 2.0 * Z + 0.3 * X[:, 0]
    return X, Z, Y


@pytest.fixture(scope="module")
def fitted_models(toy_data):
    X, Z, Y = toy_data
    pi = np.full(120, 0.5)
    return {
        "shared": models.fit_shared(X, Z, Y, quick_cfg(1, epochs=5)),
        "bcf": models.fit_bcf(X, Z, Y, pi, quick_cfg(2, epochs=5)),
        "naive": models.fit_naive(X, Z, Y, quick_cfg(3, epochs=5)),
        "ols": models.fit_ols(X, Z, Y),
    }


class TestArchitectures:
    def test_shared_parameter_count(self, toy_data):
        X, Z, Y = toy_data
        m = models.fit_shared(X, Z, Y, quick_cfg(epochs=1))
        assert nn.count_params(m.net) == 3280

    def test_bcf_parameter_count(self, toy_data):
        X, Z, Y = toy_data
        m = models.fit_bcf(X, Z, Y, np.full(120, 0.5), quick_cfg(epochs=1))
        assert nn.count_params(m.alpha_net) == 2405
        assert nn.count_params(m.beta_net) == 821
        assert nn.count_params(m.alpha_net) + nn.count_params(m.beta_net) == 3226

    def test_naive_parameter_count(self, toy_data):
        X, Z, Y = toy_data
        m = models.fit_naive(X, Z, Y, quick_cfg(epochs=1))
        assert nn.count_params(m.y1_net) + nn.count_params(m.y0_net) == 3306

    def test_bcf_alpha_net_has_one_extra_input(self, fitted_models):
        m = fitted_models["bcf"]
        assert m.alpha_net.in_dim == m.beta_net.in_dim + 1


class TestFitPropensity:
    def test_balanced_assignment_recovers_base_rate(self, rng):
        X = rng.normal(size=(2000, 5))
        Z = (rng.random(2000) < 0.5).astype(float)
        cfg = nn.TrainConfig(epochs=40, batch_size=64, loss="bce", lr=0.01, shuffle_seed=5)
        model = models.fit_propensity(X, Z, cfg)
        p = models.predict_propensity(model, X)
        assert 0.45 < p.mean() < 0.55

    def test_separable_data_stays_inside_unit_interval(self, rng):
        X = np.concatenate([rng.normal(-4, 0.3, 100), rng.normal(4, 0.3, 100)]).reshape(-1, 1)
        Z = np.array([0.0] * 100 + [1.0] * 100)
        cfg = nn.TrainConfig(epochs=100, batch_size=32, loss="bce", lr=0.02, shuffle_seed=6)
        model = models.fit_propensity(X, Z, cfg, hidden=(16, 8))
        p = models.predict_propensity(model, X)
        assert np.all(p > 0.0) and np.all(p < 1.0)
        assert p[:100].mean() < 0.2 and p[100:].mean() > 0.8

    def test_rejects_single_class(self, rng):
        X = rng.normal(size=(50, 3))
        with pytest.raises(ValueError, match="single-class"):
            models.fit_propensity(X, np.ones(50), quick_cfg())

    def test_recovers_targeted_selection_propensity(self):
        # train at scale against the stored true propensities
        s = dgp.sample_dgp(dgp.DgpConfig(n=10_000, regime="small", kappa=1.0, seed=41))
        cfg = nn.TrainConfig(epochs=250, batch_size=64, loss="bce", lr=0.001, shuffle_seed=42)
        model = models.fit_propensity(s.X, s.Z, cfg)
        p = models.predict_propensity(model, s.X)
        assert pearson_corr(p, s.pi_true) > 0.8
        assert p.mean() == pytest.approx(0.37, abs=0.05)


class TestFitShared:
    def test_constant_effect_recovered(self, rng):
        X = rng.normal(size=(400, 5))
        Z = (rng.random(400) < 0.5).astype(float)
        Y = 1.0 + 2.0 * Z
        m = models.fit_shared(X, Z, Y, quick_cfg(7, epochs=120))
        cate = models.predict_cate(m, X)
        assert abs(cate.mean() - 2.0) < 0.1

    def test_degenerate_treatment_flagged(self, rng):
        X = rng.normal(size=(60, 5))
        with pytest.warns(RuntimeWarning, match="degenerate"):
            models.fit_shared(X, np.zeros(60), np.full(60, 5.0), quick_cfg(epochs=1))

    def test_effect_head_gradient_is_zero_without_treated_rows(self, rng):
        # the z=0 path: the loss gradient reaching the effect head is
        # dpred * z, identically zero, so its parameters receive none
        net = nn.init_network(
            [nn.LayerSpec(5, 8, "relu"), nn.LayerSpec(8, 2, "identity")], seed=3
        )
        X = rng.normal(size=(30, 5))
        y = rng.normal(size=(30, 1))
        out, cache = nn.forward(net, X)
        pred = out[:, 0:1]  # z = 0 everywhere
        dpred = nn.loss_gradient(pred, y, "mse")
        dout = np.concatenate([dpred, dpred * 0.0], axis=1)
        grads = nn.backward_from_output(net, cache, dout)
        np.testing.assert_array_equal(grads.weights[-1][:, 1], 0.0)
        assert grads.biases[-1][1] == 0.0


class TestFitBcf:
    def test_effect_net_untouched_when_no_rows_treated(self, rng):
        X = rng.normal(size=(80, 5))
        Y = rng.normal(size=80)
        pi = np.full(80, 0.4)
        short = models.fit_bcf(X, np.zeros(80), Y, pi, quick_cfg(9, epochs=1))
        long = models.fit_bcf(X, np.zeros(80), Y, pi, quick_cfg(9, epochs=6))
        np.testing.assert_array_equal(
            models.predict_cate(short, X), models.predict_cate(long, X)
        )

    def test_rejects_out_of_range_pi(self, rng):
        X = rng.normal(size=(20, 5))
        Z = (rng.random(20) < 0.5).astype(float)
        Y = rng.normal(size=20)
        bad = np.full(20, 0.5)
        bad[3] = 1.0
        with pytest.raises(ValueError, match="inside"):
            models.fit_bcf(X, Z, Y, bad, quick_cfg())

    def test_no_weight_sharing(self, fitted_models):
        m = fitted_models["bcf"]
        assert m.alpha_net.weights[0] is not m.beta_net.weights[0]
        assert m.alpha_net.weights[0].shape != m.beta_net.weights[0].shape


class TestFitNaive:
    def test_cate_is_exact_difference_of_nets(self, fitted_models, toy_data):
        X, _, _ = toy_data
        m = fitted_models["naive"]
        y1, _ = nn.forward(m.y1_net, X)
        y0, _ = nn.forward(m.y0_net, X)
        np.testing.assert_array_equal(
            models.predict_cate(m, X), y1[:, 0] - y0[:, 0]
        )

    def test_identical_arms_give_near_zero_cate(self, rng):
        # constant noiseless outcome in both arms: any difference is
        # training noise and must stay small
        X = rng.normal(size=(200, 5))
        Z = np.array([0.0, 1.0] * 100)
        Y = np.full(200, 3.0)
        m = models.fit_naive(X, Z, Y, quick_cfg(11, epochs=300))
        cate = models.predict_cate(m, X)
        assert abs(cate.mean()) < 0.05

    def test_rejects_empty_arm(self, rng):
        X = rng.normal(size=(30, 5))
        with pytest.raises(ValueError, match="nonempty"):
            models.fit_naive(X, np.ones(30), np.zeros(30), quick_cfg())


class TestFitOls:
    def test_exact_recovery_of_linear_truth(self, rng):
        X = rng.normal(size=(60, 3))
        Z = (rng.random(60) < 0.5).astype(float)
        Y = 2.0 * Z + X[:, 0]
        m = models.fit_ols(X, Z, Y)
        assert m.beta_z == pytest.approx(2.0, abs=1e-8)
        np.testing.assert_allclose(m.delta, [1.0, 0.0, 0.0], atol=1e-8)
        np.testing.assert_allclose(m.gamma, 0.0, atol=1e-8)
        assert m.intercept == pytest.approx(0.0, abs=1e-8)

    def test_deterministic(self, toy_data):
        X, Z, Y = toy_data
        a = models.fit_ols(X, Z, Y)
        b = models.fit_ols(X, Z, Y)
        assert a.beta_z == b.beta_z
        np.testing.assert_array_equal(a.gamma, b.gamma)

    def test_rank_deficiency_warns_and_solves(self, rng):
        X = rng.normal(size=(40, 2))
        X = np.column_stack([X, X[:, 0]])  # duplicated column
        Z = (rng.random(40) < 0.5).astype(float)
        Y = rng.normal(size=40)
        with pytest.warns(RuntimeWarning, match="rank"):
            m = models.fit_ols(X, Z, Y)
        assert np.isfinite(models.predict_cate(m, X)).all()

    def test_outcome_shift_by_treatment_moves_only_beta_z(self, rng):
        # least squares is linear in Y with Z in the design, so adding
        # c * Z to the outcome shifts beta_z by exactly c and nothing else;
        # together with the generator's regime shift of 4.8 this pins how
        # the linear baseline must behave across regimes
        X = rng.normal(size=(300, 5))
        Z = (rng.random(300) < 0.4).astype(float)
        Y = rng.normal(size=300)
        a = models.fit_ols(X, Z, Y)
        b = models.fit_ols(X, Z, Y + 4.8 * Z)
        assert b.beta_z - a.beta_z == pytest.approx(4.8, abs=1e-8)
        np.testing.assert_allclose(b.gamma, a.gamma, atol=1e-8)
        np.testing.assert_allclose(b.delta, a.delta, atol=1e-8)
        diff = models.predict_cate(b, X) - models.predict_cate(a, X)
        np.testing.assert_allclose(diff, 4.8, atol=1e-7)


class TestOlsMetamorphic:
    """Properties of least squares on [1, Z, X, Z*X] that any correct
    OLS CATE must keep, whatever the outcome surface."""

    @pytest.fixture(params=[0, 1, 2])
    def sample(self, request):
        rng = np.random.default_rng(request.param)
        X = rng.normal(size=(200, 5))
        Z = (rng.random(200) < 0.4).astype(float)
        Y = np.exp(0.3 * X[:, 0]) + Z * X[:, 1] * X[:, 2] + rng.normal(size=200)
        X_eval = rng.normal(size=(300, 5))
        return X, Z, Y, X_eval

    @staticmethod
    def cate(X, Z, Y, X_eval):
        return models.predict_cate(models.fit_ols(X, Z, Y), X_eval)

    def test_scaling_the_outcome_scales_the_cate(self, sample):
        X, Z, Y, X_eval = sample
        c = -3.7
        np.testing.assert_allclose(
            self.cate(X, Z, c * Y, X_eval), c * self.cate(X, Z, Y, X_eval), rtol=1e-8
        )

    def test_adding_a_linear_prognostic_term_leaves_the_cate(self, sample):
        X, Z, Y, X_eval = sample
        theta = np.array([2.0, -1.0, 0.5, 3.0, -0.25])
        np.testing.assert_allclose(
            self.cate(X, Z, Y + X @ theta, X_eval), self.cate(X, Z, Y, X_eval), rtol=1e-8
        )

    def test_swapping_the_arms_negates_the_cate(self, sample):
        X, Z, Y, X_eval = sample
        np.testing.assert_allclose(
            self.cate(X, 1.0 - Z, Y, X_eval), -self.cate(X, Z, Y, X_eval), rtol=1e-8
        )

    def test_row_order_does_not_matter(self, sample):
        X, Z, Y, X_eval = sample
        perm = np.random.default_rng(99).permutation(len(Y))
        np.testing.assert_allclose(
            self.cate(X[perm], Z[perm], Y[perm], X_eval), self.cate(X, Z, Y, X_eval), rtol=1e-8
        )


class TestPredict:
    def test_ols_cate_formula(self):
        m = models.OlsModel(
            intercept=0.0, beta_z=1.0, gamma=np.array([0.5, 0.0]), delta=np.zeros(2)
        )
        X = np.array([[2.0, 9.0]])
        assert models.predict_cate(m, X)[0] == pytest.approx(2.0)

    def test_ols_prognostic_at_origin_is_intercept(self):
        m = models.OlsModel(
            intercept=4.5, beta_z=1.0, gamma=np.zeros(2), delta=np.array([1.0, 2.0])
        )
        assert models.predict_prognostic(m, np.zeros((1, 2)))[0] == pytest.approx(4.5)

    def test_shared_zero_effect_head_outputs_its_bias(self, rng):
        net = nn.init_network(
            [nn.LayerSpec(4, 6, "relu"), nn.LayerSpec(6, 2, "identity")], seed=1
        )
        weights = [w.copy() for w in net.weights]
        biases = [b.copy() for b in net.biases]
        weights[-1][:, 1] = 0.0
        biases[-1][1] = -0.75
        m = models.SharedModel(
            dataclasses.replace(net, weights=tuple(weights), biases=tuple(biases))
        )
        cate = models.predict_cate(m, rng.normal(size=(10, 4)))
        np.testing.assert_allclose(cate, -0.75)

    def test_bcf_prognostic_requires_pi(self, fitted_models, toy_data):
        X, _, _ = toy_data
        with pytest.raises(ValueError, match="pi_hat"):
            models.predict_prognostic(fitted_models["bcf"], X)

    def test_output_shape_and_finiteness_at_scale(self, fitted_models):
        X, _ = dgp.gen_covariates(10_000, seed=3)
        for name, m in fitted_models.items():
            out = models.predict_cate(m, X, pi_hat=np.full(10_000, 0.5))
            assert out.shape == (10_000,)
            assert np.isfinite(out).all()

    @given(
        X=arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.just(5)),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    @settings(max_examples=25)
    def test_interface_totality(self, fitted_models, X):
        pi = np.full(X.shape[0], 0.5)
        for m in fitted_models.values():
            assert np.isfinite(models.predict_cate(m, X, pi)).all()
            assert np.isfinite(models.predict_prognostic(m, X, pi)).all()


class TestPrognosticRecovery:
    def test_constant_outcome_all_control(self, rng):
        X = rng.normal(size=(200, 5))
        Z = np.zeros(200)
        Y = np.full(200, 5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # degenerate flag
            shared = models.fit_shared(X, Z, Y, quick_cfg(13, epochs=400))
        assert abs(models.predict_prognostic(shared, X).mean() - 5.0) < 0.1
        bcf = models.fit_bcf(X, Z, Y, np.full(200, 0.3), quick_cfg(14, epochs=100))
        assert abs(models.predict_prognostic(bcf, X, np.full(200, 0.3)).mean() - 5.0) < 0.1
        with pytest.warns(RuntimeWarning, match="rank"):  # Z == 0 kills 6 columns
            ols = models.fit_ols(X, Z, Y)
        assert abs(models.predict_prognostic(ols, X).mean() - 5.0) < 1e-8

    def test_dgp_prognostic_mean(self):
        # trained on one draw, evaluated on a large fresh design: the mean
        # prognosis should sit near the population value 1.95
        s = dgp.sample_dgp(dgp.DgpConfig(n=1000, regime="small", kappa=1.0, seed=44))
        cfg = nn.TrainConfig(epochs=250, batch_size=64, loss="mse", lr=0.001, shuffle_seed=45)
        m = models.fit_shared(s.X, s.Z, s.Y, cfg)
        X_eval, _ = dgp.gen_covariates(10_000, seed=46)
        prog = models.predict_prognostic(m, X_eval)
        assert abs(prog.mean() - 1.95) < 0.3


class TestSerialization:
    @pytest.mark.parametrize("kind", ["shared", "bcf", "naive", "ols"])
    def test_round_trip_predictions_bit_exact(self, kind, fitted_models, toy_data, tmp_path):
        X, _, _ = toy_data
        model = fitted_models[kind]
        path = tmp_path / f"{kind}.json"
        models.save_model(model, path)
        back = models.load_model(path)
        pi = np.full(X.shape[0], 0.5)
        np.testing.assert_array_equal(
            models.predict_cate(model, X, pi), models.predict_cate(back, X, pi)
        )
        np.testing.assert_array_equal(
            models.predict_prognostic(model, X, pi),
            models.predict_prognostic(back, X, pi),
        )

    def test_propensity_round_trip(self, toy_data, tmp_path):
        X, Z, _ = toy_data
        cfg = nn.TrainConfig(epochs=3, batch_size=32, loss="bce", lr=0.01, shuffle_seed=2)
        model = models.fit_propensity(X, Z, cfg)
        path = tmp_path / "prop.json"
        models.save_model(model, path)
        back = models.load_model(path)
        np.testing.assert_array_equal(
            models.predict_propensity(model, X), models.predict_propensity(back, X)
        )

    def test_rejects_unknown_version(self, tmp_path, fitted_models):
        import json

        path = tmp_path / "m.json"
        models.save_model(fitted_models["ols"], path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            models.load_model(path)


class TestLoadModelValidation:
    """load_model rejects a malformed file with a ValueError that says why."""

    def _dump(self, model, path):
        models.save_model(model, path)
        return json.loads(path.read_text())

    def _load(self, payload, path):
        path.write_text(json.dumps(payload))
        return models.load_model(path)

    @pytest.mark.parametrize("kind", ["shared", "bcf", "naive", "ols"])
    def test_resave_is_byte_identical(self, kind, fitted_models, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        models.save_model(fitted_models[kind], first)
        models.save_model(models.load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "kind, field",
        [("ols", "gamma"), ("ols", "intercept"), ("bcf", "beta_net"), ("naive", "y0_net")],
    )
    def test_missing_field_is_named(self, kind, field, fitted_models, tmp_path):
        payload = self._dump(fitted_models[kind], tmp_path / "m.json")
        del payload[field]
        with pytest.raises(ValueError, match=f"missing.*{field}"):
            self._load(payload, tmp_path / "m.json")

    def test_missing_network_field_is_named(self, fitted_models, tmp_path):
        payload = self._dump(fitted_models["shared"], tmp_path / "m.json")
        del payload["net"]["weights"]
        with pytest.raises(ValueError, match=r"missing.*net\.weights"):
            self._load(payload, tmp_path / "m.json")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_ols_value_rejected(self, bad, fitted_models, tmp_path):
        payload = self._dump(fitted_models["ols"], tmp_path / "m.json")
        payload["delta"][0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            self._load(payload, tmp_path / "m.json")
        payload = self._dump(fitted_models["ols"], tmp_path / "m.json")
        payload["beta_z"] = bad
        with pytest.raises(ValueError, match="non-finite"):
            self._load(payload, tmp_path / "m.json")

    def test_non_finite_weight_rejected(self, fitted_models, tmp_path):
        payload = self._dump(fitted_models["bcf"], tmp_path / "m.json")
        payload["alpha_net"]["weights"][0][0][0] = float("nan")
        with pytest.raises(ValueError, match="non-finite"):
            self._load(payload, tmp_path / "m.json")

    def test_ols_coefficient_lengths_must_match(self, fitted_models, tmp_path):
        payload = self._dump(fitted_models["ols"], tmp_path / "m.json")
        payload["gamma"] = payload["gamma"][:-1]
        with pytest.raises(ValueError, match="delta and gamma"):
            self._load(payload, tmp_path / "m.json")

    @pytest.mark.parametrize("kind", ["forest", None])
    def test_unknown_kind_rejected(self, kind, fitted_models, tmp_path):
        payload = self._dump(fitted_models["ols"], tmp_path / "m.json")
        payload["kind"] = kind
        with pytest.raises(ValueError, match="unknown model kind"):
            self._load(payload, tmp_path / "m.json")

    def test_unknown_layer_key_rejected(self, fitted_models, tmp_path):
        payload = self._dump(fitted_models["shared"], tmp_path / "m.json")
        payload["net"]["layers"][0]["bias"] = 1
        with pytest.raises(ValueError, match=r"net\.layers"):
            self._load(payload, tmp_path / "m.json")

    @pytest.mark.parametrize("payload", [[1, 2], "shared", None])
    def test_top_level_must_be_an_object(self, payload, tmp_path):
        with pytest.raises(ValueError, match="JSON object"):
            self._load(payload, tmp_path / "m.json")

    def test_unknown_type_not_saved(self, tmp_path):
        with pytest.raises(TypeError, match="cannot serialize"):
            models.save_model(object(), tmp_path / "m.json")
