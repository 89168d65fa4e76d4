import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import max_scaled_error, numerical_grads

from deepcate import models, nn


def small_net(seed=0, dropout=0.0, activations=("relu", "identity")):
    specs = [
        nn.LayerSpec(3, 4, activations[0], dropout),
        nn.LayerSpec(4, 2, activations[1], 0.0),
    ]
    return nn.init_network(specs, seed)


def zeroed(net):
    return dataclasses.replace(
        net,
        weights=tuple(np.zeros_like(w) for w in net.weights),
        biases=tuple(np.zeros_like(b) for b in net.biases),
    )


class TestLayerSpec:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            nn.LayerSpec(0, 3)

    def test_rejects_bad_activation(self):
        with pytest.raises(ValueError):
            nn.LayerSpec(2, 3, "tanh")

    def test_rejects_dropout_of_one(self):
        with pytest.raises(ValueError):
            nn.LayerSpec(2, 3, "relu", 1.0)

    @pytest.mark.parametrize("dims", [(2.0, 3), (2, 3.5), ("2", 3)])
    def test_rejects_non_integer_dims(self, dims):
        with pytest.raises(ValueError, match="layer dims must be integers"):
            nn.LayerSpec(*dims)

    def test_accepts_numpy_integer_dims(self):
        assert nn.LayerSpec(np.int64(2), np.int32(3)) == nn.LayerSpec(2, 3)

    @pytest.mark.parametrize("dims", [(True, 3), (3, True), (2, False), (np.True_, 3)])
    def test_rejects_boolean_dims(self, dims):
        # True == 1 to Python, so a JSON true would otherwise pass as a width
        with pytest.raises(ValueError, match="layer dims must be integers"):
            nn.LayerSpec(*dims)


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [float("inf"), float("nan")])
    def test_lr_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="lr must be > 0 and finite"):
            nn.TrainConfig(lr=lr)


class TestInit:
    def test_shared_architecture_has_3280_params(self):
        net = nn.init_network(
            [nn.LayerSpec(5, 100), nn.LayerSpec(100, 26), nn.LayerSpec(26, 2, "identity")],
            seed=123,
        )
        assert nn.count_params(net) == 3280

    def test_split_architecture_has_3226_params(self):
        alpha = nn.init_network(
            [nn.LayerSpec(6, 60), nn.LayerSpec(60, 32), nn.LayerSpec(32, 1, "identity")],
            seed=1,
        )
        beta = nn.init_network(
            [nn.LayerSpec(5, 30), nn.LayerSpec(30, 20), nn.LayerSpec(20, 1, "identity")],
            seed=2,
        )
        assert nn.count_params(alpha) == 2405
        assert nn.count_params(beta) == 821
        assert nn.count_params(alpha) + nn.count_params(beta) == 3226

    def test_same_seed_bit_identical(self):
        a = nn.init_network([nn.LayerSpec(1, 1, "identity")], seed=99)
        b = nn.init_network([nn.LayerSpec(1, 1, "identity")], seed=99)
        assert a.weights[0][0, 0] == b.weights[0][0, 0]
        assert a.biases[0][0] == 0.0

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="chain"):
            nn.init_network([nn.LayerSpec(3, 4), nn.LayerSpec(5, 2)], seed=0)

    @given(
        dims=st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_param_count_formula(self, dims, seed):
        specs = [
            nn.LayerSpec(a, b, "relu", 0.1) for a, b in zip(dims, dims[1:])
        ]
        net = nn.init_network(specs, seed)
        assert nn.count_params(net) == sum(a * b + b for a, b in zip(dims, dims[1:]))


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = zeroed(small_net(activations=("identity", "identity")))
        X = np.arange(12.0).reshape(4, 3)
        out, _ = nn.forward(net, X)
        assert np.all(out == 0.0)

    def test_one_dim_affine_map(self):
        net = nn.init_network([nn.LayerSpec(1, 1, "identity")], seed=0)
        net = dataclasses.replace(
            net, weights=(np.array([[2.0]]),), biases=(np.array([1.0]),)
        )
        out, _ = nn.forward(net, np.array([[3.0]]))
        assert out[0, 0] == 7.0

    def test_eval_mode_is_deterministic(self):
        net = small_net(dropout=0.5)
        X = np.random.default_rng(3).normal(size=(6, 3))
        a, _ = nn.forward(net, X, training=False)
        b, _ = nn.forward(net, X, training=False)
        np.testing.assert_array_equal(a, b)

    def test_training_mode_same_seed_same_masks(self):
        net = small_net(dropout=0.5)
        X = np.random.default_rng(3).normal(size=(6, 3))
        a, _ = nn.forward(net, X, training=True, dropout_seed=11)
        b, _ = nn.forward(net, X, training=True, dropout_seed=11)
        np.testing.assert_array_equal(a, b)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="columns"):
            nn.forward(small_net(), np.zeros((2, 5)))

    def test_rejects_non_finite_output(self):
        net = small_net(activations=("identity", "identity"))
        with pytest.raises(FloatingPointError):
            nn.forward(net, np.array([[np.inf, 0.0, 0.0]]))

    def test_training_mode_needs_a_dropout_seed(self):
        # masks drawn from OS entropy would break determinism from seeds
        with pytest.raises(ValueError, match="dropout_seed"):
            nn.forward(small_net(dropout=0.5), np.zeros((2, 3)), training=True)


class TestSigmoid:
    def test_bit_equal_to_the_two_branch_formula(self):
        z = np.array([0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 745.0, -745.0, np.inf, -np.inf, np.nan])
        expected = z.copy()
        pos = z >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        expected[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
        got = z.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            nn._sigmoid(got)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestInputSafety:
    """forward and train_nets never write into the caller's X or network."""

    @pytest.mark.parametrize("out_activation", ["identity", "sigmoid"])
    def test_x_and_params_left_byte_identical(self, out_activation):
        net = small_net(seed=4, dropout=0.3, activations=("relu", out_activation))
        X = np.random.default_rng(5).normal(size=(16, 3))
        y = (np.random.default_rng(6).random((16, 2)) < 0.5).astype(float)
        X_bytes, params_bytes = X.tobytes(), net.params.tobytes()
        nn.forward(net, X)
        nn.forward(net, X, training=True, dropout_seed=7)
        cfg = nn.TrainConfig(epochs=2, batch_size=8, loss="mse", lr=0.01, shuffle_seed=8)
        nn.train_nets([net], [X], y, cfg)
        assert X.tobytes() == X_bytes
        assert net.params.tobytes() == params_bytes


class TestLoss:
    def test_mse_zero_when_equal(self):
        pred = np.array([[1.0], [2.0]])
        assert nn.compute_loss(pred, pred.copy(), "mse") == 0.0

    def test_mse_hand_value(self):
        assert nn.compute_loss(
            np.array([[0.0], [2.0]]), np.array([[1.0], [1.0]]), "mse"
        ) == pytest.approx(1.0)

    def test_bce_at_half_is_log_two(self):
        pred = np.full((8, 1), 0.5)
        target = (np.arange(8) % 2).astype(float).reshape(-1, 1)
        assert nn.compute_loss(pred, target, "bce") == pytest.approx(np.log(2.0))

    def test_bce_rejects_out_of_range_pred(self):
        with pytest.raises(ValueError, match="0, 1"):
            nn.compute_loss(np.array([[1.5]]), np.array([[1.0]]), "bce")

    def test_bce_rejects_non_binary_target(self):
        with pytest.raises(ValueError, match="0/1"):
            nn.compute_loss(np.array([[0.5]]), np.array([[0.3]]), "bce")

    def test_bce_clamps_exact_zero_and_one(self):
        loss = nn.compute_loss(
            np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]), "bce"
        )
        assert np.isfinite(loss)

    @pytest.mark.parametrize(
        "pred, target, message",
        [
            ([[1.5]], [[1.0]], "^bce predictions must lie in \\(0, 1\\)$"),
            ([[-0.1]], [[0.0]], "^bce predictions must lie in \\(0, 1\\)$"),
            ([[0.5]], [[0.3]], "^bce targets must be 0/1$"),
        ],
    )
    def test_bce_gradient_rejects_what_the_loss_rejects(self, pred, target, message):
        for fn in (nn.compute_loss, nn.loss_gradient):
            with pytest.raises(ValueError, match=message):
                fn(np.array(pred), np.array(target), "bce")

    @given(
        st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])), min_size=1, max_size=40)
    )
    def test_bce_is_bit_equal_to_the_product_formula(self, pairs):
        pred, target = (np.array(col).reshape(-1, 1) for col in zip(*pairs))
        p = np.clip(pred, nn.BCE_CLAMP, 1.0 - nn.BCE_CLAMP)
        expected = float(np.mean(-(target * np.log(p) + (1.0 - target) * np.log1p(-p))))
        assert nn.compute_loss(pred, target, "bce") == expected

    def test_constant_predictor_bce_minimized_at_target_mean(self):
        target = np.array([1.0] * 12 + [0.0] * 18).reshape(-1, 1)
        m = target.mean()
        at_mean = nn.compute_loss(np.full_like(target, m), target, "bce")
        for off in (-0.2, -0.05, 0.05, 0.2):
            shifted = nn.compute_loss(np.full_like(target, m + off), target, "bce")
            assert shifted > at_mean


class TestBackward:
    def test_zero_gradient_at_optimum(self):
        net = small_net(activations=("identity", "identity"))
        X = np.random.default_rng(0).normal(size=(5, 3))
        out, cache = nn.forward(net, X)
        grads = nn.backward(net, cache, out.copy(), "mse")
        for g in (*grads.weights, *grads.biases):
            assert np.all(g == 0.0)

    def test_one_dim_hand_derivative(self):
        # loss = (wx + b - y)^2 for a single point, so dL/dw = 2(wx+b-y)x
        net = nn.init_network([nn.LayerSpec(1, 1, "identity")], seed=0)
        net = dataclasses.replace(
            net, weights=(np.array([[1.5]]),), biases=(np.array([0.25]),)
        )
        x, y = 3.0, 2.0
        out, cache = nn.forward(net, np.array([[x]]))
        grads = nn.backward(net, cache, np.array([[y]]), "mse")
        resid = 1.5 * x + 0.25 - y
        assert grads.weights[0][0, 0] == pytest.approx(2 * resid * x, rel=1e-12)
        assert grads.biases[0][0] == pytest.approx(2 * resid, rel=1e-12)

    def test_matches_finite_differences(self, rng):
        # the independent oracle for backpropagation: central differences
        net = nn.init_network(
            [nn.LayerSpec(3, 4, "relu"), nn.LayerSpec(4, 2, "sigmoid"), nn.LayerSpec(2, 1, "identity")],
            seed=5,
        )
        X = rng.normal(size=(7, 3))
        target = rng.normal(size=(7, 1))
        out, cache = nn.forward(net, X)
        analytic = nn.backward(net, cache, target, "mse")
        numeric = numerical_grads(net, X, target, "mse")
        assert max_scaled_error(analytic, numeric) < 1e-5

    def test_matches_finite_differences_with_dropout(self, rng):
        net = nn.init_network(
            [nn.LayerSpec(2, 5, "relu", 0.25), nn.LayerSpec(5, 1, "identity")], seed=6
        )
        X = rng.normal(size=(6, 2))
        target = rng.normal(size=(6, 1))
        out, cache = nn.forward(net, X, training=True, dropout_seed=77)
        analytic = nn.backward(net, cache, target, "mse")
        numeric = numerical_grads(net, X, target, "mse", training=True, dropout_seed=77)
        assert max_scaled_error(analytic, numeric) < 1e-5

    def test_rejects_mismatched_cache(self):
        net = small_net()
        other = nn.init_network([nn.LayerSpec(3, 2, "identity")], seed=1)
        X = np.zeros((2, 3))
        _, cache = nn.forward(other, X)
        with pytest.raises(ValueError, match="cache"):
            nn.backward(net, cache, np.zeros((2, 2)), "mse")


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        net = small_net(seed=3)
        state = nn.init_adam(net, lr=0.01)
        zero = nn.Gradients(
            tuple(np.zeros_like(w) for w in net.weights),
            tuple(np.zeros_like(b) for b in net.biases),
        )
        net2, state2 = nn.adam_update(net, zero, state)
        assert state2.t == 1
        for a, b in zip(net.weights, net2.weights):
            np.testing.assert_array_equal(a, b)

    def test_first_step_magnitude_is_lr_times_sign(self):
        net = nn.init_network([nn.LayerSpec(1, 1, "identity")], seed=0)
        state = nn.init_adam(net, lr=0.05)
        grads = nn.Gradients((np.array([[-3.7]]),), (np.array([2.2]),))
        net2, _ = nn.adam_update(net, grads, state)
        assert net2.weights[0][0, 0] - net.weights[0][0, 0] == pytest.approx(0.05, rel=1e-6)
        assert net2.biases[0][0] - net.biases[0][0] == pytest.approx(-0.05, rel=1e-6)

    def test_rejects_non_finite_gradients(self):
        net = nn.init_network([nn.LayerSpec(1, 1, "identity")], seed=0)
        state = nn.init_adam(net, lr=0.05)
        grads = nn.Gradients((np.array([[np.nan]]),), (np.array([0.0]),))
        with pytest.raises(ValueError, match="finite"):
            nn.adam_update(net, grads, state)

    def test_quadratic_descent_matches_scalar_recursion(self):
        # independent oracle: the textbook scalar Adam recursion on (w-3)^2
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.1
        m = v = 0.0
        theta = 0.0
        path = []
        for t in range(1, 101):
            g = 2.0 * (theta - 3.0)
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            mhat = m / (1 - beta1**t)
            vhat = v / (1 - beta2**t)
            theta -= lr * mhat / (np.sqrt(vhat) + eps)
            path.append(theta)
        assert abs(theta - 3.0) < 0.5  # frozen oracle outcome

        net = nn.init_network([nn.LayerSpec(1, 1, "identity")], seed=0)
        net = dataclasses.replace(net, weights=(np.array([[0.0]]),))
        state = nn.init_adam(net, lr=lr)
        for t in range(100):
            w = net.weights[0][0, 0]
            grads = nn.Gradients((np.array([[2.0 * (w - 3.0)]]),), (np.array([0.0]),))
            net, state = nn.adam_update(net, grads, state)
            assert net.weights[0][0, 0] == pytest.approx(path[t], abs=1e-12)
        assert abs(net.weights[0][0, 0] - 3.0) < 0.5


class TestTrain:
    def test_learns_noiseless_linear_map(self, rng):
        X = rng.uniform(-1, 1, size=(200, 1))
        y = 3.0 * X
        # sanity oracle: the target is exactly linear (least squares residual 0)
        _, res, *_ = np.linalg.lstsq(np.column_stack([X[:, 0], np.ones(200)]), y[:, 0], rcond=None)
        assert res[0] == pytest.approx(0.0, abs=1e-20)
        net = nn.init_network([nn.LayerSpec(1, 16, "relu"), nn.LayerSpec(16, 1, "identity")], seed=2)
        cfg = nn.TrainConfig(epochs=250, batch_size=32, loss="mse", lr=0.01, shuffle_seed=4)
        net, history = nn.train(net, X, y, cfg)
        assert len(history) == 250
        assert history[-1] < 1e-2

    def test_full_batch_is_one_update_per_epoch(self):
        rng_data = np.random.default_rng(1)
        X = rng_data.normal(size=(20, 3))
        y = rng_data.normal(size=(20, 2))
        net0 = small_net(seed=10, dropout=0.25)
        cfg = nn.TrainConfig(epochs=1, batch_size=20, loss="mse", lr=0.01, shuffle_seed=5)
        trained, history = nn.train(net0, X, y, cfg)
        assert len(history) == 1
        # replicate: one shuffle draw, one dropout seed, exactly one Adam step
        loop = np.random.default_rng(cfg.shuffle_seed)
        perm = loop.permutation(20)
        dropout_seed = int(loop.integers(0, 2**63 - 1))
        out, cache = nn.forward(net0, X[perm], training=True, dropout_seed=dropout_seed)
        grads = nn.backward(net0, cache, y[perm], "mse")
        expected, _ = nn.adam_update(net0, grads, nn.init_adam(net0, cfg.lr))
        for a, b in zip(trained.weights, expected.weights):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("case", ["sigmoid-bce", "bcf-head"])
    def test_two_epochs_match_a_replay_through_the_public_steps(self, case):
        # n % batch != 0, so each epoch ends on a short batch; dropout is on
        data = np.random.default_rng(12)
        n, cfg = 50, nn.TrainConfig(epochs=2, batch_size=16, lr=0.01, shuffle_seed=6)
        X = data.normal(size=(n, 3))
        if case == "sigmoid-bce":
            specs = [
                nn.LayerSpec(3, 8, "relu", 0.25), nn.LayerSpec(8, 5, "relu", 0.4), nn.LayerSpec(5, 1, "sigmoid")
            ]
            nets, inputs, head, z = [nn.init_network(specs, 1)], [X], nn.IDENTITY_HEAD, None
            y = (data.random((n, 1)) < 0.5).astype(float)
            cfg = dataclasses.replace(cfg, loss="bce")
        else:
            alpha = [nn.LayerSpec(4, 6, "relu", 0.25), nn.LayerSpec(6, 1, "identity")]
            beta = [
                nn.LayerSpec(3, 5, "relu", 0.25), nn.LayerSpec(5, 4, "relu", 0.25), nn.LayerSpec(4, 1, "identity")
            ]
            nets = [nn.init_network(alpha, 2), nn.init_network(beta, 3)]
            inputs, head = [np.column_stack([X, data.random(n)]), X], models._BCF_HEAD
            z = (data.random((n, 1)) < 0.5).astype(float)
            y = X[:, :1] + z + data.normal(size=(n, 1))

        trained, history = nn.train_nets(nets, inputs, y, cfg, head, z)

        loop = np.random.default_rng(cfg.shuffle_seed)
        states = [nn.init_adam(net, cfg.lr) for net in nets]
        replayed = []
        for _ in range(cfg.epochs):
            total = 0.0
            for idx in nn.minibatches(n, cfg.batch_size, loop):
                passes = [
                    nn.forward(net, Xn[idx], training=True, dropout_seed=int(loop.integers(0, 2**63 - 1)))
                    for net, Xn in zip(nets, inputs)
                ]
                zb = None if z is None else z[idx]
                pred = head.predict([out for out, _ in passes], zb)
                loss = nn.compute_loss(pred, y[idx], cfg.loss)
                douts = head.split(nn.loss_gradient(pred, y[idx], cfg.loss), zb)
                grads = [
                    nn.backward_from_output(net, cache, d) for net, (_, cache), d in zip(nets, passes, douts)
                ]
                nets, states = zip(*(nn.adam_update(*args) for args in zip(nets, grads, states)))
                total += loss * len(idx)
            replayed.append(total / n)
        assert history == replayed
        for got, want in zip(trained, nets):
            np.testing.assert_array_equal(got.params.view(np.uint64), want.params.view(np.uint64))

    def test_bce_rejects_non_binary_target(self):
        net = nn.init_network([nn.LayerSpec(3, 4, "relu"), nn.LayerSpec(4, 1, "sigmoid")], seed=0)
        y = np.array([[0.0], [1.0], [0.5], [1.0]])
        cfg = nn.TrainConfig(epochs=1, batch_size=2, loss="bce")
        with pytest.raises(ValueError, match="^bce targets must be 0/1$"):
            nn.train_nets([net], [np.zeros((4, 3))], y, cfg)

    def test_same_seeds_bit_identical_history(self, rng):
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=(50, 2))
        cfg = nn.TrainConfig(epochs=5, batch_size=16, loss="mse", lr=0.01, shuffle_seed=9)
        _, h1 = nn.train(small_net(seed=1, dropout=0.25), X, y, cfg)
        _, h2 = nn.train(small_net(seed=1, dropout=0.25), X, y, cfg)
        assert h1 == h2

    def test_rejects_empty_data(self):
        with pytest.raises(ValueError):
            nn.train(small_net(), np.zeros((0, 3)), np.zeros((0, 2)),
                     nn.TrainConfig(epochs=1, batch_size=1))

    def test_rejects_batch_larger_than_n(self):
        with pytest.raises(ValueError, match="batch_size"):
            nn.train(small_net(), np.zeros((4, 3)), np.zeros((4, 2)),
                     nn.TrainConfig(epochs=1, batch_size=8))

    def test_divergence_aborts_with_diagnostic(self, rng):
        X = rng.normal(size=(32, 3))
        y = rng.normal(size=(32, 2))
        cfg = nn.TrainConfig(epochs=50, batch_size=8, loss="mse", lr=1e200, shuffle_seed=0)
        with pytest.raises(nn.TrainingDivergedError, match="epoch"):
            nn.train(small_net(seed=8), X, y, cfg)


class TestDropout:
    def test_inverted_dropout_is_unbiased(self, rng):
        # Monte Carlo over 10_000 masks: the post-dropout hidden activation
        # should average to the no-dropout activation within 3 SEs
        rate = 0.25
        net = nn.init_network(
            [nn.LayerSpec(3, 6, "relu", rate), nn.LayerSpec(6, 1, "identity")], seed=4
        )
        X = rng.normal(size=(2, 3))
        _, clean = nn.forward(net, X, training=False)
        h = clean.layers[0].h
        n_masks = 10_000
        total = np.zeros_like(h)
        for seed in range(n_masks):
            _, cache = nn.forward(net, X, training=True, dropout_seed=seed)
            lc = cache.layers[0]
            total += lc.h * lc.mask
        mc_mean = total / n_masks
        # inverted dropout entry: h * m where m in {0, 1/(1-p)}, var = h^2 p/(1-p)
        se = np.abs(h) * np.sqrt(rate / (1 - rate)) / np.sqrt(n_masks)
        assert np.all(np.abs(mc_mean - h) <= 3 * se + 1e-12)

    @pytest.mark.parametrize("rates", [(0.25, 0.25), (0.25, 0.4)])
    def test_masks_are_one_draw_per_layer_in_layer_order(self, rates):
        specs = [
            nn.LayerSpec(3, 6, "relu", rates[0]), nn.LayerSpec(6, 4, "relu", rates[1]), nn.LayerSpec(4, 1)
        ]
        net = nn.init_network(specs, seed=5)
        _, cache = nn.forward(net, np.ones((7, 3)), training=True, dropout_seed=21)
        draws = np.random.default_rng(21)
        for spec, lc in zip(specs[:2], cache.layers):
            expected = (draws.random((7, spec.out_dim)) >= spec.dropout_rate) / (1.0 - spec.dropout_rate)
            np.testing.assert_array_equal(lc.mask, expected)
        assert cache.layers[2].mask is None

    def test_dropout_disabled_at_eval(self):
        net = nn.init_network(
            [nn.LayerSpec(3, 6, "relu", 0.9), nn.LayerSpec(6, 1, "identity")], seed=4
        )
        X = np.ones((4, 3))
        out1, cache = nn.forward(net, X, training=False)
        assert all(lc.mask is None for lc in cache.layers)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 2, 2**64 - 1]


def replay(nets, inputs, y, cfg, head, z):
    """train_nets, step by step through the public forward, loss, backward
    and Adam calls, drawing from one generator as the engine's schedule does."""
    n = y.shape[0]
    loop = np.random.default_rng(cfg.shuffle_seed)
    states = [nn.init_adam(net, cfg.lr) for net in nets]
    history = []
    for _ in range(cfg.epochs):
        total = 0.0
        for idx in nn.minibatches(n, cfg.batch_size, loop):
            passes = [
                nn.forward(net, Xn[idx], training=True, dropout_seed=int(loop.integers(0, 2**63 - 1)))
                for net, Xn in zip(nets, inputs)
            ]
            zb = None if z is None else z[idx]
            pred = head.predict([out for out, _ in passes], zb)
            loss = nn.compute_loss(pred, y[idx], cfg.loss)
            douts = head.split(nn.loss_gradient(pred, y[idx], cfg.loss), zb)
            grads = [nn.backward_from_output(net, cache, d) for net, (_, cache), d in zip(nets, passes, douts)]
            nets, states = zip(*(nn.adam_update(*args) for args in zip(nets, grads, states)))
            total += loss * len(idx)
        history.append(total / n)
    return nets, history


class TestSchedule:
    """What train_nets' drawn-ahead dropout schedule rests on: numpy's
    SeedSequence hash, its PCG64 seeding and its array integer draws. A
    numpy release that changes any of them fails here."""

    @staticmethod
    def assert_words(seeds):
        words = nn._seed_words(np.array(seeds, dtype=np.uint64))
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        for s, row in zip(seeds, words):
            np.testing.assert_array_equal(row, np.random.SeedSequence(s).generate_state(4, np.uint64))

    def test_seed_words_match_seed_sequence_on_edge_seeds(self):
        self.assert_words(EDGE_SEEDS + list(range(2, 50)))

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=30))
    def test_seed_words_match_seed_sequence(self, seeds):
        self.assert_words(seeds)

    def test_array_draw_equals_scalar_draws(self):
        drawn = np.random.default_rng(3).integers(0, 2**63 - 1, size=500)
        scalar = np.random.default_rng(3)
        assert drawn.tolist() == [int(scalar.integers(0, 2**63 - 1)) for _ in range(500)]

    @pytest.mark.parametrize("seed", EDGE_SEEDS + [123456789012345])
    def test_generator_from_words_streams_as_default_rng(self, seed):
        words = nn._seed_words(np.array([seed], dtype=np.uint64))[0]
        got, want = nn._dropout_rng(words), np.random.default_rng(seed)
        assert got.bit_generator.state == want.bit_generator.state
        np.testing.assert_array_equal(got.random(1000), want.random(1000))
        np.testing.assert_array_equal(got.integers(0, 2**63 - 1, size=10), want.integers(0, 2**63 - 1, size=10))

    @pytest.mark.parametrize("case", ["sigmoid-bce", "bcf-head"])
    def test_fit_over_several_epoch_schedules_matches_the_replay(self, case):
        # n % batch != 0 and dropout is on; each epoch draws its own schedule
        data = np.random.default_rng(13)
        n = 20
        cfg = nn.TrainConfig(epochs=5, batch_size=8, lr=0.01, shuffle_seed=7)
        X = data.normal(size=(n, 3))
        if case == "sigmoid-bce":
            specs = [nn.LayerSpec(3, 6, "relu", 0.25), nn.LayerSpec(6, 4, "relu", 0.4), nn.LayerSpec(4, 1, "sigmoid")]
            nets, inputs, head, z = [nn.init_network(specs, 4)], [X], nn.IDENTITY_HEAD, None
            y = (data.random((n, 1)) < 0.5).astype(float)
            cfg = dataclasses.replace(cfg, loss="bce")
        else:
            alpha = [nn.LayerSpec(4, 6, "relu", 0.25), nn.LayerSpec(6, 1, "identity")]
            beta = [nn.LayerSpec(3, 5, "relu", 0.25), nn.LayerSpec(5, 1, "identity")]
            nets = [nn.init_network(alpha, 5), nn.init_network(beta, 6)]
            inputs, head = [np.column_stack([X, data.random(n)]), X], models._BCF_HEAD
            z = (data.random((n, 1)) < 0.5).astype(float)
            y = X[:, :1] + z + data.normal(size=(n, 1))

        trained, history = nn.train_nets(nets, inputs, y, cfg, head, z)
        replayed, replayed_history = replay(nets, inputs, y, cfg, head, z)
        assert history == replayed_history
        for got, want in zip(trained, replayed):
            np.testing.assert_array_equal(got.params.view(np.uint64), want.params.view(np.uint64))
