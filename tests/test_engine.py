"""The training engine: divergence reporting and the memory it owns.

Parameters live in one flat buffer per network and the training loop
updates private copies of them in place; these tests pin down that no
caller-visible array is ever written to or shared.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from deepcate import models, nn


@pytest.fixture
def data(rng):
    X = rng.normal(size=(120, 5))
    Z = (rng.random(120) < 0.5).astype(float)
    Y = X[:, 0] + Z + rng.normal(size=120)
    return X, Z, Y


def cfg(lr=0.01, epochs=3, seed=4):
    return nn.TrainConfig(epochs=epochs, batch_size=32, lr=lr, shuffle_seed=seed)


FITS = {
    "propensity": lambda X, Z, Y, c: models.fit_propensity(X, Z, c),
    "shared": lambda X, Z, Y, c: models.fit_shared(X, Z, Y, c),
    "bcf": lambda X, Z, Y, c: models.fit_bcf(X, Z, Y, np.full(len(Z), 0.4), c),
    "naive": lambda X, Z, Y, c: models.fit_naive(X, Z, Y, c),
}


def nets_of(model):
    return [v for v in vars(model).values() if isinstance(v, nn.MlpNetwork)]


class TestDivergence:
    @pytest.mark.parametrize("fit", sorted(FITS))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_network_fit_names_the_epoch(self, fit, data):
        with pytest.raises(nn.TrainingDivergedError, match=r"^epoch \d+: non-finite"):
            FITS[fit](*data, cfg(lr=1e200))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_with_finite_loss(self):
        # column 0 is huge but carries zero weight, so the output and the
        # loss stay finite while its weight gradient overflows
        net = nn.init_network([nn.LayerSpec(2, 1, "identity")], seed=0)
        net = dataclasses.replace(net, weights=(np.array([[0.0], [1.0]]),))
        X = np.column_stack([np.full(32, 1.7e308), np.ones(32)])
        y = np.full((32, 1), 1e3)
        with pytest.raises(nn.TrainingDivergedError, match="epoch 0: non-finite gradient"):
            nn.train(net, X, y, nn.TrainConfig(epochs=1, batch_size=32))


class TestAliasing:
    def test_train_leaves_the_input_network_unchanged(self, rng):
        net = nn.init_network([nn.LayerSpec(3, 8, "relu", 0.25), nn.LayerSpec(8, 1, "identity")], seed=1)
        before = net.params.copy()
        trained, _ = nn.train(net, rng.normal(size=(40, 3)), rng.normal(size=(40, 1)), cfg())
        np.testing.assert_array_equal(net.params, before)
        assert not np.array_equal(trained.params, before)

    @pytest.mark.parametrize("fit", ["shared", "bcf"])
    def test_fits_leave_their_initial_networks_unchanged(self, fit, data, monkeypatch):
        initial = []

        def recording_init(specs, seed):
            net = nn.init_network(specs, seed)
            initial.append((net, net.params.copy()))
            return net

        monkeypatch.setattr(models, "init_network", recording_init)
        model = FITS[fit](*data, cfg())
        assert len(initial) == len(nets_of(model))
        for net, before in initial:
            np.testing.assert_array_equal(net.params, before)
            for w, b in zip(net.weights, net.biases):
                assert np.shares_memory(w, net.params) and np.shares_memory(b, net.params)

    def test_fitted_weights_share_no_memory(self, data, monkeypatch):
        trainees = []

        class RecordingTrainee(nn._Trainee):
            def __init__(self, net):
                super().__init__(net)
                trainees.append(self)

        monkeypatch.setattr(nn, "_Trainee", RecordingTrainee)
        fitted = [FITS[fit](*data, cfg()) for fit in ("shared", "bcf", "bcf", "naive", "propensity")]
        nets = [net for model in fitted for net in nets_of(model)]
        engine = [buf for tr in trainees for buf in (tr.net.params, tr.grad, tr.m, tr.v)]
        assert len(trainees) == len(nets) == 8
        for i, net in enumerate(nets):
            for other in nets[i + 1 :] + engine:
                for arr in (net.params, *net.weights, *net.biases):
                    assert not np.shares_memory(arr, other)

    def test_adam_update_is_functional(self, rng):
        net = nn.init_network([nn.LayerSpec(3, 4, "relu"), nn.LayerSpec(4, 2, "identity")], seed=2)
        state = nn.init_adam(net, lr=0.1)
        out, cache = nn.forward(net, rng.normal(size=(5, 3)))
        grads = nn.backward(net, cache, rng.normal(size=(5, 2)), "mse")
        params, m, v = net.params.copy(), state.m.copy(), state.v.copy()
        net2, state2 = nn.adam_update(net, grads, state)
        np.testing.assert_array_equal(net.params, params)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)
        assert state.t == 0 and state2.t == 1
        assert not np.array_equal(net2.params, params)
        for a, b in ((net2.params, net.params), (state2.m, state.m), (state2.v, state.v)):
            assert not np.shares_memory(a, b)


class TestFlatParameters:
    def test_constructor_copies_into_one_buffer(self):
        w, b = np.array([[2.0]]), np.array([1.0])
        net = nn.MlpNetwork((nn.LayerSpec(1, 1, "identity"),), (w,), (b,), 0)
        np.testing.assert_array_equal(net.params, [2.0, 1.0])
        assert not np.shares_memory(net.params, w)
        assert np.shares_memory(net.weights[0], net.params)

    def test_pickle_round_trip_keeps_the_views(self):
        net = nn.init_network([nn.LayerSpec(3, 4, "relu"), nn.LayerSpec(4, 2, "identity")], seed=3)
        back = pickle.loads(pickle.dumps(net))
        np.testing.assert_array_equal(back.params, net.params)
        assert all(np.shares_memory(a, back.params) for a in (*back.weights, *back.biases))

    def test_rejects_shapes_that_do_not_match_the_layers(self):
        net = nn.init_network([nn.LayerSpec(3, 4, "relu"), nn.LayerSpec(4, 2, "identity")], seed=3)
        with pytest.raises(ValueError, match="do not match"):
            dataclasses.replace(net, weights=(net.weights[0].T, net.weights[1]))

    def test_rejects_layers_that_do_not_chain(self):
        # every array fits its own layer, but the second layer reads 5
        # columns of the first layer's 4
        specs = (nn.LayerSpec(3, 4, "relu"), nn.LayerSpec(5, 2, "identity"))
        weights = (np.zeros((3, 4)), np.zeros((5, 2)))
        biases = (np.zeros(4), np.zeros(2))
        with pytest.raises(ValueError, match="^layer dims do not chain: 4 -> 5$"):
            nn.MlpNetwork(specs, weights, biases, 0)

    def test_rejects_an_empty_layer_stack(self):
        with pytest.raises(ValueError, match="^need at least one layer$"):
            nn.MlpNetwork((), (), (), 0)
