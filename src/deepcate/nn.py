"""Minimal dense feed-forward network engine.

Everything is float64 and deterministic given explicit seeds: weight
initialization, dropout masks, and minibatch shuffling are all driven by
caller-supplied integers. A non-finite value anywhere is an error state,
never silently propagated.

A network keeps its parameters in one flat buffer with per-layer views.
One loop, `train_nets`, trains every model through the model's `Head`:
backward writes into a flat gradient buffer and one fused Adam step updates
it in place. `forward`, `backward` and `adam_update` wrap the same parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

ACTIVATIONS = ("relu", "sigmoid", "identity")
LOSSES = ("mse", "bce")

# Predictions are pulled this far inside (0, 1) before BCE takes logs.
BCE_CLAMP = 1e-12


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite network output, loss or gradient."""


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: an affine map, an activation, and a dropout rate.

    Dropout (inverted, so evaluation needs no rescaling) is applied to the
    layer's own activation output; output layers should use rate 0.
    """

    in_dim: int
    out_dim: int
    activation: str = "relu"
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError(f"layer dims must be >= 1, got {self.in_dim}x{self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


def _flatten(weights, biases) -> np.ndarray:
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in (*weights, *biases)])


def _views(layers, buf: np.ndarray) -> tuple[tuple, tuple]:
    """Weight and bias views of a buffer laid out as _flatten lays them."""
    weights, biases, o = [], [], 0
    for spec in layers:
        size = spec.in_dim * spec.out_dim
        weights.append(buf[o : o + size].reshape(spec.in_dim, spec.out_dim))
        o += size
    for spec in layers:
        biases.append(buf[o : o + spec.out_dim])
        o += spec.out_dim
    return tuple(weights), tuple(biases)


@dataclass(frozen=True)
class MlpNetwork:
    """A stack of LayerSpecs with their weight matrices and bias vectors.

    The constructor copies these into one new flat buffer, `params`, and
    keeps views of it. Treat instances as immutable; updates return new
    networks.
    """

    layers: tuple[LayerSpec, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    rng_seed: int
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shapes = [np.shape(a) for a in (*self.weights, *self.biases)]
        if shapes != [(s.in_dim, s.out_dim) for s in self.layers] + [(s.out_dim,) for s in self.layers]:
            raise ValueError(f"weight and bias shapes {shapes} do not match the layers")
        self._bind(_flatten(self.weights, self.biases))

    def _bind(self, params: np.ndarray) -> MlpNetwork:  # frozen, so set fields via __dict__
        weights, biases = _views(self.layers, params)
        self.__dict__.update(params=params, weights=weights, biases=biases)
        return self

    def _over(self, params: np.ndarray) -> MlpNetwork:
        """A network with these layers over `params`, taken, not copied."""
        net = object.__new__(MlpNetwork)
        net.__dict__.update(layers=self.layers, rng_seed=self.rng_seed)
        return net._bind(params)

    def __reduce__(self):
        # rebuild through the constructor, so the views share `params` again
        return (MlpNetwork, (self.layers, self.weights, self.biases, self.rng_seed))

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim


class LayerCache(NamedTuple):
    x: np.ndarray  # layer input
    z: np.ndarray  # pre-activation
    h: np.ndarray  # activation, before dropout
    mask: np.ndarray | None  # inverted-dropout mask, None when inactive


class ForwardCache(NamedTuple):
    layers: tuple[LayerCache, ...]
    output: np.ndarray
    training: bool


class Gradients(NamedTuple):
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class AdamState:
    """First/second-moment accumulators, laid out like the network's
    `params`, plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 250
    batch_size: int = 64
    loss: str = "mse"
    lr: float = 0.001
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")


def init_network(specs, seed: int) -> MlpNetwork:
    """Build a network with seeded random weights and zero biases.

    ReLU layers get He-scaled normals (std sqrt(2/in)), sigmoid/identity
    layers get Glorot-scaled normals (std sqrt(2/(in+out))). The same seed
    always yields bit-identical weights.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one layer")
    for prev, nxt in zip(specs, specs[1:]):
        if prev.out_dim != nxt.in_dim:
            raise ValueError(f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for spec in specs:
        fan = spec.in_dim if spec.activation == "relu" else spec.in_dim + spec.out_dim
        scale = np.sqrt(2.0 / fan)
        weights.append(rng.normal(0.0, scale, size=(spec.in_dim, spec.out_dim)))
        biases.append(np.zeros(spec.out_dim))
    return MlpNetwork(specs, tuple(weights), tuple(biases), int(seed))


def count_params(net: MlpNetwork) -> int:
    """Total number of weights and biases: sum over layers of in*out + out."""
    return int(net.params.size)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        return _sigmoid(z)
    return z


def _forward(net: MlpNetwork, X: np.ndarray, rng) -> tuple[np.ndarray, list[LayerCache]]:
    """The forward pass; rng draws the dropout masks, None in eval mode."""
    caches = []
    a = X
    with np.errstate(over="ignore", invalid="ignore"):
        for spec, w, b in zip(net.layers, net.weights, net.biases):
            z = a @ w + b
            h = _activate(z, spec.activation)
            mask = None
            if rng is not None and spec.dropout_rate > 0.0:
                mask = (rng.random(h.shape) >= spec.dropout_rate) / (1.0 - spec.dropout_rate)
            caches.append(LayerCache(a, z, h, mask))
            a = h if mask is None else h * mask
    if not np.isfinite(a).all():
        raise FloatingPointError("non-finite network output")
    return a, caches


def forward(
    net: MlpNetwork, X: np.ndarray, training: bool = False, dropout_seed: int | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a row-major batch.

    In training mode, inverted dropout is applied per layer at that layer's
    rate, with masks drawn deterministically from dropout_seed. In eval
    mode dropout is a no-op and dropout_seed is ignored.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if X.shape[1] != net.in_dim:
        raise ValueError(f"X has {X.shape[1]} columns, network expects {net.in_dim}")
    rng = np.random.default_rng(dropout_seed) if training else None
    out, caches = _forward(net, X, rng)
    return out, ForwardCache(tuple(caches), out, training)


def compute_loss(pred: np.ndarray, target: np.ndarray, kind: str) -> float:
    """Mean squared error or mean binary cross-entropy over all entries."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if kind == "mse":
        return float(np.mean((pred - target) ** 2))
    if kind == "bce":
        if pred.min() < -1e-9 or pred.max() > 1.0 + 1e-9:
            raise ValueError("bce predictions must lie in (0, 1)")
        if not np.all((target == 0.0) | (target == 1.0)):
            raise ValueError("bce targets must be 0/1")
        p = np.clip(pred, BCE_CLAMP, 1.0 - BCE_CLAMP)
        return float(np.mean(-(target * np.log(p) + (1.0 - target) * np.log1p(-p))))
    raise ValueError(f"unknown loss {kind!r}")


def loss_gradient(pred: np.ndarray, target: np.ndarray, kind: str) -> np.ndarray:
    """d(loss)/d(pred), matching compute_loss entry for entry."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if kind == "mse":
        return 2.0 * (pred - target) / pred.size
    if kind == "bce":
        p = np.clip(pred, BCE_CLAMP, 1.0 - BCE_CLAMP)
        return (p - target) / (p * (1.0 - p)) / pred.size
    raise ValueError(f"unknown loss {kind!r}")


def _backward(net: MlpNetwork, caches, dout: np.ndarray, grad_weights, grad_biases) -> None:
    """Backpropagate dout through the cached pass into the gradient views."""
    g = dout
    for i in range(len(net.layers) - 1, -1, -1):
        lc = caches[i]
        if lc.mask is not None:
            g = g * lc.mask
        if net.layers[i].activation == "relu":
            g = g * (lc.z > 0.0).astype(np.float64)
        elif net.layers[i].activation == "sigmoid":
            g = g * (lc.h * (1.0 - lc.h))
        np.matmul(lc.x.T, g, out=grad_weights[i])
        g.sum(axis=0, out=grad_biases[i])
        if i > 0:
            g = g @ net.weights[i].T


def backward_from_output(net: MlpNetwork, cache: ForwardCache, dout: np.ndarray) -> Gradients:
    """Backpropagate an arbitrary output gradient through the cached pass.

    dout is d(loss)/d(network output), shaped like the forward output.
    Dropout masks recorded in the cache are respected. The gradients are
    views of one new flat buffer laid out like `net.params`.
    """
    if len(cache.layers) != len(net.layers):
        raise ValueError("cache does not match network depth")
    dout = np.asarray(dout, dtype=np.float64)
    if dout.shape != cache.output.shape:
        raise ValueError("dout shape does not match cached output")
    for spec, lc in zip(net.layers, cache.layers):
        if lc.x.shape[1] != spec.in_dim or lc.z.shape[1] != spec.out_dim:
            raise ValueError("cache does not match network shapes")
    grad_weights, grad_biases = _views(net.layers, np.empty_like(net.params))
    _backward(net, cache.layers, dout, grad_weights, grad_biases)
    return Gradients(grad_weights, grad_biases)


def backward(net: MlpNetwork, cache: ForwardCache, target: np.ndarray, kind: str) -> Gradients:
    """Gradients of the scalar loss with respect to every weight and bias."""
    return backward_from_output(net, cache, loss_gradient(cache.output, target, kind))


def _adam_step(params, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """One bias-corrected Adam step over flat buffers, in place. Each entry
    gets p - lr * (m / c1) / (sqrt(v / c2) + eps), in that order."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * (grad * grad)
    step = m / c1
    step *= lr
    denom = v / c2
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    params -= step


def init_adam(net: MlpNetwork, lr: float) -> AdamState:
    return AdamState(m=np.zeros_like(net.params), v=np.zeros_like(net.params), t=0, lr=lr)


def adam_update(net: MlpNetwork, grads: Gradients, state: AdamState) -> tuple[MlpNetwork, AdamState]:
    """One bias-corrected Adam step; returns the updated network and state,
    leaving the given ones as they are."""
    grad = _flatten(grads.weights, grads.biases)
    if grad.shape != net.params.shape:
        raise ValueError("gradients do not match the network")
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient")
    net2 = net._over(net.params.copy())
    state2 = AdamState(state.m.copy(), state.v.copy(), state.t + 1, state.lr)
    _adam_step(net2.params, grad, state2.m, state2.v, state2.t, state.lr)
    return net2, state2


def minibatches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Index batches covering one fresh shuffle of range(n); the last batch
    may be short (incomplete batches are processed, not dropped)."""
    perm = rng.permutation(n)
    return [perm[start : start + batch_size] for start in range(0, n, batch_size)]


class Head(NamedTuple):
    """predict(outs, z) maps the networks' batch outputs and the batch's
    treatment column (or None) to the prediction; split(dpred, z) maps
    d(loss)/d(prediction) back to one output gradient per network."""

    predict: Callable
    split: Callable


IDENTITY_HEAD = Head(lambda outs, z: outs[0], lambda dpred, z: (dpred,))


class _Trainee:
    """A private copy of a network, trained in place, and its gradient and Adam buffers."""

    def __init__(self, net: MlpNetwork):
        self.net = net._over(net.params.copy())
        self.grad, self.m, self.v = (np.zeros_like(self.net.params) for _ in range(3))
        self.grad_weights, self.grad_biases = _views(net.layers, self.grad)


def train_nets(
    nets, inputs, y: np.ndarray, cfg: TrainConfig, head: Head = IDENTITY_HEAD, z=None
) -> tuple[tuple[MlpNetwork, ...], list[float]]:
    """Minibatch Adam training of head(nets[k](inputs[k]) for each k, z)
    against y under cfg.loss.

    One generator, seeded by cfg.shuffle_seed, shuffles the rows and draws
    one dropout seed per network and step, so identical inputs give
    bit-identical results. A non-finite output, loss or gradient raises
    TrainingDivergedError naming the epoch. Returns new networks, sharing
    no memory with the given ones, and the per-epoch mean sample loss.
    """
    inputs = [np.asarray(X, dtype=np.float64) for X in inputs]
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or any(X.ndim != 2 for X in inputs):
        raise ValueError("X and y must be 2-D")
    n = y.shape[0]
    if n < 1:
        raise ValueError("empty training data")
    for net, X in zip(nets, inputs):
        if X.shape != (n, net.in_dim):
            raise ValueError(f"X has shape {X.shape}, expected ({n}, {net.in_dim})")
    trainees = [_Trainee(net) for net in nets]
    rng = np.random.default_rng(cfg.shuffle_seed)
    t = 0
    history = []
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        for idx in minibatches(n, cfg.batch_size, rng):
            try:  # one dropout seed per network, drawn in network order
                passes = [
                    _forward(tr.net, X[idx], np.random.default_rng(int(rng.integers(0, 2**63 - 1))))
                    for tr, X in zip(trainees, inputs)
                ]
            except FloatingPointError as exc:
                raise TrainingDivergedError(f"epoch {epoch}: {exc}") from exc
            zb = None if z is None else z[idx]
            pred = head.predict([out for out, _ in passes], zb)
            loss = compute_loss(pred, y[idx], cfg.loss)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"epoch {epoch}: non-finite loss ({loss})")
            douts = head.split(loss_gradient(pred, y[idx], cfg.loss), zb)
            for tr, (_, caches), dout in zip(trainees, passes, douts):
                _backward(tr.net, caches, dout, tr.grad_weights, tr.grad_biases)
                if not np.isfinite(tr.grad).all():
                    raise TrainingDivergedError(f"epoch {epoch}: non-finite gradient")
            t += 1
            for tr in trainees:
                _adam_step(tr.net.params, tr.grad, tr.m, tr.v, t, cfg.lr)
            epoch_loss += loss * len(idx)
        history.append(epoch_loss / n)
    return tuple(tr.net._over(tr.net.params.copy()) for tr in trainees), history


def train(
    net: MlpNetwork, X: np.ndarray, y: np.ndarray, cfg: TrainConfig
) -> tuple[MlpNetwork, list[float]]:
    """Minibatch Adam training of net(X) against y under cfg.loss (see
    train_nets); returns the trained network and the per-epoch mean loss."""
    n = np.shape(X)[0]
    if cfg.batch_size > n > 0:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds n={n}")
    (net,), history = train_nets([net], [X], y, cfg)
    return net, history
