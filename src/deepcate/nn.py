"""Minimal dense feed-forward network engine.

Everything is float64 and deterministic given explicit seeds: weight
initialization, dropout masks, and minibatch shuffling are all driven by
caller-supplied integers. A non-finite value anywhere is an error state,
never silently propagated.

A network keeps its parameters in one flat buffer with per-layer views.
One loop, `train_nets`, trains every model through the model's `Head`.
A fit lays all of its networks' parameters, gradients and Adam moments
out in one flat buffer each, so one fused Adam step updates them all in
place. Each network gets one preallocated workspace per batch size the
fit meets (the full batch and the short last batch), and the step's
forward and backward passes write each layer's arrays into it. `forward`,
`backward` and `adam_update` run the same layer loops and Adam step, on
fresh arrays. A pass writes each layer's activation over its
pre-activation buffer.

A fit draws each epoch's random schedule before its steps, in the order
its one generator would draw it step by step: the epoch's shuffle, then
one dropout seed per network and step. One vectorized pass turns the
epoch's seeds into the words that `np.random.SeedSequence` would derive
from them (`_seed_words`), so each step's dropout generator is a PCG64
built from its words, the stream that `np.random.default_rng(seed)`
gives, without hashing each seed on its own. The epoch then gathers every
input, y and z once into the shuffled order, and each step reads its rows
as one contiguous slice.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

ACTIVATIONS = ("relu", "sigmoid", "identity")
LOSSES = ("mse", "bce")

# Predictions are pulled this far inside (0, 1) before BCE takes logs.
BCE_CLAMP = 1e-12

# numpy.random.SeedSequence's hash: a 4-word pool, its multipliers and the
# 16-bit xorshift (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The xor and multiply constants of `count` successive hashes, as a
    (2, count, 1) uint32 array: the multiplier advances on every hash,
    whatever the data."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(init)
        init = init * mult & _MASK32
        mults.append(init)
    return np.array([xors, mults], np.uint32)[..., None]


# a 4-word pool takes 4 entropy hashes, then 3 cross-mixing hashes from each
# of its words; 4 uint64 output words are 8 uint32 hashes, cycling the pool
_POOL_HASHES = _hash_constants(_INIT_A, _MULT_A, 4 + 4 * 3)
_OUTPUT_HASHES = _hash_constants(_INIT_B, _MULT_B, 8)
_OTHER_WORDS = [[dst for dst in range(4) if dst != src] for src in range(4)]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mult  # uint32 arrays wrap, as the C code does
    value ^= value >> _XSHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L
    r -= y * _MIX_MULT_R
    r ^= r >> _XSHIFT
    return r


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """np.random.SeedSequence(s).generate_state(4, np.uint64) for each
    seed s < 2**64 of a 1-D array, as the rows of an (n, 4) uint64 array.

    A seed is two 32-bit entropy words, low first, zero-padded to the
    pool; a seed below 2**32, one word to SeedSequence, hashes the same.
    The pool is a (4, n) array, so each hash runs on every seed at once.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = np.zeros((4, seeds.size), np.uint32)
    entropy[0] = seeds & np.uint64(_MASK32)
    entropy[1] = seeds >> np.uint64(32)
    xors, mults = _POOL_HASHES
    pool = _hashmix(entropy, xors[:4], mults[:4])
    for src, dst in enumerate(_OTHER_WORDS):  # mix each pool word into the other three
        hashes = slice(4 + 3 * src, 7 + 3 * src)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xors[hashes], mults[hashes]))
    state = _hashmix(np.tile(pool, (2, 1)), *_OUTPUT_HASHES)
    # pairs of 32-bit words, low first, whatever the host's byte order
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_words_type() -> type:
    """An ISeedSequence that hands a bit generator a precomputed
    `_seed_words` row: the state SeedSequence would generate for PCG64.
    Defined on first use, so importing this module imports no numpy.random."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for 4 uint64 words and reads them as one contiguous row
            assert n_words == 4 and np.dtype(dtype) == np.uint64 and self.words.flags.c_contiguous
            return self.words

    return SeedWords


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite network output, loss or gradient."""


def is_integer(value) -> bool:
    """Whether value is an int or a numpy integer, and not a bool: Python
    counts True as 1, but a JSON true is no layer width or seed."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


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
        if not (is_integer(self.in_dim) and is_integer(self.out_dim)):
            raise ValueError(f"layer dims must be integers, got {self.in_dim!r}x{self.out_dim!r}")
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

    The constructor checks that the layers chain and the arrays fit them,
    then copies the arrays into one flat buffer, `params`, and keeps views
    of it. Treat instances as immutable; updates return new networks.
    """

    layers: tuple[LayerSpec, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    rng_seed: int
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("need at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}")
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
    h: np.ndarray  # activation, before dropout, written over the pre-activation
    mask: np.ndarray | None  # inverted-dropout mask, None when inactive


class ForwardCache(NamedTuple):
    layers: tuple[LayerCache, ...]
    output: np.ndarray


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
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be > 0 and finite, got {self.lr}")


def init_network(specs, seed: int) -> MlpNetwork:
    """Build a network with seeded random weights and zero biases.

    ReLU layers get He-scaled normals (std sqrt(2/in)), sigmoid/identity
    layers get Glorot-scaled normals (std sqrt(2/(in+out))). The same seed
    always yields bit-identical weights.
    """
    specs = tuple(specs)
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


def _sigmoid(z: np.ndarray) -> None:
    """The logistic function, in place: with e = exp(-|z|), 1 / (1 + e)
    where z >= 0 and e / (1 + e) elsewhere, so no exp overflows."""
    pos = z >= 0.0
    e = np.exp(np.where(pos, -z, z))  # -|z|, but a nan keeps its sign
    np.divide(np.where(pos, 1.0, e), 1.0 + e, out=z)


class _Workspace:
    """Buffers for one network's training step on a batch of `rows` rows.

    Per layer: `h` the activation, `a` its dropped-out copy (dropout layers
    only), `g` the backward gradient and `pos` the relu positivity (relu
    layers only). The dropout masks are one flat buffer over all dropout
    layers, in layer order, with per-layer views; each step draws its
    uniforms into it and thresholds and scales them in place against the
    per-entry `rate` and `scale`, so layers of any rates take one path.
    """

    def __init__(self, layers, rows: int):
        def per_layer(wanted, dtype=np.float64):
            return [np.empty((rows, s.out_dim), dtype) if wanted(s) else None for s in layers]

        self.h = per_layer(lambda s: True)
        self.a = per_layer(lambda s: s.dropout_rate > 0.0)
        self.g = per_layer(lambda s: True)
        self.pos = per_layer(lambda s: s.activation == "relu", bool)
        dropped = [s for s in layers if s.dropout_rate > 0.0]
        # each mask entry's dropout rate and inverted-dropout scale
        self.rate = np.repeat([s.dropout_rate for s in dropped], [rows * s.out_dim for s in dropped])
        self.scale = 1.0 / (1.0 - self.rate)
        self.mask = np.empty_like(self.rate)
        self.masks, o = [], 0
        for s in layers:
            if s.dropout_rate == 0.0:
                self.masks.append(None)
                continue
            self.masks.append(self.mask[o : o + rows * s.out_dim].reshape(rows, s.out_dim))
            o += rows * s.out_dim

    def draw_masks(self, rng) -> None:
        """Fill every layer's inverted-dropout mask from one draw of uniforms,
        the same stream as one draw per layer in layer order."""
        rng.random(out=self.mask)
        np.greater_equal(self.mask, self.rate, out=self.mask)  # 1.0 where kept, 0.0 where dropped
        self.mask *= self.scale  # the values of (uniform >= rate) / (1 - rate)


def _forward(
    net: MlpNetwork, X: np.ndarray, rng, ws: _Workspace | None = None
) -> tuple[np.ndarray, list[LayerCache]]:
    """The forward pass; rng draws the dropout masks, None in eval mode.

    A training pass writes into `ws`, a new workspace when none is given;
    an eval pass allocates each layer's output. The caller sets
    np.errstate: overflow surfaces as a non-finite output.
    """
    if rng is not None:
        ws = ws or _Workspace(net.layers, X.shape[0])
        ws.draw_masks(rng)
    caches = []
    a = X
    for i, (spec, w, b) in enumerate(zip(net.layers, net.weights, net.biases)):
        h = np.matmul(a, w, out=None if ws is None else ws.h[i])  # the activation overwrites it
        h += b
        if spec.activation == "relu":
            np.maximum(h, 0.0, out=h)
        elif spec.activation == "sigmoid":
            _sigmoid(h)
        mask = None if rng is None else ws.masks[i]
        caches.append(LayerCache(a, h, mask))
        a = h if mask is None else np.multiply(h, mask, out=ws.a[i])
    if not np.isfinite(a).all():
        raise FloatingPointError("non-finite network output")
    return a, caches


def forward(
    net: MlpNetwork, X: np.ndarray, training: bool = False, dropout_seed: int | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a row-major batch.

    In training mode, inverted dropout is applied per layer at that layer's
    rate, with masks drawn deterministically from dropout_seed, which
    training mode requires. In eval mode dropout is a no-op and
    dropout_seed is ignored.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if X.shape[1] != net.in_dim:
        raise ValueError(f"X has {X.shape[1]} columns, network expects {net.in_dim}")
    if training and dropout_seed is None:
        raise ValueError("training mode needs an explicit dropout_seed")
    rng = np.random.default_rng(dropout_seed) if training else None
    with np.errstate(over="ignore", invalid="ignore"):
        out, caches = _forward(net, X, rng)
    return out, ForwardCache(tuple(caches), out)


def _as_pair(pred, target) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return pred, target


def _check_bce_predictions(pred: np.ndarray) -> None:
    if pred.min() < -1e-9 or pred.max() > 1.0 + 1e-9:
        raise ValueError("bce predictions must lie in (0, 1)")


def _check_bce_targets(target: np.ndarray) -> None:
    if not np.all((target == 0.0) | (target == 1.0)):
        raise ValueError("bce targets must be 0/1")


def _checked_pair(pred, target, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """pred and target as float64 arrays of one shape; under bce, predictions
    in [0, 1] (to 1e-9) and 0/1 targets, as the bce formulas assume."""
    pred, target = _as_pair(pred, target)
    if kind == "bce":
        _check_bce_predictions(pred)
        _check_bce_targets(target)
    return pred, target


def _mean(a: np.ndarray) -> float:
    """np.mean(a) of a float64 array, bit for bit: its sum, then one
    division by the count, without np.mean's Python layers."""
    return float(np.add.reduce(a, axis=None) / a.size)


def _loss_and_gradient(pred, target, kind: str, out=None) -> tuple[float, np.ndarray]:
    """The loss and d(loss)/d(pred), written into `out` when given. The two
    share pred - target (mse) or the clipped prediction p (bce)."""
    if kind == "mse":
        diff = np.subtract(pred, target, out=out)
        loss = _mean(np.square(diff))
        diff *= 2.0
        diff /= pred.size
        return loss, diff
    if kind == "bce":  # targets are 0/1, so log p where 1 and log(1 - p) where 0
        p = np.minimum(np.maximum(pred, BCE_CLAMP), 1.0 - BCE_CLAMP)
        loss = -_mean(np.where(target == 1.0, np.log(p), np.log1p(-p)))
        grad = np.subtract(p, target, out=out)
        grad /= p * (1.0 - p)
        grad /= pred.size
        return loss, grad
    raise ValueError(f"unknown loss {kind!r}")


def compute_loss(pred: np.ndarray, target: np.ndarray, kind: str) -> float:
    """Mean squared error or mean binary cross-entropy over all entries."""
    return _loss_and_gradient(*_checked_pair(pred, target, kind), kind)[0]


def loss_gradient(pred: np.ndarray, target: np.ndarray, kind: str) -> np.ndarray:
    """d(loss)/d(pred), matching compute_loss entry for entry; it rejects
    what compute_loss rejects."""
    return _loss_and_gradient(*_checked_pair(pred, target, kind), kind)[1]


def _backward(
    net: MlpNetwork, caches, dout: np.ndarray, grad_weights, grad_biases, ws: _Workspace | None = None
) -> None:
    """Backpropagate dout through the cached pass into the gradient views,
    writing into `ws` when given and into fresh arrays otherwise."""
    g = dout
    for i in range(len(net.layers) - 1, -1, -1):
        lc = caches[i]
        buf = None if ws is None else ws.g[i]
        if lc.mask is not None:
            g = np.multiply(g, lc.mask, out=buf)
        if net.layers[i].activation == "relu":  # relu(z) > 0 exactly where z > 0
            g = np.multiply(g, np.greater(lc.h, 0.0, out=None if ws is None else ws.pos[i]), out=buf)
        elif net.layers[i].activation == "sigmoid":
            g = np.multiply(g, lc.h * (1.0 - lc.h), out=buf)
        np.matmul(lc.x.T, g, out=grad_weights[i])
        np.add.reduce(g, axis=0, out=grad_biases[i])  # g.sum(axis=0), without its Python layers
        if i > 0:
            g = np.matmul(g, net.weights[i].T, out=None if ws is None else ws.g[i - 1])


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
        if lc.x.shape[1] != spec.in_dim or lc.h.shape[1] != spec.out_dim:
            raise ValueError("cache does not match network shapes")
    grad_weights, grad_biases = _views(net.layers, np.empty_like(net.params))
    _backward(net, cache.layers, dout, grad_weights, grad_biases)
    return Gradients(grad_weights, grad_biases)


def backward(net: MlpNetwork, cache: ForwardCache, target: np.ndarray, kind: str) -> Gradients:
    """Gradients of the scalar loss with respect to every weight and bias."""
    return backward_from_output(net, cache, loss_gradient(cache.output, target, kind))


def _adam_step(params, grad, m, v, t, lr, work, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """One bias-corrected Adam step over flat buffers, in place, with `work`
    a (2, size) scratch buffer. Each entry gets
    p - lr * (m / c1) / (sqrt(v / c2) + eps), in that order."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    step, tmp = work
    m *= beta1
    m += np.multiply(grad, 1.0 - beta1, out=tmp)
    v *= beta2
    tmp = np.multiply(grad, grad, out=tmp)
    tmp *= 1.0 - beta2
    v += tmp
    np.divide(m, c1, out=step)
    step *= lr
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    step /= tmp
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
    _adam_step(net2.params, grad, state2.m, state2.v, state2.t, state.lr, np.empty((2, grad.size)))
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
    """A network under training: `bind` gives it a private copy of the
    network over its slice of the fit's flat buffers, with its gradient and
    Adam moments beside it."""

    def __init__(self, net: MlpNetwork):
        self.initial = net

    def bind(self, block: np.ndarray) -> None:
        """Train in `block`, a zeroed (4, size) view: params, grad, m and v."""
        block[0] = self.initial.params
        self.net = self.initial._over(block[0])
        self.grad, self.m, self.v = block[1:]
        self.grad_weights, self.grad_biases = _views(self.net.layers, self.grad)


class _Batch:
    """A fit's buffers for batches of `rows` rows: one workspace per
    network and d(loss)/d(prediction)."""

    def __init__(self, nets, y: np.ndarray, rows: int):
        self.workspaces = [_Workspace(net.layers, rows) for net in nets]
        self.dpred = np.empty((rows, y.shape[1]))


def _epoch_schedule(n: int, batch_size: int, rng: np.random.Generator, networks: int):
    """An epoch's index batches and its steps' dropout seed words, (steps,
    networks, 4), drawn from rng in the order a step-by-step loop draws
    them: the shuffle (through `minibatches`), then one seed per network
    and step. The epoch's seeds hash in one pass."""
    batches = minibatches(n, batch_size, rng)
    # one array draw gives the values of that many scalar draws
    seeds = rng.integers(0, 2**63 - 1, size=len(batches) * networks)
    return batches, _seed_words(seeds).reshape(len(batches), networks, 4)


def _dropout_rng(words: np.ndarray) -> np.random.Generator:
    """np.random.default_rng(seed), built from the seed's `_seed_words` row."""
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))


def train_nets(
    nets, inputs, y: np.ndarray, cfg: TrainConfig, head: Head = IDENTITY_HEAD, z=None
) -> tuple[tuple[MlpNetwork, ...], list[float]]:
    """Minibatch Adam training of head(nets[k](inputs[k]) for each k, z)
    against y under cfg.loss.

    One generator, seeded by cfg.shuffle_seed, shuffles the rows and draws
    one dropout seed per network and step, so identical inputs give
    bit-identical results. Each epoch's schedule is drawn before its steps
    (`_epoch_schedule`), and each step's dropout generator is built from
    the seed's precomputed SeedSequence words. Each epoch gathers every
    input, y and z once into its shuffled order, and a step reads its
    batch's rows as one contiguous slice. The networks' parameters,
    gradients and Adam moments are views of one flat buffer each, so a
    step ends in one finiteness check and one Adam step over all of them. Each step writes
    through preallocated buffers, one set per batch size the fit meets.
    A non-finite output, loss or gradient raises TrainingDivergedError
    naming the epoch. Returns new networks, sharing no memory with the
    given ones, and the per-epoch mean sample loss.
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
    if cfg.loss == "bce":
        _check_bce_targets(y)
    z = None if z is None else np.asarray(z)
    trainees = [_Trainee(net) for net in nets]
    sizes = [net.params.size for net in nets]
    flat = np.zeros((4, sum(sizes)))
    for tr, o, size in zip(trainees, np.cumsum([0, *sizes]), sizes):
        tr.bind(flat[:, o : o + size])
    params, grad, m, v = flat
    adam_work = np.empty((2, flat.shape[1]))
    # every input, y and z, gathered into each epoch's shuffled order
    Xs, yg = [np.empty(X.shape) for X in inputs], np.empty(y.shape)
    zg = None if z is None else np.empty(z.shape, z.dtype)
    sources = [*zip(inputs, Xs), (y, yg)] + ([] if z is None else [(z, zg)])
    buffers: dict[int, _Batch] = {}
    rng = np.random.default_rng(cfg.shuffle_seed)
    t = 0
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            batches, words = _epoch_schedule(n, cfg.batch_size, rng, len(nets))
            order = np.concatenate(batches)  # a permutation of range(n), so "clip" never clips
            for a, out in sources:  # unlike "raise", "clip" does not buffer
                a.take(order, axis=0, out=out, mode="clip")
            epoch_loss = 0.0
            end = 0
            for idx, step_words in zip(batches, words):
                count = len(idx)
                rows = slice(end, end + count)  # the batch's rows of the gathered arrays
                end += count
                if count not in buffers:
                    buffers[count] = _Batch(nets, y, count)
                b = buffers[count]
                try:  # one dropout generator per network, in network order
                    passes = [
                        _forward(tr.net, X[rows], _dropout_rng(w), ws)
                        for tr, X, w, ws in zip(trainees, Xs, step_words, b.workspaces)
                    ]
                except FloatingPointError as exc:
                    raise TrainingDivergedError(f"epoch {epoch}: {exc}") from exc
                zb = None if zg is None else zg[rows]
                pred, yb = _as_pair(head.predict([out for out, _ in passes], zb), yg[rows])
                if cfg.loss == "bce":
                    _check_bce_predictions(pred)
                loss, dpred = _loss_and_gradient(pred, yb, cfg.loss, out=b.dpred)
                if not math.isfinite(loss):
                    raise TrainingDivergedError(f"epoch {epoch}: non-finite loss ({loss})")
                douts = head.split(dpred, zb)
                for tr, (_, caches), dout, ws in zip(trainees, passes, douts, b.workspaces):
                    _backward(tr.net, caches, dout, tr.grad_weights, tr.grad_biases, ws)
                if not np.isfinite(grad).all():
                    raise TrainingDivergedError(f"epoch {epoch}: non-finite gradient")
                t += 1
                _adam_step(params, grad, m, v, t, cfg.lr, adam_work)
                epoch_loss += loss * count
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
