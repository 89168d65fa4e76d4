"""The four CATE estimators behind one predict interface.

Outcome model for the two structured networks: E[Y | x, z] = alpha(x) +
beta(x) * z with an identity link. The shared net produces both surfaces
from one trunk (a two-node parameter layer); the split architecture trains
a separate network per surface, with a propensity estimate appended to the
prognostic network's input. The naive estimator regresses treated and
control groups separately, and OLS fits [1, Z, X, Z*X] by least squares.

Hidden layers are ReLU with inverted dropout; regression heads are
identity, the propensity head is a sigmoid trained with BCE. The fixed
hidden widths keep the three architectures at comparable capacity for 5
covariates: 3,280 parameters (shared), 2,405 + 821 = 3,226 (split alpha +
beta), 1,653 * 2 = 3,306 (naive pair).
"""

from __future__ import annotations

import dataclasses
import json
import operator
import typing
import warnings
from dataclasses import dataclass

import numpy as np

from .nn import (
    Head,
    LayerSpec,
    MlpNetwork,
    TrainConfig,
    forward,
    init_network,
    train,
    train_nets,
)

DROPOUT_RATE = 0.25
SHARED_HIDDEN = (100, 26)
BCF_ALPHA_HIDDEN = (60, 32)
BCF_BETA_HIDDEN = (30, 20)
NAIVE_HIDDEN = (50, 26)
PROPENSITY_HIDDEN = (100, 25)

PROPENSITY_CLAMP = 1e-12

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SharedModel:
    """Single trunk ending in a two-node layer: column 0 is the prognostic
    head, column 1 the treatment-effect head."""

    net: MlpNetwork


@dataclass(frozen=True)
class BcfModel:
    """Separate prognostic and effect networks with no shared weights.

    alpha_net sees (x, pi_hat) and therefore has one more input than
    beta_net, which sees x alone.
    """

    alpha_net: MlpNetwork
    beta_net: MlpNetwork


@dataclass(frozen=True)
class NaiveModel:
    """Two independent outcome regressions, one per treatment arm."""

    y1_net: MlpNetwork
    y0_net: MlpNetwork


@dataclass(frozen=True)
class OlsModel:
    """Least-squares fit of Y on [1, Z, X, Z*X]."""

    intercept: float
    beta_z: float
    delta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        if np.shape(self.delta) != np.shape(self.gamma):
            raise ValueError("OLS delta and gamma differ in length")


@dataclass(frozen=True)
class PropensityModel:
    net: MlpNetwork


CateModel = SharedModel | BcfModel | NaiveModel | OlsModel


def _mlp_specs(in_dim, hidden, out_dim, out_activation):
    dims = (in_dim, *hidden)
    specs = [LayerSpec(a, b, "relu", DROPOUT_RATE) for a, b in zip(dims, dims[1:])]
    return (*specs, LayerSpec(dims[-1], out_dim, out_activation, 0.0))


def _spawn_seeds(seed: int, k: int) -> list[int]:
    return [int(c.generate_state(1, np.uint64)[0]) for c in np.random.SeedSequence(seed).spawn(k)]


def _as_design(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    return X


def _as_binary(Z, name="Z") -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64).ravel()
    if not np.all((Z == 0.0) | (Z == 1.0)):
        raise ValueError(f"{name} must be binary 0/1")
    return Z


def _as_outcome_data(X, Z, Y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    X = _as_design(X)
    Z = _as_binary(Z)
    Y = np.asarray(Y, dtype=np.float64).ravel()
    if not (Z.size == X.shape[0] and Y.size == X.shape[0]):
        raise ValueError("X, Z, Y row counts differ")
    return X, Z, Y


def fit_propensity(X, Z, cfg: TrainConfig) -> PropensityModel:
    """BCE-train a sigmoid-output network for P(Z=1 | x).

    Requires both classes present. Init and shuffling both derive from
    cfg.shuffle_seed; cfg.loss is forced to bce.
    """
    X = _as_design(X)
    Z = _as_binary(Z)
    if X.shape[0] != Z.size:
        raise ValueError("X and Z row counts differ")
    if Z.min() == Z.max():
        raise ValueError("treatment indicator is single-class")
    init_seed, loop_seed = _spawn_seeds(cfg.shuffle_seed, 2)
    net = init_network(_mlp_specs(X.shape[1], PROPENSITY_HIDDEN, 1, "sigmoid"), init_seed)
    cfg = dataclasses.replace(cfg, loss="bce", shuffle_seed=loop_seed)
    net, _ = train(net, X, Z.reshape(-1, 1), cfg)
    return PropensityModel(net)


# Both structured models predict alpha(x) + beta(x) * z: the shared net's
# two output columns, or the split model's two networks.
_SHARED_HEAD = Head(
    lambda outs, z: outs[0][:, 0:1] + outs[0][:, 1:2] * z,
    lambda dpred, z: (np.concatenate([dpred, dpred * z], axis=1),),
)
_BCF_HEAD = Head(lambda outs, z: outs[0] + outs[1] * z, lambda dpred, z: (dpred, dpred * z))


def fit_shared(X, Z, Y, cfg: TrainConfig) -> SharedModel:
    """Train the shared-trunk model by MSE on alpha(x) + beta(x) * z.

    The effect head receives gradient only through treated rows (its output
    is multiplied by z), so with z identically zero its parameters never
    move. All-treated / all-control data is permitted but flagged.
    """
    X, Z, Y = _as_outcome_data(X, Z, Y)
    if Z.min() == Z.max():
        warnings.warn(
            f"degenerate treatment column (all {int(Z[0])}); effect head is unidentified",
            RuntimeWarning,
        )
    init_seed, loop_seed = _spawn_seeds(cfg.shuffle_seed, 2)
    net = init_network(_mlp_specs(X.shape[1], SHARED_HIDDEN, 2, "identity"), init_seed)
    cfg = dataclasses.replace(cfg, loss="mse", shuffle_seed=loop_seed)
    (net,), _ = train_nets([net], [X], Y.reshape(-1, 1), cfg, _SHARED_HEAD, Z.reshape(-1, 1))
    return SharedModel(net)


def fit_bcf(X, Z, Y, pi_hat, cfg: TrainConfig) -> BcfModel:
    """Jointly train the split prognostic/effect networks.

    Both networks are updated simultaneously each minibatch from the single
    MSE on alpha(x, pi_hat) + beta(x) * z; pi_hat is precomputed by the
    caller and held fixed throughout.
    """
    X, Z, Y = _as_outcome_data(X, Z, Y)
    pi_hat = np.asarray(pi_hat, dtype=np.float64).ravel()
    if pi_hat.size != X.shape[0]:
        raise ValueError("X, Z, Y, pi_hat row counts differ")
    if not np.all((pi_hat > 0.0) & (pi_hat < 1.0)):  # a NaN is not inside either
        raise ValueError("pi_hat must lie strictly inside (0, 1)")
    a_seed, b_seed, loop_seed = _spawn_seeds(cfg.shuffle_seed, 3)
    d = X.shape[1]
    alpha_net = init_network(_mlp_specs(d + 1, BCF_ALPHA_HIDDEN, 1, "identity"), a_seed)
    beta_net = init_network(_mlp_specs(d, BCF_BETA_HIDDEN, 1, "identity"), b_seed)
    cfg = dataclasses.replace(cfg, loss="mse", shuffle_seed=loop_seed)
    inputs = [np.column_stack([X, pi_hat]), X]
    (alpha_net, beta_net), _ = train_nets(
        [alpha_net, beta_net], inputs, Y.reshape(-1, 1), cfg, _BCF_HEAD, Z.reshape(-1, 1)
    )
    return BcfModel(alpha_net, beta_net)


def fit_naive(X, Z, Y, cfg: TrainConfig) -> NaiveModel:
    """Fit one outcome network per treatment arm.

    Each arm trains on its own subset (batch size clamped to the subset
    size); the CATE is the difference of the two predictions.
    """
    X, Z, Y = _as_outcome_data(X, Z, Y)
    treated = Z == 1.0
    if treated.all() or not treated.any():
        raise ValueError("both treatment groups must be nonempty")
    seeds = _spawn_seeds(cfg.shuffle_seed, 4)
    nets = []
    for mask, init_seed, loop_seed in ((treated, seeds[0], seeds[2]), (~treated, seeds[1], seeds[3])):
        net = init_network(_mlp_specs(X.shape[1], NAIVE_HIDDEN, 1, "identity"), init_seed)
        batch = min(cfg.batch_size, int(mask.sum()))
        sub_cfg = dataclasses.replace(cfg, loss="mse", shuffle_seed=loop_seed, batch_size=batch)
        net, _ = train(net, X[mask], Y[mask].reshape(-1, 1), sub_cfg)
        nets.append(net)
    return NaiveModel(y1_net=nets[0], y0_net=nets[1])


def fit_ols(X, Z, Y) -> OlsModel:
    """Exact least squares on the interacted design [1, Z, X, Z*X].

    Rank deficiency falls back to the minimum-norm (pseudo-inverse)
    solution with a warning.
    """
    X, Z, Y = _as_outcome_data(X, Z, Y)
    n, d = X.shape
    design = np.column_stack([np.ones(n), Z, X, X * Z[:, None]])
    coef, _, rank, _ = np.linalg.lstsq(design, Y, rcond=None)
    if rank < design.shape[1]:
        warnings.warn(
            f"rank-deficient design (rank {rank} < {design.shape[1]}); "
            "using minimum-norm solution",
            RuntimeWarning,
        )
    return OlsModel(
        intercept=float(coef[0]),
        beta_z=float(coef[1]),
        delta=coef[2 : 2 + d].copy(),
        gamma=coef[2 + d :].copy(),
    )


def _eval_net(net: MlpNetwork, X: np.ndarray) -> np.ndarray:
    out, _ = forward(net, X, training=False)
    return out


def predict_cate(model: CateModel, X, pi_hat=None) -> np.ndarray:
    """Per-row estimated treatment effect beta_hat(x).

    pi_hat is accepted for interface uniformity but no variant needs it
    here: the split model's CATE comes from beta_net alone.
    """
    X = _as_design(X)
    if isinstance(model, SharedModel):
        return _eval_net(model.net, X)[:, 1]
    if isinstance(model, BcfModel):
        return _eval_net(model.beta_net, X)[:, 0]
    if isinstance(model, NaiveModel):
        return _eval_net(model.y1_net, X)[:, 0] - _eval_net(model.y0_net, X)[:, 0]
    if isinstance(model, OlsModel):
        return model.beta_z + X @ model.gamma
    raise TypeError(f"not a CATE model: {type(model).__name__}")


def predict_prognostic(model: CateModel, X, pi_hat=None) -> np.ndarray:
    """Per-row estimated control-arm outcome alpha_hat(x).

    The split model needs pi_hat because its prognostic network was
    trained with the propensity estimate as an extra input.
    """
    X = _as_design(X)
    if isinstance(model, SharedModel):
        return _eval_net(model.net, X)[:, 0]
    if isinstance(model, BcfModel):
        if pi_hat is None:
            raise ValueError("split-model prognostic prediction requires pi_hat")
        pi_hat = np.asarray(pi_hat, dtype=np.float64).ravel()
        if pi_hat.size != X.shape[0]:
            raise ValueError("pi_hat length must match X rows")
        return _eval_net(model.alpha_net, np.column_stack([X, pi_hat]))[:, 0]
    if isinstance(model, NaiveModel):
        return _eval_net(model.y0_net, X)[:, 0]
    if isinstance(model, OlsModel):
        return model.intercept + X @ model.delta
    raise TypeError(f"not a CATE model: {type(model).__name__}")


def predict_propensity(model: PropensityModel, X) -> np.ndarray:
    """Estimated P(Z=1 | x), clamped strictly inside (0, 1)."""
    X = _as_design(X)
    p = _eval_net(model.net, X)[:, 0]
    return np.clip(p, PROPENSITY_CLAMP, 1.0 - PROPENSITY_CLAMP)


# --- serialization -----------------------------------------------------
#
# Versioned JSON weight dump: the model's kind, then each dataclass field in
# declaration order, encoded by its type. A network is stored as its
# layer specs plus row-major nested weight lists; floats go through
# repr/JSON so the round-trip is bit-exact.

MODEL_KINDS = {
    "shared": SharedModel,
    "bcf": BcfModel,
    "naive": NaiveModel,
    "ols": OlsModel,
    "propensity": PropensityModel,
}


def _finite(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"model field {name!r} holds a non-finite value")
    return arr


def _require(payload: dict, keys, prefix: str) -> None:
    missing = [prefix + k for k in keys if k not in payload]
    if missing:
        raise ValueError(f"model file is missing field(s) {missing}")


def _net_to_dict(net: MlpNetwork) -> dict:
    return {
        "rng_seed": net.rng_seed,
        "layers": [dataclasses.asdict(s) for s in net.layers],
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def _net_from_dict(d: dict, name: str) -> MlpNetwork:
    _require(d, ("rng_seed", "layers", "weights", "biases"), f"{name}.")
    try:
        specs = tuple(LayerSpec(**s) for s in d["layers"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model field {name}.layers: {exc}") from None
    try:
        rng_seed = operator.index(d["rng_seed"])
    except TypeError:
        raise ValueError(
            f"model field {name}.rng_seed must be an integer, got {d['rng_seed']!r}"
        ) from None
    weights = tuple(_finite(w, f"{name}.weights") for w in d["weights"])
    biases = tuple(_finite(b, f"{name}.biases") for b in d["biases"])
    return MlpNetwork(specs, weights, biases, rng_seed)


# field type -> (encode, decode(value, field name))
_FIELD_CODECS = {
    MlpNetwork: (_net_to_dict, _net_from_dict),
    np.ndarray: (np.ndarray.tolist, _finite),
    float: (float, lambda value, name: float(_finite(value, name))),
}


def _field_codecs(cls) -> dict:
    """Field name -> codec of a model class, in declaration order; the
    annotations are resolved to types, so their spelling does not matter."""
    return {name: _FIELD_CODECS[hint] for name, hint in typing.get_type_hints(cls).items()}


def save_model(model, path) -> None:
    """Write any fitted model (CATE variants or propensity) as JSON."""
    kind = next((k for k, cls in MODEL_KINDS.items() if type(model) is cls), None)
    if kind is None:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    payload = {"kind": kind}
    for name, (encode, _decode) in _field_codecs(type(model)).items():
        payload[name] = encode(getattr(model, name))
    payload["format_version"] = MODEL_FORMAT_VERSION
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_model(path):
    """Inverse of save_model.

    Raises ValueError for a file that is not a JSON object, an
    unsupported version, an unknown kind, a missing field, a layer spec
    with unknown keys or non-integer dims, a non-integer rng_seed, a
    non-finite value, or weights that do not fit their layers (OLS: delta
    and gamma of different lengths).
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("model file does not hold a JSON object")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    cls = MODEL_KINDS.get(payload.get("kind"))
    if cls is None:
        raise ValueError(f"unknown model kind {payload.get('kind')!r}")
    codecs = _field_codecs(cls)
    _require(payload, codecs, "")
    return cls(**{name: decode(payload[name], name) for name, (_encode, decode) in codecs.items()})
