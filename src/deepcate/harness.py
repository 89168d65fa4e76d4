"""Monte Carlo experiment driver and the moderator-summary tree.

Trial structure: for each training size n, one covariate design (X, u) and
one evaluation sample are drawn once and shared by every trial; each trial
then redraws the outcome noise (and, by default, the treatment vector),
fits one method, and scores its CATE predictions on the fixed evaluation
sample.

Seed derivation (stable across runs and machines): every seed is
numpy.random.SeedSequence(entropy) over integer tuples,

    design seed       (base_seed, n, 11)
    eval-sample seed  (base_seed, n, 12)
    fixed-Z seed      (base_seed, n, 13)    # only when redraw_z=False
    trial seed        (base_seed, n, method_code, trial_index)

with method codes shared=1, bcf=2, naive=3, ols=4.

Process pool (parallelism > 1): each worker receives every size's design,
eval sample and fixed Z once, through the pool initializer, which also caps
the worker's OpenBLAS threads at max(1, usable cores // workers). A task is
then only (n, method, trial_index, seed). Tasks are dispatched longest
first (bcf, then shared and naive, one trial per submission; ols last, in
chunks), and outcomes are put back in grid order before aggregation, so
the outputs do not depend on the worker count.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import csv
import json
import logging
import math
import os
import time
from pathlib import Path
from dataclasses import dataclass, field

import numpy as np

from . import dgp
from .metrics import (
    ResultsTable,
    TrialMetrics,
    aggregate_results,
    trial_metrics,
    write_results_csv,
)
from .models import (
    fit_bcf,
    fit_naive,
    fit_ols,
    fit_propensity,
    fit_shared,
    predict_cate,
    predict_propensity,
)
from .nn import TrainConfig

log = logging.getLogger(__name__)

METHODS = ("shared", "bcf", "naive", "ols")
METHOD_CODES = {"shared": 1, "bcf": 2, "naive": 3, "ols": 4}
_DESIGN_STREAM = 11
_EVAL_STREAM = 12
_Z_STREAM = 13


def derive_seed(*fields: int) -> int:
    """Collapse integer fields into one stable 64-bit seed."""
    return int(np.random.SeedSequence(list(fields)).generate_state(1, np.uint64)[0])


def trial_seed(base_seed: int, n: int, method: str, trial_index: int) -> int:
    return derive_seed(base_seed, n, METHOD_CODES[method], trial_index)


@dataclass(frozen=True)
class TrainSettings:
    """Network training knobs shared by every trial.

    standardize_y: center/scale the outcome before fitting and rescale the
    CATE predictions back. A no-op for the linear estimator; for the
    networks it keeps the optimization target at unit scale regardless of
    how large the treatment effects are.
    """

    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    lr: float = TrainConfig.lr
    propensity_epochs: int | None = None  # None -> same as epochs
    standardize_y: bool = False

    def __post_init__(self):
        check_train_settings(self, self.resolved_propensity_epochs())

    def resolved_propensity_epochs(self) -> int:
        return self.epochs if self.propensity_epochs is None else self.propensity_epochs


def train_config(settings, n: int, seed: int, epochs: int | None = None) -> TrainConfig:
    """The TrainConfig of one fit on n rows: the settings' epochs (or the
    given ones) and lr, with the batch size clamped to n. settings is a
    TrainSettings or anything with epochs, batch_size and lr."""
    return TrainConfig(
        epochs=settings.epochs if epochs is None else epochs,
        batch_size=min(settings.batch_size, n),
        lr=settings.lr,
        shuffle_seed=seed,
    )


def check_train_settings(settings, propensity_epochs: int) -> None:
    """Raise ValueError unless train_config accepts settings for the
    outcome fits and, with propensity_epochs, for the propensity fit."""
    train_config(settings, settings.batch_size, 0)
    try:
        train_config(settings, settings.batch_size, 0, propensity_epochs)
    except ValueError as exc:
        raise ValueError(f"propensity {exc}") from None


def canonical_methods(methods, supported: tuple[str, ...]) -> tuple[str, ...]:
    """methods in supported's order, without duplicates; ValueError when
    one is unknown or none is given."""
    unknown = set(methods) - set(supported)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)} (supported: {supported})")
    if not methods:
        raise ValueError("need at least one method")
    return tuple(m for m in supported if m in set(methods))


@dataclass(frozen=True)
class ExperimentConfig:
    sample_sizes: tuple[int, ...]
    n_trials: int
    regime: str
    test_size: int = 10_000
    kappa: float = 1.0
    methods: tuple[str, ...] = METHODS
    base_seed: int = 0
    parallelism: int = 1
    redraw_z: bool = True
    train: TrainSettings = field(default_factory=TrainSettings)

    def __post_init__(self):
        if not self.sample_sizes:
            raise ValueError("need at least one sample size")
        if any(n < 2 for n in self.sample_sizes):
            raise ValueError("sample sizes must be >= 2")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.test_size < 1:
            raise ValueError("test_size must be >= 1")
        if self.regime not in dgp.REGIMES:
            raise ValueError(f"regime must be one of {dgp.REGIMES}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        object.__setattr__(self, "methods", canonical_methods(self.methods, METHODS))


@dataclass(frozen=True)
class EvalSample:
    """Fixed evaluation rows: covariates plus the true surfaces only (its
    treatment assignment would be irrelevant for CATE metrics)."""

    X: np.ndarray
    alpha_true: np.ndarray
    beta_true: np.ndarray


@dataclass(frozen=True)
class Truth:
    """Outcome-surface triple; swap in alternatives to test the driver
    against known ground truth (e.g. an exactly linear surface)."""

    alpha: object  # X -> vector
    beta: object  # X -> vector
    pi: object  # (alpha, u) -> vector


def regime_truth(regime: str) -> Truth:
    if regime not in dgp.REGIMES:
        raise ValueError(f"regime must be one of {dgp.REGIMES}")
    return Truth(
        alpha=dgp.true_alpha,
        beta=lambda X, _r=regime: dgp.true_beta(X, _r),
        pi=dgp.true_pi,
    )


def make_eval_sample(n: int, regime: str, seed, truth: Truth | None = None) -> EvalSample:
    truth = truth if truth is not None else regime_truth(regime)
    X, _u = dgp.gen_covariates(n, seed)
    return EvalSample(X=X, alpha_true=truth.alpha(X), beta_true=truth.beta(X))


class TrialFailedError(RuntimeError):
    """A single trial could not be completed (e.g. training diverged)."""


def fit_method(method: str, X, Z, Y, cfg: TrainConfig, pi_hat=None):
    """Fit one estimator; bcf takes the propensity estimate pi_hat.

    The fits are looked up among this module's names at each call, never
    through a table of function objects, so a wrapped or replaced
    harness.fit_* is the one that runs.
    """
    if method == "ols":
        return fit_ols(X, Z, Y)
    if method == "shared":
        return fit_shared(X, Z, Y, cfg)
    if method == "naive":
        return fit_naive(X, Z, Y, cfg)
    if method == "bcf":
        if pi_hat is None:
            raise ValueError("bcf needs pi_hat")
        return fit_bcf(X, Z, Y, pi_hat, cfg)
    raise ValueError(f"unknown method {method!r}")


def propensity_hat(X, Z, settings, seed: int, epochs: int) -> np.ndarray:
    """Fit the propensity network for the given epochs, shuffled by seed,
    and return its estimate of P(Z=1 | x) on X (looked up among this
    module's names at each call, like fit_method)."""
    cfg = train_config(settings, X.shape[0], seed, epochs)
    model = fit_propensity(X, Z, cfg)
    return predict_propensity(model, X)


def run_trial(
    X_train: np.ndarray,
    u_train: np.ndarray,
    trial_seed: int,
    method: str,
    regime: str,
    kappa: float,
    test_sample: EvalSample,
    settings: TrainSettings | None = None,
    truth: Truth | None = None,
    fixed_z: np.ndarray | None = None,
) -> TrialMetrics:
    """Draw one trial's outcome on the fixed design, fit, and score.

    trial_seed drives everything stochastic: the treatment draw (unless
    fixed_z is supplied), the outcome noise, network initialization,
    dropout, and shuffling. Runtime covers the fit only (for bcf that
    includes its propensity stage, seeded apart from its outcome fit).
    For bcf and naive, a treatment draw of a single class raises
    TrialFailedError, as neither can be fitted on it.
    """
    settings = settings or TrainSettings()
    truth = truth if truth is not None else regime_truth(regime)
    z_seed, eps_seed, fit_seed = (
        derive_seed(trial_seed, 1),
        derive_seed(trial_seed, 2),
        derive_seed(trial_seed, 3),
    )
    alpha = truth.alpha(X_train)
    beta = truth.beta(X_train)
    pi = truth.pi(alpha, u_train)
    n = X_train.shape[0]
    if fixed_z is not None:
        Z = np.asarray(fixed_z, dtype=np.float64)
    else:
        Z = (np.random.default_rng(z_seed).random(n) < pi).astype(np.float64)
    if method in ("bcf", "naive") and Z.min() == Z.max():
        # the propensity net and the per-arm nets need both arms
        raise TrialFailedError(f"{method}: single-class treatment draw (all {int(Z[0])})")
    sigma = float(np.asarray(alpha).std(ddof=1) * kappa)
    eps = np.random.default_rng(eps_seed).standard_normal(n)
    Y = alpha + beta * Z + sigma * eps
    y_scale = 1.0
    if settings.standardize_y:
        y_scale = float(Y.std(ddof=1))
        Y = (Y - Y.mean()) / y_scale
    t0 = time.perf_counter()
    pi_hat = None
    if method == "bcf":
        prop_epochs = settings.resolved_propensity_epochs()
        pi_hat = propensity_hat(X_train, Z, settings, derive_seed(fit_seed, 1), prop_epochs)
        fit_seed = derive_seed(fit_seed, 2)
    cfg = train_config(settings, n, fit_seed)
    model = fit_method(method, X_train, Z, Y, cfg, pi_hat)
    runtime = time.perf_counter() - t0
    beta_hat = predict_cate(model, test_sample.X) * y_scale
    if not np.isfinite(beta_hat).all():
        raise TrialFailedError(f"{method}: non-finite CATE predictions")
    return trial_metrics(beta_hat, test_sample.beta_true, test_sample.alpha_true, runtime)


@dataclass(frozen=True)
class _Design:
    """One training size's arrays, shared by every trial of that size."""

    X: np.ndarray
    u: np.ndarray
    test_sample: EvalSample
    fixed_z: np.ndarray | None


def _make_design(cfg: ExperimentConfig, n: int) -> _Design:
    X, u = dgp.gen_covariates(n, derive_seed(cfg.base_seed, n, _DESIGN_STREAM))
    test_sample = make_eval_sample(
        cfg.test_size, cfg.regime, derive_seed(cfg.base_seed, n, _EVAL_STREAM)
    )
    fixed_z = None
    if not cfg.redraw_z:
        pi = dgp.true_pi(dgp.true_alpha(X), u)
        z_rng = np.random.default_rng(derive_seed(cfg.base_seed, n, _Z_STREAM))
        fixed_z = (z_rng.random(n) < pi).astype(np.float64)
    return _Design(X, u, test_sample, fixed_z)


def _run_task(cfg: ExperimentConfig, designs: dict[int, _Design], task) -> tuple:
    """Run task (n, method, trial_index, seed) on designs[n]: (metrics,
    None), or (None, "ErrorType: message") for a failed trial."""
    n, method, _t, seed = task
    d = designs[n]
    try:
        m = run_trial(
            d.X, d.u, seed, method, cfg.regime, cfg.kappa, d.test_sample,
            settings=cfg.train, fixed_z=d.fixed_z,
        )
        return m, None
    except (RuntimeError, FloatingPointError) as exc:
        # a diverged or degenerate trial; any other error aborts the sweep
        return None, f"{type(exc).__name__}: {exc}"


# --- process pool ------------------------------------------------------

# (setter, getter) C entry points of OpenBLAS builds: scipy-openblas
# 64-bit-integer (numpy's), scipy-openblas (scipy's), and plain OpenBLAS
_OPENBLAS_THREAD_FUNCS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_thread_funcs() -> list[tuple]:
    """(set, get) ctypes functions of each OpenBLAS library loaded in this
    process; empty where the libraries cannot be listed (no Linux
    /proc/self/maps) or none is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({
                line.split()[-1] for line in fh
                if "openblas" in line.rsplit("/", 1)[-1].lower()
            })
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_FUNCS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((setter, getter))
                break
    return found


def openblas_threads() -> list[int]:
    """The thread count of each OpenBLAS library loaded in this process."""
    return [get() for _set, get in _openblas_thread_funcs()]


def _worker_blas_threads(workers: int) -> int:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, (cores or 1) // workers)


# set in each pool worker by _init_worker: (cfg, designs by n)
_worker_sweep: tuple | None = None


def _init_worker(cfg: ExperimentConfig, designs: dict[int, _Design], blas_threads: int) -> None:
    global _worker_sweep
    _worker_sweep = (cfg, designs)
    for set_threads, _get in _openblas_thread_funcs():
        set_threads(blas_threads)


def _run_tasks(tasks: list) -> list[tuple]:
    cfg, designs = _worker_sweep
    return [_run_task(cfg, designs, t) for t in tasks]


# dispatch order: longest trials first (Graham's LPT rule)
_DISPATCH_RANK = {"bcf": 0, "shared": 1, "naive": 1, "ols": 2}


def _dispatch_chunks(tasks: list, workers: int) -> list[list[int]]:
    """Task indices in submissions, longest trials first: one per network
    trial, and the ols trials in chunks of about len(ols) / (4 workers)."""
    order = sorted(range(len(tasks)), key=lambda i: _DISPATCH_RANK[tasks[i][1]])
    ols = [i for i in order if tasks[i][1] == "ols"]
    size = max(1, math.ceil(len(ols) / (4 * workers)))
    nets = [[i] for i in order if tasks[i][1] != "ols"]
    return nets + [ols[k : k + size] for k in range(0, len(ols), size)]


def _run_pooled(cfg: ExperimentConfig, designs: dict[int, _Design], tasks: list) -> list[tuple]:
    """Every task's outcome, in task order, from cfg.parallelism workers."""
    workers = cfg.parallelism
    chunks = _dispatch_chunks(tasks, workers)
    outcomes: list = [None] * len(tasks)
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(cfg, designs, _worker_blas_threads(workers)),
    ) as pool:
        futures = [pool.submit(_run_tasks, [tasks[i] for i in chunk]) for chunk in chunks]
        try:
            for chunk, future in zip(chunks, futures):
                for i, outcome in zip(chunk, future.result()):
                    outcomes[i] = outcome
        except BaseException:
            # an error that aborts the sweep: do not run the queued tasks
            for future in futures:
                future.cancel()
            raise
    return outcomes


@dataclass(frozen=True)
class TrialRecord:
    method: str
    n: int
    regime: str
    trial_index: int
    metrics: TrialMetrics


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ResultsTable:
    """Run the full (n, method, trial) grid and aggregate per cell.

    A trial that raises RuntimeError (diverged training, a degenerate
    draw) or FloatingPointError is logged and excluded from the aggregates
    (the row's trial count reflects completions); any other exception
    aborts the sweep, and so does a cell with no completed trials. With
    out_dir set, emits results.csv plus the plot-data files (bias/rmse vs
    n, per-trial scatter).
    """
    designs = {n: _make_design(cfg, n) for n in cfg.sample_sizes}
    tasks = [
        (n, method, t, trial_seed(cfg.base_seed, n, method, t))
        for n in cfg.sample_sizes
        for method in cfg.methods
        for t in range(cfg.n_trials)
    ]
    if cfg.parallelism > 1:
        outcomes = _run_pooled(cfg, designs, tasks)
    else:
        outcomes = [_run_task(cfg, designs, task) for task in tasks]

    by_cell: dict[tuple[int, str], list[TrialMetrics]] = {}
    records: list[TrialRecord] = []
    failed = 0
    for (n, method, t, _seed), (m, err) in zip(tasks, outcomes):
        if err is not None:
            log.warning("trial failed (n=%d, %s, trial %d): %s", n, method, t, err)
            failed += 1
            continue
        by_cell.setdefault((n, method), []).append(m)
        records.append(TrialRecord(method, n, cfg.regime, t, m))

    rows = []
    for n in cfg.sample_sizes:
        for method in cfg.methods:
            cell = by_cell.get((n, method), [])
            if not cell:
                raise RuntimeError(
                    f"every trial failed for (n={n}, {method}); {failed} of "
                    f"{len(tasks)} trials failed in all, see log for causes"
                )
            rows.append(aggregate_results(cell, method, n, cfg.regime))
    table = ResultsTable(tuple(rows))

    if out_dir is not None:
        write_experiment_outputs(table, records, out_dir)
    return table


def write_experiment_outputs(table: ResultsTable, records: list[TrialRecord], out_dir) -> None:
    """results.csv plus the plot-data files derived from it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv(table, out / "results.csv")
    for name, column in (("bias_vs_n.csv", "mean_abs_bias"), ("rmse_vs_n.csv", "mean_rmse")):
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["method", "n", "regime", column])
            for r in table.rows:
                w.writerow([r.method, r.n, r.regime, repr(getattr(r, column))])
    # long format: one row per completed trial, so per-trial method pairs
    # (e.g. shared vs bcf bias) can be pivoted out per (n, trial_index)
    with open(out / "trial_scatter.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["regime", "n", "trial", "method", "abs_bias", "rmse"])
        for rec in records:
            w.writerow(
                [
                    rec.regime,
                    rec.n,
                    rec.trial_index,
                    rec.method,
                    repr(rec.metrics.abs_bias),
                    repr(rec.metrics.rmse),
                ]
            )


# --- moderator tree ----------------------------------------------------


@dataclass(frozen=True)
class TreeNode:
    """Internal node (feature, threshold, children) or leaf (value only)."""

    value: float
    n: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class ModeratorTree:
    """Shallow CART summary of which covariates move the estimated effect."""

    root: TreeNode
    max_depth: int
    min_leaf: int

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    def split_features(self) -> set[int]:
        found = set()

        def walk(node):
            if not node.is_leaf:
                found.add(node.feature)
                walk(node.left)
                walk(node.right)

        walk(self.root)
        return found

    def to_dict(self) -> dict:
        def conv(node):
            if node.is_leaf:
                return {"value": node.value, "n": node.n}
            return {
                "feature": node.feature,
                "threshold": node.threshold,
                "n": node.n,
                "left": conv(node.left),
                "right": conv(node.right),
            }

        return {"max_depth": self.max_depth, "min_leaf": self.min_leaf, "tree": conv(self.root)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self, feature_names=None, unscale=None) -> str:
        """Nested if/else rendering, 4 decimals; unscale(j, t), when given,
        maps feature j's threshold t to the units printed."""

        def name(j):
            return feature_names[j] if feature_names is not None else f"x{j + 1}"

        lines = []

        def walk(node, indent):
            pad = "    " * indent
            if node.is_leaf:
                lines.append(f"{pad}predict {node.value:.4f}  (n={node.n})")
                return
            t = node.threshold if unscale is None else unscale(node.feature, node.threshold)
            lines.append(f"{pad}if {name(node.feature)} <= {t:.4f}:")
            walk(node.left, indent + 1)
            lines.append(f"{pad}else:")
            walk(node.right, indent + 1)

        walk(self.root, 0)
        return "\n".join(lines) + "\n"


def _best_split(X: np.ndarray, y: np.ndarray, min_leaf: int):
    """Best axis-aligned split by squared-error reduction.

    Ties break deterministically: features are scanned in index order and
    thresholds in increasing order, and only strictly larger gains replace
    the current best. Returns (feature, threshold, gain) or None.
    """
    n, d = X.shape
    yc = y - y.mean()  # centering keeps the cumulative sums well conditioned
    parent_sse = float(np.dot(yc, yc))
    # rounding floor: an exactly-constant target centers to O(eps*scale)
    # residue, which must not look like signal
    scale = max(1.0, float(np.max(np.abs(y))))
    noise_floor = 16.0 * n * (np.finfo(np.float64).eps * scale) ** 2
    if parent_sse <= noise_floor:
        return None
    min_gain = max(parent_sse * 1e-9, noise_floor)
    best = None
    best_gain = min_gain
    for j in range(d):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = yc[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        total_sum = csum[-1]
        total_sq = csq[-1]
        for i in range(min_leaf, n - min_leaf + 1):
            if i < 1 or i >= n or xs[i] == xs[i - 1]:
                continue
            left_sum, left_sq = csum[i - 1], csq[i - 1]
            right_sum, right_sq = total_sum - left_sum, total_sq - left_sq
            left_sse = left_sq - left_sum * left_sum / i
            right_sse = right_sq - right_sum * right_sum / (n - i)
            gain = parent_sse - (left_sse + right_sse)
            if gain > best_gain:
                best_gain = gain
                best = (j, float((xs[i] + xs[i - 1]) / 2.0), float(gain))
    return best


def check_tree_settings(max_depth: int, min_leaf: int) -> None:
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")


def fit_moderator_tree(
    X: np.ndarray, beta_hat: np.ndarray, max_depth: int = 2, min_leaf: int = 10
) -> ModeratorTree:
    """Greedy depth-limited CART on estimated treatment effects.

    Splits are made only when they strictly reduce total squared error and
    both children keep at least min_leaf rows; data smaller than
    2*min_leaf yields a single leaf.
    """
    check_tree_settings(max_depth, min_leaf)
    X = np.asarray(X, dtype=np.float64)
    beta_hat = np.asarray(beta_hat, dtype=np.float64).ravel()
    if X.ndim != 2 or X.shape[0] != beta_hat.size:
        raise ValueError("X and beta_hat must be aligned")

    def build(idx: np.ndarray, depth: int) -> TreeNode:
        y = beta_hat[idx]
        value = float(y.mean())
        if depth >= max_depth or idx.size < 2 * min_leaf:
            return TreeNode(value=value, n=int(idx.size))
        found = _best_split(X[idx], y, min_leaf)
        if found is None:
            return TreeNode(value=value, n=int(idx.size))
        feature, threshold, _gain = found
        mask = X[idx, feature] <= threshold
        return TreeNode(
            value=value,
            n=int(idx.size),
            feature=feature,
            threshold=threshold,
            left=build(idx[mask], depth + 1),
            right=build(idx[~mask], depth + 1),
        )

    root = build(np.arange(beta_hat.size), 0)
    return ModeratorTree(root=root, max_depth=max_depth, min_leaf=min_leaf)
