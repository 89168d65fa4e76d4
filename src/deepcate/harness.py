"""Monte Carlo experiment driver and the moderator-summary tree.

Trial structure: for each training size n, one covariate design (X, u) and
one evaluation sample are drawn once and shared by every trial. The
design's true surfaces (alpha, beta, pi) and the evaluation sample's truth
moments (metrics.EvalTruth) are computed once per size as well. Each trial
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

Processes and threads: every process of a sweep runs OpenBLAS on one
thread (its matrices are at most 10k x 100, too small to split); the
parent's previous thread count is restored when the sweep ends.

Parallel sweeps (parallelism > 1): forked helper processes, no more than
there are trials, each claim the next trial from a shared counter,
longest first (bcf, then shared and naive, then ols), and send their
outcomes back at the end. They inherit every size's design, eval sample
and fixed Z from the parent. In an ols-only sweep the parent claims
trials beside parallelism - 1 helpers; on a host whose cores slow down in
turns, two processes share each slow spell where one would take it
whole. Otherwise parallelism helpers run the trials and the parent only
collects them. Outcomes are put back in grid order before aggregation,
so the outputs do not depend on the process count.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import logging
import math
import time
from pathlib import Path
from dataclasses import dataclass, field

import numpy as np

from . import dgp
from .metrics import (
    EvalTruth,
    ResultsTable,
    TrialMetrics,
    aggregate_results,
    eval_truth,
    trial_metrics,
    write_csv,
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
    """Collapse integer fields into one stable 64-bit seed.

    SeedSequence zero-pads short entropy to its 4-word pool, so trailing
    zeros are invisible up to four fields: derive_seed(b, n, s) equals
    derive_seed(b, n, s, 0), and hence trial_seed(b, n, m, 0) whenever s
    is METHOD_CODES[m]. Stream numbers must therefore stay apart from the
    method codes.
    """
    return int(np.random.SeedSequence(list(fields)).generate_state(1, np.uint64)[0])


def trial_seed(base_seed: int, n: int, method: str, trial_index: int) -> int:
    return derive_seed(base_seed, n, METHOD_CODES[method], trial_index)


@dataclass(frozen=True)
class TrainSettings:
    """Network training knobs shared by every trial. Construction raises
    ValueError unless train_config accepts them for the outcome fits and,
    with the resolved propensity epochs, for the propensity fit."""

    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    lr: float = TrainConfig.lr
    propensity_epochs: int | None = None  # None -> same as epochs

    def __post_init__(self):
        train_config(self, self.batch_size, 0)
        try:
            train_config(self, self.batch_size, 0, self.resolved_propensity_epochs())
        except ValueError as exc:
            raise ValueError(f"propensity {exc}") from None

    def resolved_propensity_epochs(self) -> int:
        return self.epochs if self.propensity_epochs is None else self.propensity_epochs


def train_config(
    settings: TrainSettings, n: int, seed: int, epochs: int | None = None
) -> TrainConfig:
    """The TrainConfig of one fit on n rows: the settings' epochs (or the
    given ones) and lr, with the batch size clamped to n."""
    return TrainConfig(
        epochs=settings.epochs if epochs is None else epochs,
        batch_size=min(settings.batch_size, n),
        lr=settings.lr,
        shuffle_seed=seed,
    )


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
        if len(set(self.sample_sizes)) != len(self.sample_sizes):
            raise ValueError(f"sample sizes must be distinct, got {self.sample_sizes}")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.test_size < 1:
            raise ValueError("test_size must be >= 1")
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError("kappa must be finite and > 0")
        if self.regime not in dgp.REGIMES:
            raise ValueError(f"regime must be one of {dgp.REGIMES}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.base_seed < 0:
            raise ValueError("seed must be >= 0")
        object.__setattr__(self, "methods", canonical_methods(self.methods, METHODS))


@dataclass(frozen=True)
class EvalSample:
    """Fixed evaluation rows: covariates plus the true surfaces and their
    moments only (its treatment assignment would be irrelevant for CATE
    metrics)."""

    X: np.ndarray
    truth: EvalTruth


def make_eval_sample(n: int, regime: str, seed) -> EvalSample:
    X, _u = dgp.gen_covariates(n, seed)
    return EvalSample(X=X, truth=eval_truth(dgp.true_beta(X, regime), dgp.true_alpha(X)))


@dataclass(frozen=True)
class Surfaces:
    """The true alpha, beta and pi of one training design (X, u)."""

    alpha: np.ndarray
    beta: np.ndarray
    pi: np.ndarray


def design_surfaces(X: np.ndarray, u: np.ndarray, regime: str) -> Surfaces:
    """dgp's true surfaces of the design, looked up in dgp at each call."""
    alpha = dgp.true_alpha(X)
    return Surfaces(alpha, dgp.true_beta(X, regime), dgp.true_pi(alpha, u))


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


def propensity_hat(X, Z, settings: TrainSettings, seed: int) -> np.ndarray:
    """Fit the propensity network for the settings' propensity epochs,
    shuffled by seed, and return its estimate of P(Z=1 | x) on X (looked
    up among this module's names at each call, like fit_method)."""
    cfg = train_config(settings, X.shape[0], seed, settings.resolved_propensity_epochs())
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
    fixed_z: np.ndarray | None = None,
    *,
    surfaces: Surfaces | None = None,
) -> TrialMetrics:
    """Draw one trial's outcome on the fixed design, fit, and score.

    trial_seed drives everything stochastic: the treatment draw (unless
    fixed_z is supplied), the outcome noise, network initialization,
    dropout, and shuffling. Runtime covers the fit only (for bcf that
    includes its propensity stage, seeded apart from its outcome fit).
    For bcf and naive, a treatment draw of a single class raises
    TrialFailedError, as neither can be fitted on it. The draws are
    dgp's, each from its own generator. surfaces holds the design's true
    surfaces; without it they are computed here (design_surfaces).
    """
    settings = settings or TrainSettings()
    z_seed, eps_seed, fit_seed = (
        derive_seed(trial_seed, 1),
        derive_seed(trial_seed, 2),
        derive_seed(trial_seed, 3),
    )
    if surfaces is None:
        surfaces = design_surfaces(X_train, u_train, regime)
    if fixed_z is not None:
        Z = np.asarray(fixed_z, dtype=np.float64)
    else:
        Z = dgp.draw_z(np.random.default_rng(z_seed), surfaces.pi)
    if method in ("bcf", "naive") and Z.min() == Z.max():
        # the propensity net and the per-arm nets need both arms
        raise TrialFailedError(f"{method}: single-class treatment draw (all {int(Z[0])})")
    Y, _sigma = dgp.draw_y(
        np.random.default_rng(eps_seed), surfaces.alpha, surfaces.beta, Z, kappa
    )
    t0 = time.perf_counter()
    pi_hat = None
    if method == "bcf":
        pi_hat = propensity_hat(X_train, Z, settings, derive_seed(fit_seed, 1))
        fit_seed = derive_seed(fit_seed, 2)
    cfg = train_config(settings, X_train.shape[0], fit_seed)
    model = fit_method(method, X_train, Z, Y, cfg, pi_hat)
    runtime = time.perf_counter() - t0
    beta_hat = predict_cate(model, test_sample.X)
    if not np.isfinite(beta_hat).all():
        raise TrialFailedError(f"{method}: non-finite CATE predictions")
    return trial_metrics(beta_hat, test_sample.truth, runtime)


@dataclass(frozen=True)
class _Design:
    """One training size's arrays, shared by every trial of that size."""

    X: np.ndarray
    u: np.ndarray
    surfaces: Surfaces
    test_sample: EvalSample
    fixed_z: np.ndarray | None


def _make_design(cfg: ExperimentConfig, n: int) -> _Design:
    X, u = dgp.gen_covariates(n, derive_seed(cfg.base_seed, n, _DESIGN_STREAM))
    surfaces = design_surfaces(X, u, cfg.regime)
    test_sample = make_eval_sample(
        cfg.test_size, cfg.regime, derive_seed(cfg.base_seed, n, _EVAL_STREAM)
    )
    fixed_z = None
    if not cfg.redraw_z:
        z_rng = np.random.default_rng(derive_seed(cfg.base_seed, n, _Z_STREAM))
        fixed_z = dgp.draw_z(z_rng, surfaces.pi)
    return _Design(X, u, surfaces, test_sample, fixed_z)


def _run_task(cfg: ExperimentConfig, designs: dict[int, _Design], task) -> tuple:
    """Run task (n, method, trial_index, seed) on designs[n]: (metrics,
    None), or (None, "ErrorType: message") for a failed trial."""
    n, method, _t, seed = task
    d = designs[n]
    try:
        m = run_trial(
            d.X, d.u, seed, method, cfg.regime, cfg.kappa, d.test_sample,
            settings=cfg.train, fixed_z=d.fixed_z, surfaces=d.surfaces,
        )
        return m, None
    except (RuntimeError, FloatingPointError) as exc:
        # a diverged or degenerate trial; any other error aborts the sweep
        return None, f"{type(exc).__name__}: {exc}"


# --- processes and BLAS threads ----------------------------------------

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


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, then put
    back each library's previous count, also when the block raises."""
    funcs = _openblas_thread_funcs()
    before = [get() for _set, get in funcs]
    for set_threads, _get in funcs:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _get), threads in zip(funcs, before):
            set_threads(threads)


# claim order: longest trials first (Graham's LPT rule), ties in grid order
_DISPATCH_RANK = {"bcf": 0, "shared": 1, "naive": 1, "ols": 2}


def _claim_tasks(
    cfg: ExperimentConfig, designs: dict[int, _Design], queue: list, next_task
) -> list[tuple]:
    """(index, outcome) of every (index, task) of queue that this process
    claims from the shared counter next_task, one at a time, until none is
    left. A task that raises sets the counter past the end, so that no
    process claims another."""
    done = []
    while True:
        with next_task.get_lock():
            k = next_task.value
            next_task.value = k + 1
        if k >= len(queue):
            return done
        i, task = queue[k]
        try:
            done.append((i, _run_task(cfg, designs, task)))
        except BaseException:
            with next_task.get_lock():
                next_task.value = len(queue)
            raise


def _helper(
    cfg: ExperimentConfig, designs: dict[int, _Design], queue: list, next_task, conn
) -> None:
    """A helper process: runs OpenBLAS on one thread and sends back its
    claimed outcomes, or the exception that aborted it."""
    for set_threads, _get in _openblas_thread_funcs():
        set_threads(1)
    try:
        result = _claim_tasks(cfg, designs, queue, next_task)
    except Exception as exc:  # re-raised in the parent
        result = exc
    conn.send(result)


def _run_shared(cfg: ExperimentConfig, designs: dict[int, _Design], tasks: list) -> list[tuple]:
    """Every task's outcome, in task order, from processes that each claim
    the next trial from a shared counter, longest trials first.

    In an ols-only sweep the parent claims trials beside parallelism - 1
    helpers: an ols trial is short, and the parent would otherwise idle.
    Otherwise parallelism helpers run the trials and the parent only
    collects them, as a network trial would raise the parent's own peak
    memory. Never more helpers than trials. The parent reads whichever
    helper answers first, so one that raises or dies aborts the sweep at
    once; only a helper that dies in an ols-only sweep is seen after the
    parent's own claims.
    """
    # imported here so that `import deepcate` does not pay for them
    import multiprocessing
    import multiprocessing.connection

    # forked, never spawned: helpers inherit the designs (and the module
    # as the parent has it) instead of importing and unpickling them
    ctx = multiprocessing.get_context("fork")
    queue = sorted(enumerate(tasks), key=lambda item: _DISPATCH_RANK[item[1][1]])
    next_task = ctx.Value("q", 0)
    parent_claims = cfg.methods == ("ols",)
    helpers = {}
    for _ in range(min(cfg.parallelism, len(tasks)) - parent_claims):
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_helper, args=(cfg, designs, queue, next_task, send), daemon=True
        )
        proc.start()
        send.close()
        helpers[recv] = proc
    try:
        done = _claim_tasks(cfg, designs, queue, next_task) if parent_claims else []
        pending = dict(helpers)
        while pending:
            for recv in multiprocessing.connection.wait(list(pending)):
                proc = pending.pop(recv)
                try:
                    result = recv.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(
                        f"a helper process exited with code {proc.exitcode} before sending its outcomes"
                    ) from None
                if isinstance(result, BaseException):
                    raise result
                done += result
    except BaseException:
        # an error that aborts the sweep: the helpers' other trials are moot
        for proc in helpers.values():
            proc.terminate()
        raise
    finally:
        for recv, proc in helpers.items():
            recv.close()
            proc.join()
    outcomes: list = [None] * len(tasks)
    for i, outcome in done:
        outcomes[i] = outcome
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

    Every process of the sweep runs OpenBLAS on one thread. With
    parallelism > 1 the trials run in forked helper processes that claim
    them from a shared counter (_run_shared); an ols-only sweep's parent
    claims trials beside parallelism - 1 of them.
    """
    tasks = [
        (n, method, t, trial_seed(cfg.base_seed, n, method, t))
        for n in cfg.sample_sizes
        for method in cfg.methods
        for t in range(cfg.n_trials)
    ]
    with _one_blas_thread():
        designs = {n: _make_design(cfg, n) for n in cfg.sample_sizes}
        if cfg.parallelism > 1:
            outcomes = _run_shared(cfg, designs, tasks)
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
        write_csv(
            out / name,
            ("method", "n", "regime", column),
            ((r.method, r.n, r.regime, getattr(r, column)) for r in table.rows),
        )
    # long format: one row per completed trial. The methods' rows of one
    # (n, trial) are not paired: trial_seed includes the method code, so
    # each method fits its own draw of Z and the noise
    write_csv(
        out / "trial_scatter.csv",
        ("regime", "n", "trial", "method", "abs_bias", "rmse"),
        (
            (rec.regime, rec.n, rec.trial_index, rec.method, rec.metrics.abs_bias, rec.metrics.rmse)
            for rec in records
        ),
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
