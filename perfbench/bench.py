"""Workload definitions, entry calls, output checks and the machine manifest.

Nothing here imports deepcate at module level: `run.py` must be able to
refuse a directory without the program before any import is attempted.
Functions that call the program import it inside their bodies.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE_CSV = ROOT / "tests" / "data" / "sleep_synthetic.csv"
FIXTURE_SCHEMA = ROOT / "configs" / "sleep_schema.json"
RUNS_DIR = ROOT / ".perfbench"
REFERENCE_FILE = HERE / "reference.json"

ALL_METHODS = ("shared", "bcf", "naive", "ols")
ANALYZE_METHODS = ("shared", "bcf", "naive")

# Independent sanity envelope for the small regime on 10k eval rows:
# E[beta] = 0.2 + 0.5 E[X1] E[X4] = 0.2 and
# E[alpha] = 0.5 exp(-2) + 0.95 * 0.5 * sqrt(2/pi) + 1.5 = 1.9467.
# Either sample mean has a standard error below 0.01 at 10k rows.
SMALL_TRUE_ATE = 0.2
SMALL_TRUE_MEAN_ALPHA = 0.5 * math.exp(-2.0) + 0.95 * 0.5 * math.sqrt(2.0 / math.pi) + 1.5
TRUTH_TOLERANCE = 0.05
# The best constant CATE predictor scores rmse sd(0.5 X1 X4) = 0.5 sqrt(1.5)
# = 0.612, as E[X1^2] = 1 and E[X4^2] = 1.5. A network that learned
# anything beats it: over eight seeds, one n=1000 trial of shared, bcf or
# naive scored 0.27 to 0.50. OLS cannot fit the product term and scores
# 0.47 to 0.57 at n=1000, so it is held only to a looser ceiling.
CONSTANT_PREDICTOR_RMSE = 0.5 * math.sqrt(1.5)
MAX_PLAUSIBLE_RMSE = {"shared": CONSTANT_PREDICTOR_RMSE, "bcf": CONSTANT_PREDICTOR_RMSE,
                      "naive": CONSTANT_PREDICTOR_RMSE, "ols": 1.0}
# At the reference seed, cate_rmse may move this share away from
# reference.json (a change of float order retrains the networks along
# another path) before the outputs count as wrong. Across seeds the mean
# over table1_cell's four methods ranged 0.375 to 0.439.
CATE_RMSE_TOLERANCE = 0.25


@dataclass(frozen=True)
class Sweep:
    """A `harness.run_experiment` call in the small regime."""

    sizes: tuple[int, ...]
    methods: tuple[str, ...]
    trials: int
    workers: int
    epochs: int = 250
    test_size: int = 10_000
    lr: float = 0.001
    default_seed: int = 42

    @property
    def attempted(self) -> int:
        return len(self.sizes) * len(self.methods) * self.trials


@dataclass(frozen=True)
class Analyze:
    """`deepcate analyze` on the committed fixture, in one process."""

    epochs: int = 250
    propensity_epochs: int = 100
    lr: float = 0.001
    default_seed: int = 7
    workers: int = 1

    @property
    def attempted(self) -> int:
        # the propensity net plus one fit per estimator
        return 1 + len(ANALYZE_METHODS)


# Why each workload exists is written in README.md; in short: table1_cell is
# bound by the training engine, sweep_ols by pool dispatch and evaluation
# (no network is trained), analyze_fixture is the serial CSV-to-tree path.
WORKLOADS = {
    "table1_cell": Sweep(sizes=(1000,), methods=ALL_METHODS, trials=1, workers=2),
    "sweep_ols": Sweep(sizes=(250, 500, 1000), methods=("ols",), trials=100, workers=2),
    "analyze_fixture": Analyze(),
}


def program_missing() -> str | None:
    """Why the checkout cannot be benchmarked, or None when it can."""
    for path in (SRC / "deepcate" / "__init__.py", FIXTURE_CSV, FIXTURE_SCHEMA):
        if not path.is_file():
            return f"missing {path.relative_to(ROOT)}"
    return None


def use_checkout_source() -> None:
    """Import deepcate from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import deepcate

    if Path(deepcate.__file__).resolve().parent != SRC / "deepcate":
        raise ImportError(f"deepcate imported from {deepcate.__file__}, not {SRC}")


# --- entry calls ------------------------------------------------------------


def experiment_config(spec: Sweep, seed: int, workers: int | None = None):
    from deepcate import harness

    return harness.ExperimentConfig(
        sample_sizes=spec.sizes,
        n_trials=spec.trials,
        regime="small",
        test_size=spec.test_size,
        methods=spec.methods,
        base_seed=seed,
        parallelism=spec.workers if workers is None else workers,
        train=harness.TrainSettings(epochs=spec.epochs, lr=spec.lr),
    )


def analyze_argv(spec: Analyze, seed: int, out_dir: Path) -> list[str]:
    return [
        "analyze",
        "--data", str(FIXTURE_CSV),
        "--schema", str(FIXTURE_SCHEMA),
        "--seed", str(seed),
        "--epochs", str(spec.epochs),
        "--propensity-epochs", str(spec.propensity_epochs),
        "--lr", repr(spec.lr),
        "--out-dir", str(out_dir),
    ]


class AllTrialsFailed(Exception):
    """The sweep aborted because some cell had no completed trial."""


def call_entry(spec, seed: int, out_dir: Path, workers: int | None = None) -> None:
    """The timed region: one public entry call of the program."""
    if isinstance(spec, Sweep):
        from deepcate import harness

        try:
            harness.run_experiment(experiment_config(spec, seed, workers), out_dir=out_dir)
        except RuntimeError as exc:
            if "every trial failed" not in str(exc):
                raise
            raise AllTrialsFailed(str(exc)) from exc
    else:
        from deepcate import cli

        code = cli.main(analyze_argv(spec, seed, out_dir))
        if code != 0:
            raise AllTrialsFailed(f"deepcate analyze exited with code {code}")


# --- output checks ----------------------------------------------------------


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def masked_results_digest(path: Path) -> str:
    """sha256 of results.csv with every mean_runtime_s cell blanked."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("mean_runtime_s")
    h = hashlib.sha256()
    for row in rows:
        cells = row[:col] + ["-"] + row[col + 1 :]
        h.update((",".join(cells) + "\n").encode("utf-8"))
    return h.hexdigest()


def output_digests(spec, out_dir: Path) -> dict[str, str]:
    if isinstance(spec, Sweep):
        return {
            "results.csv(runtime masked)": masked_results_digest(out_dir / "results.csv"),
            "trial_scatter.csv": sha256_file(out_dir / "trial_scatter.csv"),
        }
    return {
        name: sha256_file(out_dir / name)
        for name in ("analysis.csv", "moderator_tree.json", "alpha_vs_pi.csv")
    }


def read_results(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def count_failures(rows: list[dict], attempted: int) -> int:
    """Failed fits: attempted fits minus the completions in `trials`."""
    completed = sum(int(r["trials"]) for r in rows)
    if completed > attempted:
        raise ValueError(f"results.csv reports {completed} trials, only {attempted} attempted")
    return attempted - completed


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_sweep_outputs(spec: Sweep, rows: list[dict]) -> list[str]:
    """Problems found in a sweep's results.csv; empty when it is sound."""
    problems = []
    cells = [(r["method"], int(r["n"])) for r in rows]
    expected = [(m, n) for n in spec.sizes for m in spec.methods]
    if sorted(cells) != sorted(expected):
        problems.append(f"cells {cells} != expected {expected}")
    for r in rows:
        label = f"({r['method']}, n={r['n']})"
        keys = ("mean_beta_hat", "true_ate", "true_mean_alpha", "mean_rmse", "mean_abs_bias")
        not_finite = [k for k in keys if not _finite(r[k])]
        if not_finite:
            problems.append(f"{label}: not finite: {not_finite}")
            continue
        if abs(float(r["true_ate"]) - SMALL_TRUE_ATE) > TRUTH_TOLERANCE:
            problems.append(f"{label}: true_ate {r['true_ate']} far from {SMALL_TRUE_ATE}")
        if abs(float(r["true_mean_alpha"]) - SMALL_TRUE_MEAN_ALPHA) > TRUTH_TOLERANCE:
            problems.append(f"{label}: true_mean_alpha {r['true_mean_alpha']} implausible")
        if not 0.0 < float(r["mean_rmse"]) < MAX_PLAUSIBLE_RMSE[r["method"]]:
            problems.append(
                f"{label}: mean_rmse {r['mean_rmse']} not below {MAX_PLAUSIBLE_RMSE[r['method']]:.3f}"
            )
        if not 0.0 <= float(r["mean_abs_bias"]) <= float(r["mean_rmse"]):
            problems.append(f"{label}: mean_abs_bias exceeds mean_rmse")
    return problems


def check_analyze_outputs(out_dir: Path, n_rows: int) -> list[str]:
    problems = []
    with open(out_dir / "analysis.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [r["method"] for r in rows] != list(ANALYZE_METHODS):
        problems.append(f"analysis.csv methods {[r['method'] for r in rows]}")
    for r in rows:
        if not (_finite(r["mean_cate"]) and _finite(r["mean_prognostic"])):
            problems.append(f"analysis.csv row {r} is not finite")
    tree = json.loads((out_dir / "moderator_tree.json").read_text(encoding="utf-8"))
    if tree.get("tree", {}).get("n") != n_rows:
        problems.append("moderator tree root does not cover every row")
    with open(out_dir / "alpha_vs_pi.csv", newline="", encoding="utf-8") as fh:
        scatter = list(csv.DictReader(fh))
    if len(scatter) != n_rows:
        problems.append(f"alpha_vs_pi.csv has {len(scatter)} rows, expected {n_rows}")
    elif not all(0.0 < float(r["pi_hat"]) < 1.0 and _finite(r["alpha_hat"]) for r in scatter):
        problems.append("alpha_vs_pi.csv has a propensity outside (0, 1) or a non-finite alpha")
    return problems


def fixture_rows() -> int:
    with open(FIXTURE_CSV, newline="", encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


# --- one workload process -----------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (a pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0  # ru_maxrss is in KiB on Linux


def run_once(spec, seed: int, out_dir: Path) -> dict:
    """Time one entry call, then check and digest its outputs.

    entry_at is the monotonic time at which the entry call starts; the
    monotonic clock is system-wide, so a parent process can subtract its
    own spawn time from it to get the set-up time.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.monotonic()
    failure = None
    try:
        call_entry(spec, seed, out_dir)
    except AllTrialsFailed as exc:
        failure = str(exc)
    wall = time.monotonic() - t0
    record = {
        "entry_at": t0,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": spec.attempted,
    }
    if failure is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
        record.update(failed=spec.attempted, problems=[failure], digests={}, cate={})
        return record
    problems: list[str] = []
    cate = {}
    if isinstance(spec, Sweep):
        rows = read_results(out_dir / "results.csv")
        record["failed"] = count_failures(rows, spec.attempted)
        problems += check_sweep_outputs(spec, rows)
        if not problems:
            cate = {
                "cate_rmse": sum(float(r["mean_rmse"]) for r in rows) / len(rows),
                "cate_abs_bias": sum(float(r["mean_abs_bias"]) for r in rows) / len(rows),
            }
    else:
        record["failed"] = 0
        problems += check_analyze_outputs(out_dir, fixture_rows())
    record.update(problems=problems, digests=output_digests(spec, out_dir), cate=cate)
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


# --- machine manifest ----------------------------------------------------------

BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception as exc:  # noqa: BLE001 - the manifest must not abort a run
        return f"unknown ({type(exc).__name__})"


def machine_manifest() -> dict:
    """Facts that decide whether two runs are comparable.

    The benchmark reads the BLAS thread variables as it finds them and sets
    none of them; it pins no CPU and changes no cgroup or cache.
    """
    import numpy as np
    import scipy

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(np),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }
