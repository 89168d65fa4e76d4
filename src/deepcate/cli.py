"""CSV ingestion, the observational-data analysis pipeline, run
configuration, and the command-line entry point.

Subcommands:
    simulate  Monte Carlo benchmark on the built-in generating process.
    analyze   fit the estimators on an observational CSV (no train/test
              split), report mean CATE / prognostic per method, and emit
              the moderator tree and prognosis-vs-propensity scatter.
    report    re-emit a results CSV as csv/markdown tables.

Exit codes: 0 success, 2 configuration error, 3 data error.

Config files are flat UTF-8 key-value text: one `key = value` per line,
`#` starts a comment, keys are the long flag names with underscores.
Command-line flags override file values; the effective configuration is
echoed to the output directory and can be fed back via --config.
"""

from __future__ import annotations

import argparse
import csv
import json
import operator
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .harness import (
    METHOD_CODES,
    ExperimentConfig,
    TrainSettings,
    canonical_methods,
    check_train_settings,
    check_tree_settings,
    derive_seed,
    fit_method,
    fit_moderator_tree,
    propensity_hat,
    run_experiment,
    train_config,
)
from .metrics import ResultsTable, read_results_csv, write_results_csv
from .models import predict_cate, predict_prognostic
from .nn import TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

FEATURE_KINDS = ("numeric", "binary", "ordinal")

ANALYZE_METHODS = ("shared", "bcf", "naive")


class ConfigError(Exception):
    """Bad flags, bad config file, or inconsistent settings."""


class DataError(Exception):
    """Unusable input data (schema violations, unparseable cells, ...)."""


# --- dataset schema and loading ----------------------------------------


@dataclass(frozen=True)
class FeatureSpec:
    """One feature column. kind 'numeric' parses floats; 'binary' and
    'ordinal' map the listed categories to 0..k-1 (or parse numeric codes
    directly when no categories are given)."""

    name: str
    kind: str = "numeric"
    categories: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise DataError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "binary" and self.categories is not None and len(self.categories) != 2:
            raise DataError(f"feature {self.name!r}: binary categories must list 2 labels")


@dataclass(frozen=True)
class DatasetSchema:
    outcome: str
    treatment: str
    treatment_positive: str
    features: tuple[FeatureSpec, ...]

    def __post_init__(self):
        names = [self.outcome, self.treatment] + [f.name for f in self.features]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise DataError(f"duplicate column names in schema: {sorted(dupes)}")
        if not self.features:
            raise DataError("schema declares no feature columns")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)


def load_schema(path) -> DatasetSchema:
    """Read a JSON schema file (see configs/sleep_schema.json)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read schema {path}: {exc}") from exc
    try:
        features = tuple(
            FeatureSpec(
                name=f["name"],
                kind=f.get("kind", "numeric"),
                categories=tuple(f["categories"]) if "categories" in f else None,
            )
            for f in raw["features"]
        )
        return DatasetSchema(
            outcome=raw["outcome"],
            treatment=raw["treatment"]["column"],
            treatment_positive=raw["treatment"]["positive"],
            features=features,
        )
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed schema {path}: {exc}") from exc


@dataclass(frozen=True)
class StandardizedDataset:
    """Feature matrix and outcome centered/scaled column-wise (sd with the
    n-1 denominator, as R's scale does); the treatment stays 0/1. The
    constants are kept so results can be mapped back to raw units."""

    X: np.ndarray
    Z: np.ndarray
    Y: np.ndarray
    feature_names: tuple[str, ...]
    feature_center: np.ndarray
    feature_scale: np.ndarray
    outcome_center: float
    outcome_scale: float

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def raw_features(self) -> np.ndarray:
        return self.X * self.feature_scale + self.feature_center

    def raw_outcome(self, y_std=None) -> np.ndarray:
        y_std = self.Y if y_std is None else np.asarray(y_std, dtype=np.float64)
        return y_std * self.outcome_scale + self.outcome_center


def _code_cell(value: str, spec: FeatureSpec, line_no: int) -> float:
    value = value.strip()
    if spec.categories is not None:
        try:
            return float(spec.categories.index(value))
        except ValueError:
            raise DataError(
                f"line {line_no}: column {spec.name!r} has unknown category {value!r}"
            ) from None
    try:
        out = float(value)
    except ValueError:
        raise DataError(
            f"line {line_no}: column {spec.name!r} has unparseable cell {value!r}"
        ) from None
    if spec.kind == "binary" and out not in (0.0, 1.0):
        raise DataError(f"line {line_no}: column {spec.name!r} must be 0/1, got {value!r}")
    return out


def load_dataset(path, schema: DatasetSchema) -> StandardizedDataset:
    """Read a headered CSV against the schema and standardize it.

    Rows with missing values are rejected with their line numbers; the
    treatment column must produce both classes. Row order is preserved.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    header = [h.strip() for h in header]
    dupes = {h for h in header if header.count(h) > 1}
    if dupes:
        raise DataError(f"duplicate column names in {path}: {sorted(dupes)}")
    col = {name: i for i, name in enumerate(header)}
    needed = [schema.outcome, schema.treatment, *schema.feature_names]
    missing = [name for name in needed if name not in col]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")

    missing_lines = []
    for i, row in enumerate(rows):
        line_no = i + 2  # header is line 1
        if len(row) != len(header):
            raise DataError(f"line {line_no}: expected {len(header)} cells, got {len(row)}")
        for name in needed:
            if row[col[name]].strip() in ("", "NA", "NaN", "nan"):
                missing_lines.append(line_no)
                break
    if missing_lines:
        raise DataError(f"{path}: missing values on lines {missing_lines}")
    if not rows:
        raise DataError(f"{path}: no data rows")

    n = len(rows)
    d = len(schema.features)
    X = np.empty((n, d), dtype=np.float64)
    Y = np.empty(n, dtype=np.float64)
    Z = np.empty(n, dtype=np.float64)
    treatment_levels = set()
    for i, row in enumerate(rows):
        line_no = i + 2
        for j, spec in enumerate(schema.features):
            X[i, j] = _code_cell(row[col[spec.name]], spec, line_no)
        try:
            Y[i] = float(row[col[schema.outcome]])
        except ValueError:
            raise DataError(
                f"line {line_no}: outcome {schema.outcome!r} has unparseable cell "
                f"{row[col[schema.outcome]]!r}"
            ) from None
        level = row[col[schema.treatment]].strip()
        treatment_levels.add(level)
        Z[i] = 1.0 if level == schema.treatment_positive else 0.0
    if len(treatment_levels) != 2:
        raise DataError(
            f"treatment column {schema.treatment!r} must have exactly 2 levels, "
            f"found {sorted(treatment_levels)}"
        )
    if schema.treatment_positive not in treatment_levels:
        raise DataError(
            f"treatment positive label {schema.treatment_positive!r} never occurs"
        )

    center = X.mean(axis=0)
    scale = X.std(axis=0, ddof=1)
    tiny = (scale == 0.0) & (X.max(axis=0) > X.min(axis=0))  # variance underflowed: rescale first
    peak = np.abs(X[:, tiny]).max(axis=0)
    scale[tiny] = peak * (X[:, tiny] / peak).std(axis=0, ddof=1)
    if np.any(scale == 0.0):
        constant = [schema.feature_names[j] for j in np.where(scale == 0.0)[0]]
        raise DataError(f"constant feature columns cannot be standardized: {constant}")
    y_center = float(Y.mean())
    y_scale = float(Y.std(ddof=1))
    if y_scale == 0.0:
        raise DataError("constant outcome column cannot be standardized")
    return StandardizedDataset(
        X=(X - center) / scale,
        Z=Z,
        Y=(Y - y_center) / y_scale,
        feature_names=schema.feature_names,
        feature_center=center,
        feature_scale=scale,
        outcome_center=y_center,
        outcome_scale=y_scale,
    )


# --- observational analysis pipeline ------------------------------------


@dataclass(frozen=True)
class AnalyzeConfig:
    data: str
    schema: str
    out_dir: str = "out"
    seed: int = 0
    epochs: int = TrainConfig.epochs
    propensity_epochs: int = 100
    batch_size: int = TrainConfig.batch_size
    lr: float = TrainConfig.lr
    methods: tuple[str, ...] = ANALYZE_METHODS
    tree_depth: int = 2
    tree_min_leaf: int = 10

    def __post_init__(self):
        try:
            check_train_settings(self, self.propensity_epochs)
            check_tree_settings(self.tree_depth, self.tree_min_leaf)
            methods = canonical_methods(self.methods, ANALYZE_METHODS)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "methods", methods)


@dataclass(frozen=True)
class MethodSummary:
    method: str
    mean_cate: float
    mean_prognostic: float


@dataclass(frozen=True)
class SleepAnalysis:
    """Everything the analyze subcommand reports: per-method summaries on
    the standardized-outcome scale, per-row estimates for the headline
    method, the moderator tree, and the propensity diagnostics."""

    rows: tuple[MethodSummary, ...]
    cate_by_method: dict
    tree: object
    tree_method: str
    alpha_hat: np.ndarray
    pi_hat: np.ndarray
    pi_interior_fraction: float


def run_sleep_analysis(data: StandardizedDataset, cfg: AnalyzeConfig) -> SleepAnalysis:
    """Fit the requested estimators on the full dataset (no split).

    The propensity network trains for cfg.propensity_epochs (shorter than
    the outcome networks by default; long propensity runs push the
    estimated probabilities onto 0/1). The moderator tree and the
    prognosis-vs-propensity scatter come from the split model when fitted,
    else from the first fitted method.
    """
    pi_hat = propensity_hat(data.X, data.Z, cfg, derive_seed(cfg.seed, 99), cfg.propensity_epochs)
    models = {}
    for method in cfg.methods:
        fit_cfg = train_config(cfg, data.n, derive_seed(cfg.seed, METHOD_CODES[method]))
        models[method] = fit_method(method, data.X, data.Z, data.Y, fit_cfg, pi_hat)

    rows = []
    cate_by_method = {}
    for method in cfg.methods:
        cate = predict_cate(models[method], data.X, pi_hat)
        prog = predict_prognostic(models[method], data.X, pi_hat)
        cate_by_method[method] = cate
        rows.append(
            MethodSummary(
                method=method,
                mean_cate=float(cate.mean()),
                mean_prognostic=float(prog.mean()),
            )
        )

    tree_method = "bcf" if "bcf" in models else cfg.methods[0]
    tree = fit_moderator_tree(
        data.X, cate_by_method[tree_method], cfg.tree_depth, cfg.tree_min_leaf
    )
    alpha_hat = predict_prognostic(models[tree_method], data.X, pi_hat)
    interior = float(np.mean((pi_hat > 0.01) & (pi_hat < 0.99)))
    return SleepAnalysis(
        rows=tuple(rows),
        cate_by_method=cate_by_method,
        tree=tree,
        tree_method=tree_method,
        alpha_hat=alpha_hat,
        pi_hat=pi_hat,
        pi_interior_fraction=interior,
    )


def write_analysis_outputs(analysis: SleepAnalysis, data: StandardizedDataset, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "analysis.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["method", "mean_cate", "mean_prognostic"])
        for row in analysis.rows:
            w.writerow([row.method, repr(row.mean_cate), repr(row.mean_prognostic)])
    with open(out / "analysis.md", "w", encoding="utf-8") as fh:
        fh.write("| Method | CATE Estimate | Mean Prognostic |\n")
        fh.write("| --- | --- | --- |\n")
        for row in analysis.rows:
            fh.write(f"| {row.method} | {row.mean_cate:.2f} | {row.mean_prognostic:.2f} |\n")
        fh.write(
            "\nOutcome-scale note: estimates are on the standardized outcome "
            f"(center {data.outcome_center!r}, scale {data.outcome_scale!r}); "
            "multiply by the scale to recover raw units.\n"
            "External-tool benchmark rows (tree-ensemble propensity, the "
            "original Bayesian-forest implementation) are not produced here.\n"
        )
    with open(out / "moderator_tree.txt", "w", encoding="utf-8") as fh:
        fh.write(
            f"effect summary tree ({analysis.tree_method} estimates; thresholds in "
            "raw feature units, predictions on the standardized outcome)\n"
        )
        fh.write(
            analysis.tree.to_text(
                data.feature_names,
                lambda j, t: t * data.feature_scale[j] + data.feature_center[j],
            )
        )
    with open(out / "moderator_tree.json", "w", encoding="utf-8") as fh:
        fh.write(analysis.tree.to_json())
        fh.write("\n")
    with open(out / "alpha_vs_pi.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["alpha_hat", "pi_hat"])
        for a, p in zip(analysis.alpha_hat, analysis.pi_hat):
            w.writerow([repr(float(a)), repr(float(p))])


# --- report emission -----------------------------------------------------

MARKDOWN_HEADER = (
    "| Method | n | mean beta_hat | True ATE | True Mean alpha | Mean Runtime (s) "
    "| Mean Correlation | Mean rMSE | Mean Abs Bias |"
)


def results_markdown(table: ResultsTable) -> str:
    """Markdown rendering in the reference column order, 2-decimal cells."""
    lines = [MARKDOWN_HEADER, "| --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
    for r in table.rows:
        corr = "NA" if r.mean_correlation is None else f"{r.mean_correlation:.2f}"
        lines.append(
            f"| {r.method} | {r.n} | {r.mean_beta_hat:.2f} | {r.true_ate:.2f} "
            f"| {r.true_mean_alpha:.2f} | {r.mean_runtime_s:.2f} | {corr} "
            f"| {r.mean_rmse:.2f} | {r.mean_abs_bias:.2f} |"
        )
    return "\n".join(lines) + "\n"


def emit_report(table: ResultsTable, out_dir, formats=("csv", "markdown")) -> list[Path]:
    """Write the results table once per requested format; returns paths."""
    if not table.rows:
        raise ValueError("empty results table")
    unknown = set(formats) - {"csv", "markdown"}
    if unknown:
        raise ConfigError(f"unknown report formats: {sorted(unknown)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        path = out / "results.csv"
        write_results_csv(table, path)
        written.append(path)
    if "markdown" in formats:
        path = out / "results.md"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(results_markdown(table))
        written.append(path)
    return written


# --- configuration -------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    mode: str
    out_dir: str
    experiment: ExperimentConfig | None = None
    analyze: AnalyzeConfig | None = None
    results_path: str | None = None
    report_formats: tuple[str, ...] = ("csv", "markdown")

    def __post_init__(self):
        if self.mode not in ("simulate", "analyze", "report"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        wanted = {
            "simulate": self.experiment is not None,
            "analyze": self.analyze is not None,
            "report": self.results_path is not None,
        }
        if not wanted[self.mode]:
            raise ConfigError(f"mode {self.mode!r} is missing its settings")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip() != "")


def _typed(parser):
    def wrap(text):
        try:
            return parser(text)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"bad value {text!r}") from None

    return wrap


class _Key:
    """One config key: its parser, the RunConfig attribute paths its value
    sets (the first is echoed), and a default for when the dataclass that
    holds it has none."""

    def __init__(self, parse, *targets: str, default=None):
        self.parse = parse
        self.targets = targets
        self.default = default


# key -> _Key, per mode; config-file keys and flag names coincide, and the
# echo lists the keys in this order
_KEYS = {
    "simulate": {
        "regime": _Key(str, "experiment.regime", default="small"),
        "n": _Key(_parse_int_list, "experiment.sample_sizes", default=(250, 500, 1000)),
        "trials": _Key(_typed(int), "experiment.n_trials", default=100),
        "test_size": _Key(_typed(int), "experiment.test_size"),
        "methods": _Key(_parse_str_list, "experiment.methods"),
        "seed": _Key(_typed(int), "experiment.base_seed"),
        "kappa": _Key(_typed(float), "experiment.kappa"),
        "threads": _Key(_typed(int), "experiment.parallelism"),
        "epochs": _Key(_typed(int), "experiment.train.epochs"),
        "batch_size": _Key(_typed(int), "experiment.train.batch_size"),
        "lr": _Key(_typed(float), "experiment.train.lr"),
        "propensity_epochs": _Key(_typed(int), "experiment.train.propensity_epochs"),
        "redraw_z": _Key(_parse_bool, "experiment.redraw_z"),
        "standardize_y": _Key(_parse_bool, "experiment.train.standardize_y"),
        "out_dir": _Key(str, "out_dir", default="out"),
    },
    "analyze": {
        "data": _Key(str, "analyze.data"),
        "schema": _Key(str, "analyze.schema"),
        "seed": _Key(_typed(int), "analyze.seed"),
        "epochs": _Key(_typed(int), "analyze.epochs"),
        "propensity_epochs": _Key(_typed(int), "analyze.propensity_epochs"),
        "batch_size": _Key(_typed(int), "analyze.batch_size"),
        "lr": _Key(_typed(float), "analyze.lr"),
        "methods": _Key(_parse_str_list, "analyze.methods"),
        "tree_depth": _Key(_typed(int), "analyze.tree_depth"),
        "tree_min_leaf": _Key(_typed(int), "analyze.tree_min_leaf"),
        "out_dir": _Key(str, "out_dir", "analyze.out_dir", default="out"),
    },
    "report": {
        "results": _Key(str, "results_path"),
        "format": _Key(_parse_str_list, "report_formats"),
        "out_dir": _Key(str, "out_dir", default="out"),
    },
}

# RunConfig attribute path -> the settings dataclass built there, innermost first
_SECTIONS = {
    "experiment.train": TrainSettings,
    "experiment": ExperimentConfig,
    "analyze": AnalyzeConfig,
}

_REQUIRED = {"simulate": (), "analyze": ("data", "schema"), "report": ("results",)}


def read_config_file(path) -> dict[str, str]:
    """Parse the flat `key = value` grammar; returns raw string values."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{line_no}: expected `key = value`")
                key, _, value = stripped.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepcate",
        description="Heterogeneous treatment effect estimation: simulation benchmark and data analysis.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, keys in _KEYS.items():
        p = sub.add_parser(mode)
        p.add_argument("--config", default=None, help="flat key=value config file")
        for key in keys:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None, type=str)
    return parser


def parse_config(argv) -> RunConfig:
    """Resolve flags, optional config file, and defaults into a RunConfig.

    Precedence: command-line flag > config-file value > default.
    """
    ns = _build_argparser().parse_args(argv)
    mode = ns.mode
    keys = _KEYS[mode]
    file_values = read_config_file(ns.config) if ns.config else {}
    file_mode = file_values.pop("mode", None)
    if file_mode is not None and file_mode != mode:
        raise ConfigError(f"config file is for mode {file_mode!r}, invoked as {mode!r}")
    unknown = set(file_values) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys for {mode}: {sorted(unknown)}")

    values = {}
    for key, spec in keys.items():
        raw = getattr(ns, key)
        if raw is None:
            raw = file_values.get(key)
        values[key] = spec.default if raw is None else spec.parse(raw)
    for key in _REQUIRED[mode]:
        if values[key] is None:
            raise ConfigError(f"{mode} requires --{key.replace('_', '-')}")

    # unset values are left out, so each dataclass applies its own default
    kwargs = {"": {"mode": mode}}
    for key, value in values.items():
        for target in keys[key].targets:
            section, _, attr = target.rpartition(".")
            fields = kwargs.setdefault(section, {})
            if value is not None:
                fields[attr] = value
    try:
        for section, cls in _SECTIONS.items():
            if section in kwargs:
                parent, _, attr = section.rpartition(".")
                kwargs[parent][attr] = cls(**kwargs.pop(section))
        return RunConfig(**kwargs[""])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def effective_config_text(cfg: RunConfig) -> str:
    """Render the full effective configuration in the config-file grammar
    (a file that parses back to exactly this configuration)."""
    lines = [f"mode = {cfg.mode}"]
    for key, spec in _KEYS[cfg.mode].items():
        value = operator.attrgetter(spec.targets[0])(cfg)
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def write_effective_config(cfg: RunConfig) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "effective_config.txt", "w", encoding="utf-8") as fh:
        fh.write(effective_config_text(cfg))


# --- entry point ----------------------------------------------------------


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
        if cfg.mode == "simulate":
            write_effective_config(cfg)
            table = run_experiment(cfg.experiment, out_dir=cfg.out_dir)
            emit_report(table, cfg.out_dir, formats=("markdown",))
        elif cfg.mode == "analyze":
            schema = load_schema(cfg.analyze.schema)
            data = load_dataset(cfg.analyze.data, schema)
            write_effective_config(cfg)
            analysis = run_sleep_analysis(data, cfg.analyze)
            write_analysis_outputs(analysis, data, cfg.out_dir)
        else:
            try:
                table = read_results_csv(cfg.results_path)
            except (OSError, ValueError) as exc:
                raise DataError(f"cannot read results {cfg.results_path}: {exc}") from exc
            write_effective_config(cfg)
            emit_report(table, cfg.out_dir, formats=cfg.report_formats)
    except SystemExit as exc:  # argparse usage/--help paths
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
