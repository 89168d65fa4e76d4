"""The observational analysis behind `deepcate analyze`: the dataset
schema, the CSV loader and its standardization, the fits on the full
dataset (no train/test split), and the files they write. Unusable input
raises `DataError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .harness import (
    METHOD_TABLE,
    derive_seed,
    fit_method,
    fit_moderator_tree,
    propensity_hat,
    train_config,
)
from .metrics import _NotUtf8, _read_utf8, read_table, write_csv
from .models import predict_cate, predict_prognostic

if TYPE_CHECKING:
    from .cli import AnalyzeConfig

FEATURE_KINDS = ("numeric", "binary", "ordinal")

ANALYZE_METHODS = tuple(name for name, m in METHOD_TABLE.items() if m.trains)


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


def _categories(feature: dict, path) -> tuple[str, ...]:
    """A schema feature's categories, which must be a JSON list of strings."""
    cats = feature["categories"]
    if not isinstance(cats, list) or not all(isinstance(c, str) for c in cats):
        raise DataError(
            f"malformed schema {path}: feature {feature['name']!r}: "
            f"categories must be a list of strings, got {cats!r}"
        )
    return tuple(cats)


def load_schema(path) -> DatasetSchema:
    """Read a JSON schema file (see configs/sleep_schema.json)."""
    try:
        raw = json.loads(_read_utf8(path))
    except (OSError, _NotUtf8, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read schema {path}: {exc}") from exc
    try:
        features = tuple(
            FeatureSpec(
                name=f["name"],
                kind=f.get("kind", "numeric"),
                categories=_categories(f, path) if "categories" in f else None,
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


def _parse_finite(value: str, line_no: int, role: str, name: str) -> float:
    """A cell as a finite float; role ('column', 'outcome') and name are
    for the message."""
    try:
        out = float(value)
    except ValueError:
        raise DataError(
            f"line {line_no}: {role} {name!r} has unparseable cell {value!r}"
        ) from None
    if not math.isfinite(out):
        raise DataError(f"line {line_no}: {role} {name!r} has non-finite value {value!r}")
    return out


def _code_cell(value: str, spec: FeatureSpec, line_no: int) -> float:
    value = value.strip()
    if spec.categories is not None:
        try:
            return float(spec.categories.index(value))
        except ValueError:
            raise DataError(
                f"line {line_no}: column {spec.name!r} has unknown category {value!r}"
            ) from None
    out = _parse_finite(value, line_no, "column", spec.name)
    if spec.kind == "binary" and out not in (0.0, 1.0):
        raise DataError(f"line {line_no}: column {spec.name!r} must be 0/1, got {value!r}")
    return out


def load_dataset(path, schema: DatasetSchema) -> StandardizedDataset:
    """Read a headered CSV against the schema and standardize it.

    Rows with missing values are rejected with their line numbers, and a
    feature or outcome cell that is not a finite number with its line and
    column; so is a column of huge cells, whose mean or sd overflows. The
    treatment column must produce both classes. Row order is preserved.
    """
    try:
        header, rows = read_table(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None

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
    for line_no, row in rows:
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
    for i, (line_no, row) in enumerate(rows):
        for j, spec in enumerate(schema.features):
            X[i, j] = _code_cell(row[col[spec.name]], spec, line_no)
        Y[i] = _parse_finite(row[col[schema.outcome]], line_no, "outcome", schema.outcome)
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

    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
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
        X_std = (X - center) / scale
        Y_std = (Y - y_center) / y_scale
    finite = np.isfinite(np.vstack([center, scale, X_std])).all(axis=0)
    if not finite.all():
        huge = [schema.feature_names[j] for j in np.where(~finite)[0]]
        raise DataError(f"feature columns too large to standardize (mean or sd overflows): {huge}")
    if not np.isfinite(np.r_[y_center, y_scale, Y_std]).all():
        raise DataError(f"outcome {schema.outcome!r} too large to standardize (mean or sd overflows)")
    return StandardizedDataset(
        X=X_std,
        Z=Z,
        Y=Y_std,
        feature_names=schema.feature_names,
        feature_center=center,
        feature_scale=scale,
        outcome_center=y_center,
        outcome_scale=y_scale,
    )


# --- observational analysis pipeline ------------------------------------


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
    pi_hat = propensity_hat(data.X, data.Z, cfg, derive_seed(cfg.seed, 99))
    rows, estimates = [], {}
    for method in cfg.methods:
        fit_cfg = train_config(cfg, data.n, derive_seed(cfg.seed, METHOD_TABLE[method].code))
        model = fit_method(method, data.X, data.Z, data.Y, fit_cfg, pi_hat)
        cate = predict_cate(model, data.X, pi_hat)
        prog = predict_prognostic(model, data.X, pi_hat)
        estimates[method] = cate, prog
        rows.append(MethodSummary(method, float(cate.mean()), float(prog.mean())))

    tree_method = "bcf" if "bcf" in estimates else cfg.methods[0]
    cate, alpha_hat = estimates[tree_method]
    tree = fit_moderator_tree(data.X, cate, cfg.tree_depth, cfg.tree_min_leaf)
    interior = float(np.mean((pi_hat > 0.01) & (pi_hat < 0.99)))
    return SleepAnalysis(
        rows=tuple(rows),
        tree=tree,
        tree_method=tree_method,
        alpha_hat=alpha_hat,
        pi_hat=pi_hat,
        pi_interior_fraction=interior,
    )


def write_analysis_outputs(analysis: SleepAnalysis, data: StandardizedDataset, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = tuple(f.name for f in fields(MethodSummary))
    write_csv(out / "analysis.csv", header, map(astuple, analysis.rows))
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
    write_csv(
        out / "alpha_vs_pi.csv",
        ("alpha_hat", "pi_hat"),
        zip(analysis.alpha_hat.tolist(), analysis.pi_hat.tolist()),
    )
