"""Run configuration, report emission, and the command-line entry point.

Subcommands:
    simulate  Monte Carlo benchmark on the built-in generating process
              (deepcate.harness).
    analyze   fit the estimators on an observational CSV (no train/test
              split), report mean CATE / prognostic per method, and emit
              the moderator tree and prognosis-vs-propensity scatter
              (deepcate.analysis).
    report    re-emit a results CSV as csv/markdown tables.

Exit codes: 0 success, 2 configuration error, 3 data error.

Config files are flat UTF-8 key-value text (a leading byte-order mark is
skipped): one `key = value` per line, `#` starts a comment, keys are the
long flag names with underscores, each given at most once. Command-line
flags override file values; the effective configuration is echoed to the
output directory and can be fed back via --config.
"""

from __future__ import annotations

import argparse
import io
import operator
import sys
from dataclasses import dataclass
from pathlib import Path

# DatasetSchema and FeatureSpec are re-exported: callers reach them as cli.X
from .analysis import (
    ANALYZE_METHODS,
    DataError,
    DatasetSchema,
    FeatureSpec,
    load_dataset,
    load_schema,
    run_sleep_analysis,
    write_analysis_outputs,
)
from .harness import (
    ExperimentConfig,
    TrainSettings,
    canonical_methods,
    check_tree_settings,
    run_experiment,
)
from .metrics import (
    ResultsTable,
    _NotUtf8,
    _read_utf8,
    read_results_csv,
    write_results_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


class ConfigError(Exception):
    """Bad flags, bad config file, or inconsistent settings."""


# --- analyze's settings -------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class AnalyzeConfig(TrainSettings):
    """analyze's settings: the training settings (with a shorter
    propensity run by default) plus its data, seed, methods and tree."""

    data: str
    schema: str
    out_dir: str = "out"
    seed: int = 0
    propensity_epochs: int = 100
    methods: tuple[str, ...] = ANALYZE_METHODS
    tree_depth: int = 2
    tree_min_leaf: int = 10

    def __post_init__(self):
        try:
            super().__post_init__()
            check_tree_settings(self.tree_depth, self.tree_min_leaf)
            methods = canonical_methods(self.methods, ANALYZE_METHODS)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        object.__setattr__(self, "methods", methods)




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


REPORT_FORMATS = ("csv", "markdown")


def check_report_formats(formats) -> None:
    """ConfigError unless formats names at least one format, all known."""
    unknown = set(formats) - set(REPORT_FORMATS)
    if unknown:
        raise ConfigError(f"unknown report formats: {sorted(unknown)} (supported: {REPORT_FORMATS})")
    if not formats:
        raise ConfigError(f"need at least one report format (supported: {REPORT_FORMATS})")


def emit_report(table: ResultsTable, out_dir, formats=REPORT_FORMATS) -> list[Path]:
    """Write the results table once per requested format; returns paths."""
    if not table.rows:
        raise ValueError("empty results table")
    check_report_formats(formats)
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
    report_formats: tuple[str, ...] = REPORT_FORMATS

    def __post_init__(self):
        if self.mode not in ("simulate", "analyze", "report"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        check_report_formats(self.report_formats)
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
    """Parse the flat `key = value` grammar; returns raw string values. A
    key given twice is an error, not an override."""
    try:
        text = _read_utf8(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except _NotUtf8 as exc:
        raise ConfigError(f"{path}:{exc.line}: {exc}") from None
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected `key = value`")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in first_line:
            raise ConfigError(
                f"{path}:{line_no}: duplicate key {key!r} (first on line {first_line[key]})"
            )
        first_line[key] = line_no
        values[key] = value.strip()
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
                if not table.rows:
                    raise ValueError("line 2: no data rows")
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
