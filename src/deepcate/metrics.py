"""Estimands and evaluation: the IPW estimator of the average treatment
effect, and the per-trial / aggregated metrics reported by the benchmark.

It also owns the on-disk table format (UTF-8, LF line ends, floats as
repr, None as an empty cell): every CSV the package writes goes through
write_csv, and every CSV it reads through read_table (read_csv checks
the header as well).
"""

from __future__ import annotations

import codecs
import csv
import dataclasses
import io
import logging
import typing
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


def ipw_ate(Y: np.ndarray, Z: np.ndarray, p: np.ndarray) -> float:
    """Inverse-propensity-weighted ATE: mean of Y*Z/p - Y*(1-Z)/(1-p).

    p must lie strictly inside (0, 1). With no controls the estimate
    degenerates to mean(Y*Z/p), which is valid but high-variance.
    """
    Y = np.asarray(Y, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if not (Y.shape == Z.shape == p.shape):
        raise ValueError("Y, Z, p must be aligned")
    if not np.all((Z == 0.0) | (Z == 1.0)):
        raise ValueError("Z must be binary")
    if not np.all((p > 0.0) & (p < 1.0)):  # a NaN is not inside either
        raise ValueError("propensities must lie strictly inside (0, 1)")
    return float(np.mean(Y * Z / p - Y * (1.0 - Z) / (1.0 - p)))


def pearson_corr(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation coefficient; raises on zero-variance input."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two aligned vectors of length >= 2")
    ac, bc = a - a.mean(), b - b.mean()
    corr = _centred_corr(ac, _centred_ss(a, ac), bc, _centred_ss(b, bc))
    if corr is None:
        raise ValueError("zero-variance input")
    return corr


def _centred_ss(v: np.ndarray, vc: np.ndarray) -> np.float64:
    """The sum of squares of vc, v centred; exactly 0 when v is constant,
    where vc may hold rounding residue (np.full(30, 0.2).mean() is not
    0.2)."""
    if v.max() == v.min():
        return np.float64(0.0)
    return (vc * vc).sum()


def _centred_corr(ac: np.ndarray, ac_ss, bc: np.ndarray, bc_ss) -> float | None:
    """Pearson correlation of two centred vectors, given their sums of
    squares (_centred_ss); None when either is 0."""
    denom = np.sqrt(ac_ss * bc_ss)
    if denom == 0.0:
        return None
    return float((ac * bc).sum() / denom)


@dataclass(frozen=True)
class TrialMetrics:
    """One trial's evaluation of an estimated CATE against the truth.

    correlation is None when the estimate or the truth is constant
    (undefined Pearson).
    """

    mean_beta_hat: float
    true_ate: float
    true_mean_alpha: float
    runtime_seconds: float
    correlation: float | None
    rmse: float
    abs_bias: float


@dataclass(frozen=True)
class EvalTruth:
    """The true surfaces of one evaluation sample, with the moments every
    trial scored on it needs: the true ATE, the mean of alpha, and the
    centred beta_true with its sum of squares (for the correlation).
    Build it with eval_truth, once per sample."""

    beta_true: np.ndarray
    alpha_true: np.ndarray
    true_ate: float
    true_mean_alpha: float
    beta_centred: np.ndarray
    beta_ss: np.float64


def eval_truth(beta_true: np.ndarray, alpha_true: np.ndarray) -> EvalTruth:
    """The EvalTruth of aligned true effect and prognostic surfaces."""
    beta_true = np.asarray(beta_true, dtype=np.float64)
    alpha_true = np.asarray(alpha_true, dtype=np.float64)
    if beta_true.shape != alpha_true.shape:
        raise ValueError("metric inputs must be aligned")
    ate = beta_true.mean()
    bc = beta_true - ate
    return EvalTruth(
        beta_true=beta_true,
        alpha_true=alpha_true,
        true_ate=float(ate),
        true_mean_alpha=float(alpha_true.mean()),
        beta_centred=bc,
        beta_ss=_centred_ss(beta_true, bc),
    )


def trial_metrics(beta_hat: np.ndarray, truth: EvalTruth, runtime: float) -> TrialMetrics:
    """Evaluate an estimated CATE vector against the known truth.

    The correlation is pearson_corr(beta_hat, truth.beta_true), in the
    same operations, with beta_true's half read from the record.
    """
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    if beta_hat.shape != truth.beta_true.shape:
        raise ValueError("metric inputs must be aligned")
    err = beta_hat - truth.beta_true
    mean_hat = beta_hat.mean()
    corr = None
    if beta_hat.ndim == 1 and beta_hat.size >= 2:
        ac = beta_hat - mean_hat
        corr = _centred_corr(ac, _centred_ss(beta_hat, ac), truth.beta_centred, truth.beta_ss)
    return TrialMetrics(
        mean_beta_hat=float(mean_hat),
        true_ate=truth.true_ate,
        true_mean_alpha=truth.true_mean_alpha,
        runtime_seconds=float(runtime),
        correlation=corr,
        rmse=float(np.sqrt(np.mean(err**2))),
        abs_bias=float(abs(err.mean())),
    )


@dataclass(frozen=True)
class ResultRow:
    """Trial-averaged metrics for one (method, n, regime) cell."""

    method: str
    n: int
    regime: str
    trials: int
    mean_beta_hat: float
    true_ate: float
    true_mean_alpha: float
    mean_runtime_s: float
    mean_correlation: float | None
    mean_rmse: float
    mean_abs_bias: float


@dataclass(frozen=True)
class ResultsTable:
    rows: tuple[ResultRow, ...]

    def row(self, method: str, n: int, regime: str) -> ResultRow:
        for r in self.rows:
            if (r.method, r.n, r.regime) == (method, n, regime):
                return r
        raise KeyError(f"no row for {(method, n, regime)}")


def aggregate_results(
    trials: list[TrialMetrics], method: str, n: int, regime: str
) -> ResultRow:
    """Arithmetic mean of every metric across completed trials.

    Trials with an undefined correlation are excluded from the correlation
    average only; the exclusion count is logged.
    """
    if not trials:
        raise ValueError("no trials to aggregate")
    corrs = [t.correlation for t in trials if t.correlation is not None]
    n_undefined = len(trials) - len(corrs)
    if n_undefined:
        log.info(
            "cell (%s, n=%d, %s): %d trial(s) had undefined correlation, excluded",
            method, n, regime, n_undefined,
        )
    return ResultRow(
        method=method,
        n=n,
        regime=regime,
        trials=len(trials),
        mean_beta_hat=float(np.mean([t.mean_beta_hat for t in trials])),
        true_ate=float(np.mean([t.true_ate for t in trials])),
        true_mean_alpha=float(np.mean([t.true_mean_alpha for t in trials])),
        mean_runtime_s=float(np.mean([t.runtime_seconds for t in trials])),
        mean_correlation=float(np.mean(corrs)) if corrs else None,
        mean_rmse=float(np.mean([t.rmse for t in trials])),
        mean_abs_bias=float(np.mean([t.abs_bias for t in trials])),
    )


class _NotUtf8(ValueError):
    """A text input holds a byte sequence that is not UTF-8."""

    def __init__(self, line: int, byte: int):
        super().__init__(f"byte 0x{byte:02x} is not UTF-8")
        self.line = line


def _read_utf8(path) -> str:
    """The text of a UTF-8 file, with or without a byte-order mark (like
    the utf-8-sig codec); _NotUtf8 names the line of a bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _NotUtf8(raw.count(b"\n", 0, exc.start) + 1, raw[exc.start]) from None


def _cell(value):
    if isinstance(value, float):  # np.float64 included: it subclasses float
        return repr(float(value))
    return "" if value is None else value


def write_csv(path, header, rows) -> None:
    """Write a headered table: UTF-8, LF line ends, floats as repr and
    None as an empty cell; any other cell as csv writes it. Raises
    ValueError, writing nothing, on a string cell with a carriage return."""
    table = [[_cell(v) for v in row] for row in rows]
    for number, cells in enumerate(table, 1):
        for name, cell in zip(header, cells):
            if isinstance(cell, str) and "\r" in cell:
                raise ValueError(f"data row {number}, column {name!r}: cell holds a carriage return")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(table)


def read_table(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header and the data rows of a CSV file, each row as (the line
    it starts on, its cells): a quoted cell may span lines.

    A leading byte-order mark is skipped. Raises ValueError, naming the
    line, for a byte that is not UTF-8, an empty file, or a row whose
    length differs from the header's.
    """
    try:
        text = _read_utf8(path)
    except _NotUtf8 as exc:
        raise ValueError(f"line {exc.line}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise ValueError("line 1: empty file, expected a header")
    rows = []
    start = reader.line_num + 1
    for row in reader:
        if len(row) != len(header):
            raise ValueError(f"line {start}: expected {len(header)} cells, got {len(row)}")
        rows.append((start, row))
        start = reader.line_num + 1
    return header, rows


def read_csv(path, header) -> list[list[str]]:
    """The data rows of a table written by write_csv, as strings; raises
    ValueError as read_table does, or for a header other than `header`."""
    found, rows = read_table(path)
    if tuple(found) != tuple(header):
        raise ValueError(f"line 1: unexpected columns {found}")
    return [row for _line, row in rows]


RESULTS_CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(ResultRow))

# a results cell's parser, by the resolved type of its ResultRow field
_PARSE_CELL = {str: str, int: int, float: float, float | None: lambda t: float(t) if t else None}


def write_results_csv(table: ResultsTable, path) -> None:
    """Emit the aggregated table; float cells use repr so the file is
    bit-stable for identical inputs and round-trips exactly."""
    write_csv(path, RESULTS_CSV_COLUMNS, map(dataclasses.astuple, table.rows))


def read_results_csv(path) -> ResultsTable:
    """Inverse of write_results_csv."""
    parsers = [_PARSE_CELL[t] for t in typing.get_type_hints(ResultRow).values()]
    return ResultsTable(
        tuple(
            ResultRow(*(parse(cell) for parse, cell in zip(parsers, rec)))
            for rec in read_csv(path, RESULTS_CSV_COLUMNS)
        )
    )
