"""The traced run: the workload's own entry call, run serially with spans
around the functions it calls, then layer probes; the recorded spans
become the per-layer metrics.

Spans are recorded here. While a traced call runs, `instrumented` swaps
the program's public functions, wherever the `deepcate` package binds
them, for wrappers that open a span and call the original, and puts the
originals back afterwards. The program itself carries no
instrumentation, and the figures are those of the code it runs. Spans
stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import pickle
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import bench

ARCHS = ("shared", "bcf_alpha", "bcf_beta", "naive", "propensity")
NN_STEPS = 200  # timed steps per architecture, after NN_WARMUP untimed ones
NN_WARMUP = 20
EVAL_ROWS = 10_000
FIT_SIZES = (250, 1000)
BATCH = 64
# spans that run_trial's fit consists of; their sum is the fit time
FIT_SPANS = ("models.fit", "models.fit_propensity", "models.predict_propensity", "models.fit_bcf_outcome")


class Tracer:
    """In-memory spans: name, attributes, start, end, parent and trace id.

    A root span opens a trace; every span below it carries the root's id.
    `steps` counts the minibatches the program's training loops draw.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.steps = 0

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        rec = {
            "id": sid,
            "parent": parent,
            "trace": sid if parent is None else self.spans[parent]["trace"],
            "name": name,
            "attrs": attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        """fn, with every call recorded as a span; attrs(*args) names it."""

        def traced(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                return fn(*args, **kwargs)

        return traced

    def count_steps(self, minibatches):
        def counted(*args, **kwargs):
            batches = minibatches(*args, **kwargs)
            self.steps += len(batches)
            return batches

        return counted

    def matching(self, name: str, **attrs) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def durations(self, name: str, **attrs) -> list[float]:
        return [s["end"] - s["start"] for s in self.matching(name, **attrs)]

    def self_times(self, root_id: int) -> dict[str, float]:
        """Self time per layer (name prefix) over the trace under root_id.

        A span's self time is its duration minus its children's; children
        run one after another, so their union is their sum.
        """
        child_total = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_total[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            if s["trace"] == root_id:
                layer = s["name"].split(".", 1)[0]
                own = s["end"] - s["start"] - child_total[s["id"]]
                out[layer] = out.get(layer, 0.0) + own
        return out


def summary(values: list[float]) -> dict:
    """Median, plus p90 once at least ten samples lie beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


# --- instrumentation --------------------------------------------------------------


def _rows(X, *args, **kwargs):
    return {"n": len(X)}


def _size(n, *args, **kwargs):
    return {"n": n}


def _second_rows(first, X, *args, **kwargs):
    return {"n": len(X)}


def _trial(X, u, seed, method, *args, **kwargs):
    return {"method": method, "n": len(X)}


def instrument_points() -> list[tuple]:
    """(function, span name, attrs) for every call the traced run records."""
    from deepcate import cli, dgp, harness, metrics, models

    method_of = {
        models.SharedModel: "shared",
        models.BcfModel: "bcf",
        models.NaiveModel: "naive",
        models.OlsModel: "ols",
    }

    def fit(method):
        return lambda X, *args, **kwargs: {"method": method, "n": len(X)}

    def cate(model, X, *args, **kwargs):
        return {"method": method_of[type(model)], "rows": len(X)}

    return [
        (dgp.gen_covariates, "dgp.gen_covariates", _size),
        (harness.make_eval_sample, "harness.make_eval_sample", _size),
        (harness.run_trial, "harness.run_trial", _trial),
        (harness.write_experiment_outputs, "harness.write_experiment_outputs", None),
        (harness.fit_moderator_tree, "harness.fit_moderator_tree", _rows),
        (metrics.trial_metrics, "metrics.trial_metrics", _rows),
        (metrics.aggregate_results, "metrics.aggregate_results", None),
        (models.fit_ols, "models.fit", fit("ols")),
        (models.fit_shared, "models.fit", fit("shared")),
        (models.fit_naive, "models.fit", fit("naive")),
        (models.fit_propensity, "models.fit_propensity", _rows),
        (models.predict_propensity, "models.predict_propensity", _second_rows),
        (models.fit_bcf, "models.fit_bcf_outcome", _rows),
        (models.predict_cate, "models.predict_cate", cate),
        (cli.load_schema, "cli.load_schema", None),
        (cli.load_dataset, "cli.load_dataset", None),
        (cli.write_effective_config, "cli.write_effective_config", None),
        (cli.run_sleep_analysis, "cli.run_sleep_analysis", None),
        (cli.write_analysis_outputs, "cli.write_outputs", None),
    ]


def bindings(fn) -> list[tuple]:
    """Every (module, attribute) of the deepcate package that holds fn.

    A caller looks a function up where it imported it: `harness` calls the
    `fit_shared` it bound with `from .models import ...`, and
    `dgp.gen_covariates` through the module. Wrapping fn in each of these
    places records every call, however the program imports it.
    """
    found = []
    for name, module in list(sys.modules.items()):
        if name == "deepcate" or name.startswith("deepcate."):
            found += [(module, attr) for attr, value in vars(module).items() if value is fn]
    return found


@contextmanager
def instrumented(tr: Tracer):
    """Record spans of the program's calls, and count its minibatch steps,
    until the block ends; then put the program's functions back."""
    from deepcate import nn

    swaps = [(fn, tr.wrap(name, fn, attrs)) for fn, name, attrs in instrument_points()]
    swaps.append((nn.minibatches, tr.count_steps(nn.minibatches)))
    saved = []
    try:
        for fn, replacement in swaps:
            for module, attr in bindings(fn):
                saved.append((module, attr, fn))
                setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# --- layer probes ------------------------------------------------------------------
#
# Probe inputs come from their own seed streams (31 and up), apart from the
# harness's design, eval and trial streams.


def probe_run_trial(tr: Tracer, seed: int) -> dict:
    """harness.run_trial for every method at n=250 and n=1000, at the
    program's default training settings; run instrumented, so the fits are
    split into spans. Returns the minibatch steps of each n=1000 fit."""
    from deepcate import dgp, harness

    steps = {}
    for n in FIT_SIZES:
        X, u = dgp.gen_covariates(n, harness.derive_seed(seed, n, 51))
        ev = harness.make_eval_sample(EVAL_ROWS, "small", harness.derive_seed(seed, n, 52))
        for method in bench.ALL_METHODS:
            before = tr.steps
            harness.run_trial(
                X, u, harness.derive_seed(seed, n, 53), method, "small", 1.0, ev,
                settings=harness.TrainSettings(),
            )
            if n == 1000 and method != "ols":
                steps[f"nn.steps.{method}.n1000"] = tr.steps - before
    return steps


def probe_models(tr: Tracer, seed: int) -> dict:
    """Forward, backward and Adam at batch 64 in training mode, and the
    eval-mode forward on 10k rows, for every network the estimators
    build; then CATE prediction on 10k rows for every estimator.

    The networks come from one-epoch fits through the public `models`
    functions, so their shapes are the program's own.
    """
    import numpy as np
    from deepcate import dgp, harness, models, nn

    X, u = dgp.gen_covariates(1000, harness.derive_seed(seed, 31))
    s = dgp.draw_outcome(X, u, "small", 1.0, harness.derive_seed(seed, 32))
    cfg = nn.TrainConfig(epochs=1, batch_size=BATCH, shuffle_seed=harness.derive_seed(seed, 33))
    prop = models.fit_propensity(X, s.Z, cfg)
    pi_hat = models.predict_propensity(prop, X)
    fitted = {
        "shared": models.fit_shared(X, s.Z, s.Y, cfg),
        "bcf": models.fit_bcf(X, s.Z, s.Y, pi_hat, cfg),
        "naive": models.fit_naive(X, s.Z, s.Y, cfg),
        "ols": models.fit_ols(X, s.Z, s.Y),
    }
    nets = {
        "shared": fitted["shared"].net,
        "bcf_alpha": fitted["bcf"].alpha_net,
        "bcf_beta": fitted["bcf"].beta_net,
        "naive": fitted["naive"].y1_net,
        "propensity": prop.net,
    }

    rng = np.random.default_rng(harness.derive_seed(seed, 34))
    X_eval, _ = dgp.gen_covariates(EVAL_ROWS, harness.derive_seed(seed, 35))
    for arch, net in nets.items():
        state = nn.init_adam(net, harness.TrainSettings().lr)
        kind = "bce" if arch == "propensity" else "mse"
        Xb = rng.standard_normal((BATCH, net.in_dim))
        if kind == "bce":
            y = (rng.random((BATCH, 1)) < 0.5).astype(np.float64)
        else:
            y = rng.standard_normal((BATCH, net.out_dim))
        for step in range(NN_WARMUP + NN_STEPS):
            timed = step >= NN_WARMUP
            with tr.span("nn.forward", arch=arch, timed=timed):
                out, cache = nn.forward(net, Xb, training=True, dropout_seed=step)
            dout = nn.loss_gradient(out, y, kind)
            with tr.span("nn.backward", arch=arch, timed=timed):
                grads = nn.backward_from_output(net, cache, dout)
            with tr.span("nn.adam", arch=arch, timed=timed):
                net, state = nn.adam_update(net, grads, state)
        Xe = X_eval if net.in_dim == X_eval.shape[1] else np.column_stack([X_eval, rng.random(EVAL_ROWS)])
        for _ in range(10):
            with tr.span("nn.eval_forward", arch=arch, rows=EVAL_ROWS):
                nn.forward(net, Xe, training=False)

    for method, model in fitted.items():
        for _ in range(5):
            with tr.span("models.predict_cate", method=method, rows=EVAL_ROWS):
                models.predict_cate(model, X_eval)

    # what one n=1000 task pickles of the shared design and eval sample
    ev = harness.make_eval_sample(EVAL_ROWS, "small", harness.derive_seed(seed, 36))
    payload = len(pickle.dumps((X, u, ev), protocol=pickle.HIGHEST_PROTOCOL))
    return {"harness.task_payload_bytes.n1000": payload}


def probe_small_calls(tr: Tracer, seed: int) -> None:
    """dgp, dataset-loading and moderator-tree calls, repeated."""
    from deepcate import cli, dgp, harness

    for i in range(20):
        with tr.span("dgp.gen_covariates", n=EVAL_ROWS):
            dgp.gen_covariates(EVAL_ROWS, harness.derive_seed(seed, 41, i))
    X, u = dgp.gen_covariates(1000, harness.derive_seed(seed, 42))
    for i in range(50):
        with tr.span("dgp.draw_outcome", n=1000):
            dgp.draw_outcome(X, u, "small", 1.0, harness.derive_seed(seed, 43, i))

    schema = cli.load_schema(bench.FIXTURE_SCHEMA)
    for _ in range(10):
        with tr.span("cli.load_dataset"):
            data = cli.load_dataset(bench.FIXTURE_CSV, schema)
    target = data.X[:, 5] * data.X[:, 9] + 0.1 * data.X[:, 3]
    for _ in range(10):
        with tr.span("harness.fit_moderator_tree", n=data.n):
            harness.fit_moderator_tree(data.X, target, 2, 10)
    X5k, _ = dgp.gen_covariates(5000, harness.derive_seed(seed, 46))
    beta5k = dgp.true_beta(X5k, "small")
    for _ in range(5):
        with tr.span("harness.fit_moderator_tree", n=5000):
            harness.fit_moderator_tree(X5k, beta5k, 2, 10)


# --- the traced run ---------------------------------------------------------------

def per_layer_names() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = {}
    for arch in ARCHS:
        names[f"nn.forward_us.{arch}"] = "us"
        names[f"nn.backward_us.{arch}"] = "us"
        names[f"nn.adam_us.{arch}"] = "us"
        names[f"nn.eval_forward_ms.{arch}"] = "ms"
    for method in ("shared", "bcf", "naive"):
        names[f"nn.steps.{method}.n1000"] = "count"
    for method in bench.ALL_METHODS:
        for n in FIT_SIZES:
            names[f"models.fit_s.{method}.n{n}"] = "s"
    names["models.fit_propensity_s.n1000"] = "s"
    names["models.fit_bcf_outcome_s.n1000"] = "s"
    for method in bench.ALL_METHODS:
        names[f"models.predict_cate_ms.{method}"] = "ms"
    names["dgp.gen_covariates_ms.n10000"] = "ms"
    names["dgp.outcome_draw_ms.n1000"] = "ms"
    names["metrics.trial_metrics_ms.n10000"] = "ms"
    for method in bench.ALL_METHODS:
        names[f"harness.run_trial_s.{method}.n1000"] = "s"
    names["harness.pool_efficiency"] = "ratio"
    names["harness.dispatch_ms_per_task"] = "ms"
    names["harness.task_payload_bytes.n1000"] = "bytes"
    names["harness.moderator_tree_ms.n253"] = "ms"
    names["harness.moderator_tree_ms.n5000"] = "ms"
    names["cli.load_dataset_ms"] = "ms"
    names["cli.run_sleep_analysis_s"] = "s"
    names["cli.write_outputs_ms"] = "ms"
    names["trace.overhead_s"] = "s"
    return names


def fit_times(tr: Tracer, method: str, n: int) -> list[float]:
    """Per harness.run_trial(method, n) span: the time of the fit inside it."""
    trials = {s["id"] for s in tr.matching("harness.run_trial", method=method, n=n)}
    totals = dict.fromkeys(trials, 0.0)
    for s in tr.spans:
        if s["parent"] in trials and s["name"] in FIT_SPANS:
            totals[s["parent"]] += s["end"] - s["start"]
    return list(totals.values())


def timed_entry(spec, seed: int, out_dir: Path, workers: int | None = None) -> float:
    t0 = time.perf_counter()
    bench.call_entry(spec, seed, out_dir, workers)
    return time.perf_counter() - t0


def trace_run(name: str, seed: int) -> dict:
    """Untraced entry calls, then the traced serial entry call and the
    layer probes.

    Returns the per-layer metrics with their sample statistics, the self
    time per layer over the traced call, the entry call's check results,
    and the path of the span dump.
    """
    spec = bench.WORKLOADS[name]
    run_dir = bench.RUNS_DIR / f"trace-{name}-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    entry_dir, serial_dir, traced_dir = (run_dir / d for d in ("entry", "serial", "traced"))

    # untraced: the workload's entry call as measured end to end, then the
    # same call with one worker, which the traced call matches
    pooled_wall = timed_entry(spec, seed, entry_dir)
    serial_wall = pooled_wall if spec.workers == 1 else timed_entry(spec, seed, serial_dir, 1)

    tr = Tracer()
    root_name = "harness.run_experiment" if isinstance(spec, bench.Sweep) else "cli.main"
    counts = {}
    with instrumented(tr):
        with tr.span(root_name, workload=name, seed=seed) as root:
            bench.call_entry(spec, seed, traced_dir, workers=1)
        with tr.span("probe.run_trial"):
            counts.update(probe_run_trial(tr, seed))
        if not tr.durations("cli.run_sleep_analysis"):
            with tr.span("probe.cli"):
                bench.call_entry(bench.WORKLOADS["analyze_fixture"], seed, run_dir / "cli")
    traced_wall = root["end"] - root["start"]
    with tr.span("probe.models"):
        counts.update(probe_models(tr, seed))
    with tr.span("probe.small_calls"):
        probe_small_calls(tr, seed)

    stats: dict[str, dict] = {}

    def record(metric, scale, values):
        if not values:
            raise RuntimeError(f"the traced run recorded no samples of {metric}")
        stats[metric] = {k: v if k == "n" else v * scale for k, v in summary(values).items()}

    def timing(metric, scale, span_name, **attrs):
        record(metric, scale, tr.durations(span_name, **attrs))

    for arch in ARCHS:
        timing(f"nn.forward_us.{arch}", 1e6, "nn.forward", arch=arch, timed=True)
        timing(f"nn.backward_us.{arch}", 1e6, "nn.backward", arch=arch, timed=True)
        timing(f"nn.adam_us.{arch}", 1e6, "nn.adam", arch=arch, timed=True)
        timing(f"nn.eval_forward_ms.{arch}", 1e3, "nn.eval_forward", arch=arch)
    for method in bench.ALL_METHODS:
        for n in FIT_SIZES:
            record(f"models.fit_s.{method}.n{n}", 1.0, fit_times(tr, method, n))
        timing(f"models.predict_cate_ms.{method}", 1e3, "models.predict_cate", method=method, rows=EVAL_ROWS)
        timing(f"harness.run_trial_s.{method}.n1000", 1.0, "harness.run_trial", method=method, n=1000)
    timing("models.fit_propensity_s.n1000", 1.0, "models.fit_propensity", n=1000)
    timing("models.fit_bcf_outcome_s.n1000", 1.0, "models.fit_bcf_outcome", n=1000)
    timing("dgp.gen_covariates_ms.n10000", 1e3, "dgp.gen_covariates", n=EVAL_ROWS)
    timing("dgp.outcome_draw_ms.n1000", 1e3, "dgp.draw_outcome", n=1000)
    timing("metrics.trial_metrics_ms.n10000", 1e3, "metrics.trial_metrics", n=EVAL_ROWS)
    timing("harness.moderator_tree_ms.n253", 1e3, "harness.fit_moderator_tree", n=bench.fixture_rows())
    timing("harness.moderator_tree_ms.n5000", 1e3, "harness.fit_moderator_tree", n=5000)
    timing("cli.load_dataset_ms", 1e3, "cli.load_dataset")
    timing("cli.run_sleep_analysis_s", 1.0, "cli.run_sleep_analysis")
    timing("cli.write_outputs_ms", 1e3, "cli.write_outputs")

    # pool accounting over the traced call: the serial work the pool had to
    # do, against what `workers` processes could have done in the pooled wall
    work_span = "harness.run_trial" if isinstance(spec, bench.Sweep) else "cli.run_sleep_analysis"
    work = sum(s["end"] - s["start"] for s in tr.spans if s["trace"] == root["id"] and s["name"] == work_span)
    capacity = spec.workers * pooled_wall
    stats["harness.pool_efficiency"] = {"value": work / capacity}
    stats["harness.dispatch_ms_per_task"] = {"value": 1e3 * (capacity - work) / spec.attempted}
    stats["trace.overhead_s"] = {"value": traced_wall - serial_wall}
    for metric, value in counts.items():
        stats[metric] = {"value": value}

    units = per_layer_names()
    if set(stats) != set(units):
        raise RuntimeError(f"per-layer metrics out of step: {sorted(set(stats) ^ set(units))}")

    problems: list[str] = []
    if bench.output_digests(spec, traced_dir) != bench.output_digests(spec, entry_dir):
        problems.append("the traced entry call wrote other outputs than the untraced one")
    if isinstance(spec, bench.Sweep):
        rows = bench.read_results(entry_dir / "results.csv")
        failed = bench.count_failures(rows, spec.attempted)
        problems += bench.check_sweep_outputs(spec, rows)
    else:
        failed = 0
        problems += bench.check_analyze_outputs(entry_dir, bench.fixture_rows())

    dump = run_dir / "spans.json"
    dump.write_text(
        json.dumps({"workload": name, "seed": seed, "spans": tr.spans}), encoding="utf-8"
    )
    return {
        "stats": stats,
        "units": units,
        "self_s": tr.self_times(root["id"]),
        "traced_wall_s": traced_wall,
        "pooled_wall_s": pooled_wall,
        "serial_wall_s": serial_wall,
        "problems": problems,
        "attempted": spec.attempted,
        "failed": failed,
        "span_count": len(tr.spans),
        "dump": dump,
    }
