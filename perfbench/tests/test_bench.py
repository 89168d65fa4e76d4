"""Fast checks of the benchmark's own machinery.

Golden digests of a tiny simulate and a tiny analyze let a refactor prove
bit-identical outputs in seconds. The failure tests pin down how failed
fits are counted. The last test runs the benchmark in a directory that
holds no program.

    python3 -m pytest -q perfbench/tests
"""

import json
import logging
import shutil
import subprocess
import sys

import pytest

import bench
import layers
import run

TINY_SEED = 5
TINY_SWEEP = bench.Sweep(
    sizes=(60,), methods=bench.ALL_METHODS, trials=2, workers=1, epochs=3, test_size=200
)
TINY_ANALYZE = bench.Analyze(epochs=3, propensity_epochs=2)

GOLDEN = {
    "simulate": {
        "results.csv(runtime masked)": "9a205d8a5c985fc93b4045ef230ab5fac47f8638f1cbc36e39e88fc3f4645a8e",
        "trial_scatter.csv": "49aba698c217b686366439d532a06ff66fb01757799c12ddb11bc869db56303f",
    },
    "analyze": {
        "analysis.csv": "9b3b5e9a5d49956b81d096136da70fa47b95c77cd1a74e3ca84c41ee66b4283c",
        "moderator_tree.json": "9cfc6072e02adc21d1cb427cd6c3d1c0cbca760fd860cb1573af10e34b25aee9",
        "alpha_vs_pi.csv": "ba98ba39c169f78ba85a2c7ad3b75fa4e5ccdf749e64dba098f8967c2c1c6d04",
    },
}


def test_tiny_simulate_matches_golden_digests(tmp_path):
    bench.call_entry(TINY_SWEEP, TINY_SEED, tmp_path)
    assert bench.output_digests(TINY_SWEEP, tmp_path) == GOLDEN["simulate"]


def test_tiny_simulate_through_the_pool_matches_golden_digests(tmp_path):
    bench.call_entry(TINY_SWEEP, TINY_SEED, tmp_path, workers=2)
    assert bench.output_digests(TINY_SWEEP, tmp_path) == GOLDEN["simulate"]


def test_tiny_analyze_matches_golden_digests(tmp_path):
    bench.call_entry(TINY_ANALYZE, TINY_SEED, tmp_path)
    assert bench.output_digests(TINY_ANALYZE, tmp_path) == GOLDEN["analyze"]


def test_instrumented_tiny_simulate_keeps_its_outputs_and_restores_the_program(tmp_path):
    from deepcate import harness

    original = harness.run_trial
    tr = layers.Tracer()
    with layers.instrumented(tr):
        bench.call_entry(TINY_SWEEP, TINY_SEED, tmp_path)
    assert harness.run_trial is original
    assert bench.output_digests(TINY_SWEEP, tmp_path) == GOLDEN["simulate"]
    assert len(tr.durations("harness.run_trial", n=60)) == TINY_SWEEP.attempted
    # one 60-row batch per epoch and loop; shared trains 1 loop, bcf 2
    # (propensity, outcome), naive 2 (one per arm), ols none
    assert tr.steps == TINY_SWEEP.trials * TINY_SWEEP.epochs * (1 + 2 + 2)


def _sweep_row(method, rmse):
    return {
        "method": method, "n": "1000", "mean_beta_hat": "0.2", "true_ate": "0.2",
        "true_mean_alpha": repr(bench.SMALL_TRUE_MEAN_ALPHA), "mean_rmse": repr(rmse),
        "mean_abs_bias": "0.1",
    }


def test_a_network_no_better_than_a_constant_fails_the_output_check():
    spec = bench.Sweep(sizes=(1000,), methods=("naive", "ols"), trials=1, workers=1)
    assert bench.check_sweep_outputs(spec, [_sweep_row("naive", 0.5), _sweep_row("ols", 0.62)]) == []
    problems = bench.check_sweep_outputs(spec, [_sweep_row("naive", 0.62), _sweep_row("ols", 0.62)])
    assert len(problems) == 1 and "(naive, n=1000)" in problems[0]


def _diverging_sweep(lr):
    return bench.Sweep(
        sizes=(60,), methods=("shared", "ols"), trials=8, workers=1, epochs=3,
        test_size=200, lr=lr,
    )


@pytest.fixture(autouse=True)
def _quiet_trial_failures():
    logging.disable(logging.WARNING)
    yield
    logging.disable(logging.NOTSET)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_where_every_shared_trial_diverges_counts_all_fits_failed(tmp_path):
    spec = _diverging_sweep(lr=1e60)
    rec = bench.run_once(spec, TINY_SEED, tmp_path / "out")
    assert rec["attempted"] == rec["failed"] == 16
    assert "every trial failed" in rec["problems"][0]
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_where_some_trials_diverge_counts_them_from_the_trials_column(tmp_path):
    # at this learning rate some shared trials overflow and some do not;
    # ols never fails, so the failures are at most the 8 shared trials
    spec = _diverging_sweep(lr=1.5e50)
    rec = bench.run_once(spec, TINY_SEED, tmp_path / "out")
    assert rec["attempted"] == 16
    assert 0 < rec["failed"] < 8
    assert rec["problems"], "overflowing estimates must not pass the output checks"


def test_failures_are_attempted_minus_completed():
    rows = [{"trials": "2"}, {"trials": "1"}]
    assert bench.count_failures(rows, 4) == 1
    with pytest.raises(ValueError):
        bench.count_failures(rows, 2)


def test_directory_without_the_program_is_refused(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep_ols",
             "--seed", "1", "--seconds", "1", "--trace", trace],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "cannot benchmark" in proc.stderr


def test_benchmark_json_lists_exactly_the_metrics_the_code_reports():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.per_layer_names()
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
