import csv
import dataclasses
import hashlib
import json
import logging
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import brute_best_split

from deepcate import dgp, harness
from deepcate.harness import (
    ExperimentConfig,
    TrainSettings,
    derive_seed,
    fit_moderator_tree,
    make_eval_sample,
    run_experiment,
    run_trial,
    trial_seed,
)


def linear_truth(monkeypatch):
    """Swap dgp's true surfaces for exactly linear ones, with pi = 1/2."""
    a = np.array([0.4, -0.2, 0.1, 0.3, 0.0])
    b = np.array([0.5, 0.0, -0.25, 0.1, 0.2])
    monkeypatch.setattr(dgp, "true_alpha", lambda X: 1.0 + X @ a)
    monkeypatch.setattr(dgp, "true_beta", lambda X, regime: 0.3 + X @ b)
    monkeypatch.setattr(dgp, "true_pi", lambda alpha, u: np.full(alpha.shape, 0.5))


def tiny_cfg(**overrides):
    base = dict(
        sample_sizes=(60,),
        n_trials=2,
        regime="small",
        test_size=500,
        methods=("naive", "ols"),
        base_seed=7,
        parallelism=1,
        train=TrainSettings(epochs=5, batch_size=16),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSeeds:
    def test_derive_seed_is_stable(self):
        # pinned so an accidental change to the derivation scheme is loud
        assert derive_seed(0, 250, 11) == derive_seed(0, 250, 11)
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_trial_seeds_distinct_across_methods_and_trials(self):
        seeds = {
            trial_seed(0, 500, m, t)
            for m in harness.METHODS
            for t in range(50)
        }
        assert len(seeds) == 4 * 50

    def test_design_streams_are_not_method_codes(self):
        # SeedSequence zero-pads its entropy, so (base, n, stream) is
        # (base, n, code, 0): a stream equal to a method code would reuse
        # that method's trial-0 seed
        streams = {harness._DESIGN_STREAM, harness._EVAL_STREAM, harness._Z_STREAM}
        assert len(streams) == 3
        assert streams.isdisjoint(harness.METHOD_CODES.values())
        code = harness.METHOD_CODES["ols"]
        assert derive_seed(7, 60, code) == trial_seed(7, 60, "ols", 0)


class TestPerDesignInvariants:
    @pytest.mark.parametrize("redraw_z", [True, False])
    def test_true_surfaces_computed_once_per_design(self, monkeypatch, redraw_z):
        calls = []

        def counting(name):
            real = getattr(dgp, name)

            def wrapper(first, *args):
                calls.append((name, len(first)))
                return real(first, *args)

            monkeypatch.setattr(dgp, name, wrapper)

        for name in ("true_alpha", "true_beta", "true_pi"):
            counting(name)
        cfg = tiny_cfg(sample_sizes=(40, 60), n_trials=3, redraw_z=redraw_z, test_size=50)
        run_experiment(cfg)
        # each size's training design once, and its 50-row eval sample's
        # alpha and beta once; no trial evaluates a surface
        expected = [
            call
            for n in (40, 60)
            for call in (("true_alpha", n), ("true_beta", n), ("true_pi", n),
                         ("true_alpha", 50), ("true_beta", 50))
        ]
        assert sorted(calls) == sorted(expected)

    @pytest.mark.parametrize("redraw_z", [True, False])
    @pytest.mark.parametrize("method", ["ols", "naive"])
    def test_cached_surfaces_give_the_direct_metrics(self, redraw_z, method):
        cfg = tiny_cfg(redraw_z=redraw_z, train=TrainSettings(epochs=2, batch_size=16))
        design = harness._make_design(cfg, 60)
        seed = trial_seed(cfg.base_seed, 60, method, 0)
        cached, err = harness._run_task(cfg, {60: design}, (60, method, 0, seed))
        assert err is None
        X, u = dgp.gen_covariates(60, derive_seed(cfg.base_seed, 60, harness._DESIGN_STREAM))
        direct = run_trial(
            X, u, seed, method, cfg.regime, cfg.kappa, design.test_sample,
            settings=cfg.train, fixed_z=design.fixed_z,
        )
        assert dataclasses.replace(cached, runtime_seconds=0.0) == dataclasses.replace(
            direct, runtime_seconds=0.0
        )


class TestRunTrial:
    def test_deterministic_given_seed(self):
        X, u = dgp.gen_covariates(80, seed=1)
        test = make_eval_sample(200, "small", seed=2)
        settings = TrainSettings(epochs=5, batch_size=16)
        a = run_trial(X, u, 99, "shared", "small", 1.0, test, settings=settings)
        b = run_trial(X, u, 99, "shared", "small", 1.0, test, settings=settings)
        assert a.mean_beta_hat == b.mean_beta_hat
        assert a.rmse == b.rmse
        assert a.correlation == b.correlation

    def test_ols_exact_on_noise_free_linear_truth(self, monkeypatch):
        linear_truth(monkeypatch)
        X, u = dgp.gen_covariates(400, seed=3)
        test = make_eval_sample(1000, "small", seed=4)
        m = run_trial(X, u, 5, "ols", "small", kappa=1e-12, test_sample=test)
        assert m.rmse < 1e-6

    def test_different_methods_get_different_draws(self):
        X, u = dgp.gen_covariates(80, seed=1)
        test = make_eval_sample(200, "small", seed=2)
        a = run_trial(X, u, trial_seed(0, 80, "ols", 0), "ols", "small", 1.0, test)
        b = run_trial(X, u, trial_seed(0, 80, "ols", 1), "ols", "small", 1.0, test)
        assert a.mean_beta_hat != b.mean_beta_hat


    @pytest.mark.parametrize("method", harness.METHODS)
    def test_fit_is_looked_up_among_the_harness_names(self, monkeypatch, method):
        # a wrapped harness.fit_<method> must see the trial's fit, as a
        # tracer or a test double would
        calls = []
        real = getattr(harness, f"fit_{method}")

        def spy(X, *args):
            calls.append(len(X))
            return real(X, *args)

        monkeypatch.setattr(harness, f"fit_{method}", spy)
        X, u = dgp.gen_covariates(40, seed=1)
        test = make_eval_sample(50, "small", seed=2)
        settings = TrainSettings(epochs=1, batch_size=16)
        run_trial(X, u, 3, method, "small", 1.0, test, settings=settings)
        assert calls == [40]


class TestExperimentConfig:
    def test_methods_normalized_to_canonical_order(self):
        cfg = tiny_cfg(methods=("ols", "shared", "ols"))
        assert cfg.methods == ("shared", "ols")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown methods"):
            tiny_cfg(methods=("magic",))

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            tiny_cfg(n_trials=0)
        with pytest.raises(ValueError):
            tiny_cfg(sample_sizes=())

    def test_rejects_repeated_sample_size(self):
        # both copies would append to one cell, doubling its trial count
        with pytest.raises(ValueError, match="sample sizes must be distinct"):
            tiny_cfg(sample_sizes=(60, 60))

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf"), -1.0, 0.0])
    def test_rejects_kappa_not_finite_and_positive(self, kappa):
        with pytest.raises(ValueError, match="kappa must be finite and > 0"):
            tiny_cfg(kappa=kappa)


class TestRunExperiment:
    def test_table_structure_and_truth_invariance(self, tmp_path):
        cfg = tiny_cfg()
        table = run_experiment(cfg, out_dir=tmp_path)
        assert len(table.rows) == 2
        by_method = {r.method: r for r in table.rows}
        assert set(by_method) == {"naive", "ols"}
        assert all(r.trials == 2 for r in table.rows)
        # the evaluation sample is fixed per n, so the truth columns cannot
        # depend on the method
        assert by_method["naive"].true_ate == by_method["ols"].true_ate
        assert by_method["naive"].true_mean_alpha == by_method["ols"].true_mean_alpha
        for name in ("results.csv", "bias_vs_n.csv", "rmse_vs_n.csv", "trial_scatter.csv"):
            assert (tmp_path / name).exists()

    def test_repeat_runs_identical_up_to_runtime(self, tmp_path):
        cfg = tiny_cfg()
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")

        def masked(path):
            rows = list(csv.reader(open(path, newline="")))
            col = rows[0].index("mean_runtime_s")
            return [r[:col] + r[col + 1 :] for r in rows]

        assert masked(tmp_path / "a/results.csv") == masked(tmp_path / "b/results.csv")
        assert (tmp_path / "a/bias_vs_n.csv").read_bytes() == (tmp_path / "b/bias_vs_n.csv").read_bytes()
        assert (tmp_path / "a/trial_scatter.csv").read_bytes() == (tmp_path / "b/trial_scatter.csv").read_bytes()

    def test_parallel_matches_serial(self):
        serial = run_experiment(tiny_cfg(parallelism=1))
        parallel = run_experiment(tiny_cfg(parallelism=2))
        for a, b in zip(serial.rows, parallel.rows):
            assert dataclasses.replace(a, mean_runtime_s=0.0) == dataclasses.replace(
                b, mean_runtime_s=0.0
            )

    def test_failed_trials_excluded_with_count(self, monkeypatch, caplog):
        calls = {"n": 0}
        real = harness.fit_ols

        def flaky(X, Z, Y):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic failure")
            return real(X, Z, Y)

        monkeypatch.setattr(harness, "fit_ols", flaky)
        import logging

        with caplog.at_level(logging.WARNING, logger="deepcate.harness"):
            table = run_experiment(tiny_cfg(methods=("ols",), n_trials=3))
        assert table.rows[0].trials == 2
        assert "trial failed" in caplog.text

    def test_all_failed_aborts(self, monkeypatch):
        monkeypatch.setattr(
            harness, "fit_ols", lambda X, Z, Y: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        with pytest.raises(RuntimeError, match="every trial failed"):
            run_experiment(tiny_cfg(methods=("ols",)))

    def test_fixed_z_variant(self):
        # with redraw_z=False only the noise varies across trials
        cfg = tiny_cfg(methods=("ols",), redraw_z=False, n_trials=2)
        table = run_experiment(cfg)
        assert table.rows[0].trials == 2

    def test_fixed_z_outputs_are_pinned(self, tmp_path):
        # sha256 of results.csv (runtime masked) and trial_scatter.csv: a
        # reordered or reseeded fixed-Z or outcome draw changes them
        cfg = tiny_cfg(redraw_z=False)
        run_experiment(cfg, out_dir=tmp_path)
        masked = "".join(",".join(row) + "\n" for row in masked_results(tmp_path / "results.csv"))
        scatter = (tmp_path / "trial_scatter.csv").read_bytes()
        assert hashlib.sha256(masked.encode("utf-8")).hexdigest() == (
            "11fdcbae2ae5c7e810d4425d334ff477a077adcf84d48369d91e4571bf2189c4"
        )
        assert hashlib.sha256(scatter).hexdigest() == (
            "f4920d8fa9e2c13762f2617bcc24174ba31ad42182af4505a3f282fa7c4da4b4"
        )

    def test_split_estimator_rmse_strictly_decreases_with_n(self):
        # more training data, same evaluation sample: the split estimator's
        # error must fall across the benchmark's three training sizes
        cfg = ExperimentConfig(
            sample_sizes=(250, 500, 1000),
            n_trials=20,
            regime="small",
            methods=("bcf",),
            base_seed=42,
            parallelism=2,
        )
        table = run_experiment(cfg)
        rmses = [table.row("bcf", n, "small").mean_rmse for n in (250, 500, 1000)]
        assert rmses[0] > rmses[1] > rmses[2]

    def test_runtime_ordering_endpoints(self):
        # wall-clock magnitudes are machine-specific; only the endpoints are
        # structural: ols fits instantly, the split estimator trains three
        # networks (propensity + two outcome nets)
        cfg = tiny_cfg(
            sample_sizes=(120,),
            methods=("shared", "bcf", "naive", "ols"),
            n_trials=1,
            train=TrainSettings(epochs=15, batch_size=32),
        )
        table = run_experiment(cfg)
        runtimes = {r.method: r.mean_runtime_s for r in table.rows}
        assert runtimes["ols"] < min(runtimes["shared"], runtimes["bcf"], runtimes["naive"])
        assert runtimes["bcf"] > max(runtimes["shared"], runtimes["naive"], runtimes["ols"])


def masked_results(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("mean_runtime_s")
    return [r[:col] + r[col + 1 :] for r in rows]


def raise_type_error(X, Z, Y):
    raise TypeError("programming error")


class TestErrorsAndPool:
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_type_error_aborts_the_sweep(self, monkeypatch, parallelism):
        # only a diverged or degenerate trial is a failed trial; a
        # programming error propagates, from a helper process too
        monkeypatch.setattr(harness, "fit_ols", raise_type_error)
        with pytest.raises(TypeError, match="programming error"):
            run_experiment(tiny_cfg(methods=("ols",), parallelism=parallelism))

    @pytest.mark.parametrize("method", ["bcf", "naive"])
    @pytest.mark.parametrize("arm", [0.0, 1.0])
    def test_single_class_draw_fails_the_trial(self, method, arm):
        X, u = dgp.gen_covariates(40, seed=1)
        test = make_eval_sample(50, "small", seed=2)
        with pytest.raises(harness.TrialFailedError, match="single-class"):
            run_trial(
                X, u, 3, method, "small", 1.0, test,
                settings=TrainSettings(epochs=1), fixed_z=np.full(40, arm),
            )

    @pytest.mark.filterwarnings("ignore:rank-deficient design")
    def test_single_class_draws_count_as_failed_trials(self, monkeypatch, caplog):
        # pi = 1 treats every row: bcf's trials fail, ols still fits
        monkeypatch.setattr(dgp, "true_pi", lambda alpha, u: np.ones_like(alpha))
        with caplog.at_level(logging.WARNING, logger="deepcate.harness"):
            with pytest.raises(RuntimeError, match=r"every trial failed for \(n=60, bcf\); 2 of 4"):
                run_experiment(tiny_cfg(methods=("bcf", "ols")))
        assert caplog.text.count("TrialFailedError: bcf: single-class") == 2

    @pytest.mark.parametrize("parallelism", [2, 3])
    @pytest.mark.parametrize("redraw_z", [True, False])
    def test_parallel_sweep_writes_the_serial_bytes(self, tmp_path, redraw_z, parallelism):
        cfg = tiny_cfg(
            sample_sizes=(40, 60),
            methods=harness.METHODS,
            redraw_z=redraw_z,
            test_size=200,
            train=TrainSettings(epochs=2, batch_size=16),
        )
        run_experiment(cfg, out_dir=tmp_path / "serial")
        run_experiment(dataclasses.replace(cfg, parallelism=parallelism), out_dir=tmp_path / "parallel")
        assert masked_results(tmp_path / "serial/results.csv") == masked_results(
            tmp_path / "parallel/results.csv"
        )
        for name in ("bias_vs_n.csv", "trial_scatter.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "parallel" / name).read_bytes()

    def test_pool_worker_caps_openblas_threads(self, monkeypatch):
        # the helpers that took the pool workers' place run on one thread
        parent_threads = harness.openblas_threads()
        if not parent_threads:
            pytest.skip("no OpenBLAS thread setter is loaded")
        monkeypatch.setattr(harness, "_run_task", lambda cfg, designs, task: harness.openblas_threads())
        outcomes = harness._run_shared(tiny_cfg(parallelism=2), {}, grid(("naive",), 2))
        assert outcomes == [[1] * len(parent_threads)] * 2
        monkeypatch.undo()
        # the parent keeps its threads, also after a parallel sweep
        run_experiment(tiny_cfg(methods=("ols",), parallelism=2))
        assert harness.openblas_threads() == parent_threads


@pytest.fixture
def two_blas_threads():
    """The parent's OpenBLAS on 2 threads for the test, whatever the
    host's default; its count before the test is put back after it."""
    funcs = harness._openblas_thread_funcs()
    if not funcs:
        pytest.skip("no OpenBLAS thread setter is loaded")
    before = harness.openblas_threads()
    for set_threads, _get in funcs:
        set_threads(2)
    yield [2] * len(funcs)
    for (set_threads, _get), threads in zip(funcs, before):
        set_threads(threads)


def record_blas_threads(monkeypatch, name: str) -> list[list[int]]:
    """openblas_threads() at each call of harness.<name>, in this process."""
    seen = []
    real = getattr(harness, name)

    def recording(*args):
        seen.append(harness.openblas_threads())
        return real(*args)

    monkeypatch.setattr(harness, name, recording)
    return seen


def record_helpers(monkeypatch) -> list:
    """The target of every process the fork context makes from now on."""
    targets = []
    ctx = multiprocessing.get_context("fork")
    real = ctx.Process

    def recording(*args, **kwargs):
        targets.append(kwargs["target"])
        return real(*args, **kwargs)

    monkeypatch.setattr(ctx, "Process", recording)
    return targets


def idle_helper(cfg, designs, queue, next_task, conn):
    """A helper that claims no trial, so the parent runs them all."""
    conn.send([])


def failing_helper(cfg, designs, queue, next_task, conn):
    conn.send(TypeError("programming error in a helper"))


def dying_helper(cfg, designs, queue, next_task, conn):
    os._exit(3)


def grid(methods, n_trials):
    """Stand-in tasks (n, method, trial, seed) of a 60-row sweep."""
    return [(60, m, t, 0) for m in methods for t in range(n_trials)]


class TestProcessLayout:
    @pytest.mark.parametrize("parallelism", [2, 3])
    def test_ols_only_sweep_starts_no_pool(self, monkeypatch, tmp_path, parallelism):
        # the parent claims trials beside parallelism - 1 helpers
        cfg = tiny_cfg(sample_sizes=(40, 60), methods=("ols",), n_trials=3)
        run_experiment(cfg, out_dir=tmp_path / "serial")
        helpers = record_helpers(monkeypatch)
        run_experiment(dataclasses.replace(cfg, parallelism=parallelism), out_dir=tmp_path / "shared")
        assert helpers == [harness._helper] * (parallelism - 1)
        assert masked_results(tmp_path / "serial/results.csv") == masked_results(
            tmp_path / "shared/results.csv"
        )
        for name in ("bias_vs_n.csv", "trial_scatter.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "shared" / name).read_bytes()

    def test_no_more_helpers_than_trials(self, monkeypatch):
        helpers = record_helpers(monkeypatch)
        run_experiment(tiny_cfg(methods=("ols",), n_trials=2, parallelism=8))
        assert len(helpers) == 1

    def test_pool_has_no_more_workers_than_submissions(self, monkeypatch):
        # three network trials: three helpers, not eight
        helpers = record_helpers(monkeypatch)
        run_experiment(tiny_cfg(methods=("naive",), n_trials=3, parallelism=8))
        assert helpers == [harness._helper] * 3

    def test_parent_claims_nothing_in_a_mixed_sweep(self, monkeypatch):
        # a network trial in the parent would raise its own peak memory
        helpers = record_helpers(monkeypatch)
        monkeypatch.setattr(harness, "_run_task", lambda cfg, designs, task: os.getpid())
        pids = harness._run_shared(tiny_cfg(parallelism=2), {}, grid(("naive", "ols"), 20))
        assert helpers == [harness._helper] * 2
        assert os.getpid() not in pids

    def test_claims_longest_first(self, monkeypatch):
        # one helper and an idle parent: the helper runs the trials in the
        # order they are claimed
        ran = []

        def position(cfg, designs, task):
            ran.append(task)
            return len(ran) - 1

        monkeypatch.setattr(harness, "_run_task", position)
        tasks = [(n, m, t, 0) for n in (40, 60) for m in harness.METHODS for t in range(3)]
        positions = harness._run_shared(tiny_cfg(methods=harness.METHODS, parallelism=1), {}, tasks)
        # bcf, then shared and naive, then ols, each in grid order
        expected = (
            [t for t in tasks if t[1] == "bcf"]
            + [t for t in tasks if t[1] in ("shared", "naive")]
            + [t for t in tasks if t[1] == "ols"]
        )
        assert [tasks[i] for i in np.argsort(positions)] == expected

    def test_parent_runs_the_trials_no_helper_claims(self, monkeypatch, tmp_path):
        cfg = tiny_cfg(sample_sizes=(40, 60), methods=("ols",), n_trials=3)
        run_experiment(cfg, out_dir=tmp_path / "serial")
        monkeypatch.setattr(harness, "_helper", idle_helper)
        run_experiment(dataclasses.replace(cfg, parallelism=2), out_dir=tmp_path / "parent")
        assert masked_results(tmp_path / "serial/results.csv") == masked_results(
            tmp_path / "parent/results.csv"
        )
        for name in ("bias_vs_n.csv", "trial_scatter.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "parent" / name).read_bytes()

    def test_helpers_run_on_one_blas_thread(self, monkeypatch, two_blas_threads):
        # called outside a sweep: the parent stays on 2 threads
        parent = os.getpid()
        helper_ran = multiprocessing.Event()

        def where(cfg, designs, task):
            if os.getpid() == parent:
                helper_ran.wait(timeout=60)  # leave trials to the helper
            else:
                helper_ran.set()
            return os.getpid(), harness.openblas_threads()

        monkeypatch.setattr(harness, "_run_task", where)
        for methods in (("ols",), ("naive", "ols")):
            outcomes = harness._run_shared(tiny_cfg(methods=methods, parallelism=2), {}, grid(methods, 2))
            in_helper = [threads for pid, threads in outcomes if pid != parent]
            assert in_helper and all(t == [1] * len(two_blas_threads) for t in in_helper)
        assert harness.openblas_threads() == two_blas_threads

    def test_each_trial_is_claimed_once(self, monkeypatch):
        # more processes than cores: a lost update of the shared counter
        # would run some trial twice
        runs = multiprocessing.Value("q", 0)

        def count(cfg, designs, task):
            with runs.get_lock():
                runs.value += 1
            return task

        monkeypatch.setattr(harness, "_run_task", count)
        tasks = grid(("ols",), 3000)
        assert harness._run_shared(tiny_cfg(methods=("ols",), parallelism=6), {}, tasks) == tasks
        assert runs.value == len(tasks)

    def test_helper_exception_aborts_the_sweep(self, monkeypatch):
        monkeypatch.setattr(harness, "_helper", failing_helper)
        with pytest.raises(TypeError, match="in a helper"):
            run_experiment(tiny_cfg(methods=("ols",), parallelism=2))

    def test_helper_that_dies_aborts_the_sweep(self, monkeypatch):
        monkeypatch.setattr(harness, "_helper", dying_helper)
        with pytest.raises(RuntimeError, match="exited with code 3 before sending its outcomes"):
            run_experiment(tiny_cfg(methods=("ols",), parallelism=2))

    @pytest.mark.parametrize(
        "methods, fault",
        [(("ols",), "raises"), (("naive",), "raises"), (("naive",), "dies")],
        ids=["ols-only-raises", "raises", "dies"],
    )
    def test_aborted_sweep_stops_early(self, monkeypatch, methods, fault):
        # the last helper to start raises or dies on its second trial: the
        # sweep aborts before the other processes run the rest, also when
        # the parent would read that helper last
        parent = os.getpid()
        helpers = 2 if methods == ("ols",) else 3
        runs = multiprocessing.Value("q", 0)
        started = multiprocessing.Value("q", 0)
        me = {"trials": 0}  # each process's own, after the fork

        def slow(cfg, designs, task):
            with runs.get_lock():
                runs.value += 1
            if os.getpid() != parent:
                if "rank" not in me:
                    with started.get_lock():
                        started.value += 1
                        me["rank"] = started.value
                me["trials"] += 1
                if me["rank"] == helpers and me["trials"] == 2:
                    if fault == "dies":
                        os._exit(3)
                    raise TypeError("programming error in a helper")
            time.sleep(0.05)
            return None, None

        monkeypatch.setattr(harness, "_run_task", slow)
        tasks = grid(methods, 40)
        error = RuntimeError if fault == "dies" else TypeError
        with pytest.raises(error, match="exited with code 3|in a helper"):
            harness._run_shared(tiny_cfg(methods=methods, parallelism=3), {}, tasks)
        assert runs.value < len(tasks)

    def test_helpers_are_forked_whatever_the_default_start_method(self, monkeypatch):
        # helpers inherit the parent's designs and its patched harness
        before = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("spawn", force=True)
        try:
            monkeypatch.setattr(harness, "_run_task", lambda cfg, designs, task: ("patched", os.getpid()))
            outcomes = harness._run_shared(tiny_cfg(parallelism=2), {}, grid(("naive",), 4))
        finally:
            multiprocessing.set_start_method(before, force=True)
        assert all(tag == "patched" and pid != os.getpid() for tag, pid in outcomes)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_parent_fits_on_one_blas_thread(self, monkeypatch, two_blas_threads, parallelism):
        # with parallelism 2 the helper claims no trial: the parent runs them all
        monkeypatch.setattr(harness, "_helper", idle_helper)
        seen = record_blas_threads(monkeypatch, "fit_ols")
        run_experiment(tiny_cfg(methods=("ols",), parallelism=parallelism))
        assert seen == [[1] * len(two_blas_threads)] * 2
        assert harness.openblas_threads() == two_blas_threads

    def test_parent_waits_on_the_helpers_on_one_blas_thread(self, monkeypatch, two_blas_threads):
        seen = record_blas_threads(monkeypatch, "_run_shared")
        run_experiment(tiny_cfg(parallelism=2))
        assert seen == [[1] * len(two_blas_threads)]
        assert harness.openblas_threads() == two_blas_threads

    @pytest.mark.parametrize(
        "methods, parallelism",
        [(("ols",), 1), (("ols",), 2), (("naive", "ols"), 2)],
        ids=["serial", "ols-only-shared", "raised-in-a-worker"],
    )
    def test_aborted_sweep_restores_the_parents_threads(
        self, monkeypatch, two_blas_threads, methods, parallelism
    ):
        # the designs are drawn in the parent, inside the sweep; in a
        # parallel sweep with a network method every trial runs in a helper
        seen = record_blas_threads(monkeypatch, "_make_design")
        monkeypatch.setattr(harness, "fit_ols", raise_type_error)
        with pytest.raises(TypeError, match="programming error"):
            run_experiment(tiny_cfg(methods=methods, parallelism=parallelism))
        assert seen == [[1] * len(two_blas_threads)]
        assert harness.openblas_threads() == two_blas_threads


class TestModeratorTree:
    def test_constant_target_single_leaf(self, rng):
        X = rng.normal(size=(100, 3))
        tree = fit_moderator_tree(X, np.full(100, 0.7), max_depth=2, min_leaf=5)
        assert tree.root.is_leaf
        assert tree.root.value == pytest.approx(0.7)
        assert tree.split_features() == set()

    def test_step_function_recovered_exactly(self, rng):
        X = rng.normal(size=(300, 4))
        y = np.where(X[:, 0] <= 0.0, -1.0, 2.0)
        tree = fit_moderator_tree(X, y, max_depth=1, min_leaf=5)
        assert not tree.root.is_leaf
        assert tree.root.feature == 0
        # the split is the midpoint of the two x1 values that straddle 0
        below, above = X[X[:, 0] <= 0.0, 0].max(), X[X[:, 0] > 0.0, 0].min()
        assert tree.root.threshold == (below + above) / 2
        left_mask = X[:, 0] <= tree.root.threshold
        assert tree.root.left.value == pytest.approx(y[left_mask].mean(), abs=1e-10)
        assert tree.root.right.value == pytest.approx(y[~left_mask].mean(), abs=1e-10)
        assert set(np.unique(tree.predict(X))) == {-1.0, 2.0}

    def test_matches_brute_force_oracle(self, rng):
        X = rng.normal(size=(250, 5))
        y = 0.2 + 0.5 * X[:, 0] * np.round(np.abs(X[:, 3])) + 0.1 * rng.normal(size=250)
        min_leaf = 10
        tree = fit_moderator_tree(X, y, max_depth=1, min_leaf=min_leaf)
        feature, threshold, _ = brute_best_split(X, y, min_leaf)
        assert tree.root.feature == feature
        assert tree.root.threshold == pytest.approx(threshold, rel=1e-12)

    def test_every_split_strictly_reduces_sse(self, rng):
        X = rng.normal(size=(400, 4))
        y = rng.normal(size=400) + X[:, 1]
        tree = fit_moderator_tree(X, y, max_depth=3, min_leaf=8)

        def sse(values):
            return ((values - values.mean()) ** 2).sum()

        def check(node, idx):
            if node.is_leaf:
                return
            mask = X[idx, node.feature] <= node.threshold
            left, right = idx[mask], idx[~mask]
            assert len(left) >= 8 and len(right) >= 8
            assert sse(y[left]) + sse(y[right]) < sse(y[idx])
            check(node.left, left)
            check(node.right, right)

        check(tree.root, np.arange(400))

    def test_small_data_single_leaf(self, rng):
        X = rng.normal(size=(9, 3))
        y = rng.normal(size=9)
        tree = fit_moderator_tree(X, y, max_depth=3, min_leaf=5)
        assert tree.root.is_leaf

    def test_tie_breaks_to_lowest_feature(self, rng):
        col = rng.normal(size=200)
        X = np.column_stack([col, col])  # identical split candidates
        y = np.where(col <= 0, 0.0, 1.0)
        tree = fit_moderator_tree(X, y, max_depth=1, min_leaf=5)
        assert tree.root.feature == 0

    def test_depth_two_on_effect_surface_uses_only_modifier_features(self):
        X, _ = dgp.gen_covariates(2000, seed=13)
        beta = dgp.true_beta(X, "small")
        tree = fit_moderator_tree(X, beta, max_depth=2, min_leaf=20)
        assert tree.split_features() <= {0, 3}

    def test_text_and_json_rendering(self, rng):
        X = rng.normal(size=(100, 2))
        y = np.where(X[:, 0] <= 0, 0.0, 1.0)
        tree = fit_moderator_tree(X, y, max_depth=1, min_leaf=5)
        text = tree.to_text(feature_names=("age", "dose"))
        assert "age" in text and "predict" in text
        payload = json.loads(tree.to_json())
        assert payload["tree"]["feature"] == 0
        assert "left" in payload["tree"] and "value" in payload["tree"]["left"]

    def test_validation(self, rng):
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        with pytest.raises(ValueError):
            fit_moderator_tree(X, y, max_depth=0, min_leaf=1)
        with pytest.raises(ValueError):
            fit_moderator_tree(X, y, max_depth=1, min_leaf=0)
        with pytest.raises(ValueError):
            fit_moderator_tree(X, y[:-1], max_depth=1, min_leaf=1)


class TestFitMethod:
    def test_bcf_needs_pi_hat(self, rng):
        X = rng.normal(size=(40, 5))
        Z = (np.arange(40) % 2).astype(float)
        cfg = harness.train_config(TrainSettings(epochs=1), 40, 0)
        with pytest.raises(ValueError, match="pi_hat"):
            harness.fit_method("bcf", X, Z, X[:, 0], cfg)
        with pytest.raises(ValueError, match="unknown method"):
            harness.fit_method("forest", X, Z, X[:, 0], cfg)

    def test_train_config_clamps_the_batch_to_n(self):
        cfg = harness.train_config(TrainSettings(batch_size=64, lr=0.01), 40, 5, epochs=3)
        assert (cfg.epochs, cfg.batch_size, cfg.lr, cfg.shuffle_seed) == (3, 40, 0.01, 5)

    def test_analyze_fits_through_the_harness_names(self, monkeypatch):
        # a wrapped harness.fit_naive must see analyze's fit, as a
        # tracer or a test double would
        from deepcate import cli

        calls = []
        real = harness.fit_naive

        def spy(X, Z, Y, cfg):
            calls.append((len(X), cfg.epochs, cfg.shuffle_seed))
            return real(X, Z, Y, cfg)

        monkeypatch.setattr(harness, "fit_naive", spy)
        root = Path(__file__).parent
        schema = cli.load_schema(root.parent / "configs" / "sleep_schema.json")
        data = cli.load_dataset(root / "data" / "sleep_synthetic.csv", schema)
        cfg = cli.AnalyzeConfig(
            data="d", schema="s", seed=3, epochs=2, propensity_epochs=1, methods=("naive",)
        )
        cli.run_sleep_analysis(data, cfg)
        assert calls == [(253, 2, derive_seed(3, harness.METHOD_CODES["naive"]))]

