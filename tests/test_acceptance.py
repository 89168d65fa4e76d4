"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Training-scale checks (criteria 5-7) run 20-trial benchmark cells at the
frozen base seed 42 and take a few minutes; everything else is fast.
"""

import csv
import time

import numpy as np
from helpers import brute_best_split, max_scaled_error, numerical_grads

from deepcate import cli, dgp, harness, nn
from deepcate.harness import (
    ExperimentConfig,
    fit_moderator_tree,
    run_experiment,
)
from deepcate.metrics import ipw_ate

BASE_SEED = 42
PARALLELISM = 2


def report(cid, ok, detail):
    print(f"[acceptance] {cid} {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"{cid}: {detail}"


def test_c01_parameter_count_identities():
    t0 = time.perf_counter()
    shared = nn.init_network(
        [nn.LayerSpec(5, 100), nn.LayerSpec(100, 26), nn.LayerSpec(26, 2, "identity")], 0
    )
    alpha = nn.init_network(
        [nn.LayerSpec(6, 60), nn.LayerSpec(60, 32), nn.LayerSpec(32, 1, "identity")], 0
    )
    beta = nn.init_network(
        [nn.LayerSpec(5, 30), nn.LayerSpec(30, 20), nn.LayerSpec(20, 1, "identity")], 0
    )
    naive = nn.init_network(
        [nn.LayerSpec(5, 50), nn.LayerSpec(50, 26), nn.LayerSpec(26, 1, "identity")], 0
    )
    counts = (
        nn.count_params(shared),
        nn.count_params(alpha) + nn.count_params(beta),
        2 * nn.count_params(naive),
    )
    elapsed = time.perf_counter() - t0
    report(
        "C1 parameter counts",
        counts == (3280, 3226, 3306) and elapsed < 1.0,
        f"shared/split/naive = {counts}, elapsed {elapsed:.3f}s",
    )


def test_c02_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED)
    worst = 0.0
    for trial in range(25):
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 5)) for _ in range(depth + 1)]
        # keep every net at or below 50 parameters
        while sum(a * b + b for a, b in zip(dims, dims[1:])) > 50:
            dims = [max(1, d - 1) for d in dims]
        with_dropout = trial % 2 == 1
        specs = []
        for i, (a, b) in enumerate(zip(dims, dims[1:])):
            last = i == depth - 1
            activation = (
                str(rng.choice(["identity", "sigmoid"]))
                if last
                else str(rng.choice(["relu", "sigmoid"]))
            )
            rate = 0.25 if (with_dropout and not last) else 0.0
            specs.append(nn.LayerSpec(a, b, activation, rate))
        kind = "bce" if specs[-1].activation == "sigmoid" and trial % 3 == 0 else "mse"
        net = nn.init_network(specs, int(rng.integers(0, 2**31)))
        X = rng.normal(size=(6, dims[0]))
        if kind == "bce":
            target = rng.integers(0, 2, size=(6, dims[-1])).astype(float)
        else:
            target = rng.normal(size=(6, dims[-1]))
        seed = int(rng.integers(0, 2**31))
        _, cache = nn.forward(net, X, training=with_dropout, dropout_seed=seed)
        analytic = nn.backward(net, cache, target, kind)
        numeric = numerical_grads(
            net, X, target, kind, training=with_dropout, dropout_seed=seed
        )
        worst = max(worst, max_scaled_error(analytic, numeric))
    elapsed = time.perf_counter() - t0
    report(
        "C2 gradient check",
        worst < 1e-5 and elapsed < 30.0,
        f"max relative error {worst:.2e} over 25 nets, elapsed {elapsed:.1f}s",
    )


def test_c03_dgp_moments():
    t0 = time.perf_counter()
    betas_small, betas_large, alphas, pis = [], [], [], []
    bounds_ok = True
    for seed in range(5):
        X, u = dgp.gen_covariates(10_000, seed)
        alpha = dgp.true_alpha(X)
        pi = dgp.true_pi(alpha, u)
        betas_small.append(dgp.true_beta(X, "small").mean())
        betas_large.append(dgp.true_beta(X, "large").mean())
        alphas.append(alpha.mean())
        pis.append(pi.mean())
        bounds_ok &= bool(pi.min() >= 0.10 and pi.max() <= 0.90)
    elapsed = time.perf_counter() - t0
    ok = (
        all(abs(b - 0.20) < 0.05 for b in betas_small)
        and all(abs(b - 5.00) < 0.05 for b in betas_large)
        and all(abs(a - 1.95) < 0.05 for a in alphas)
        and all(abs(p - 0.37) < 0.04 for p in pis)
        and bounds_ok
        and elapsed < 5.0
    )
    report(
        "C3 generator moments",
        ok,
        f"mean beta {np.mean(betas_small):.3f}/{np.mean(betas_large):.3f}, "
        f"mean alpha {np.mean(alphas):.3f}, mean pi {np.mean(pis):.3f}, "
        f"bounds ok {bounds_ok}, elapsed {elapsed:.1f}s",
    )


def test_c04_ipw_sanity_under_randomization():
    t0 = time.perf_counter()
    n = 100_000
    X, _ = dgp.gen_covariates(n, seed=BASE_SEED)
    alpha = dgp.true_alpha(X)
    beta = dgp.true_beta(X, "small")
    rng = np.random.default_rng(BASE_SEED + 1)
    Z = (rng.random(n) < 0.5).astype(float)
    Y = alpha + beta * Z + alpha.std(ddof=1) * rng.standard_normal(n)
    est = ipw_ate(Y, Z, np.full(n, 0.5))
    elapsed = time.perf_counter() - t0
    report(
        "C4 randomized-assignment IPW",
        abs(est - 0.20) < 0.05 and elapsed < 5.0,
        f"estimate {est:.4f} vs truth 0.20, elapsed {elapsed:.1f}s",
    )


def test_c05_ols_bias_reproduction():
    # Known-failing criterion, kept asserted rather than weakened: the
    # [1.8, 2.2] windows imply a confounding bias of ~1.8, but on this
    # generator cov(Z, alpha) <= sd(alpha)*sd(pi) ~= 0.12, which caps the
    # bias of any regression-adjusted CATE near 0.6. See README, "Known
    # limitation".
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        sample_sizes=(1000,),
        n_trials=20,
        regime="small",
        methods=("ols",),
        base_seed=BASE_SEED,
        parallelism=PARALLELISM,
    )
    row = run_experiment(cfg).row("ols", 1000, "small")
    elapsed = time.perf_counter() - t0
    ok = (
        1.8 <= row.mean_beta_hat <= 2.2
        and 1.8 <= row.mean_rmse <= 2.2
        and elapsed < 60.0
    )
    report(
        "C5 linear-baseline windows",
        ok,
        f"mean estimate {row.mean_beta_hat:.3f} (window [1.8, 2.2]), "
        f"rmse {row.mean_rmse:.3f} (window [1.8, 2.2]), elapsed {elapsed:.1f}s",
    )


def test_c05_windows_exceed_the_bias_cap_on_the_frozen_design():
    # The executable form of C5's known limitation, on the design C5 fits
    # (base seed 42, n=1000): cov(Z, alpha) = cov(pi, alpha) <=
    # sd(alpha)*sd(pi), so an effect estimate's confounding bias is at
    # most sd(alpha)*sd(pi) / var(Z), and the true ATE plus that cap
    # stays below the window floor of 1.8.
    cfg = ExperimentConfig(
        sample_sizes=(1000,), n_trials=1, regime="small", methods=("ols",), base_seed=BASE_SEED
    )
    design = harness._make_design(cfg, 1000)
    alpha = dgp.true_alpha(design.X)
    pi = dgp.true_pi(alpha, design.u)
    sd_product = alpha.std(ddof=1) * pi.std(ddof=1)
    p = pi.mean()
    cap = sd_product / (p * (1.0 - p))
    ate = dgp.true_beta(design.X, "small").mean()
    report(
        "C5 bias cap",
        np.cov(alpha, pi)[0, 1] <= sd_product and ate + cap < 1.8,
        f"sd(alpha)*sd(pi) {sd_product:.3f}, P(Z=1) {p:.3f}, bias cap {cap:.3f}, "
        f"true ATE + cap {ate + cap:.3f} (window floor 1.8)",
    )


def test_c06_small_regime_method_ordering():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        sample_sizes=(1000,),
        n_trials=20,
        regime="small",
        methods=("shared", "bcf", "naive"),
        base_seed=BASE_SEED,
        parallelism=PARALLELISM,
    )
    table = run_experiment(cfg)
    bcf = table.row("bcf", 1000, "small")
    shared = table.row("shared", 1000, "small")
    naive = table.row("naive", 1000, "small")
    elapsed = time.perf_counter() - t0
    ok = (
        bcf.mean_rmse < shared.mean_rmse < naive.mean_rmse
        and bcf.mean_abs_bias < shared.mean_abs_bias
        and abs(bcf.mean_rmse - 0.30) <= 0.10
        and bcf.mean_correlation >= 0.80
        and elapsed < 7200.0
    )
    report(
        "C6 small-regime ordering",
        ok,
        f"rmse split/shared/naive = {bcf.mean_rmse:.3f}/{shared.mean_rmse:.3f}/"
        f"{naive.mean_rmse:.3f}, |bias| {bcf.mean_abs_bias:.3f}/{shared.mean_abs_bias:.3f}, "
        f"corr {bcf.mean_correlation:.3f}, elapsed {elapsed:.0f}s",
    )


def test_c07_large_regime_bias_ordering():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        sample_sizes=(250, 1000),
        n_trials=20,
        regime="large",
        methods=("shared", "bcf"),
        base_seed=BASE_SEED,
        parallelism=PARALLELISM,
    )
    table = run_experiment(cfg)
    s250 = table.row("shared", 250, "large").mean_abs_bias
    b250 = table.row("bcf", 250, "large").mean_abs_bias
    s1000 = table.row("shared", 1000, "large").mean_abs_bias
    b1000 = table.row("bcf", 1000, "large").mean_abs_bias
    elapsed = time.perf_counter() - t0
    ordering = s250 < b250
    gap_shrinks = (b1000 - s1000) < (b250 - s250)
    magnitudes = (
        abs(s250 - 0.14) <= 0.15
        and abs(b250 - 0.50) <= 0.15
        and abs(s1000 - 0.07) <= 0.15
        and abs(b1000 - 0.18) <= 0.15
    )
    report(
        "C7 large-regime ordering",
        ordering and gap_shrinks and magnitudes,
        f"|bias| n=250 shared/split = {s250:.3f}/{b250:.3f}, "
        f"n=1000 {s1000:.3f}/{b1000:.3f}, elapsed {elapsed:.0f}s",
    )


def _results_with_masked_runtime(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("mean_runtime_s")
    return [row[:col] + row[col + 1 :] for row in rows]


def test_c08_simulate_determinism(tmp_path):
    args = [
        "simulate", "--regime", "small", "--n", "80", "--trials", "2",
        "--test-size", "300", "--methods", "shared,ols", "--epochs", "8",
        "--batch-size", "16", "--seed", "5",
    ]
    assert cli.main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    a = _results_with_masked_runtime(tmp_path / "a/results.csv")
    b = _results_with_masked_runtime(tmp_path / "b/results.csv")
    same_plots = (tmp_path / "a/bias_vs_n.csv").read_bytes() == (
        tmp_path / "b/bias_vs_n.csv"
    ).read_bytes()
    report(
        "C8 determinism",
        a == b and same_plots,
        f"results identical (runtime masked): {a == b}, plot data identical: {same_plots}",
    )


def test_c09_moderator_tree_matches_brute_force():
    t0 = time.perf_counter()
    X, _ = dgp.gen_covariates(5000, seed=BASE_SEED)
    beta = dgp.true_beta(X, "small")
    min_leaf = 10
    tree = fit_moderator_tree(X, beta, max_depth=2, min_leaf=min_leaf)
    features = tree.split_features()
    subset_ok = features <= {0, 3}

    oracle_ok = True
    idx = np.arange(5000)

    def check(node, rows):
        nonlocal oracle_ok
        if node.is_leaf:
            return
        expected = brute_best_split(X[rows], beta[rows], min_leaf)
        if expected is None or node.feature != expected[0] or not np.isclose(
            node.threshold, expected[1], rtol=1e-12, atol=1e-12
        ):
            oracle_ok = False
            return
        mask = X[rows, node.feature] <= node.threshold
        check(node.left, rows[mask])
        check(node.right, rows[~mask])

    check(tree.root, idx)
    elapsed = time.perf_counter() - t0
    report(
        "C9 moderator tree",
        subset_ok and oracle_ok,
        f"split features {sorted(f + 1 for f in features)} (expect within {{1, 4}}), "
        f"brute-force agreement {oracle_ok}, elapsed {elapsed:.0f}s",
    )


def test_c10_sleep_pipeline_properties(tmp_path):
    t0 = time.perf_counter()
    from pathlib import Path

    fixture = Path(__file__).parent / "data" / "sleep_synthetic.csv"
    schema_path = Path(__file__).parent.parent / "configs" / "sleep_schema.json"
    schema = cli.load_schema(schema_path)
    data = cli.load_dataset(fixture, schema)
    cfg = cli.AnalyzeConfig(
        data=str(fixture), schema=str(schema_path), seed=7,
    )  # defaults: 250 epochs, 100 propensity epochs
    analysis = cli.run_sleep_analysis(data, cfg)
    cli.write_analysis_outputs(analysis, data, tmp_path)
    elapsed = time.perf_counter() - t0

    finite = all(
        np.isfinite(r.mean_cate) and np.isfinite(r.mean_prognostic)
        for r in analysis.rows
    ) and len(analysis.rows) == 3
    interior = analysis.pi_interior_fraction >= 0.95
    raw = data.raw_features()
    restd = (raw - data.feature_center) / data.feature_scale
    round_trip = bool(
        np.max(np.abs(restd - data.X)) < 1e-10
        and np.max(np.abs((data.raw_outcome() - data.outcome_center) / data.outcome_scale - data.Y)) < 1e-10
    )
    ok = finite and interior and round_trip and elapsed < 300.0
    report(
        "C10 analysis pipeline",
        ok,
        f"finite rows {finite}, propensity interior fraction "
        f"{analysis.pi_interior_fraction:.3f}, standardization round-trip {round_trip}, "
        f"elapsed {elapsed:.0f}s",
    )
