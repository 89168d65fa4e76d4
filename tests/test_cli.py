import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepcate import cli
from deepcate.metrics import ResultRow, ResultsTable

FIXTURE = Path(__file__).parent / "data" / "sleep_synthetic.csv"
SCHEMA = Path(__file__).parent.parent / "configs" / "sleep_schema.json"


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def toy_schema():
    return cli.DatasetSchema(
        outcome="y",
        treatment="z",
        treatment_positive="yes",
        features=(cli.FeatureSpec("a"), cli.FeatureSpec("b")),
    )


class TestSchema:
    def test_loads_sleep_schema(self):
        schema = cli.load_schema(SCHEMA)
        assert schema.outcome == "PoorSleepQuality"
        assert schema.treatment == "Stress"
        assert schema.treatment_positive == "high"
        assert len(schema.features) == 11

    def test_duplicate_columns_rejected(self):
        with pytest.raises(cli.DataError, match="duplicate"):
            cli.DatasetSchema(
                outcome="y",
                treatment="z",
                treatment_positive="1",
                features=(cli.FeatureSpec("a"), cli.FeatureSpec("a")),
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(cli.DataError, match="kind"):
            cli.FeatureSpec("a", kind="categorical")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text("{not json")
        with pytest.raises(cli.DataError, match="cannot read"):
            cli.load_schema(path)


class TestLoadDataset:
    def test_fixture_loads(self):
        data = cli.load_dataset(FIXTURE, cli.load_schema(SCHEMA))
        assert data.n == 253
        assert data.X.shape == (253, 11)
        assert set(np.unique(data.Z)) == {0.0, 1.0}
        assert 0 < data.Z.mean() < 1

    def test_columns_standardized(self):
        data = cli.load_dataset(FIXTURE, cli.load_schema(SCHEMA))
        np.testing.assert_allclose(data.X.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(data.X.std(axis=0, ddof=1), 1.0, atol=1e-10)
        assert abs(data.Y.mean()) < 1e-10
        assert data.Y.std(ddof=1) == pytest.approx(1.0, abs=1e-10)

    def test_two_point_standardization_uses_sample_sd(self, tmp_path):
        # values {1, 3}: mean 2, sd sqrt(2) with the n-1 denominator,
        # standardized to -1/sqrt(2), +1/sqrt(2)
        path = tmp_path / "toy.csv"
        write_csv(path, ["a", "b", "z", "y"], [[1, 0, "yes", 1], [3, 1, "no", 2]])
        data = cli.load_dataset(path, toy_schema())
        np.testing.assert_allclose(
            data.X[:, 0], [-0.7071067811865475, 0.7071067811865475], atol=1e-12
        )

    def test_tiny_but_distinct_values_are_standardized(self, tmp_path):
        # a spread below ~1e-154 underflows the variance to 0, yet the
        # column is not constant
        values = [0.0, 3.8599644276202956e-176, 1.936618852520125e-268, 4.560644133431499e-274]
        path = tmp_path / "toy.csv"
        rows = [[v, i, "yes" if i % 2 else "no", i] for i, v in enumerate(values)]
        write_csv(path, ["a", "b", "z", "y"], rows)
        data = cli.load_dataset(path, toy_schema())
        assert data.X[:, 0].std(ddof=1) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(data.raw_features()[:, 0], values, rtol=1e-10, atol=1e-186)

    def test_inverse_transform_round_trips(self):
        data = cli.load_dataset(FIXTURE, cli.load_schema(SCHEMA))
        raw = data.raw_features()
        back = (raw - data.feature_center) / data.feature_scale
        np.testing.assert_allclose(back, data.X, atol=1e-10)
        y_raw = data.raw_outcome()
        back_y = (y_raw - data.outcome_center) / data.outcome_scale
        np.testing.assert_allclose(back_y, data.Y, atol=1e-10)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(path, ["a", "z", "y"], [[1, "yes", 1], [2, "no", 2]])
        with pytest.raises(cli.DataError, match="missing columns.*'b'"):
            cli.load_dataset(path, toy_schema())

    def test_missing_values_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(
            path,
            ["a", "b", "z", "y"],
            [[1, 0, "yes", 1], ["", 1, "no", 2], [2, 1, "no", ""]],
        )
        with pytest.raises(cli.DataError, match=r"lines \[3, 4\]"):
            cli.load_dataset(path, toy_schema())

    def test_unparseable_cell_reports_line(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(path, ["a", "b", "z", "y"], [[1, 0, "yes", 1], ["oops", 1, "no", 2]])
        with pytest.raises(cli.DataError, match="line 3.*'a'"):
            cli.load_dataset(path, toy_schema())

    def test_single_class_treatment(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(path, ["a", "b", "z", "y"], [[1, 0, "yes", 1], [2, 1, "yes", 2]])
        with pytest.raises(cli.DataError, match="2 levels"):
            cli.load_dataset(path, toy_schema())

    def test_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(path, ["a", "a", "z", "y"], [[1, 0, "yes", 1]])
        with pytest.raises(cli.DataError, match="duplicate"):
            cli.load_dataset(path, toy_schema())

    def test_constant_column_rejected(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(path, ["a", "b", "z", "y"], [[1, 5, "yes", 1], [2, 5, "no", 2]])
        with pytest.raises(cli.DataError, match="constant"):
            cli.load_dataset(path, toy_schema())

    def test_ordinal_categories_coded_in_order(self, tmp_path):
        schema = cli.DatasetSchema(
            outcome="y",
            treatment="z",
            treatment_positive="yes",
            features=(
                cli.FeatureSpec("grade", kind="ordinal", categories=("low", "mid", "hi")),
                cli.FeatureSpec("b",),
            ),
        )
        path = tmp_path / "toy.csv"
        write_csv(
            path,
            ["grade", "b", "z", "y"],
            [["low", 0, "yes", 1], ["hi", 1, "no", 2], ["mid", 2, "no", 3]],
        )
        data = cli.load_dataset(path, schema)
        raw = data.raw_features()[:, 0]
        np.testing.assert_allclose(raw, [0.0, 2.0, 1.0], atol=1e-12)

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "toy.csv"
        rows = [[i, i % 2, "yes" if i % 3 else "no", i * 2] for i in range(1, 9)]
        write_csv(path, ["a", "b", "z", "y"], rows)
        data = cli.load_dataset(path, toy_schema())
        np.testing.assert_allclose(data.raw_features()[:, 0], np.arange(1, 9), atol=1e-12)

    @given(
        values=st.lists(
            st.floats(-1000, 1000, allow_nan=False), min_size=4, max_size=30, unique=True
        )
    )
    @settings(max_examples=25)
    def test_standardization_round_trip_property(self, tmp_path_factory, values):
        tmp = tmp_path_factory.mktemp("roundtrip")
        path = tmp / "toy.csv"
        rows = [
            [v, i, "yes" if i % 2 else "no", v * 0.5 + i] for i, v in enumerate(values)
        ]
        write_csv(path, ["a", "b", "z", "y"], rows)
        data = cli.load_dataset(path, toy_schema())
        np.testing.assert_allclose(data.raw_features()[:, 0], values, rtol=1e-10, atol=1e-8)


def table_rows(methods=("shared", "bcf", "naive", "ols"), ns=(250, 500, 1000)):
    rows = []
    for n in ns:
        for i, m in enumerate(methods):
            rows.append(
                ResultRow(
                    method=m, n=n, regime="small", trials=5,
                    mean_beta_hat=0.47 + i, true_ate=0.20, true_mean_alpha=1.95,
                    mean_runtime_s=1.0, mean_correlation=0.74,
                    mean_rmse=0.5, mean_abs_bias=0.26,
                )
            )
    return ResultsTable(tuple(rows))


class TestEmitReport:
    def test_one_row_two_files_round_trip(self, tmp_path):
        table = table_rows(methods=("ols",), ns=(250,))
        written = cli.emit_report(table, tmp_path)
        assert len(written) == 2
        from deepcate.metrics import read_results_csv

        assert read_results_csv(tmp_path / "results.csv") == table
        assert (tmp_path / "results.md").exists()

    def test_full_small_regime_has_twelve_rows(self, tmp_path):
        table = table_rows()
        cli.emit_report(table, tmp_path)
        md = (tmp_path / "results.md").read_text().strip().splitlines()
        assert len(md) == 2 + 12  # header, separator, one line per cell

    def test_markdown_two_decimals(self, tmp_path):
        table = table_rows(methods=("shared",), ns=(250,))
        cli.emit_report(table, tmp_path, formats=("markdown",))
        md = (tmp_path / "results.md").read_text()
        assert "| 0.47 | 0.20 | 1.95 |" in md

    def test_undefined_correlation_renders_na(self, tmp_path):
        row = ResultRow(
            method="ols", n=250, regime="small", trials=5,
            mean_beta_hat=2.0, true_ate=0.2, true_mean_alpha=1.95,
            mean_runtime_s=0.0, mean_correlation=None, mean_rmse=2.0,
            mean_abs_bias=1.8,
        )
        cli.emit_report(ResultsTable((row,)), tmp_path, formats=("markdown",))
        assert "| NA |" in (tmp_path / "results.md").read_text()

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="format"):
            cli.emit_report(table_rows(), tmp_path, formats=("pdf",))


class TestParseConfig:
    def test_simulate_flags(self):
        cfg = cli.parse_config(
            "simulate --regime small --n 250,500,1000 --trials 100 --seed 42".split()
        )
        e = cfg.experiment
        assert cfg.mode == "simulate"
        assert e.sample_sizes == (250, 500, 1000)
        assert e.n_trials == 100
        assert e.base_seed == 42
        assert e.regime == "small"
        assert e.test_size == 10_000
        assert e.train.epochs == 250
        assert e.train.batch_size == 64
        assert e.train.lr == 0.001

    def test_flag_overrides_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("trials = 100\nregime = large\n")
        cfg = cli.parse_config(["simulate", "--config", str(f), "--trials", "20"])
        assert cfg.experiment.n_trials == 20
        assert cfg.experiment.regime == "large"

    def test_unknown_file_key(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("frobnicate = 3\n")
        with pytest.raises(cli.ConfigError, match="unknown config keys"):
            cli.parse_config(["simulate", "--config", str(f)])

    def test_mode_mismatch(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("mode = analyze\n")
        with pytest.raises(cli.ConfigError, match="mode"):
            cli.parse_config(["simulate", "--config", str(f)])

    def test_bad_value(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(["simulate", "--trials", "lots"])

    def test_missing_required(self):
        with pytest.raises(cli.ConfigError, match="requires"):
            cli.parse_config(["analyze", "--schema", "s.json"])

    def test_empty_args_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_config([])
        assert exc.value.code == 2

    def test_effective_config_is_fixed_point(self, tmp_path):
        cfg = cli.parse_config(
            [
                "simulate", "--regime", "large", "--n", "100,200", "--trials", "3",
                "--seed", "9", "--kappa", "0.5", "--threads", "2",
                "--epochs", "10", "--redraw-z", "false",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        echo = tmp_path / "echo.cfg"
        echo.write_text(cli.effective_config_text(cfg))
        cfg2 = cli.parse_config(["simulate", "--config", str(echo)])
        assert cfg2 == cfg

    def test_analyze_fixed_point(self, tmp_path):
        cfg = cli.parse_config(
            [
                "analyze", "--data", "d.csv", "--schema", "s.json",
                "--epochs", "77", "--methods", "bcf,shared",
                "--out-dir", str(tmp_path),
            ]
        )
        assert cfg.analyze.methods == ("shared", "bcf")  # canonical order
        echo = tmp_path / "echo.cfg"
        echo.write_text(cli.effective_config_text(cfg))
        assert cli.parse_config(["analyze", "--config", str(echo)]) == cfg

    def test_report_fixed_point(self, tmp_path):
        cfg = cli.parse_config(
            ["report", "--results", "r.csv", "--format", "markdown",
             "--out-dir", str(tmp_path)]
        )
        echo = tmp_path / "echo.cfg"
        echo.write_text(cli.effective_config_text(cfg))
        assert cli.parse_config(["report", "--config", str(echo)]) == cfg


@pytest.fixture(scope="module")
def sleep_analysis():
    schema = cli.load_schema(SCHEMA)
    data = cli.load_dataset(FIXTURE, schema)
    cfg = cli.AnalyzeConfig(
        data=str(FIXTURE), schema=str(SCHEMA), seed=3,
        epochs=40, propensity_epochs=20,
    )
    return data, cli.run_sleep_analysis(data, cfg)


class TestSleepAnalysis:
    def test_one_finite_row_per_method(self, sleep_analysis):
        _, analysis = sleep_analysis
        assert [r.method for r in analysis.rows] == ["shared", "bcf", "naive"]
        for row in analysis.rows:
            assert np.isfinite(row.mean_cate)
            assert np.isfinite(row.mean_prognostic)

    def test_propensities_stay_interior(self, sleep_analysis):
        _, analysis = sleep_analysis
        assert analysis.pi_hat.shape == (253,)
        assert np.all(analysis.pi_hat > 0) and np.all(analysis.pi_hat < 1)
        assert analysis.pi_interior_fraction >= 0.95

    def test_tree_uses_bcf_estimates(self, sleep_analysis):
        _, analysis = sleep_analysis
        assert analysis.tree_method == "bcf"
        assert analysis.tree.max_depth == 2

    def test_output_files(self, sleep_analysis, tmp_path):
        data, analysis = sleep_analysis
        cli.write_analysis_outputs(analysis, data, tmp_path)
        assert (tmp_path / "analysis.csv").exists()
        assert (tmp_path / "analysis.md").exists()
        tree_text = (tmp_path / "moderator_tree.txt").read_text()
        assert "predict" in tree_text
        payload = json.loads((tmp_path / "moderator_tree.json").read_text())
        assert payload["max_depth"] == 2
        with open(tmp_path / "alpha_vs_pi.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha_hat", "pi_hat"]
        assert len(rows) == 1 + 253


class TestMainCli:
    def test_simulate_end_to_end(self, tmp_path):
        out = tmp_path / "sim"
        code = cli.main(
            [
                "simulate", "--regime", "small", "--n", "60", "--trials", "2",
                "--test-size", "200", "--methods", "ols,naive", "--epochs", "5",
                "--batch-size", "16", "--seed", "1", "--out-dir", str(out),
            ]
        )
        assert code == 0
        for name in ("results.csv", "results.md", "bias_vs_n.csv", "rmse_vs_n.csv",
                     "trial_scatter.csv", "effective_config.txt"):
            assert (out / name).exists()

    def test_report_round_trip(self, tmp_path):
        sim_out = tmp_path / "sim"
        assert cli.main(
            [
                "simulate", "--regime", "small", "--n", "60", "--trials", "1",
                "--test-size", "100", "--methods", "ols", "--seed", "1",
                "--out-dir", str(sim_out),
            ]
        ) == 0
        rep_out = tmp_path / "rep"
        assert cli.main(
            ["report", "--results", str(sim_out / "results.csv"), "--out-dir", str(rep_out)]
        ) == 0
        assert (rep_out / "results.md").exists()
        assert (rep_out / "results.csv").read_bytes() == (sim_out / "results.csv").read_bytes()

    def test_analyze_end_to_end(self, tmp_path):
        out = tmp_path / "sleep"
        code = cli.main(
            [
                "analyze", "--data", str(FIXTURE), "--schema", str(SCHEMA),
                "--seed", "3", "--epochs", "15", "--propensity-epochs", "10",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert (out / "analysis.md").exists()
        assert (out / "moderator_tree.json").exists()
        assert (out / "alpha_vs_pi.csv").exists()
        assert (out / "effective_config.txt").exists()

    def test_unknown_flag_exits_2(self):
        assert cli.main(["simulate", "--bogus", "1"]) == 2

    def test_empty_args_exit_2(self):
        assert cli.main([]) == 2

    def test_config_error_exits_2(self):
        assert cli.main(["simulate", "--trials", "many"]) == 2

    def test_missing_data_exits_3(self, tmp_path):
        assert cli.main(
            ["analyze", "--data", str(tmp_path / "nope.csv"), "--schema", str(SCHEMA)]
        ) == 3

    def test_schema_violation_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        write_csv(bad, ["Gender", "Stress"], [[1, "high"]])
        assert cli.main(
            ["analyze", "--data", str(bad), "--schema", str(SCHEMA)]
        ) == 3

    def test_unreadable_results_exits_3(self, tmp_path):
        assert cli.main(
            ["report", "--results", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)]
        ) == 3


# every key of each mode set away from its default (the shipped fixture
# paths stand in for analyze's data and schema)
NON_DEFAULT_ARGV = {
    "simulate": [
        "--regime", "large", "--n", "100,200", "--trials", "3", "--test-size", "500",
        "--methods", "bcf,ols", "--seed", "9", "--kappa", "0.5", "--threads", "2",
        "--epochs", "10", "--batch-size", "32", "--lr", "0.01", "--propensity-epochs", "7",
        "--redraw-z", "false", "--standardize-y", "true",
    ],
    "analyze": [
        "--data", str(FIXTURE), "--schema", str(SCHEMA), "--seed", "4", "--epochs", "77",
        "--propensity-epochs", "12", "--batch-size", "8", "--lr", "0.5", "--methods", "naive,bcf",
        "--tree-depth", "3", "--tree-min-leaf", "4",
    ],
    "report": ["--results", "r.csv", "--format", "markdown"],
}
REQUIRED_ARGV = {
    "simulate": [],
    "analyze": ["--data", str(FIXTURE), "--schema", str(SCHEMA)],
    "report": ["--results", "r.csv"],
}


def echo_lines(cfg):
    return dict(line.split(" = ", 1) for line in cli.effective_config_text(cfg).splitlines())


class TestConfigTable:
    @pytest.mark.parametrize("mode", ["simulate", "analyze", "report"])
    def test_every_key_round_trips_through_the_echo(self, mode, tmp_path):
        argv = [mode, *NON_DEFAULT_ARGV[mode], "--out-dir", str(tmp_path / "out")]
        set_keys = {a[2:].replace("-", "_") for a in argv if a.startswith("--")}
        assert set_keys == set(cli._KEYS[mode])
        cfg = cli.parse_config(argv)
        echoed = echo_lines(cfg)
        defaults = echo_lines(cli.parse_config([mode, *REQUIRED_ARGV[mode]]))
        away = {k for k in cli._KEYS[mode] if echoed.get(k) != defaults.get(k)}
        assert away == set(cli._KEYS[mode]) - {"data", "schema", "results"}
        echo = tmp_path / "echo.cfg"
        echo.write_text(cli.effective_config_text(cfg))
        again = cli.parse_config([mode, "--config", str(echo)])
        assert again == cfg
        assert cli.effective_config_text(again) == cli.effective_config_text(cfg)

    @pytest.mark.parametrize("name", ["table1_small.cfg", "table2_large.cfg"])
    def test_shipped_run_configs_parse_and_echo_to_a_fixed_point(self, name, tmp_path):
        path = Path(__file__).parent.parent / "configs" / name
        cfg = cli.parse_config(["simulate", "--config", str(path)])
        written = cli.read_config_file(path)
        assert written.pop("mode") == "simulate"
        echoed = echo_lines(cfg)
        for key, value in written.items():
            assert echoed[key] == value, key
        echo = tmp_path / "echo.cfg"
        echo.write_text(cli.effective_config_text(cfg))
        again = cli.parse_config(["simulate", "--config", str(echo)])
        assert again == cfg
        assert cli.effective_config_text(again) == echo.read_text()

    def test_training_defaults_come_from_train_config(self):
        from deepcate import harness, nn

        base = nn.TrainConfig()
        for settings in (harness.TrainSettings(), cli.AnalyzeConfig(data="d", schema="s")):
            assert (settings.epochs, settings.batch_size, settings.lr) == (
                base.epochs, base.batch_size, base.lr,
            )


# small runs, so a setting that slips through finishes (and fails) quickly
SMALL_SIMULATE = ["simulate", "--n", "30", "--trials", "1", "--test-size", "20",
                  "--methods", "shared,bcf", "--epochs", "1"]
SMALL_ANALYZE = ["analyze", "--data", str(FIXTURE), "--schema", str(SCHEMA),
                 "--epochs", "1", "--propensity-epochs", "1"]


class TestBadSettingsExitBeforeAnyFit:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (SMALL_SIMULATE + ["--epochs", "0"], "epochs must be >= 1"),
            (SMALL_SIMULATE + ["--batch-size", "0"], "batch_size must be >= 1"),
            (SMALL_SIMULATE + ["--lr", "0"], "lr must be > 0"),
            (SMALL_SIMULATE + ["--propensity-epochs", "0"], "propensity epochs must be >= 1"),
            (SMALL_ANALYZE + ["--epochs", "0"], "epochs must be >= 1"),
            (SMALL_ANALYZE + ["--propensity-epochs", "0"], "propensity epochs must be >= 1"),
            (SMALL_ANALYZE + ["--batch-size", "-3"], "batch_size must be >= 1"),
            (SMALL_ANALYZE + ["--lr", "-0.1"], "lr must be > 0"),
            (SMALL_ANALYZE + ["--tree-depth", "0"], "max_depth must be >= 1"),
            (SMALL_ANALYZE + ["--tree-min-leaf", "0"], "min_leaf must be >= 1"),
        ],
    )
    def test_exit_2_and_nothing_written(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out-dir", str(out)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_settings_validate_at_construction(self):
        from deepcate import harness

        with pytest.raises(ValueError, match="epochs"):
            harness.TrainSettings(epochs=0)
        with pytest.raises(ValueError, match="propensity epochs"):
            harness.TrainSettings(propensity_epochs=0)
        with pytest.raises(cli.ConfigError, match="max_depth"):
            cli.AnalyzeConfig(data="d", schema="s", tree_depth=0)
        with pytest.raises(cli.ConfigError, match="unknown methods"):
            cli.AnalyzeConfig(data="d", schema="s", methods=("ols",))
        with pytest.raises(cli.ConfigError, match="at least one method"):
            cli.AnalyzeConfig(data="d", schema="s", methods=())
