import dataclasses
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from deepcate import models, nn

ROOT = Path(__file__).resolve().parent.parent


def test_ab_times_a_checkout_against_itself():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), str(ROOT), str(ROOT), "--n", "40", "--pairs", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "fit bcf, n=40, 2 pairs, outputs bit-equal in every pair" in out.stdout
    assert "pair  1 (BA)" in out.stdout
    assert "B/A: median " in out.stdout


def test_ab_times_a_bcf_trial_with_a_bootstrap_interval():
    out = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "ab.py"), str(ROOT), str(ROOT),
            "--fit", "bcf_trial", "--n", "40", "--pairs", "2",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "fit bcf_trial, n=40, 2 pairs, outputs bit-equal in every pair" in out.stdout
    assert "95% bootstrap interval " in out.stdout


def test_ab_times_an_ols_fit():
    out = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "ab.py"), str(ROOT), str(ROOT),
            "--fit", "ols", "--n", "40", "--pairs", "2",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "fit ols, n=40, 2 pairs, outputs bit-equal in every pair" in out.stdout


def test_ab_compares_every_field_of_a_fitted_model(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the script sets it on import
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)

    ols = models.OlsModel(0.5, 1.0, np.zeros(2), np.ones(2))
    assert ab.fitted([ols]) == ab.fitted([dataclasses.replace(ols)])
    for change in ({"intercept": 0.25}, {"beta_z": -1.0}, {"gamma": np.array([1.0, 2.0])}):
        assert ab.fitted([ols]) != ab.fitted([dataclasses.replace(ols, **change)])

    # a network that differs only in its seed is another fitted model
    prop = models.PropensityModel(nn.init_network([nn.LayerSpec(2, 1, "sigmoid")], seed=3))
    reseeded = models.PropensityModel(dataclasses.replace(prop.net, rng_seed=4))
    assert ab.fitted([prop]) != ab.fitted([reseeded])
