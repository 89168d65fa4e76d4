import subprocess
import sys
from pathlib import Path

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
