"""The deepcate benchmark: one command per workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

--trace 0 (default) measures the end-to-end metrics with tracing off. It
starts one workload process after another (perfbench/child.py), each
making its inputs from the seed and timing one public entry call, as long
as a typical call still ends within --seconds, and at least MIN_CALLS
times; it reports medians over those calls.

--trace 1 runs in this process: untraced entry calls, then the same entry
call serially with spans around the functions it calls, and the layer
probes (perfbench/layers.py). It reports the per-layer metrics. Its work is fixed; --seconds does not
apply to it.

Both print one line per metric, with its unit, then the machine manifest,
and as the last line of standard output one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The run exits non-zero, printing no result, when the checkout holds no
program to measure, or when a traced sweep aborts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402

MIN_CALLS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "fits_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def spawn_child(name: str, seed: int, record: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(bench.SRC), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(bench.HERE / "child.py"),
        "--workload", name, "--seed", str(seed), "--record", str(record),
    ]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=bench.ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    rec = json.loads(record.read_text(encoding="utf-8"))
    rec["setup_s"] = rec["entry_at"] - spawned_at
    return rec


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(name: str, seed: int, seconds: int) -> list[dict]:
    run_dir = bench.RUNS_DIR / f"run-{name}-{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + seconds
    records, took = [], []
    try:
        # after MIN_CALLS, start a call only if a typical one ends in time
        while len(records) < MIN_CALLS or time.monotonic() + statistics.median(took) <= deadline:
            started = time.monotonic()
            records.append(spawn_child(name, seed, run_dir / f"call{len(records)}.json"))
            took.append(time.monotonic() - started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for rec in records:
        completed = rec["attempted"] - rec["failed"]
        rec["fits_per_s"] = completed / rec["wall_s"]
    return records


def report_measured(name: str, seed: int, records: list[dict]) -> dict:
    spec = bench.WORKLOADS[name]
    metrics = {}
    print(f"workload {name}  seed {seed}  entry calls {len(records)} (one process each)")
    for metric, unit in END_TO_END.items():
        values = [r[metric] for r in records]
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        metrics[metric] = {"value": med, "unit": unit}
        print(f"  {metric:<14} {med:12.6g} {unit:<5} median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g}")

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(f"  fail_frac      {failed / attempted:12.6g}       {failed} of {attempted} fits failed")
    reference = bench.load_reference().get(name, {})
    at_reference_seed = reference.get("seed") == seed
    problems = [p for r in records for p in r["problems"]]
    for key in ("cate_rmse", "cate_abs_bias"):
        values = {r["cate"].get(key) for r in records}
        if None not in values:
            shown = ", ".join(f"{v!r}" for v in sorted(values))
            note = "paper metric; repeats exactly on a fixed seed"
            if at_reference_seed:
                drift = max((v / reference["cate"][key] - 1.0 for v in values), key=abs)
                note += f"; {drift:+.3%} against the reference"
                if key == "cate_rmse" and abs(drift) > bench.CATE_RMSE_TOLERANCE:
                    problems.append(
                        f"cate_rmse moved {drift:+.1%} from the reference, more than "
                        f"{bench.CATE_RMSE_TOLERANCE:.0%}"
                    )
            print(f"  {key:<14} {shown}  ({note})")

    digests = [r["digests"] for r in records]
    repeats_identical = all(d == digests[0] for d in digests)
    if not repeats_identical:
        problems.append("outputs differ between entry calls on the same seed")
    if at_reference_seed:
        identical = digests[0] == reference["digests"]
        print(f"  outputs_bit_identical: {str(identical).lower()} (reference digests for seed {seed})")
        if not identical:
            print(f"warning: {name} outputs differ from the reference digests", file=sys.stderr)
    else:
        print(f"  outputs_bit_identical: n/a (references exist for seed {spec.default_seed} only)")
    print(f"  repeats_identical: {str(repeats_identical).lower()}")
    for label, digest in digests[0].items():
        print(f"  sha256 {label}: {digest}")
    for p in problems:
        print(f"  problem: {p}")
    print(f"  manifest: {json.dumps(records[0]['manifest'], sort_keys=True)}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def report_traced(name: str, seed: int, result: dict) -> dict:
    print(f"workload {name}  seed {seed}  traced run ({result['span_count']} spans)")
    print(
        f"  untraced entry {result['pooled_wall_s']:.4f} s, untraced serial "
        f"{result['serial_wall_s']:.4f} s, traced serial {result['traced_wall_s']:.4f} s"
    )
    metrics = {}
    for metric, unit in result["units"].items():
        st = result["stats"][metric]
        value = st.get("median", st.get("value"))
        metrics[metric] = {"value": value, "unit": unit}
        detail = ""
        if "median" in st:
            detail = f"median of {st['n']}" + (f"; p90 {st['p90']:.6g}" if "p90" in st else "")
        print(f"  {metric:<36} {value:14.6g} {unit:<5} {detail}")
    total = result["traced_wall_s"]
    print("  self time over the traced entry call, by layer:")
    for layer, own in sorted(result["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<10} {own:10.4f} s  {100 * own / total:5.1f}%")
    for p in result["problems"]:
        print(f"  problem: {p}")
    print(f"  spans written to {result['dump'].relative_to(bench.ROOT)}")
    print(f"  manifest: {json.dumps(bench.machine_manifest(), sort_keys=True)}")
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = bench.program_missing()
    if missing:
        print(f"cannot benchmark this directory: {missing}", file=sys.stderr)
        return 2
    seed = bench.WORKLOADS[args.workload].default_seed if args.seed is None else args.seed

    if args.trace:
        bench.use_checkout_source()
        import layers

        try:
            traced = layers.trace_run(args.workload, seed)
        except bench.AllTrialsFailed as exc:
            # the traced call and the probes need a sweep that completes
            print(f"traced run aborted: {exc}", file=sys.stderr)
            return 1
        result = report_traced(args.workload, seed, traced)
    else:
        result = report_measured(args.workload, seed, measure(args.workload, seed, args.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
