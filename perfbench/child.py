"""One workload process: import the program, make the inputs, time one
entry call and write a JSON record.

    python3 perfbench/child.py --workload NAME --seed N --record PATH

`run.py` starts one of these per measured entry call, so that every call
pays the real set-up (interpreter start, `import deepcate`) and the peak
RSS belongs to that call alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--record", type=Path, required=True)
    args = ap.parse_args()

    bench.use_checkout_source()
    out_dir = args.record.with_suffix(".out")
    record = bench.run_once(bench.WORKLOADS[args.workload], args.seed, out_dir)
    record["manifest"] = bench.machine_manifest()
    args.record.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
