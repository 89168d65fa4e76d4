#!/usr/bin/env python3
"""Paired in-process A/B timing of one estimator fit in two checkouts.

    python scripts/ab.py PATH_A PATH_B [--fit bcf] [--n 1000] [--pairs 20] [--seed 42]

--fit is one estimator's fit (bcf, naive, ols, propensity, shared), or
bcf_trial: the propensity fit, its estimate on X, and bcf on that
estimate, which is what a bcf trial of a sweep fits.

PATH_A and PATH_B are checkouts of this repository. Each one's
`src/deepcate` is imported under its own module name (`deepcate_a`,
`deepcate_b`) into this one process, so both sides share the interpreter,
the numpy build and the machine state of the moment. The fits run in
pairs, with the side that goes first alternating (A B, B A, A B, ...), on
the program's default training settings and one data draw made by side A's
`dgp` (the small regime; bcf gets the true propensity as pi_hat). Every
pair's two fitted models must be bit-equal, field by field, or the script
stops.

It prints each side's median fit time and, over the pairs, the median
ratio B/A, its quartiles, a 95% percentile bootstrap interval of the
median (pairs resampled 10,000 times, with a fixed seed) and the number
of pairs B won. Fits run on one OpenBLAS thread, as the harness runs a
trial, unless the environment already sets OPENBLAS_NUM_THREADS.
"""

import argparse
import importlib.util
import os
import random
import statistics
import struct
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when deepcate loads numpy


def bcf_trial(m, d, cfg):
    """A bcf trial's fits: the propensity network, then bcf on its estimate."""
    propensity = m.models.fit_propensity(d["X"], d["Z"], cfg)
    pi_hat = m.models.predict_propensity(propensity, d["X"])
    return propensity, m.models.fit_bcf(d["X"], d["Z"], d["Y"], pi_hat, cfg)


FITS = {
    "propensity": lambda m, d, cfg: (m.models.fit_propensity(d["X"], d["Z"], cfg),),
    "bcf": lambda m, d, cfg: (m.models.fit_bcf(d["X"], d["Z"], d["Y"], d["pi"], cfg),),
    "bcf_trial": bcf_trial,
    "shared": lambda m, d, cfg: (m.models.fit_shared(d["X"], d["Z"], d["Y"], cfg),),
    "naive": lambda m, d, cfg: (m.models.fit_naive(d["X"], d["Z"], d["Y"], cfg),),
    "ols": lambda m, d, cfg: (m.models.fit_ols(d["X"], d["Z"], d["Y"]),),
}
BOOTSTRAP_DRAWS, BOOTSTRAP_SEED = 10_000, 0


def load(checkout: Path, name: str):
    """The deepcate package of a checkout, imported as `name`."""
    package = checkout / "src" / "deepcate"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    if spec is None or not (package / "__init__.py").is_file():
        raise SystemExit(f"no src/deepcate package under {checkout}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def field_bytes(value) -> bytes:
    """A fitted field's bytes: a network's layers, seed and flat parameter
    buffer, an array's dtype, shape and data, or a float's IEEE bits."""
    if hasattr(value, "params"):
        return repr((value.layers, value.rng_seed)).encode() + value.params.tobytes()
    if hasattr(value, "tobytes"):
        return repr((value.dtype.str, value.shape)).encode() + value.tobytes()
    return struct.pack("<d", value)


def fitted(models) -> list[tuple[str, str, bytes]]:
    """Every field of fitted models, as (model class, field name, bytes)."""
    return [
        (type(model).__name__, name, field_bytes(value))
        for model in models
        for name, value in vars(model).items()
    ]


def timed_fit(fit, module, data, cfg):
    start = time.perf_counter()
    models = FITS[fit](module, data, cfg)
    return time.perf_counter() - start, fitted(models)


def bootstrap_interval(ratios: list[float]) -> tuple[float, float]:
    """The 95% percentile bootstrap interval of the median ratio: the pairs
    resampled with replacement BOOTSTRAP_DRAWS times, from a fixed seed."""
    draws = random.Random(BOOTSTRAP_SEED)
    medians = sorted(
        statistics.median(draws.choices(ratios, k=len(ratios))) for _ in range(BOOTSTRAP_DRAWS)
    )
    return medians[int(0.025 * BOOTSTRAP_DRAWS)], medians[int(0.975 * BOOTSTRAP_DRAWS) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout A, the base of the ratio")
    parser.add_argument("b", type=Path, help="checkout B")
    parser.add_argument("--fit", choices=sorted(FITS), default="bcf")
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.n < 2:
        parser.error("need --pairs >= 1 and --n >= 2")

    sides = {"a": load(args.a, "deepcate_a"), "b": load(args.b, "deepcate_b")}
    dgp = sides["a"].dgp
    X, u = dgp.gen_covariates(args.n, args.seed)
    sample = dgp.draw_outcome(X, u, "small", 1.0, args.seed + 1)
    data = {"X": X, "Z": sample.Z, "Y": sample.Y, "pi": dgp.true_pi(dgp.true_alpha(X), u)}
    cfg = {  # the default settings, with the batch clamped to n as a sweep clamps it
        k: module.harness.train_config(module.harness.TrainSettings(), args.n, args.seed + 2)
        for k, module in sides.items()
    }

    for k, module in sides.items():  # warm up: first-call costs stay out of the pairs
        timed_fit(args.fit, module, data, cfg[k])
    times = {"a": [], "b": []}
    for i in range(args.pairs):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        out = {}
        for k in order:
            elapsed, out[k] = timed_fit(args.fit, sides[k], data, cfg[k])
            times[k].append(elapsed)
        if out["a"] != out["b"]:
            raise SystemExit(f"pair {i}: the two sides fitted different models")
        a, b = times["a"][-1], times["b"][-1]
        print(f"pair {i:2d} ({''.join(order).upper()}): A {a:.3f} s  B {b:.3f} s", flush=True)

    ratios = [b / a for a, b in zip(times["a"], times["b"])]
    q1, med, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    low, high = bootstrap_interval(ratios)
    wins = sum(b < a for a, b in zip(times["a"], times["b"]))
    print(f"fit {args.fit}, n={args.n}, {args.pairs} pairs, outputs bit-equal in every pair")
    median = {k: statistics.median(t) for k, t in times.items()}
    print(f"median fit time: A {median['a']:.3f} s, B {median['b']:.3f} s")
    print(
        f"B/A: median {med:.3f}, IQR {q1:.3f}-{q3:.3f}, 95% bootstrap interval {low:.3f}-{high:.3f};"
        f" B faster in {wins}/{args.pairs}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
