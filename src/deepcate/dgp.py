"""Targeted-selection simulation: the treatment probability is a monotone
function of the prognostic surface, so treatment goes to the units that
would fare worst untreated.

The generating model is

    Y = alpha(X) + beta(X) * Z + sigma * eps,    eps ~ N(0, 1)
    Z ~ Bernoulli(pi(X)),  sigma = sd(alpha(X)) * kappa

over five covariates (three standard normals, one binomial(2, 1/2), one
Bernoulli(1/2)) plus a uniform jitter u that enters only the propensity:

    beta(X)  = 0.20 + 0.5 * X1 * X4        ("small" regime)
               5.00 + 0.5 * X1 * X4        ("large" regime)
    alpha(X) = 0.5 cos(2 X1) + 0.95 |X3 * X5| - 0.2 X2 + 1.5
    pi(X)    = 0.70 * Phi(alpha / s(alpha) - 3.5) + u / 10 + 0.10

where s(alpha) is the sample standard deviation of the realized alpha
vector and Phi the standard normal CDF, so every pi lies in (0.10, 0.90).

Phi(x) = (1 + erf(x / sqrt(2))) / 2, with erf from the standard library's
`math.erf` applied entry by entry (within about 1e-16 of the exact value
over [-8, 8]), so the package needs numpy and nothing else at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import read_csv, write_csv

REGIMES = ("small", "large")

N_COVARIATES = 5


def norm_cdf(x):
    """Standard normal CDF, Phi(x) = (1 + erf(x / sqrt(2))) / 2.

    Accepts scalars (returning a float) or arrays of any shape; accurate
    to about 1e-16 absolute.
    """
    t = np.asarray(x, dtype=np.float64) / np.sqrt(2.0)
    erf = np.fromiter(map(math.erf, t.ravel().tolist()), np.float64, t.size).reshape(t.shape)
    out = 0.5 * (1.0 + erf)
    if np.isscalar(x):
        return float(out)
    return out


@dataclass(frozen=True)
class DgpConfig:
    n: int
    regime: str
    kappa: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2 (sd of alpha is undefined below that)")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError("kappa must be finite and > 0")


@dataclass(frozen=True)
class DgpSample:
    """One realized draw, with every latent truth kept for evaluation."""

    X: np.ndarray
    u: np.ndarray
    Z: np.ndarray
    Y: np.ndarray
    alpha_true: np.ndarray
    beta_true: np.ndarray
    pi_true: np.ndarray
    sigma: float

    @property
    def n(self) -> int:
        return self.X.shape[0]


def gen_covariates(n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw the n x 5 covariate matrix and the aligned uniform vector u.

    Columns 1-3 are standard normal, column 4 is binomial(2, 1/2) on
    {0, 1, 2}, column 5 is Bernoulli(1/2). Deterministic in seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    X = np.empty((n, N_COVARIATES), dtype=np.float64)
    X[:, 0:3] = rng.standard_normal((n, 3))
    X[:, 3] = rng.binomial(2, 0.5, size=n)
    X[:, 4] = rng.binomial(1, 0.5, size=n)
    u = rng.random(n)
    return X, u


def _check_design(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != N_COVARIATES:
        raise ValueError(f"X must have {N_COVARIATES} columns")
    return X


def true_beta(X: np.ndarray, regime: str) -> np.ndarray:
    """Treatment-effect surface: 0.20 (small) or 5.00 (large) + 0.5*X1*X4."""
    X = _check_design(X)
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    base = 0.20 if regime == "small" else 5.0
    return base + 0.5 * X[:, 0] * X[:, 3]


def true_alpha(X: np.ndarray) -> np.ndarray:
    """Prognostic surface: 0.5*cos(2*X1) + 0.95*|X3*X5| - 0.2*X2 + 1.5."""
    X = _check_design(X)
    return 0.5 * np.cos(2.0 * X[:, 0]) + 0.95 * np.abs(X[:, 2] * X[:, 4]) - 0.2 * X[:, 1] + 1.5


def true_pi(alpha: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Propensity under targeted selection.

    alpha is standardized by its own sample standard deviation (ddof=1),
    shifted by -3.5 and pushed through the normal CDF, so the result lies
    strictly inside (0.10, 0.90).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if alpha.size < 2:
        raise ValueError("alpha needs at least 2 entries for a standard deviation")
    if alpha.shape != u.shape:
        raise ValueError("alpha and u must be aligned")
    s = alpha.std(ddof=1)
    if s == 0.0:
        raise ValueError("alpha has zero variance")
    return 0.70 * norm_cdf(alpha / s - 3.5) + u / 10.0 + 0.10


def draw_z(rng: np.random.Generator, pi: np.ndarray) -> np.ndarray:
    """Treatment draw from rng: Z_i = 1 with probability pi_i (float64 0/1)."""
    return (rng.random(pi.shape) < pi).astype(np.float64)


def draw_y(rng: np.random.Generator, alpha, beta, Z, kappa: float) -> tuple[np.ndarray, float]:
    """(Y, sigma): Y = alpha + beta * Z + sigma * eps, eps ~ N(0, 1) from
    rng, sigma = sd(alpha) * kappa (ddof=1)."""
    sigma = float(alpha.std(ddof=1) * kappa)
    eps = rng.standard_normal(alpha.shape)
    return alpha + beta * Z + sigma * eps, sigma


def draw_outcome(
    X: np.ndarray, u: np.ndarray, regime: str, kappa: float, seed
) -> DgpSample:
    """Draw treatment and outcome on a fixed (X, u) design.

    Z, then the noise eps, come from one generator seeded by seed; alpha,
    beta, and pi are deterministic functions of the design.
    """
    X = _check_design(X)
    alpha = true_alpha(X)
    beta = true_beta(X, regime)
    pi = true_pi(alpha, u)
    rng = np.random.default_rng(seed)
    Z = draw_z(rng, pi)
    Y, sigma = draw_y(rng, alpha, beta, Z, kappa)
    return DgpSample(X, np.asarray(u, dtype=np.float64), Z, Y, alpha, beta, pi, sigma)


def sample_dgp(cfg: DgpConfig) -> DgpSample:
    """One full draw of the generating process, deterministic in cfg.seed."""
    design_seed, outcome_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    X, u = gen_covariates(cfg.n, design_seed)
    return draw_outcome(X, u, cfg.regime, cfg.kappa, outcome_seed)


SAMPLE_CSV_COLUMNS = (
    "x1", "x2", "x3", "x4", "x5", "u", "z", "y", "alpha", "beta", "pi", "sigma",
)


def write_sample_csv(sample: DgpSample, path) -> None:
    """Dump a sample for external verification, one row per unit."""
    truth = (sample.alpha_true, sample.beta_true, sample.pi_true, np.full(sample.n, sample.sigma))
    data = np.column_stack((sample.X, sample.u, sample.Z, sample.Y, *truth))
    write_csv(path, SAMPLE_CSV_COLUMNS, data.tolist())


def read_sample_csv(path) -> DgpSample:
    """Inverse of write_sample_csv; raises ValueError on a malformed file."""
    rows = read_csv(path, SAMPLE_CSV_COLUMNS)
    if not rows:
        raise ValueError("line 2: no data rows")
    data = np.asarray([[float(v) for v in row] for row in rows], dtype=np.float64)
    u, Z, Y, alpha, beta, pi, sigma = data[:, 5:].T
    return DgpSample(data[:, :5], u, Z, Y, alpha, beta, pi, float(sigma[0]))
