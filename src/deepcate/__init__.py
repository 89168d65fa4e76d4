"""deepcate: neural-network and linear estimators of heterogeneous
treatment effects, plus a targeted-selection simulation benchmark.

Names are reached through their modules (`deepcate.models.fit_bcf`, ...)."""

from . import dgp, harness, metrics, models, nn

__version__ = "0.1.0"
