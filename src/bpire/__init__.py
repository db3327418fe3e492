"""Simulation and statistical verification toolkit for branching processes
with immigration in an i.i.d. random environment.

The package simulates supercritical branching populations whose offspring
and immigration laws are redrawn every generation from a finite-atom
environment, and provides Monte Carlo estimators for the fine structure of
the central limit theorem satisfied by ``log Z_n``: empirical CDF deviation
curves against the Gaussian limit, Edgeworth-type correction predictions,
Berry-Esseen-style sup distances, martingale-limit estimation and moment
stability diagnostics.
"""

from .env_model import (
    EnvAtom,
    EnvironmentModel,
    GeometricImmigration,
    NoImmigration,
    PoissonImmigration,
    ShiftedGeometric,
    ShiftedPoisson,
    MomentSummary,
    log_mean_moments,
    non_lattice_heuristic,
    validate,
)
from .sampler import PROMOTION_THRESHOLD
from .trajectory import simulate_batch, simulate_walk_batch
from .analytics import (
    SeriesDivergence,
    edgeworth_q,
    hypothesis_report,
    limit_curve,
    std_normal_cdf,
    std_normal_pdf,
)
from .mc_verify import (
    ElogWConfig,
    berry_esseen_sup,
    berry_esseen_sup_from_samples,
    clt_rate_experiment,
    empirical_cdf,
    estimate_elogw,
    increment_decay,
    laplace_decay,
    moment_stability,
    rate_curve_from_samples,
    walk_oracle_rate,
)

__version__ = "0.1.0"

# The names the README and the tests import from the package (the command
# line imports only ``__version__``); everything else is imported from its
# module.
__all__ = [
    "EnvAtom",
    "EnvironmentModel",
    "GeometricImmigration",
    "NoImmigration",
    "PoissonImmigration",
    "ShiftedGeometric",
    "ShiftedPoisson",
    "non_lattice_heuristic",
    "validate",
    "PROMOTION_THRESHOLD",
    "simulate_batch",
    "simulate_walk_batch",
    "MomentSummary",
    "SeriesDivergence",
    "edgeworth_q",
    "hypothesis_report",
    "limit_curve",
    "log_mean_moments",
    "std_normal_cdf",
    "std_normal_pdf",
    "ElogWConfig",
    "berry_esseen_sup",
    "berry_esseen_sup_from_samples",
    "clt_rate_experiment",
    "empirical_cdf",
    "estimate_elogw",
    "increment_decay",
    "laplace_decay",
    "moment_stability",
    "rate_curve_from_samples",
    "walk_oracle_rate",
]
