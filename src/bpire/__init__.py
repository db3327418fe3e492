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
    LatticeDiagnostic,
    NoImmigration,
    PoissonImmigration,
    ShiftedGeometric,
    ShiftedPoisson,
    ValidationReport,
    mean_offspring,
    non_lattice_heuristic,
    validate,
)
from .sampler import PROMOTION_THRESHOLD, RngStream
from .trajectory import (
    BatchResult,
    Trajectory,
    WalkBatch,
    simulate_batch,
    simulate_path,
    simulate_walk_batch,
)
from .analytics import (
    HypothesisReport,
    MomentSummary,
    SeriesDivergence,
    edgeworth_q,
    hypothesis_report,
    limit_curve,
    log_mean_moments,
    std_normal_cdf,
    std_normal_pdf,
)
from .mc_verify import (
    BerryEsseenResult,
    DecaySeries,
    ElogWConfig,
    ElogWEstimate,
    EmpiricalCdf,
    LaplaceResult,
    MomentStabilityResult,
    RateCurve,
    RatePoint,
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

__all__ = [
    "EnvAtom",
    "EnvironmentModel",
    "GeometricImmigration",
    "LatticeDiagnostic",
    "NoImmigration",
    "PoissonImmigration",
    "ShiftedGeometric",
    "ShiftedPoisson",
    "ValidationReport",
    "mean_offspring",
    "non_lattice_heuristic",
    "validate",
    "PROMOTION_THRESHOLD",
    "RngStream",
    "BatchResult",
    "Trajectory",
    "WalkBatch",
    "simulate_batch",
    "simulate_path",
    "simulate_walk_batch",
    "HypothesisReport",
    "MomentSummary",
    "SeriesDivergence",
    "edgeworth_q",
    "hypothesis_report",
    "limit_curve",
    "log_mean_moments",
    "std_normal_cdf",
    "std_normal_pdf",
    "BerryEsseenResult",
    "DecaySeries",
    "ElogWConfig",
    "ElogWEstimate",
    "EmpiricalCdf",
    "LaplaceResult",
    "MomentStabilityResult",
    "RateCurve",
    "RatePoint",
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
    "__version__",
]
