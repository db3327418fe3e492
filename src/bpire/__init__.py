"""Simulation and statistical verification toolkit for branching processes
with immigration in an i.i.d. random environment.

The package simulates supercritical branching populations whose offspring
and immigration laws are redrawn every generation from a finite-atom
environment, and provides Monte Carlo estimators for the fine structure of
the central limit theorem satisfied by ``log Z_n``: empirical CDF deviation
curves against the Gaussian limit, Edgeworth-type correction predictions,
Berry-Esseen-style sup distances, martingale-limit estimation and moment
stability diagnostics.

The public names below are imported from their module on first access, so
``import bpire`` and ``import bpire.trajectory`` load only the modules
they use.
"""

import importlib

__version__ = "0.1.0"

# The names the README and the tests import from the package (the command
# line imports only ``__version__``), by module; everything else is imported
# from its module.
_PUBLIC = {
    "env_model": (
        "EnvAtom",
        "EnvironmentModel",
        "GeometricImmigration",
        "NoImmigration",
        "PoissonImmigration",
        "ShiftedGeometric",
        "ShiftedPoisson",
        "MomentSummary",
        "lattice_span",
        "log_mean_moments",
        "validate",
    ),
    "sampler": ("PROMOTION_THRESHOLD",),
    "trajectory": ("simulate_batch", "simulate_walk_batch"),
    "analytics": (
        "SeriesDivergence",
        "edgeworth_q",
        "hypothesis_report",
        "limit_curve",
        "std_normal_cdf",
        "std_normal_pdf",
    ),
    "mc_verify": (
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
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
