"""Shared environment builders for the test suite."""

import numpy as np
import pytest
from numpy.random import Generator, Philox

from bpire import (
    PROMOTION_THRESHOLD,
    EnvAtom,
    EnvironmentModel,
    GeometricImmigration,
    NoImmigration,
    PoissonImmigration,
    ShiftedGeometric,
    ShiftedPoisson,
)
from bpire.trajectory import _EnvTables, _Population

#: The variables through which numpy's BLAS builds read their thread count,
#: which the command line pins to one when it is imported before numpy.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def make_env_a(immigration: bool = True) -> EnvironmentModel:
    """Two-atom reference environment: offspring means 2 and 3 with equal
    probability, unit-mean Poisson immigration on both atoms (or none)."""
    imm = PoissonImmigration(nu=1.0) if immigration else NoImmigration()
    return EnvironmentModel(
        atoms=(
            EnvAtom(offspring=ShiftedPoisson(lam=1.0), immigration=imm, prob=0.5),
            EnvAtom(offspring=ShiftedPoisson(lam=2.0), immigration=imm, prob=0.5),
        )
    )


def make_mixed_env() -> EnvironmentModel:
    """The golden tests' mixed environment: geometric offspring (q = .4) with
    geometric immigration (s = .5) w.p. .3, shifted Poisson offspring
    (lam = 1) with Poisson immigration (nu = 2) w.p. .7."""
    return EnvironmentModel(
        atoms=(
            EnvAtom(
                offspring=ShiftedGeometric(q=0.4),
                immigration=GeometricImmigration(s=0.5),
                prob=0.3,
            ),
            EnvAtom(
                offspring=ShiftedPoisson(lam=1.0),
                immigration=PoissonImmigration(nu=2.0),
                prob=0.7,
            ),
        )
    )


def without_immigration(env: EnvironmentModel) -> EnvironmentModel:
    """``env`` with every atom's immigration law replaced by none."""
    return EnvironmentModel(
        atoms=tuple(
            EnvAtom(offspring=a.offspring, immigration=NoImmigration(), prob=a.prob)
            for a in env.atoms
        )
    )


def make_skewed_env() -> EnvironmentModel:
    """Two-point environment with offspring means 2 (prob .75) and 8
    (prob .25): the step law of the associated walk is lattice, with span
    log 4."""
    return EnvironmentModel(
        atoms=(
            EnvAtom(
                offspring=ShiftedPoisson(lam=1.0),
                immigration=NoImmigration(),
                prob=0.75,
            ),
            EnvAtom(
                offspring=ShiftedPoisson(lam=7.0),
                immigration=NoImmigration(),
                prob=0.25,
            ),
        )
    )


def one_atom_tables(offspring, immigration=NoImmigration()) -> _EnvTables:
    """Simulator tables of the environment whose only atom has these laws."""
    return _EnvTables(
        EnvironmentModel(atoms=(EnvAtom(offspring=offspring, immigration=immigration, prob=1.0),))
    )


class _PresetNormals:
    """Stands in for a population's normal generator: every normal it hands
    out is ``g``."""

    g = 0.0

    def standard_normal(self, size: int) -> np.ndarray:
        return np.full(size, self.g)


def population_path(z, gen, idx_l, g_l, y_l, tab, threshold, rec) -> list[float]:
    """Log sizes at the generations ``rec`` of one population of ``z``
    individuals grown by the simulator's array step in a one-column chunk:
    step k uses atom ``idx_l[k]``, normal ``g_l[k]`` (if the column is in
    log space) and ``y_l[k]`` immigrants, and exact-regime draws come from
    ``gen``."""
    normals = _PresetNormals()
    pop = _Population(z, 1, tab, threshold, gen, normals)
    out = []
    for k in range(rec[-1]):
        idx = np.array([idx_l[k]])
        normals.g = g_l[k]
        pop.step(idx, tab.logm[idx], np.array([y_l[k]]))
        if k + 1 in rec:
            out.append(float(pop.log_size()[0]))
    return out


def one_generation_totals(law, z: int, master_seed: int, draws: int) -> np.ndarray:
    """``draws`` offspring totals of ``z`` individuals under ``law``: one
    exact generation of the simulator's own step over ``draws`` columns,
    drawn from the Philox stream ``(master_seed, 0)``."""
    gen = Generator(Philox(key=[master_seed, 0]))
    pop = _Population(z, draws, one_atom_tables(law), PROMOTION_THRESHOLD, gen, gen)
    idx = np.zeros(draws, dtype=np.int64)
    pop.step(idx, pop.tab.logm[idx], None)
    return pop.z.copy()


@pytest.fixture
def env_a() -> EnvironmentModel:
    return make_env_a(immigration=True)


@pytest.fixture
def env_a_pure() -> EnvironmentModel:
    return make_env_a(immigration=False)


@pytest.fixture
def skewed_env() -> EnvironmentModel:
    return make_skewed_env()
