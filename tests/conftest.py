"""Shared environment builders for the test suite."""

import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from bpire import (
    PROMOTION_THRESHOLD,
    EnvAtom,
    EnvironmentModel,
    NoImmigration,
    PoissonImmigration,
    ShiftedPoisson,
)
from bpire.trajectory import _EnvTables, _population


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


def make_skewed_env() -> EnvironmentModel:
    """Two-point environment with offspring means 2 (prob .75) and 8
    (prob .25): the log-means are in exact ratio 1:3, so the step law of the
    associated walk is lattice."""
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


def one_generation_totals(law, z: int, master_seed: int, draws: int) -> np.ndarray:
    """``draws`` successive offspring totals of ``z`` individuals under
    ``law``, each one exact generation of the simulator's own step, drawn
    on demand from the Philox stream ``(master_seed, 0)``."""
    tab = one_atom_tables(law)
    gen = Generator(Philox(key=[master_seed, 0]))
    return np.array([
        round(math.exp(_population(z, gen, [0], [0.0], [0], tab, PROMOTION_THRESHOLD, [1])[0]))
        for _ in range(draws)
    ])


@pytest.fixture
def env_a() -> EnvironmentModel:
    return make_env_a(immigration=True)


@pytest.fixture
def env_a_pure() -> EnvironmentModel:
    return make_env_a(immigration=False)


@pytest.fixture
def skewed_env() -> EnvironmentModel:
    return make_skewed_env()
