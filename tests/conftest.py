import dataclasses

import numpy as np
import pytest

from ricensim import SimParams, VariantConfig


@pytest.fixture(scope="session")
def default_params() -> SimParams:
    return SimParams()


@pytest.fixture(scope="session")
def baseline() -> VariantConfig:
    return VariantConfig()


@pytest.fixture
def small_params() -> SimParams:
    """A 4-region world for fast engine tests."""
    return SimParams(n_regions=4)


def symmetric_world(world, capital=80.0, labor=10.0, productivity=3.0, intensity=0.3):
    """Overwrite a freshly reset world with identical regions, for tests of
    symmetry properties. The rates go through the constants' constructor,
    which derives the growth factors from them."""
    n = world.n_regions
    world.capital = np.full(n, capital)
    world.labor = np.full(n, labor)
    world.productivity = np.full(n, productivity)
    world.intensity = np.full(n, intensity)
    world.mitigation_prev = np.zeros(n)
    world.balance = np.zeros(n)
    world.constants = dataclasses.replace(
        world.constants,
        theta1=np.full(n, 0.03),
        productivity_growth=np.full(n, 0.01),
        labor_growth=np.full(n, 0.005),
        intensity_decline=np.full(n, 0.007),
    )
    return world
