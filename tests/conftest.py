import math

import numpy as np
import pytest

from ricensim import SimParams, VariantConfig
from ricensim.engine import episode_constants


def _dispatch_class() -> str:
    """Whose rounding numpy's float64 array ``**``, ``log`` and ``exp``
    follow on this host: ``"avx512"`` where numpy evaluates them with its
    AVX-512 loops, ``"libm"`` where it returns the C library's bits (hosts
    without AVX-512, or numpy run under
    ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``). It is read
    from the bits themselves: the AVX-512 power rounds this operand one ulp
    below ``math.pow``'s. (``__cpu_features__["AVX512F"]`` stays True under
    that setting, so it cannot tell the two apart.)"""
    x = float.fromhex("0x1.b300cd36cd97dp+6")
    return "libm" if float((np.array([x]) ** 0.3)[0]) == math.pow(x, 0.3) else "avx512"


#: The dispatch class that picks each golden's value in tests/test_engine.py
#: and tests/test_cli.py.
DISPATCH = _dispatch_class()


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
    symmetry properties. Its constants are ``episode_constants`` of regions
    with these initial values and one set of rates."""
    n = world.n_regions
    world.capital = np.full(n, capital)
    world.mitigation_prev = np.zeros(n)
    world.balance = np.zeros(n)
    c = world.constants
    world.constants = episode_constants(c.params, c.variant, c.seed, {
        "labor": np.full(n, labor),
        "productivity": np.full(n, productivity),
        "intensity": np.full(n, intensity),
        "theta1": np.full(n, 0.03),
        "productivity_growth": np.full(n, 0.01),
        "labor_growth": np.full(n, 0.005),
        "intensity_decline": np.full(n, 0.007),
    })
    return world
