import math
import random

import pytest

import phasetrack as pt


@pytest.fixture(scope="session")
def scenario_cfg():
    return pt.TrafficLightConfig()


@pytest.fixture(scope="session")
def laws(scenario_cfg):
    """Traffic-light laws: v_f = (1 - rho)/20, p = rho^2, marker band swapped
    back into the admissible order, V_c = 0.02."""
    lw, _ = pt.build_scenario(scenario_cfg)
    return lw


@pytest.fixture(scope="session")
def flat_laws():
    """Constant free speed (the linearly degenerate free field)."""
    vf = pt.LinearFreeSpeed(0.05, math.inf)
    p = pt.PowerPressure(2.0)
    return pt.validate_laws(vf, p, 0.3, 0.35, 0.02)


@pytest.fixture(scope="session")
def mesh5(laws):
    return pt.GridMesh(laws, 5)


@pytest.fixture(scope="session")
def flat_mesh5(flat_laws):
    return pt.GridMesh(flat_laws, 5)


@pytest.fixture()
def rng():
    return random.Random(20260809)
