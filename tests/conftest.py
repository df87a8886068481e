import numpy as np
import pytest

from clarkekit import RobotDesign, builtin_designs

# the error of a design whose length or a distance leaves [1e-6, 1e3] m
RANGE_MESSAGE = "the segment length and center-line distances must lie in [1e-06, 1000] m"


@pytest.fixture(scope="session")
def designs():
    return builtin_designs()


@pytest.fixture(scope="session")
def robot_0(designs):
    return designs["robot_0"]


@pytest.fixture(scope="session")
def robot_A(designs):
    return designs["robot_A"]


@pytest.fixture(scope="session")
def robot_B(designs):
    return designs["robot_B"]


@pytest.fixture(scope="session")
def robot_D(designs):
    return designs["robot_D"]


def random_design(rng, n=None, name="random"):
    """Random non-degenerate design: n in [3, 16], uniform angles, distances
    in 1..20 mm.  Redraws the rare angle sets that fail the conditioning gate."""
    from clarkekit import CONDITION_LIMIT, gram_condition

    while True:
        joints = int(n if n is not None else rng.integers(3, 17))
        design = RobotDesign(name=name,
                             psi=rng.uniform(0.0, 2.0 * np.pi, joints),
                             d=rng.uniform(1e-3, 20e-3, joints),
                             l=float(rng.uniform(0.05, 0.3)))
        if gram_condition(design) < CONDITION_LIMIT:
            return design
