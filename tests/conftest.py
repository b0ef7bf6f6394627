import os
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from squintsim import CircuitParams

# hypothesis caches constants collected from the source even without an
# example database; keep that cache out of the checkout
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "squintsim-hypothesis"))


@pytest.fixture
def params() -> CircuitParams:
    return CircuitParams()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)
