import shutil
import tempfile

import pytest
from hypothesis import configuration

from wsnsim import FieldConfig, RadioParams


def pytest_configure(config):
    # Hypothesis caches the constants it reads from the sources under its
    # home directory, `.hypothesis/` in the working directory by default,
    # at collection time; a test run leaves nothing in the checkout.
    config.hypothesis_home = tempfile.mkdtemp(prefix="wsnsim-hypothesis-")
    configuration.set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


@pytest.fixture
def radio():
    """Radio constants used in the worked numeric examples (0.5 nJ/bit electronics)."""
    return RadioParams(elec_energy_per_bit=0.5e-9, fs_amp=10e-12,
                       mp_amp=0.0013e-12, aggregation_energy_per_bit=5e-9,
                       packet_bits=4000)


@pytest.fixture
def field():
    return FieldConfig()
