import pathlib

import pytest
from hypothesis import HealthCheck, settings

# Every run draws the same examples and keeps no example database, and no
# health check times how fast they are drawn, so neither the run, a
# left-over .hypothesis/ directory nor the speed of the host decides a
# verdict. too_slow is the one timing-based health check.
settings.register_profile(
    "deterministic", derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("deterministic")

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def corpus_r1_dir() -> pathlib.Path:
    return FIXTURES / "corpus_r1"


@pytest.fixture(scope="session")
def corpus_r2_dir() -> pathlib.Path:
    return FIXTURES / "corpus_r2"
