import pathlib

import pytest
from hypothesis import settings

# Every run draws the same examples and keeps no example database, so
# neither the run nor a left-over .hypothesis/ directory decides a verdict.
settings.register_profile("deterministic", derandomize=True, database=None)
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
