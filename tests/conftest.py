import importlib
import pathlib
import pkgutil

import pytest
from hypothesis import HealthCheck, settings

import faultgraph

# Every run draws the same examples and keeps no example database, and no
# health check times how fast they are drawn, so neither the run, a
# left-over .hypothesis/ directory nor the speed of the host decides a
# verdict. too_slow is the one timing-based health check.
settings.register_profile(
    "deterministic", derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("deterministic")

# Hypothesis draws about one choice in twenty from a pool of constants that
# it reads from every module loaded from outside a tests directory, adding a
# module's constants once it is loaded. Loading every faultgraph module here,
# before any test runs, keeps a test's examples from depending on which
# modules the tests before it loaded. The pool still changes whenever src/
# gains or loses a string constant, so a pinned set of inputs must not be
# drawn by Hypothesis (see test_parser.py).
for module in pkgutil.iter_modules(faultgraph.__path__):
    importlib.import_module(f"faultgraph.{module.name}")

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
