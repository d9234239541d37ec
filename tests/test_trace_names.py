"""Every name the benchmark's tracer wraps must exist.

``perfbench/tracing.py`` rebinds each name in ``WRAPPED`` with ``getattr``,
so a renamed or deleted function would break a ``--trace 1`` benchmark run.
The tracing module is loaded by path; importing it does not import faultgraph.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrapped_names():
    spec = importlib.util.spec_from_file_location("faultgraph_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(layer, qual) for layer, names in tracing.WRAPPED.items() for qual in names]


@pytest.mark.parametrize("layer, qual", wrapped_names())
def test_traced_name_resolves(layer, qual):
    target = importlib.import_module(f"faultgraph.{layer}")
    for part in qual.split("."):
        assert hasattr(target, part), f"faultgraph.{layer}.{qual}"
        target = getattr(target, part)
    assert callable(target)
