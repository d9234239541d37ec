"""A seeded generated bundle, pinned by digest.

The golden fixture is too small for any tail fit to succeed, so this test
pins bundles large enough that every fit reads ``ok``: a two-release corpus
pair and a four-release facts history (facts files written by ``extract``),
both from the benchmark's generator at seed 11. The inputs are pinned first,
so a change in the generator is named as the cause before the bundles are
compared.
"""

import hashlib
import importlib.util
import pathlib

import pytest

from faultgraph.cli import main

GEN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
SEED = 11
INPUTS_SHA256 = "3bc6d32082ab1eb928c17aba98fa579c7f7c51c9b24e187eb4131b9529e95ffa"
BUNDLES_SHA256 = "479a657c547b034fef81442263d0b9b357c52128648eb06b9c4501830ed4bf63"


def digest(roots: list[pathlib.Path]) -> str:
    """SHA-256 over every file's path relative to its root and its bytes."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("faultgraph_bench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    root = tmp_path_factory.mktemp("generated")
    pair, history = root / "pair", root / "history"
    gen.report_inputs(pair, SEED, 2, 200, 800, 0.10, 0.30, 0.02, "corpus")
    gen.report_inputs(history, SEED, 4, 120, 800, 0.05, 0.30, 0.03, "facts")
    return pair, history


def test_generated_bundles_match_their_pinned_digest(generated, tmp_path, capsys):
    pair, history = generated
    assert digest([pair, history]) == INPUTS_SHA256, "the generator's output changed"
    assert main(["extract", "--config", str(history / "config.json"), "--out", str(history / "facts")]) == 0
    bundles = [tmp_path / "pair", tmp_path / "history"]
    assert main(["report", "--config", str(pair / "config.json"), "--out", str(bundles[0])]) == 0
    assert main(["report", "--config", str(history / "report.json"), "--out", str(bundles[1])]) == 0
    capsys.readouterr()
    fits = [
        line.split("\t")[2]
        for bundle in bundles
        for path in sorted(bundle.glob("tailfit-*.tsv"))
        for line in path.read_text().splitlines()[1:]
    ]
    assert fits == ["ok"] * 54
    assert digest(bundles) == BUNDLES_SHA256
