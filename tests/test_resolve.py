import json
import logging
import os
import pathlib
import subprocess
import sys
import time

import pytest

from faultgraph.errors import FormatError
from faultgraph.facts import ClassFacts, CUFacts
from faultgraph.javaparse import parse_compilation_unit, parse_corpus_dir
from faultgraph.resolve import COMPOSITION, DEPENDENCE, INHERITANCE, resolve_type_references


def corpus(*sources):
    return [parse_compilation_unit(text, path) for path, text in sources]


def targets(rc, cid, kind):
    """The classes that ``cid``, a corpus class, has an edge of ``kind`` to."""
    assert cid in rc.classes
    return {tgt for src, tgt, k in rc.edges if src == cid and k == kind}


def test_same_package_rule():
    rc = resolve_type_references(
        corpus(
            ("p/Main.java", "package p;\nclass Main {\n    B b;\n}\n"),
            ("p/B.java", "package p;\nclass B {\n    void x() {}\n}\n"),
        )
    )
    main = ("p/Main.java", "Main")
    assert targets(rc, main, COMPOSITION) == {("p/B.java", "B")}


def test_unmatched_qualified_name_is_external():
    rc = resolve_type_references(
        corpus(
            (
                "p/Main.java",
                "package p;\nimport java.util.List;\nclass Main {\n    void m() {\n        List<Item> xs = null;\n    }\n}\n",
            ),
        )
    )
    main = ("p/Main.java", "Main")
    assert targets(rc, main, DEPENDENCE) == set()


def test_first_matching_explicit_import_wins():
    rc = resolve_type_references(
        corpus(
            (
                "m/Main.java",
                "package m;\nimport a.Shape;\nimport b.Shape;\nclass Main {\n    Shape s;\n}\n",
            ),
            ("a/Shape.java", "package a;\nclass Shape {\n void a() {}\n}\n"),
            ("b/Shape.java", "package b;\nclass Shape {\n void b() {}\n}\n"),
        )
    )
    main = ("m/Main.java", "Main")
    assert targets(rc, main, COMPOSITION) == {("a/Shape.java", "Shape")}


def test_import_binds_name_even_when_target_not_in_corpus():
    # an explicit import of an external type shadows a same-name corpus class
    # from an unrelated package
    rc = resolve_type_references(
        corpus(
            (
                "m/Main.java",
                "package m;\nimport java.util.List;\nclass Main {\n    List xs;\n}\n",
            ),
            ("q/List.java", "package q;\nclass List {\n void x() {}\n}\n"),
        )
    )
    main = ("m/Main.java", "Main")
    assert targets(rc, main, COMPOSITION) == set()


def test_wildcard_import_resolves_only_unique_package():
    sources = [
        ("a/Shape.java", "package a;\nclass Shape {\n void a() {}\n}\n"),
        ("b/Shape.java", "package b;\nclass Shape {\n void b() {}\n}\n"),
    ]
    unique = resolve_type_references(
        corpus(
            ("m/One.java", "package m;\nimport a.*;\nclass One {\n    Shape s;\n}\n"),
            *sources,
        )
    )
    assert targets(unique, ("m/One.java", "One"), COMPOSITION) == {("a/Shape.java", "Shape")}
    ambiguous = resolve_type_references(
        corpus(
            ("m/Two.java", "package m;\nimport a.*;\nimport b.*;\nclass Two {\n    Shape s;\n}\n"),
            *sources,
        )
    )
    assert targets(ambiguous, ("m/Two.java", "Two"), COMPOSITION) == set()


def test_repeated_wildcard_import_counts_once(caplog):
    with caplog.at_level(logging.WARNING, logger="faultgraph.resolve"):
        rc = resolve_type_references(
            corpus(
                ("b/Y.java", "package b;\nimport a.*;\nimport a.*;\nclass Y {\n    X x;\n}\n"),
                ("a/X.java", "package a;\nclass X {\n void a() {}\n}\n"),
            )
        )
    assert targets(rc, ("b/Y.java", "Y"), COMPOSITION) == {("a/X.java", "X")}
    assert caplog.records == []


def test_resolver_warnings_do_not_depend_on_the_hash_seed(tmp_path):
    # three field types and two names used only in a method body, each
    # declared in two CUs of the class's own package
    corpus_dir = tmp_path / "corpus" / "p"
    corpus_dir.mkdir(parents=True)
    (corpus_dir / "Main.java").write_text(
        "package p;\nclass Main {\n    Alpha a;\n    Beta b;\n    Gamma g;\n"
        "    void m() {\n        Delta d = null;\n        Epsilon.run();\n    }\n}\n"
    )
    twin = "package p;\n" + "".join(f"class {n} {{\n}}\n" for n in ("Alpha", "Beta", "Gamma", "Delta", "Epsilon"))
    (corpus_dir / "One.java").write_text(twin)
    (corpus_dir / "Two.java").write_text(twin)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"releases": [{"tag": "r1", "corpus": "corpus"}]}))
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    run = "import sys, faultgraph.cli\nsys.exit(faultgraph.cli.main(sys.argv[1:]))\n"
    stderrs = set()
    for seed in range(4):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": str(seed)}
        argv = ["graph", "--config", str(cfg), "--out", str(tmp_path / f"out{seed}")]
        done = subprocess.run([sys.executable, "-c", run, *argv], env=env, capture_output=True, text=True, check=True)
        assert done.stderr.count("ambiguous class") == 5
        stderrs.add(done.stderr)
    assert len(stderrs) == 1


def test_same_cu_beats_same_package():
    rc = resolve_type_references(
        corpus(
            (
                "p/Main.java",
                "package p;\nclass Main {\n    Helper h;\n}\nclass Helper {\n void x() {}\n}\n",
            ),
            ("p/Helper.java", "package p;\nclass Helper {\n void y() {}\n}\n"),
        )
    )
    main = ("p/Main.java", "Main")
    assert targets(rc, main, COMPOSITION) == {("p/Main.java", "Helper")}


def test_ambiguous_same_package_name_logged_and_resolved_by_path_order(caplog):
    with caplog.at_level(logging.WARNING, logger="faultgraph.resolve"):
        rc = resolve_type_references(
            corpus(
                ("p/Main.java", "package p;\nclass Main {\n    Shape s;\n}\n"),
                ("p/Zed.java", "package p;\nclass Shape {\n void z() {}\n}\n"),
                ("p/A.java", "package p;\nclass Shape {\n void a() {}\n}\n"),
            )
        )
    main = ("p/Main.java", "Main")
    assert targets(rc, main, COMPOSITION) == {("p/A.java", "Shape")}  # lexicographically first CU wins
    assert any("ambiguous" in rec.message for rec in caplog.records)


def test_duplicate_paths_rejected():
    cu = parse_compilation_unit("package p;\nclass A {\n void m() {}\n}\n", "p/A.java")
    with pytest.raises(FormatError):
        resolve_type_references([cu, cu])


def test_duplicates_among_many_paths_are_found_in_one_pass():
    # p/C20000.java repeats before p/C10000.java does; the message names the smaller one
    paths = [f"p/C{i}.java" for i in range(29_998)] + ["p/C20000.java", "p/C10000.java"]
    cus = [CUFacts(path=p, package="p", classes=(ClassFacts(name="A", kind="class"),), loc=1) for p in paths]
    start = time.monotonic()
    with pytest.raises(FormatError, match="duplicate CU path 'p/C10000.java'"):
        resolve_type_references(cus)
    assert time.monotonic() - start < 5.0


def test_resolution_never_leaves_corpus(corpus_r1_dir):
    facts, _ = parse_corpus_dir(corpus_r1_dir)
    rc = resolve_type_references(facts)
    ids = set(rc.classes)
    for src, tgt, _ in rc.edges:
        assert src in ids and tgt in ids


def test_resolution_is_independent_of_input_order(corpus_r1_dir):
    facts, _ = parse_corpus_dir(corpus_r1_dir)
    a = resolve_type_references(facts)
    b = resolve_type_references(list(reversed(facts)))
    assert a == b
    assert list(a.classes) == list(b.classes)


def test_fixture_resolution_matches_hand_oracle(corpus_r1_dir):
    facts, _ = parse_corpus_dir(corpus_r1_dir)
    rc = resolve_type_references(facts)
    alpha = ("app/Alpha.java", "Alpha")
    assert targets(rc, alpha, INHERITANCE) == {("app/Base.java", "Base"), ("app/Runner.java", "Runner")}
    assert targets(rc, alpha, COMPOSITION) == {("lib/Util.java", "Util")}
    assert targets(rc, alpha, DEPENDENCE) == {("lib/Util.java", "Util")}
    base = ("app/Base.java", "Base")
    assert targets(rc, base, DEPENDENCE) == set()  # Logger is external
    util = ("lib/Util.java", "Util")
    assert targets(rc, util, DEPENDENCE) == {("lib/Util.java", "Text")}


def test_package_qualified_names_bind_to_corpus_classes():
    rc = resolve_type_references(
        corpus(
            (
                "m/Main.java",
                "package m;\n"
                "class Main extends q.Base {\n"
                "    q.r.C c;\n"
                "    void m() {\n"
                "        q.r.C.go();\n"
                "        Object o = new q.Base();\n"
                "        x.y.Z.run();\n"
                "    }\n"
                "}\n",
            ),
            ("q/Base.java", "package q;\nclass Base {\n    void b() {}\n}\n"),
            ("q/r/C.java", "package q.r;\nclass C {\n    void go() {}\n}\n"),
        )
    )
    main = ("m/Main.java", "Main")
    base, c = ("q/Base.java", "Base"), ("q/r/C.java", "C")
    assert targets(rc, main, INHERITANCE) == {base}
    assert targets(rc, main, COMPOSITION) == {c}
    # x.y.Z names no corpus class, so its call stays external
    assert targets(rc, main, DEPENDENCE) == {base, c}
    (m,) = rc.classes[main].methods
    assert m.external_calls == (("q.r.C", "go"), ("x.y.Z", "run"))
