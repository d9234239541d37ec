import pytest

from faultgraph.errors import FormatError
from faultgraph.javaparse import parse_compilation_unit, parse_corpus_dir
from faultgraph.resolve import resolve_type_references


def corpus(*sources):
    return [parse_compilation_unit(text, path) for path, text in sources]


def test_same_package_rule():
    rc = resolve_type_references(
        corpus(
            ("p/Main.java", "package p;\nclass Main {\n    B b;\n}\n"),
            ("p/B.java", "package p;\nclass B {\n    void x() {}\n}\n"),
        )
    )
    main = rc.classes[("p/Main.java", "Main")]
    assert main.composes == {("p/B.java", "B")}


def test_unmatched_qualified_name_is_external():
    rc = resolve_type_references(
        corpus(
            (
                "p/Main.java",
                "package p;\nimport java.util.List;\nclass Main {\n    void m() {\n        List<Item> xs = null;\n    }\n}\n",
            ),
        )
    )
    main = rc.classes[("p/Main.java", "Main")]
    assert main.depends == frozenset()


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
    main = rc.classes[("m/Main.java", "Main")]
    assert main.composes == {("a/Shape.java", "Shape")}


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
    main = rc.classes[("m/Main.java", "Main")]
    assert main.composes == frozenset()


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
    assert unique.classes[("m/One.java", "One")].composes == {("a/Shape.java", "Shape")}
    ambiguous = resolve_type_references(
        corpus(
            ("m/Two.java", "package m;\nimport a.*;\nimport b.*;\nclass Two {\n    Shape s;\n}\n"),
            *sources,
        )
    )
    assert ambiguous.classes[("m/Two.java", "Two")].composes == frozenset()


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
    main = rc.classes[("p/Main.java", "Main")]
    assert main.composes == {("p/Main.java", "Helper")}


def test_ambiguous_same_package_name_logged_and_resolved_by_path_order(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="faultgraph.resolve"):
        rc = resolve_type_references(
            corpus(
                ("p/Main.java", "package p;\nclass Main {\n    Shape s;\n}\n"),
                ("p/Zed.java", "package p;\nclass Shape {\n void z() {}\n}\n"),
                ("p/A.java", "package p;\nclass Shape {\n void a() {}\n}\n"),
            )
        )
    main = rc.classes[("p/Main.java", "Main")]
    assert main.composes == {("p/A.java", "Shape")}  # lexicographically first CU wins
    assert any("ambiguous" in rec.message for rec in caplog.records)


def test_duplicate_paths_rejected():
    cu = parse_compilation_unit("package p;\nclass A {\n void m() {}\n}\n", "p/A.java")
    with pytest.raises(FormatError):
        resolve_type_references([cu, cu])


def test_resolution_never_leaves_corpus(corpus_r1_dir):
    facts, _ = parse_corpus_dir(corpus_r1_dir)
    rc = resolve_type_references(facts)
    ids = set(rc.classes)
    for resolved in rc.classes.values():
        assert resolved.inherits <= ids
        assert resolved.composes <= ids
        assert resolved.depends <= ids


def test_resolution_is_independent_of_input_order(corpus_r1_dir):
    facts, _ = parse_corpus_dir(corpus_r1_dir)
    a = resolve_type_references(facts)
    b = resolve_type_references(list(reversed(facts)))
    assert a == b
    assert list(a.classes) == list(b.classes)


def test_fixture_resolution_matches_hand_oracle(corpus_r1_dir):
    facts, _ = parse_corpus_dir(corpus_r1_dir)
    rc = resolve_type_references(facts)
    alpha = rc.classes[("app/Alpha.java", "Alpha")]
    assert alpha.inherits == {("app/Base.java", "Base"), ("app/Runner.java", "Runner")}
    assert alpha.composes == {("lib/Util.java", "Util")}
    assert alpha.depends == {("lib/Util.java", "Util")}
    base = rc.classes[("app/Base.java", "Base")]
    assert base.depends == frozenset()  # Logger is external
    util = rc.classes[("lib/Util.java", "Util")]
    assert util.depends == {("lib/Util.java", "Text")}


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
    main = rc.classes[("m/Main.java", "Main")]
    base, c = ("q/Base.java", "Base"), ("q/r/C.java", "C")
    assert main.inherits == {base}
    assert main.composes == {c}
    # x.y.Z names no corpus class, so its call stays external
    assert main.depends == {base, c}
    (m,) = main.facts.methods
    assert m.external_calls == {("q.r.C", "go"), ("x.y.Z", "run")}
