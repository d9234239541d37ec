import hashlib
import importlib.util
import json
import pathlib
import random
import re
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import javaparse_oracle
from faultgraph import javaparse
from faultgraph.errors import ParseError
from faultgraph.facts import CUFacts, dump_facts, scan_source
from faultgraph.javaparse import _END, _IDENT_START, _Parser, parse_compilation_unit, parse_corpus_dir
from java_model import render, units

TESTS = pathlib.Path(__file__).resolve().parent
GEN = TESTS.parent / "perfbench" / "gen.py"
RECORD = TESTS / "fixtures" / "pinned_parses.jsonl"


def parse(text, path="T.java"):
    return parse_compilation_unit(text, path)


def test_declaration_reading():
    cu = parse(
        "package p;\n"
        "class A extends B implements C {\n"
        "    D d;\n"
        "    void m() {\n"
        "        d.run();\n"
        "    }\n"
        "}\n"
    )
    (cls,) = cu.classes
    assert cls.name == "A"
    assert cls.extends == "B"
    assert cls.implements == ("C",)
    assert cls.field_types == ("D",)
    (method,) = cls.methods
    assert method.external_calls == (("D", "run"),)
    assert method.used_fields == ("d",)


def test_two_top_level_classes():
    cu = parse("package p;\nclass A {\n void a() {}\n}\nclass B {\n void b() {}\n}\n")
    assert len(cu.classes) == 2
    assert [c.name for c in cu.classes] == ["A", "B"]


def test_fixture_corpus_matches_hand_built_table(corpus_r1_dir, fixtures_dir):
    facts, failures = parse_corpus_dir(corpus_r1_dir)
    assert failures == []
    got = [json.loads(line) for line in dump_facts(facts).splitlines()]
    expected = json.loads((fixtures_dir / "corpus_r1_expected_facts.json").read_text())
    assert got == expected


def test_generic_supertypes_stripped_to_raw_names():
    cu = parse(
        "package p;\n"
        "class A extends Base<String> implements Comparable<A>, Runner {\n"
        "    void m() {}\n"
        "}\n"
    )
    (cls,) = cu.classes
    assert cls.extends == "Base"
    assert cls.implements == ("Comparable", "Runner")


def test_interface_superinterfaces_and_bodyless_methods():
    cu = parse("package p;\ninterface A extends B, C {\n    void go(int n);\n}\n")
    (cls,) = cu.classes
    assert cls.kind == "interface"
    assert cls.extends is None
    assert cls.implements == ("B", "C")
    assert cls.methods[0].param_types == ("int",)


def test_generics_stripped_to_raw_plus_arguments():
    cu = parse(
        "package p;\n"
        "class A {\n"
        "    List<B> items;\n"
        "    Map<String, C> index;\n"
        "    void m() {\n"
        "        List<D> xs = make();\n"
        "    }\n"
        "}\n"
    )
    (cls,) = cu.classes
    assert sorted(cls.field_types) == ["B", "C", "List", "Map", "String"]
    (m,) = cls.methods
    assert {"List", "D"} <= set(m.referenced_types)


def test_nested_class_is_separate_one_level_deep():
    cu = parse(
        "package p;\n"
        "class Outer {\n"
        "    int a;\n"
        "    class Inner {\n"
        "        void go() {}\n"
        "    }\n"
        "    void top() {}\n"
        "}\n"
    )
    assert [c.name for c in cu.classes] == ["Outer", "Inner"]
    outer, inner = cu.classes
    assert [m.name for m in outer.methods] == ["top"]
    assert [m.name for m in inner.methods] == ["go"]
    # the inner class's lines count for it, not for the outer class
    assert outer.loc == 4  # class line, field, top() line pair, closing brace
    assert inner.loc == 3


# Each code line counts for the last named class, in declaration order,
# whose span holds it, so classes that share a line count it once. Each
# comment gives what a class's span minus its nested classes' spans gives.
SHARED_LINES = {
    # 2, 2: the line of A's '}' and B's head counts in both
    "sibling-after-brace": ("class A {\n} class B {\n}\n", [1, 2], 3),
    # 2, 1
    "annotated-sibling": ("package p ; class A { \n} @ A class F { }", [1, 1], 2),
    # 2, 2, 2: the line C1 and C2 share is taken from P twice, and P loses `int x;`
    "nested-siblings": ("class P {\n  class C1 {\n  } class C2 {\n  }\n  int x;\n}\n", [3, 1, 2], 6),
    # 2, 3: the same
    "nested-on-parent-head": ("class P { class C {\n  int y;\n  }\n  int x;\n}\n", [2, 3], 5),
}


@pytest.mark.parametrize("text, class_locs, loc", SHARED_LINES.values(), ids=SHARED_LINES)
def test_a_line_two_classes_share_counts_once(text, class_locs, loc):
    cu = parse(text)
    assert [c.loc for c in cu.classes] == class_locs and cu.loc == loc


def test_deeper_nesting_folds_into_level_one_class():
    cu = parse(
        "package p;\n"
        "class Outer {\n"
        "    class Mid {\n"
        "        class Leaf {\n"
        "            void deep() {}\n"
        "        }\n"
        "        void mid() {}\n"
        "    }\n"
        "}\n"
    )
    assert [c.name for c in cu.classes] == ["Outer", "Mid"]
    mid = cu.classes[1]
    assert sorted(m.name for m in mid.methods) == ["deep", "mid"]


def test_anonymous_class_folds_into_enclosing_method_scan():
    cu = parse(
        "package p;\n"
        "class A {\n"
        "    void m() {\n"
        "        Runner r = new Runner() {\n"
        "            public void run() {\n"
        "                Helper.go();\n"
        "            }\n"
        "        };\n"
        "    }\n"
        "}\n"
    )
    (cls,) = cu.classes
    (m,) = cls.methods
    assert ("Helper", "go") in m.external_calls
    assert "Runner" in m.referenced_types


def test_static_call_receiver_and_super_call():
    cu = parse(
        "package p;\n"
        "class A extends B {\n"
        "    void m() {\n"
        "        Text.pad(1);\n"
        "        super.close();\n"
        "        this.m();\n"
        "        helper();\n"
        "    }\n"
        "}\n"
    )
    (m,) = cu.classes[0].methods
    assert m.external_calls == (("B", "close"), ("Text", "pad"))


def test_self_static_call_is_not_external():
    cu = parse("package p;\nclass A {\n    void m() {\n        A.make();\n    }\n}\n")
    assert cu.classes[0].methods[0].external_calls == ()


def test_undeclared_lowercase_receiver_is_skipped():
    # the receiver's type cannot be resolved from any declaration, so the
    # call contributes nothing rather than a bogus pair
    cu = parse("package p;\nclass A {\n    void m() {\n        e.run();\n    }\n}\n")
    (m,) = cu.classes[0].methods
    assert m.external_calls == ()
    assert m.referenced_types == ()


def test_field_shadowed_by_parameter_needs_this():
    cu = parse(
        "package p;\n"
        "class A {\n"
        "    int width;\n"
        "    void set(int width) {\n"
        "        this.width = width;\n"
        "    }\n"
        "    int read() {\n"
        "        return width;\n"
        "    }\n"
        "}\n"
    )
    set_m, read_m = cu.classes[0].methods
    assert set_m.used_fields == ("width",)
    assert read_m.used_fields == ("width",)


def test_annotations_are_skipped_everywhere():
    cu = parse(
        "package p;\n"
        "@Deprecated\n"
        "@SuppressWarnings(\"all\")\n"
        "public class A {\n"
        "    @Inject\n"
        "    Util helper;\n"
        "    @Override\n"
        "    public void run(@Nullable Sink target) {\n"
        "        target.write(1);\n"
        "    }\n"
        "}\n"
    )
    (cls,) = cu.classes
    assert cls.field_types == ("Util",)
    (m,) = cls.methods
    assert m.param_types == ("Sink",)
    assert m.external_calls == (("Sink", "write"),)


def test_static_import_contributes_type():
    cu = parse(
        "package p;\n"
        "import static java.lang.Math.max;\n"
        "import static org.junit.Assert.*;\n"
        "class A {\n void m() {}\n}\n"
    )
    assert cu.imports == ("java.lang.Math", "org.junit.Assert")


def test_wildcard_generics_collect_bound_types():
    cu = parse(
        "package p;\n"
        "class A {\n"
        "    List<? extends Shape> shapes;\n"
        "    Map<?, ? super Brush> tools;\n"
        "    void m() {}\n"
        "}\n"
    )
    (cls,) = cu.classes
    assert sorted(cls.field_types) == ["Brush", "List", "Map", "Shape"]


def test_a_failed_type_argument_scan_keeps_the_lists_it_closed():
    # the scan from `a <` reads `List<String>` whole and then fails at `)`;
    # the scan from `List <`, at the next boundary, still succeeds
    cu = parse("class A {\n    void m() {\n        f(a < b, List<String> x);\n    }\n}\n")
    assert cu.classes[0].methods[0].referenced_types == ("List", "String")


def test_unterminated_class_body_is_eof_error():
    with pytest.raises(ParseError):
        parse("package p;\nclass A {\n    void m() {\n")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("package p;\nclass {\n}\n")
    assert err.value.line == 2


def test_unsupported_top_level_construct():
    with pytest.raises(ParseError, match=r"^unsupported top-level construct 'enum' \(line 2, column 1\)$") as err:
        parse("package p;\nenum Color { RED }\n")
    assert (err.value.line, err.value.column) == (2, 1)


# Java 17 constructs outside the subset (ROADMAP item 13): each rejected
# with its message and position.
UNSUPPORTED_CONSTRUCTS = {
    "enum-in-interface": ("package p;\ninterface I {\n  enum E { A }\n}\n", "unsupported declaration 'enum'", 3, 3),
    "record": ("package p;\nrecord Point(int x) {}\n", "unsupported top-level construct 'record'", 2, 1),
    "annotation-type": ("package p;\n@interface Marker {}\n", "unsupported declaration '@interface'", 2, 1),
    "text-block": ('package p;\nclass A {\n  String s = """\n  a\n  """;\n}\n', "unsupported text block", 3, 14),
    "text-block-in-method": (
        'package p;\nclass A {\n  void f() {\n    String s = """\n    Foo.bar() { x }\n    """;\n  }\n}\n',
        "unsupported text block", 4, 16,
    ),
    "sealed": ("package p;\nsealed class S permits A {}\n", "unsupported top-level construct 'sealed'", 2, 1),
    "module-info": ("module m {\n}\n", "unsupported top-level construct 'module'", 1, 1),
}


@pytest.mark.parametrize("text, message, line, column", UNSUPPORTED_CONSTRUCTS.values(), ids=UNSUPPORTED_CONSTRUCTS)
def test_an_unsupported_construct_is_rejected_where_it_starts(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


def test_no_type_declarations_is_an_error():
    with pytest.raises(ParseError):
        parse("package p;\nimport a.B;\n")


def test_more_classes_than_code_lines_rejected():
    # cannot be represented: the facts invariant needs one counted line per class
    with pytest.raises(ParseError):
        parse("package p; class A { void x() {} } class B { void y() {} }")


def test_duplicate_class_names_rejected():
    with pytest.raises(ParseError):
        parse("package p;\nclass A {\n void x() {}\n}\nclass A {\n void y() {}\n}\n")


def test_duplicates_among_many_classes_are_found_in_one_pass():
    # C20000 repeats before C10000 does; the message names the smaller one
    names = [f"C{i}" for i in range(29_998)] + ["C20000", "C10000"]
    text = "package p;\n" + "".join(f"class {n} {{ void m() {{}} }}\n" for n in names)
    start = time.monotonic()
    with pytest.raises(ParseError, match="duplicate class name 'C10000'"):
        parse(text)
    assert time.monotonic() - start < 5.0  # a count per name took about 16 s


def test_corpus_dir_reports_failures_without_dropping_others(tmp_path):
    good = tmp_path / "Good.java"
    good.write_text("package p;\nclass Good {\n void ok() {}\n}\n")
    bad = tmp_path / "Bad.java"
    bad.write_text("package p;\nclass {\n}\n")
    facts, failures = parse_corpus_dir(tmp_path)
    assert [cu.path for cu in facts] == ["Good.java"]
    assert [path for path, _ in failures] == ["Bad.java"]


# --------------------------------------------------------------------------
# The one-pass lexer against the two oracles it replaced, run in turn
# (javaparse_oracle): same token values, kinds, lines and columns. The kind
# follows from a token's first character; the column is the one a ParseError
# at that token reports.
# --------------------------------------------------------------------------


def kind_of(value):
    """A token's kind from its first character, as the parser reads it."""
    if value[0] in _IDENT_START:
        return "ident"
    if re.match(r"\d", value):
        return "number"
    return {'"': "string", "'": "char"}.get(value[0], "punct")


def string_tokens(text):
    """(kind, value, line, column) of every token of ``scan_source``."""
    _, toks, lines = scan_source(text)
    parser = _Parser([*toks, *_END], lines, text)
    out = []
    for i, (value, line) in enumerate(zip(toks, lines)):
        with pytest.raises(ParseError) as err:
            parser.fail("here", i)
        assert err.value.line == line
        out.append((kind_of(value), value, line, err.value.column))
    return out


def oracle_tokens(text):
    return javaparse_oracle.tokenize_with_whitespace_group(javaparse_oracle.scan_by_character(text)[1])


TOKENIZER_ALPHABET = "/*\"'\\\n\r\t\x0b\x0c\x85\u2028\u2003éa1{;<xX_$.L\u0663"


@settings(max_examples=500)
@given(st.text(alphabet=TOKENIZER_ALPHABET, max_size=200))
def test_tokens_match_whitespace_group_oracle(text):
    assert string_tokens(text) == oracle_tokens(text)


def test_tokens_match_oracle_on_fixtures(fixtures_dir):
    paths = sorted(fixtures_dir.rglob("*.java"))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert string_tokens(text) == oracle_tokens(text), path
        _, toks, lines = scan_source(text)
        assert all(type(t) is str for t in toks) and all(type(n) is int for n in lines)


@settings(max_examples=300)
@given(st.text(alphabet=TOKENIZER_ALPHABET, max_size=200))
def test_no_token_spans_a_newline(text):
    _, toks, lines = scan_source(text)
    assert len(toks) == len(lines)
    rows = text.split("\n")
    for tok, line in zip(toks, lines):
        assert "\n" not in tok
        assert tok in rows[line - 1]


# --------------------------------------------------------------------------
# The parser against a model of the Java it reads (java_model): the model
# draws a compilation unit, writes it as text, and works out the facts that
# parsing the text must give, line counts included, without parsing it.
# --------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(units())
@example((["class", ("class", "Leaf", "class", None, []), "Leaf", "{", "}", ("end",),  # fewer code lines than classes
           "interface", ("class", "Inner", "interface", None, []), "Inner", "{", "}", ("end",)], [" "], "", []))
def test_parser_matches_the_model(unit):
    text, expected = render(unit)
    try:
        got = parse_compilation_unit(text, "T.java")
    except ParseError as exc:
        got = str(exc)
    assert got == expected


# --------------------------------------------------------------------------
# The parser against its pinned outcomes: seeded inputs, in families, each
# with the outcome recorded for it in RECORD, one line per case: the
# ParseError message, line and column, or the first 16 hex digits of the
# SHA-256 of the facts-file record. The inputs are seeded with
# random.Random, not drawn by Hypothesis, whose examples change with the
# constants of src/ (conftest.py). After a change of behaviour that is
# meant, re-record with `PYTHONPATH=src python tests/test_parser.py` and
# list the lines `git diff` shows changed in CHANGES.md.
# --------------------------------------------------------------------------


def generated_texts():
    """60 CUs from the benchmark's seeded generator."""
    import numpy as np

    spec = importlib.util.spec_from_file_location("faultgraph_bench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    with tempfile.TemporaryDirectory() as root:
        gen.write_corpus(gen.CorpusGen(np.random.default_rng(3)).first("r1", 60), pathlib.Path(root))
        return [p.read_text(encoding="utf-8") for p in sorted(pathlib.Path(root).rglob("*.java"))]


def families():
    """Each family of pinned cases: case id -> source text."""
    fixtures = {str(p.relative_to(TESTS / "fixtures")): p.read_text(encoding="utf-8") for p in FIXTURE_PATHS}
    texts, edits, soups = list(fixtures.values()), random.Random(1), random.Random(2)
    return {
        "fixture": fixtures,
        "generated": {f"generated-{i:02}": text for i, text in enumerate(generated_texts())},
        "edit": {
            f"edit-{i:03}": apply_edits(
                edits.choice(texts),
                [(edits.randrange(401), edits.choice([None, *EDIT_TOKENS])) for _ in range(edits.randint(1, 4))],
            )
            for i in range(400)
        },
        "soup": {
            f"soup-{i:03}": soup_body(
                [soups.choice(SOUP_TOKENS) for _ in range(soups.randint(0, soups.choice((4, 12, 40))))],
                [soups.randint(0, 40) for _ in range(soups.randint(0, 3))],
            )
            for i in range(500)
        },
        "branch": BRANCH_CASES,
        "position": POSITION_CASES,
    }


def outcome(case, text) -> str:
    """The line of RECORD for ``case``, as the parser gives it today."""
    try:
        facts = hashlib.sha256(dump_facts([parse(text)]).encode()).hexdigest()[:16]
        result = {"facts": facts}
    except ParseError as exc:
        result = {"error": [str(exc), exc.line, exc.column]}
    return json.dumps({"case": case, **result}, ensure_ascii=False, separators=(",", ":"))


def record():
    lines = [outcome(case, text) for family in families().values() for case, text in family.items()]
    RECORD.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"recorded {len(lines)} outcomes in {RECORD.relative_to(TESTS.parent)}")


@pytest.fixture(scope="module")
def pinned():
    lines = RECORD.read_text(encoding="utf-8").splitlines()
    return families(), {json.loads(line)["case"]: line for line in lines}


def assert_pinned(pinned, family, cases=None):
    """Each case of ``family`` (or only ``cases``) gives its recorded outcome;
    a failure names the first case that does not, and its new outcome."""
    texts, record_ = pinned[0][family], pinned[1]
    for case in cases or texts:
        if outcome(case, texts[case]) != record_.get(case):
            try:
                now = dump_facts([parse(texts[case])])
            except ParseError as exc:
                now = f"ParseError {str(exc)!r}"
            pytest.fail(f"pinned case {case} now gives {now}, recorded as {record_.get(case)}")


def test_the_record_holds_each_pinned_case_once(pinned):
    cases = [case for texts in pinned[0].values() for case in texts]
    assert list(pinned[1]) == cases and len(cases) >= 993
    assert len(RECORD.read_text(encoding="utf-8").splitlines()) == len(cases)
    assert RECORD.stat().st_size < 100_000


def test_parser_matches_oracle_on_fixtures(pinned):
    assert len(pinned[0]["fixture"]) == 13
    assert_pinned(pinned, "fixture")


def test_parser_matches_oracle_on_generated_corpus(pinned):
    assert len(pinned[0]["generated"]) == 60
    assert_pinned(pinned, "generated")


POSITION_CASES = {
    "after-block-comment": "package p;\n/* a\n b */ class /* x */\t{\n}\n",
    "after-literal-and-comments": 'package p; // c\nclass A {\n  void m() { "/*" ; } /* x\n */ int // y\n}\n',
}


@pytest.mark.parametrize("case, line, column", [(case, *at) for case, at in zip(POSITION_CASES, [(3, 21), (5, 1)])],
                         ids=POSITION_CASES)
def test_parse_error_position_matches_oracle(pinned, case, line, column):
    """A column is counted in the source text, across comments and tabs."""
    with pytest.raises(ParseError) as err:
        parse(POSITION_CASES[case])
    assert (err.value.line, err.value.column) == (line, column)
    assert_pinned(pinned, "position", [case])


FIXTURE_PATHS = sorted((TESTS / "fixtures").rglob("*.java"))
EDIT_TOKENS = [
    *"{}()<>[];,.=@*?:\"'",
    "class", "interface", "enum", "record", "new", "this", "super", "extends", "implements",
    "throws", "import", "package", "static", "final", "int", "void", "List", "x", "7", "\n", "/*", "//",
]
_WORD = re.compile(r"\w+|\S")


def apply_edits(text, edits):
    """Delete the k-th word or punctuator, or insert a token before it."""
    for k, token in edits:
        spans = [m.span() for m in _WORD.finditer(text)] or [(0, 0)]
        a, b = spans[k % len(spans)]
        text = text[:a] + text[b:] if token is None else f"{text[:a]} {token} {text[a:]}"
    return text


def test_parser_matches_oracle_on_edited_sources(pinned):
    """Seeded edits of the fixtures: one to four words or punctuators
    deleted, or tokens inserted before them."""
    assert_pinned(pinned, "edit")


def in_class(members):
    return "package p;\nclass A {\n" + members + "}\n"


ARRAYS = in_class(
    "    int[] xs;\n"
    "    String[][] m;\n"
    "    void main(String[] args, int... n) {\n"
    "        int[] ys = new int[3];\n"
    "        Item[] items = new Item[n];\n"
    "        xs = ys;\n"
    "    }\n"
)
THROWS = in_class(
    "    void read() throws IOException, q.Bad {\n"
    "        Helper.go();\n"
    "    }\n"
    "    abstract void close() throws Oops;\n"
)
# The parser is flow-insensitive, so a local may share a parameter's name.
RECEIVERS = in_class(
    "    F x;\n"
    "    void local(P x) {\n"
    "        L x = null;\n"
    "        x.go();\n"
    "    }\n"
    "    void param(P x) {\n"
    "        x.go();\n"
    "    }\n"
    "    void field() {\n"
    "        x.go();\n"
    "    }\n"
)
CONSTRUCTORS = in_class(
    "    A(B b) {}\n"
    "    class Inner {\n"
    "        class Leaf {\n"
    "            Leaf() {}\n"
    "        }\n"
    "    }\n"
    "    Other() {}\n"
)

# Each case reaches a parser branch that the fixtures and the generated
# corpus never do.
GENERIC_INITIALIZER = in_class(
    "    Map<String, Integer> m = new HashMap<String, Integer>();\n"
    "    boolean b = 1 < 2, c;\n"
    "    void run() {\n"
    "        Integer n = c ? 1 : 2;\n"
    "    }\n"
)
BRANCH_CASES = {
    "generic-field-initializer": GENERIC_INITIALIZER,
    "array-types": ARRAYS,
    "throws": THROWS,
    "receiver-scopes": RECEIVERS,
    "constructors": CONSTRUCTORS,
    "nested-generics": in_class(
        "    Map<String, List<B>> index;\n"
        "    void m() {\n"
        "        Map<K, Set<V>> local = null;\n"
        "    }\n"
    ),
    "comparisons": in_class(
        "    int n;\n"
        "    boolean m(int a, D b) {\n"
        "        if (a < this.n) { return a < n; }\n"
        "        call(int < 2, a < b.c > 1);\n"
        "        return (a < 3) == (n > a);\n"
        "    }\n"
    ),
    "method-type-parameters": in_class(
        "    <T> T id(T x) {\n"
        "        return x;\n"
        "    }\n"
        "    <K, V extends B> void put(K k, V v) {}\n"
    ),
    "malformed-type-parameters": in_class("    < 3 > void m() {}\n"),
    # a scan from a '<' that an earlier scan closed returns the names recorded then
    "nested-type-argument-lists": in_class(
        "    void m() {\n"
        "        f(Map<A, Map<K, List<B>>>, x);\n"
        "        Map<A, Map<K, Set<V>>> local = null;\n"
        "        call(a < b, Set<List<C>> s);\n"
        "    }\n"
    ),
    "initializer-blocks": in_class(
        "    int x;\n"
        "    {\n"
        "        x = 1;\n"
        "    }\n"
        "    static {\n"
        "        Util.init();\n"
        "    }\n"
        "    void m() {}\n"
    ),
    "this-field-receiver": in_class(
        "    D d;\n"
        "    void m() {\n"
        "        this.d.run();\n"
        "        this.e.go();\n"
        "        this.d.x.stop();\n"
        "    }\n"
    ),
    "qualified-static-calls": in_class(
        "    D d;\n"
        "    void m(E e) {\n"
        "        q.r.C.go();\n"
        "        x.y.Z.run();\n"
        "        a.b.c();\n"
        "        d.x.Y.go();\n"
        "        e.F.go();\n"
        "    }\n"
    ),
    "enum-member": in_class("    enum Color { RED }\n"),
    "record-member": in_class("    record Point(int x) {}\n"),
    "malformed-supertype-arguments": "package p;\nclass A extends B<3> {\n    void m() {}\n}\n",
    "malformed-class-type-parameters": "package p;\nclass A<3> {\n    void m() {}\n}\n",
    "annotations-between-and-after-classes": (
        "package p;\nclass A {\n    void a() {}\n}\n@Deprecated\nclass B {\n    void b() {}\n}\n@Trailing\n"
    ),
}


@pytest.mark.parametrize("case", BRANCH_CASES)
def test_parser_matches_oracle_on_branch_cases(pinned, case):
    assert_pinned(pinned, "branch", [case])


FAILING_BRANCH_CASES = {
    "malformed-type-parameters": "malformed type parameter list (line 3, column 5)",
    "enum-member": "unsupported declaration 'enum' (line 3, column 5)",
    "record-member": "unsupported declaration 'record' (line 3, column 5)",
    "malformed-supertype-arguments": "malformed type arguments in supertype clause (line 2, column 18)",
    "malformed-class-type-parameters": "malformed type parameter list (line 2, column 8)",
}


@pytest.mark.parametrize("case, message", FAILING_BRANCH_CASES.items(), ids=FAILING_BRANCH_CASES)
def test_a_failing_branch_case_fails_where_it_did(case, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(BRANCH_CASES[case])


def test_array_types_and_dims_facts():
    (cls,) = parse(ARRAYS).classes
    assert cls.field_types == ("String",)
    (m,) = cls.methods
    assert m.name == "main"
    assert m.param_types == ("String", "int")
    assert m.referenced_types == ("Item", "String")
    assert m.external_calls == ()
    assert m.used_fields == ("xs",)
    assert cls.loc == 9


def test_type_arguments_in_a_field_initializer_declare_no_field():
    (cls,) = parse(GENERIC_INITIALIZER).classes
    assert cls.field_types == ("Integer", "Map", "String")
    (run,) = cls.methods
    assert run.referenced_types == ("Integer",)
    assert run.used_fields == ("c",)  # the comma after `1 < 2` still ends a declarator


def test_throws_list_facts():
    read, close = parse(THROWS).classes[0].methods
    assert read.referenced_types == ("Helper", "IOException", "q.Bad")
    assert read.external_calls == (("Helper", "go"),)
    assert close.param_types == ()
    assert close.referenced_types == ("Oops",)
    assert close.external_calls == ()



def test_a_receiver_resolves_through_a_local_then_a_parameter_then_a_field():
    local, param, field_ = parse(RECEIVERS).classes[0].methods
    assert local.external_calls == (("L", "go"),)
    assert local.referenced_types == ("L", "P")
    assert param.external_calls == (("P", "go"),)
    assert param.referenced_types == ("P",)
    assert field_.external_calls == (("F", "go"),)
    assert field_.referenced_types == ("F",)
    assert local.used_fields == param.used_fields == ()
    assert field_.used_fields == ("x",)


def test_a_type_name_before_a_parenthesis_is_a_constructor():
    outer, inner = parse(CONSTRUCTORS).classes
    own, other = outer.methods
    (leaf,) = inner.methods  # Leaf folds into Inner
    assert (own.name, other.name, leaf.name) == ("A", "Other", "Leaf")
    assert own.param_types == ("B",)
    assert own.referenced_types == ("B",)
    assert other.param_types == leaf.param_types == ()
    assert other.referenced_types == leaf.referenced_types == ()
    assert own.external_calls == other.external_calls == leaf.external_calls == ()


SOUP_TOKENS = [
    "f", "p", "x", "B", "C", "List", "q", "go",
    "this", "super", "new", "int", "final",
    *".()<>[],;={}",
    "1", '"s"', "'c'",
]


def soup_body(soup, breaks):
    """A method body of the tokens ``soup`` over a class with field ``f`` and
    parameter ``p``, with a line break before each index in ``breaks``."""
    for k in sorted(breaks, reverse=True):
        soup.insert(min(k, len(soup)), "\n")
    return in_class(f"    B f;\n    void m(C p) {{\n        {' '.join(soup)}\n    }}\n")


def test_parser_matches_oracle_on_token_soup_bodies(pinned):
    assert_pinned(pinned, "soup")


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.builds(
            apply_edits,
            st.sampled_from(FIXTURE_PATHS).map(lambda path: path.read_text(encoding="utf-8")),
            st.lists(st.tuples(st.integers(0, 400), st.none() | st.sampled_from(EDIT_TOKENS)), min_size=1, max_size=12),
        ),
        st.builds(
            soup_body, st.lists(st.sampled_from(SOUP_TOKENS), max_size=40), st.lists(st.integers(0, 40), max_size=3)
        ),
    )
)
def test_an_edited_file_or_token_soup_gives_facts_or_a_parse_error(text):
    """Whole files with up to twelve tokens inserted or deleted, and method
    bodies of token soup: the parser returns facts that keep the facts
    file's invariants, or raises ParseError; any other exception fails."""
    try:
        cu = parse(text)
    except ParseError:
        return
    assert type(cu) is CUFacts and cu.loc >= len(cu.classes)
    assert sum(c.loc for c in cu.classes) <= cu.loc
    for cls in cu.classes:
        assert 0 <= cls.loc and cls.field_types == tuple(sorted(cls.field_types))
        for m in cls.methods:
            assert all(names == tuple(sorted(set(names))) for names in m[2:])


def test_one_parser_per_file(monkeypatch):
    made = []

    class CountingParser(javaparse._Parser):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(javaparse, "_Parser", CountingParser)
    cu = parse(in_class("    void a() { b(); }\n    void b() { int x = 1; }\n    A() { a(); }\n"))
    assert len(cu.classes[0].methods) == 3
    assert len(made) == 1


@pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_cr_and_crlf_sources_parse_like_their_lf_twins(tmp_path, corpus_r1_dir, newline):
    """CR, LF and CR LF each end a Java line (JLS 3.4)."""
    for source in sorted(corpus_r1_dir.rglob("*.java")):
        twin = tmp_path / source.relative_to(corpus_r1_dir)
        twin.parent.mkdir(parents=True, exist_ok=True)
        twin.write_bytes(source.read_bytes().replace(b"\n", newline.encode()))
    assert parse_corpus_dir(tmp_path) == parse_corpus_dir(corpus_r1_dir)


if __name__ == "__main__":
    sys.exit(record())
