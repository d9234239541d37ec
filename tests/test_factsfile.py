import copy
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from faultgraph import facts as facts_module
from faultgraph import javaparse
from faultgraph.errors import FormatError
from faultgraph.facts import (
    CLASS_KINDS,
    ClassFacts,
    CUFacts,
    MethodFacts,
    dump_facts,
    dump_facts_file,
    load_facts,
    load_facts_file,
)
from faultgraph.javaparse import parse_corpus_dir


def test_round_trip_equals_parse_output(corpus_r1_dir, tmp_path):
    facts, failures = parse_corpus_dir(corpus_r1_dir)
    assert failures == []
    out = tmp_path / "facts.jsonl"
    dump_facts_file(facts, out)
    assert load_facts_file(out) == facts


def test_empty_facts_file(tmp_path):
    out = tmp_path / "facts.jsonl"
    out.write_text("")
    assert load_facts_file(out) == []


def test_unreadable_facts_file_is_a_format_error(tmp_path):
    path = tmp_path / "facts.jsonl"
    path.symlink_to(tmp_path / "missing.jsonl")
    with pytest.raises(FormatError, match="facts.jsonl: cannot read"):
        load_facts_file(path)


def test_duplicate_path_rejected(corpus_r1_dir):
    facts, _ = parse_corpus_dir(corpus_r1_dir)
    text = dump_facts(facts[:1]) + dump_facts(facts[:1])
    with pytest.raises(FormatError) as err:
        load_facts(text)
    assert err.value.record == 2


def test_malformed_json_reports_record_index():
    with pytest.raises(FormatError) as err:
        load_facts('{"path": "a.java", "package": "", "imports": [], "classes": [], "loc": 0}\n{oops\n')
    # first record already fails validation (classes empty); check it reports 1
    assert err.value.record == 1


def test_a_raw_line_separator_inside_a_string_stays_in_its_record():
    record = json.dumps({**VALID, "package": "a\u2028b\x0cc"}, ensure_ascii=False)
    assert "\u2028" in record
    (cu,) = load_facts(record + "\n")
    assert cu.package == "a\u2028b\x0cc"


def test_a_lone_cr_read_from_a_facts_file_stays_in_its_record(tmp_path):
    line = json.dumps(VALID)
    path = tmp_path / "facts.jsonl"
    path.write_bytes((line.replace(", ", ",\r", 1) + "\n").encode("utf-8"))  # CR as JSON whitespace
    assert load_facts_file(path) == load_facts(line + "\n")


def test_a_crlf_facts_file_keeps_its_record_numbers(tmp_path):
    path = tmp_path / "facts.jsonl"
    path.write_bytes(f"{json.dumps(VALID)}\r\n\r\n{{oops\r\n".encode("utf-8"))
    with pytest.raises(FormatError) as err:
        load_facts_file(path)
    assert err.value.record == 3


def test_crlf_facts_load_with_unchanged_record_indices():
    line = json.dumps(VALID)
    assert load_facts(f"{line}\r\n") == load_facts(f"{line}\n")
    with pytest.raises(FormatError) as err:
        load_facts(f"{line}\r\n\r\n{{oops\r\n")
    assert err.value.record == 3


def test_missing_field_rejected():
    with pytest.raises(FormatError):
        load_facts('{"path": "a.java"}\n')


def test_empty_classes_rejected():
    with pytest.raises(FormatError):
        load_facts('{"path": "a.java", "package": "p", "imports": [], "classes": [], "loc": 3}\n')


def test_loc_must_cover_declared_classes():
    record = (
        '{"path": "a.java", "package": "p", "imports": [], "loc": 1, "classes": ['
        '{"name": "A", "kind": "class", "extends": null, "implements": [], "field_types": [], "methods": [], "loc": 1},'
        '{"name": "B", "kind": "class", "extends": null, "implements": [], "field_types": [], "methods": [], "loc": 0}]}'
    )
    with pytest.raises(FormatError):
        load_facts(record + "\n")


def test_writer_is_deterministic(corpus_r1_dir):
    facts, _ = parse_corpus_dir(corpus_r1_dir)
    assert dump_facts(facts) == dump_facts(facts)


# -- field types ---------------------------------------------------------------

VALID = {
    "path": "a/A.java",
    "package": "a",
    "imports": ["x.Y"],
    "loc": 4,
    "classes": [
        {
            "name": "A",
            "kind": "class",
            "extends": None,
            "implements": ["Runnable"],
            "field_types": ["int"],
            "methods": [
                {
                    "name": "run",
                    "param_types": [],
                    "referenced_types": ["Y"],
                    "external_calls": [["Y", "go"]],
                    "used_fields": ["n"],
                }
            ],
            "loc": 4,
        }
    ],
}


def with_field(path, value):
    record = copy.deepcopy(VALID)
    node = record
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(record) + "\n"


def test_valid_record_loads():
    (cu,) = load_facts(json.dumps(VALID) + "\n")
    assert cu.imports == ("x.Y",)
    assert cu.classes[0].implements == ("Runnable",)


def test_name_sets_load_and_dump_sorted_and_distinct():
    # a facts file may list set-valued entries in any order and with repeats
    record = copy.deepcopy(VALID)
    record["classes"][0]["methods"][0].update(
        referenced_types=["Z", "Y", "Z"],
        external_calls=[["Z", "go"], ["Y", "run"], ["Z", "go"], ["Y", "go"]],
        used_fields=["n", "m", "n"],
    )
    canonical = copy.deepcopy(record)
    canonical["classes"][0]["methods"][0].update(
        referenced_types=["Y", "Z"],
        external_calls=[["Y", "go"], ["Y", "run"], ["Z", "go"]],
        used_fields=["m", "n"],
    )
    (cu,) = load_facts(json.dumps(record) + "\n")
    assert [cu] == load_facts(json.dumps(canonical) + "\n")
    (m,) = cu.classes[0].methods
    assert m.referenced_types == ("Y", "Z")
    assert m.external_calls == (("Y", "go"), ("Y", "run"), ("Z", "go"))
    assert m.used_fields == ("m", "n")
    assert json.loads(dump_facts([cu])) == canonical


@pytest.mark.parametrize(
    "path, value",
    [
        (("classes",), 5),
        (("classes", 0, "field_types"), 7),
        (("classes", 0, "methods"), [3]),
        (("imports",), "x.Y"),
        (("classes", 0, "implements"), "Runnable"),
        (("package",), 5),
        (("loc",), True),
        (("classes", 0), "A"),
        (("classes", 0, "extends"), ["B"]),
        (("classes", 0, "loc"), 1.5),
        (("classes", 0, "methods"), {"name": "run"}),
        (("classes", 0, "methods", 0, "param_types"), None),
        (("classes", 0, "methods", 0, "referenced_types"), [1]),
        (("classes", 0, "methods", 0, "external_calls"), [["Y", 2]]),
        (("classes", 0, "methods", 0, "used_fields"), "n"),
        # a tab or line break would split a row of the bundle
        (("path",), "a/A\tB.java"),
        (("path",), "a/A\rB.java"),
        (("classes", 0, "name"), "A\nB"),
        # a lone surrogate has no UTF-8 to write
        (("path",), "a/A\udcffB.java"),
        (("classes", 0, "name"), "A\ud800"),
    ],
)
def test_mistyped_field_is_a_format_error(path, value):
    with pytest.raises(FormatError) as err:
        load_facts(with_field(path, value))
    assert err.value.record == 1


names = st.text(min_size=1, max_size=8)
# a CU path or class name never holds a tab, CR, LF or lone surrogate (Cs)
row_names = st.text(st.characters(exclude_characters="\t\r\n", exclude_categories=["Cs"]), min_size=1, max_size=8)
methods = st.builds(
    MethodFacts,
    name=names,
    param_types=st.lists(names, max_size=3).map(tuple),
    # the loader holds a method's name sets sorted, each value once
    referenced_types=st.frozensets(names, max_size=3).map(lambda s: tuple(sorted(s))),
    external_calls=st.frozensets(st.tuples(names, names), max_size=3).map(lambda s: tuple(sorted(s))),
    used_fields=st.frozensets(names, max_size=3).map(lambda s: tuple(sorted(s))),
)
classes = st.builds(
    ClassFacts,
    name=row_names,
    kind=st.sampled_from(CLASS_KINDS),
    extends=st.none() | names,
    implements=st.lists(names, max_size=3).map(tuple),
    field_types=st.lists(names, max_size=3).map(lambda xs: tuple(sorted(xs))),  # the loader sorts
    methods=st.lists(methods, max_size=3).map(tuple),
    loc=st.integers(0, 10**9),
)


@st.composite
def compilation_units(draw, path=row_names):
    members = draw(st.lists(classes, min_size=1, max_size=3, unique_by=lambda c: c.name))
    return CUFacts(
        path=draw(path),
        package=draw(st.text(max_size=8)),
        imports=tuple(draw(st.lists(names, max_size=3))),
        classes=tuple(members),
        loc=draw(st.integers(len(members), 10**9)),
    )


@given(st.lists(compilation_units(), max_size=4, unique_by=lambda cu: cu.path))
def test_dump_load_round_trip(cus):
    assert load_facts(dump_facts(cus)) == cus


@given(st.lists(compilation_units(), max_size=4, unique_by=lambda cu: cu.path))
def test_canonical_facts_text_is_a_fixed_point(cus):
    text = dump_facts(cus)
    assert dump_facts(load_facts(text)) == text


def field_names(cls):
    return list(cls._fields)


@given(compilation_units())
def test_record_keys_are_the_field_order(cu):
    record = json.loads(dump_facts([cu]))
    assert list(record) == field_names(CUFacts)
    for c in record["classes"]:
        assert list(c) == field_names(ClassFacts)
        for m in c["methods"]:
            assert list(m) == field_names(MethodFacts)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated_records(draw):
    """A valid record with one nested value replaced by any JSON value."""
    record = json.loads(dump_facts([draw(compilation_units())]))
    node = record
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        node[key] = draw(json_values)
        return record


def assert_facts_or_format_error(value):
    try:
        cus = load_facts(json.dumps(value) + "\n")
    except FormatError:
        return
    assert len(cus) == 1 and isinstance(cus[0], CUFacts)


@given(json_values)
def test_any_json_line_gives_facts_or_format_error(value):
    assert_facts_or_format_error(value)


@given(mutated_records())
def test_any_mistyped_record_gives_facts_or_format_error(record):
    assert_facts_or_format_error(record)


java_bytes = st.binary(max_size=64) | st.lists(
    st.sampled_from(["package p;", "class A", "{", "}", "int x;", "void m() {}", "\xe9", "\n", " "]),
    max_size=12,
).map(lambda parts: "".join(parts).encode("utf-8"))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(java_bytes)
def test_any_source_bytes_give_facts_or_a_parse_failure(tmp_path, data):
    (tmp_path / "A.java").write_bytes(data)
    facts, failures = parse_corpus_dir(tmp_path)
    assert len(facts) + len(failures) == 1


# -- the line memo shared by consecutive facts releases ------------------------


def record_line(path, loc=4):
    return json.dumps({**VALID, "path": path, "loc": loc}, separators=(",", ":"))


def counted_decodes():
    return mock.patch.object(facts_module, "cu_from_dict", wraps=facts_module.cu_from_dict)


def test_a_line_seen_in_the_previous_file_is_not_decoded_again():
    a, b, c = record_line("a/A.java"), record_line("a/B.java"), record_line("a/C.java")
    memo = {}
    first = load_facts(f"{a}\n{b}\n", memo)
    assert memo == {a: first[0], b: first[1]}
    with counted_decodes() as decode:
        second = load_facts(f"{b}\n\n{c}\n", memo)
    assert decode.call_count == 1  # c only
    assert second == load_facts(f"{b}\n{c}\n") and second[0] is first[1]
    assert memo == {b: second[0], c: second[1]}  # the previous file's lines are let go


@given(
    st.lists(
        st.lists(st.sampled_from(["a/A.java", "a/B.java", "a/C.java", "a/D.java"]), unique=True, max_size=4),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.integers(4, 6), min_size=4, max_size=4),
)
def test_a_chain_of_files_loads_as_each_file_alone(files, locs):
    memo, prev = {}, set()
    for paths in files:
        lines = [record_line(p, locs[i]) for i, p in enumerate(paths)]
        with counted_decodes() as decode:
            got = load_facts("".join(f"{ln}\n" for ln in lines), memo)
        assert got == load_facts("".join(f"{ln}\n" for ln in lines))
        assert decode.call_count == len(set(lines) - prev)
        assert set(memo) == set(lines)
        prev = set(lines)


def test_a_bad_line_after_memo_hits_keeps_its_own_record_index():
    a, b = record_line("a/A.java"), record_line("a/B.java")
    memo = {}
    load_facts(f"{a}\n{b}\n", memo)
    with pytest.raises(FormatError) as err:
        load_facts(f"{b}\n{a}\n{{oops\n", memo)
    assert err.value.record == 3
    with pytest.raises(FormatError) as err:
        load_facts(f"{b}\n\n{record_line('a/C.java', loc=0)}\n", memo)
    assert err.value.record == 3 and "loc smaller" in str(err.value)


def test_a_duplicate_path_among_memo_hits_is_still_a_format_error():
    a = record_line("a/A.java")
    memo = {}
    load_facts(f"{a}\n", memo)
    with pytest.raises(FormatError) as err:
        load_facts(f"{a}\n{a}\n", memo)
    assert err.value.record == 2 and "duplicate CU path" in str(err.value)
    with pytest.raises(FormatError) as err:
        load_facts(f"{a}\n{record_line('a/A.java', loc=5)}\n", memo)
    assert err.value.record == 2


def test_a_failed_decode_is_never_memoised():
    a, bad = record_line("a/A.java"), record_line("a/Bad.java", loc=0)
    memo = {}
    load_facts(f"{a}\n", memo)
    before = dict(memo)
    for _ in range(2):
        with counted_decodes() as decode, pytest.raises(FormatError):
            load_facts(f"{bad}\n", memo)
        assert decode.call_count == 1
        assert memo == before


# -- the source memo shared by consecutive corpus releases -----------------------


def counted_parses():
    return mock.patch.object(javaparse, "parse_compilation_unit", wraps=javaparse.parse_compilation_unit)


def write_corpus(root, files):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


SOURCES = {name: f"package p;\n\nclass {name[:-5]} {{\n    int n;\n}}\n" for name in ("A.java", "B.java", "C.java")}


def test_a_text_seen_in_the_previous_release_is_not_parsed_again(tmp_path):
    a, b, c = SOURCES["A.java"], SOURCES["B.java"], SOURCES["C.java"]
    r1 = write_corpus(tmp_path / "r1", {"A.java": a, "B.java": b})
    r2 = write_corpus(tmp_path / "r2", {"B.java": b, "C.java": c})
    memo = {}
    first, _ = parse_corpus_dir(r1, memo)
    assert memo == {a: first[0], b: first[1]}
    with counted_parses() as parse:
        second, _ = parse_corpus_dir(r2, memo)
    assert parse.call_count == 1  # C only
    assert second == parse_corpus_dir(r2)[0] and second[0] is first[1]
    assert memo == {b: second[0], c: second[1]}  # the previous release's texts are let go
    with counted_parses() as parse:
        third, _ = parse_corpus_dir(r1, memo)  # r1 -> r2 -> r1: A is two releases back
    assert parse.call_count == 1  # A again
    assert third == first and third[1] is first[1]
    assert memo == {a: third[0], b: third[1]}
