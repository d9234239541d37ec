"""Each distinct name, path and empty set of a run is one object.

Names enter a run where the lexer, the facts decoder, the corpus walk and
the commit-log reader read them, and each interns the names and paths it
reads. Literals and numbers, which no facts keep, and commit messages,
which mostly differ, are not interned: on Python 3.12 an interned string is
never freed.
"""

import json
import sys

from faultgraph.bugs import parse_commit_log_text
from faultgraph.facts import load_facts, scan_source
from faultgraph.javaparse import parse_compilation_unit, parse_corpus_dir


def only(items, value):
    """The one element of ``items`` equal to ``value``."""
    (found,) = [x for x in items if x == value]
    return found


def test_equal_identifiers_from_two_scans_are_one_string():
    _, first, _ = scan_source("class Widget { Gadget g; }")
    _, second, _ = scan_source("interface Gadget extends Widget {}")
    assert only(first, "Widget") is only(second, "Widget")
    assert only(first, "Gadget") is only(second, "Gadget")


def test_literals_and_numbers_are_not_interned():
    # equal lines scanned through one line memo share their tokens, a
    # literal among them; but no literal or number enters the intern table
    _, first, _ = scan_source('class A { String s = "a literal"; long n = 1234567L; }')
    _, second, _ = scan_source('class B { String s = "a literal"; long n = 1234567L; }')
    assert only(first, '"a literal"') is not only(second, '"a literal"')
    assert only(first, "1234567L") is not only(second, "1234567L")
    for token in ('"a literal"', "1234567L"):
        assert sys.intern("".join(token)) is not only(first, token)


def test_one_path_in_two_commits_is_one_string():
    first, second = parse_commit_log_text(
        "2007-01-01T00:00:00Z\tdev\tFixed 500\tapp/Widget.java;lib/A.java\n"
        "2007-02-01T00:00:00Z\tdev\tFixed 500\tlib/B.java;app/Widget.java\n"
    )
    assert first.files[0] is second.files[1]


def test_a_cu_path_and_a_commit_path_are_one_string(tmp_path):
    (tmp_path / "app").mkdir()
    (tmp_path / "app" / "Widget.java").write_text("class Widget {}\n")
    (cu,), _ = parse_corpus_dir(tmp_path)
    (commit,) = parse_commit_log_text("2007-01-01T00:00:00Z\tdev\tFixed 500\tapp/Widget.java\n")
    assert cu.path is commit.files[0]


def test_the_empty_sets_of_methods_are_one_object():
    parsed = parse_compilation_unit("class A {\n    void a() {}\n    void b() {}\n}\n", "A.java")
    method = {"name": "m", "param_types": [], "referenced_types": [], "external_calls": [], "used_fields": []}
    record = {
        "path": "B.java",
        "package": "",
        "imports": [],
        "classes": [{"name": "B", "kind": "class", "methods": [method, {**method, "name": "n"}], "loc": 1}],
        "loc": 1,
    }
    (decoded,) = load_facts(json.dumps(record) + "\n")
    empties = {
        id(s)
        for cu in (parsed, decoded)
        for m in cu.classes[0].methods
        for s in (m.referenced_types, m.external_calls, m.used_fields)
    }
    assert len(empties) == 1


def test_one_type_name_decoded_from_two_lines_is_one_string():
    def line(path, cls):
        method = {"name": "run", "referenced_types": ["Widget"], "external_calls": [["Widget", "go"]]}
        record = {
            "path": path,
            "package": "p",
            "imports": [],
            "classes": [{"name": cls, "kind": "class", "field_types": ["Widget"], "methods": [method]}],
            "loc": 1,
        }
        return json.dumps(record)

    a, b = load_facts(f"{line('p/A.java', 'A')}\n{line('p/B.java', 'B')}\n")
    (ca,), (cb,) = a.classes, b.classes
    assert ca.field_types[0] is cb.field_types[0]
    assert only(ca.methods[0].referenced_types, "Widget") is only(cb.methods[0].referenced_types, "Widget")
    (call_a,), (call_b,) = ca.methods[0].external_calls, cb.methods[0].external_calls
    assert call_a[0] is call_b[0] is ca.field_types[0] and call_a[1] is call_b[1]
    assert a.package is b.package
