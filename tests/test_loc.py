import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultgraph.facts import count_loc, scan_source
from faultgraph.javaparse import parse_compilation_unit


def test_empty_input():
    assert count_loc("") == 0


def test_one_code_line_one_blank_one_comment():
    assert count_loc("int x;\n\n// note\n") == 1


def test_fixture_hand_count(fixtures_dir):
    # 12 code lines, 3 blanks, 5 comment lines (one block comment spans 3).
    text = (fixtures_dir / "loc_sample.java").read_text()
    assert len(text.splitlines()) == 20
    assert count_loc(text) == 12


def test_trailing_line_comment_still_code():
    assert count_loc("int x; // set x\n") == 1


def test_block_comment_opens_after_code():
    assert count_loc("int x; /* start\n inside\n end */ int y;\n") == 2


def test_comment_markers_inside_string_literal():
    assert count_loc('String s = "// not a comment";\n') == 1
    assert count_loc('String s = "/*";\nint x;\n') == 2


def test_no_trailing_newline():
    assert count_loc("int x;") == 1


text_lines = st.text(alphabet=string.printable, max_size=400)


@given(text_lines)
def test_never_exceeds_total_lines(text):
    total = len(text.split("\n")) if text else 0
    assert 0 <= count_loc(text) <= total


@given(text_lines, st.integers(min_value=1, max_value=5))
def test_appending_blank_lines_is_invariant(text, k):
    padded = text + ("\n" if text and not text.endswith("\n") else "") + "\n" * k
    assert count_loc(padded) == count_loc(text)


# --------------------------------------------------------------------------
# The regex scanner against the character-by-character state machine it
# replaced (kept here as the oracle, with its escape handling fixed so a
# backslash never consumes a line break).
# --------------------------------------------------------------------------

_CODE, _LINE_COMMENT, _BLOCK_COMMENT, _STRING, _CHAR = range(5)


def scan_by_character(text):
    has_code, out = [], []
    state, line_code = _CODE, False
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            if state in (_LINE_COMMENT, _STRING, _CHAR):
                state = _CODE
            has_code.append(line_code)
            line_code = False
            out.append("\n")
            i += 1
            continue
        if state == _CODE:
            if c == "/" and nxt in ("/", "*"):
                state = _LINE_COMMENT if nxt == "/" else _BLOCK_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = _STRING
            elif c == "'":
                state = _CHAR
            if not c.isspace():
                line_code = True
            out.append(c)
            i += 1
        elif state == _LINE_COMMENT:
            out.append(" ")
            i += 1
        elif state == _BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = _CODE
                out.append("  ")
                i += 2
            else:
                out.append(" " if c != "\t" else "\t")
                i += 1
        else:
            line_code = True
            quote = '"' if state == _STRING else "'"
            if c == "\\" and nxt and nxt != "\n":
                out.append(c + nxt)
                i += 2
                continue
            if c == quote:
                state = _CODE
            out.append(c)
            i += 1
    if text and not text.endswith("\n"):
        has_code.append(line_code)
    return has_code, "".join(out)


SCANNER_ALPHABET = "/*\"'\\\n\r\t\x0b\x0c\x85\u2028\u2003éa1{;<"


@settings(max_examples=500)
@given(st.text(alphabet=SCANNER_ALPHABET, max_size=200))
def test_scan_matches_character_oracle(text):
    assert scan_source(text) == scan_by_character(text)


def test_scan_matches_character_oracle_on_fixtures(fixtures_dir):
    paths = sorted(fixtures_dir.rglob("*.java"))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert scan_source(text) == scan_by_character(text), path


@pytest.mark.parametrize(
    "text",
    ["/* open", "/*/ x */ y", "a /**/ b", '"// no" // yes', "'/*' x", '"\\"" /* c */', "/*\t*/\t"],
)
def test_scan_edge_cases_match_oracle(text):
    assert scan_source(text) == scan_by_character(text)


def test_backslash_before_line_break_keeps_the_break():
    text = (
        'class A {\n void m() {\n String s = "ab\\\n";\n }\n }\n\n\n'
        "class B {\n int x;\n}\n"
    )
    assert count_loc(text) == 9
    cu = parse_compilation_unit(text, "T.java")
    assert [(c.name, c.loc) for c in cu.classes] == [("A", 6), ("B", 3)]
    assert cu.loc == 9
