import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultgraph.facts import count_loc, scan_source
from faultgraph.javaparse import parse_compilation_unit
from javaparse_oracle import scan_with_oracles


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
# The one-pass lexer against the two oracles it replaced, run in turn: the
# character-by-character comment stripper, then the whitespace-group
# tokenizer (javaparse_oracle).
# --------------------------------------------------------------------------

SCANNER_ALPHABET = "/*\"'\\\n\r\t\x0b\x0c\x85\u2028\u2003éa1{;<"


@settings(max_examples=500)
@given(st.text(alphabet=SCANNER_ALPHABET, max_size=200))
def test_scan_matches_character_oracle(text):
    assert scan_source(text) == scan_with_oracles(text)


def test_scan_matches_character_oracle_on_fixtures(fixtures_dir):
    paths = sorted(fixtures_dir.rglob("*.java"))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert scan_source(text) == scan_with_oracles(text), path


@pytest.mark.parametrize(
    "text",
    ["/* open", "/*/ x */ y", "a /**/ b", '"// no" // yes', "'/*' x", '"\\"" /* c */', "/*\t*/\t"],
)
def test_scan_edge_cases_match_oracle(text):
    assert scan_source(text) == scan_with_oracles(text)


def test_backslash_before_line_break_keeps_the_break():
    text = (
        'class A {\n void m() {\n String s = "ab\\\n";\n }\n }\n\n\n'
        "class B {\n int x;\n}\n"
    )
    assert count_loc(text) == 9
    cu = parse_compilation_unit(text, "T.java")
    assert [(c.name, c.loc) for c in cu.classes] == [("A", 6), ("B", 3)]
    assert cu.loc == 9
