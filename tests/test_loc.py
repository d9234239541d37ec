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
# The lexer against the two oracles it replaced, run in turn: the
# character-by-character comment stripper, then the whitespace-group
# tokenizer (javaparse_oracle). A text scanned with a fresh memo has each
# of its distinct lines lexed alone; one whose lines a memo holds already is
# put together from it, which the memo tests below reach.
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


# --------------------------------------------------------------------------
# The line memo: a text put together from lines lexed before scans as it
# does alone
# --------------------------------------------------------------------------

BLOCK_COMMENT_CASES = [
    "a /* b\n c */ d",  # code after the */ that closes a comment opened a line before
    "a /* b\n c */ d /* e */ f\n",  # two comments on the closing line
    "a /* b\n c */ d /* e\n f */ g\n",  # the closing line opens another
    "/* a\n\n b\n*/\nc\n",  # lines wholly inside a comment
    "a /* b\r\n c */ d\r\n",  # CR LF: the CR is blank, only LF ends a line
    "a\r/* b\rc */ d\r\n*/ e",  # a lone CR ends no line either
    "a /* b\n c */ d\n",  # a trailing line break
    "x /*/\n*/ y\n",  # "/*/" opens a comment
    "x /* y\n",  # a comment open at the end
    "/* a\nint b;\n*/\nint b;\n",  # the same line inside a comment, then outside one
    "/* a\n b */",
    "a\n\n",
    "",
]


@pytest.mark.parametrize("text", BLOCK_COMMENT_CASES)
def test_a_text_scans_alike_through_a_memo_that_holds_its_lines(text):
    want = scan_with_oracles(text)
    memo = {}
    assert scan_source(text, memo) == want  # every line new: each distinct one lexed alone
    assert scan_source(text, memo) == want  # every line held: put together from the memo


@pytest.mark.parametrize("text", BLOCK_COMMENT_CASES)
def test_a_text_with_one_new_line_scans_alike(text):
    # the new line is lexed alone and the rest comes from the memo
    rows = text.split("\n")
    for at in range(len(rows)):
        memo = {}
        for case in BLOCK_COMMENT_CASES:
            scan_source(case, memo)
        edited = "\n".join([*rows[:at], rows[at] + " q", *rows[at + 1 :]])
        assert scan_source(edited, memo) == scan_with_oracles(edited), at


LINE_ALPHABET = SCANNER_ALPHABET.replace("\n", "")


@settings(max_examples=300)
@given(
    st.lists(st.text(alphabet=LINE_ALPHABET, max_size=12), min_size=1, max_size=8),
    st.lists(st.lists(st.integers(min_value=0, max_value=7), max_size=12), min_size=1, max_size=6),
    st.booleans(),
)
def test_texts_scanned_through_one_memo_scan_as_they_do_alone(lines, picks, trailing_break):
    # the texts share lines, so a later one meets lines an earlier one lexed
    texts = ["\n".join(lines[i % len(lines)] for i in pick) + "\n" * trailing_break for pick in picks]
    alone = [scan_source(text) for text in texts]
    assert alone == [scan_with_oracles(text) for text in texts]
    memo = {}
    assert [scan_source(text, memo) for text in texts] == alone


def test_equal_lines_share_their_tokens_through_a_memo():
    memo = {}
    _, first, _ = scan_source('x = "same";\n', memo)
    _, second, _ = scan_source('y();\nx = "same";\n', memo)
    assert first[2] is second[6]  # the literal, which is not interned
    _, alone, _ = scan_source('x = "same";\n')
    assert alone[2] == first[2] and alone[2] is not first[2]
