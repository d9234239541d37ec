"""Oracles for the lexer, kept for differential tests.

Nothing here uses faultgraph's own scanning, so a lexer bug cannot be shared
by the code under test and its oracle.

- ``scan_by_character`` is the character-by-character state machine that
  the regex scanner replaced (with its escape handling fixed so a backslash
  never consumes a line break). It blanks comments to spaces, keeping line
  breaks and tabs, so positions in its stripped text are source positions.
- ``tokenize_with_whitespace_group`` is the tokenizer that matched
  whitespace as a token of its own: ``(kind, value, line, column)`` of every
  token of comment-free text.
- ``scan_with_oracles`` runs the two in turn and returns what
  ``faultgraph.facts.scan_source`` returns.
"""

import re
from bisect import bisect_right

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


_OLD_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<ident>[A-Za-z_$][A-Za-z0-9_$]*)
      | (?P<number>\d[0-9A-Fa-fxXbBlLfFdDuU_.]*)
      | (?P<string>"(?:\\.|[^"\\\n])*"?)
      | (?P<char>'(?:\\.|[^'\\\n])*'?)
      | (?P<punct>.)
    """,
    re.VERBOSE,
)


def tokenize_with_whitespace_group(stripped):
    line_starts = [0]
    for i, ch in enumerate(stripped):
        if ch == "\n":
            line_starts.append(i + 1)
    out = []
    for m in _OLD_TOKEN_RE.finditer(stripped):
        if m.lastgroup == "ws":
            continue
        ln = bisect_right(line_starts, m.start())
        out.append((m.lastgroup, m.group(), ln, m.start() - line_starts[ln - 1] + 1))
    return out


def scan_with_oracles(text):
    """(line_has_code, tokens, token_lines), as ``facts.scan_source`` gives them."""
    has_code, stripped = scan_by_character(text)
    found = tokenize_with_whitespace_group(stripped)
    return has_code, [value for _, value, _, _ in found], [line for _, _, line, _ in found]
