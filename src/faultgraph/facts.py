"""Per-compilation-unit structural facts and the line-delimited facts file.

A compilation unit (CU) is one Java-like source file; it may declare several
classes. The facts captured here are the minimum needed downstream: class
kinds and relationships, per-method type references and external call sites,
per-method field usage (for cohesion), and code line counts.

Facts file format: UTF-8, one JSON object per line, one CU per line, with
fixed top-level keys ``path``, ``package``, ``imports``, ``classes``, ``loc``.
Class records carry ``name``, ``kind``, ``extends``, ``implements``,
``field_types``, ``methods``, ``loc``; method records carry ``name``,
``param_types``, ``referenced_types``, ``external_calls``, ``used_fields``.
Each list is in written order, which is the field order of ``CUFacts``,
``ClassFacts`` and ``MethodFacts``. A method's name sets
(``referenced_types``, ``external_calls``, ``used_fields``) are held as
sorted tuples of distinct values, and a class's ``field_types`` sorted, the
forms the file lists them in, so the writer is byte-deterministic.
"""

import json
import re
import string
import sys
from typing import NamedTuple

from .errors import FormatError, json_limit, read_utf8, records, write_utf8

CLASS_KINDS = ("class", "interface")

# a tab or line break in a CU path or class name would split a row of the
# tab-separated bundle, and a lone surrogate, the form a file name byte that
# is not UTF-8 takes (PEP 383), has no UTF-8 to write; no such name gets
# past a loader
_ROW_BREAKS = frozenset("\t\r\n")
_SURROGATE = re.compile("[\ud800-\udfff]")


def name_fault(name: str) -> str | None:
    """Why ``name`` cannot be written into a bundle row, or None if it can."""
    if not _ROW_BREAKS.isdisjoint(name):
        return "holds a tab, CR or LF"
    if not name.isascii() and _SURROGATE.search(name):
        return "is not valid Unicode"
    return None


# --------------------------------------------------------------------------
# Source scanning: one regex is the lexer, run over one line at a time, and
# a line memo keeps each distinct line's tokens, so the texts of a corpus
# release lex each of their lines once. It yields the parser's tokens, the
# line of each, and which lines hold code.
# --------------------------------------------------------------------------

# line comment | block comment | identifier | number | string literal | char
# literal | line break | any other non-blank character (a punctuator).
# Leftmost match wins, so a comment marker inside a literal and a quote inside
# a comment are both inert. Literals end at their closing quote, a newline
# (Java literals do not span lines; an escape never consumes the newline) or
# the end of the string lexed; an unterminated block comment runs to the end.
# Only a comment starts with "/" and is longer than one character. A block
# comment is the one lexeme that spans a line break, so a line lexed from its
# start has the same tokens in every text where no comment is open as it
# starts, and ``scan_source`` carries only "inside a block comment" from one
# line to the next. ``_lex_line`` lexes one line, which holds no line break;
# ``token_column`` lexes the whole text.
_LEXEME = re.compile(
    r"""//[^\n]*
      | /\*(?s:.*?)(?:\*/|\Z)
      | [A-Za-z_$][A-Za-z0-9_$]*
      | \d[0-9A-Fa-fxXbBlLfFdDuU_.]*
      | "(?:\\.|[^"\\\n])*"?
      | '(?:\\.|[^'\\\n])*'?
      | \n
      | \S
    """,
    re.VERBOSE,
)
# the characters an identifier or keyword starts with, for the lexer and the
# parser: only identifiers are interned, as facts keep names but no number or
# literal
_IDENT_START = frozenset(string.ascii_letters + "_$")


def _lex_line(row: str) -> tuple[tuple[str, ...], bool]:
    """The tokens of one line lexed from its start outside any comment, and
    whether a block comment it opens runs on past its end."""
    toks: list[str] = []
    opens = False
    for lexeme in _LEXEME.findall(row):
        first = lexeme[0]
        if first in _IDENT_START:
            toks.append(sys.intern(lexeme))
        elif first == "/" and len(lexeme) > 1:  # a comment
            # a block comment left open runs to the end of the line, so only
            # the last lexeme can be one; "/*/" is
            opens = lexeme[1] == "*" and (len(lexeme) < 4 or not lexeme.endswith("*/"))
        else:
            toks.append(lexeme)
    return tuple(toks), opens


def scan_source(text: str, memo: dict | None = None) -> tuple[list[bool], list[str], list[int]]:
    """Lex source text, each distinct line once.

    Returns (line_has_code, tokens, token_lines): line_has_code[i] is True
    when line i holds a token, that is a non-whitespace character outside
    comments; tokens are the identifiers, numbers, literals and punctuators
    in order, and token_lines[j] is the 1-based line of tokens[j]. No token
    holds a newline. Identifiers are interned, so a name is one string
    however many files spell it; numbers and literals, which no facts keep,
    are not.

    ``memo`` (a fresh one if None) maps a line to ``_lex_line``'s lexing of
    it: its tokens, and whether a block comment runs on past its end. A line
    that starts outside a block comment is looked up there, and lexed alone
    and entered if it is not held, so texts scanned through one memo lex
    each of their distinct lines once, and equal lines give the same token
    strings. A line that starts inside a block comment holds no code up to
    the ``*/`` that closes it; the rest of it is lexed alone and not
    entered.
    """
    if memo is None:
        memo = {}
    rows = text.split("\n")
    tokens: list[str] = []
    lines: list[int] = []
    has_code: list[bool] = []
    opens = False
    for number, row in enumerate(rows, 1):
        if opens:  # inside a block comment
            close = row.find("*/")
            if close < 0:
                has_code.append(False)
                continue
            toks, opens = _lex_line(row[close + 2 :])
        else:
            entry = memo.get(row)
            if entry is None:
                entry = memo[row] = _lex_line(row)
            toks, opens = entry
        if toks:
            tokens += toks
            lines += [number] * len(toks)
        has_code.append(bool(toks))
    if not rows[-1]:  # a final line break starts no line
        has_code.pop()
    return has_code, tokens, lines


def token_column(text: str, index: int) -> int:
    """The 1-based column of token ``index`` of ``scan_source(text)``.

    It lexes ``text`` again, so only an error report calls it.
    """
    starts = [m.start() for m in _LEXEME.finditer(text) if m.group() != "\n" and m.group()[:2] not in ("//", "/*")]
    start = starts[index]
    return start - text.rfind("\n", 0, start)


def count_loc(source_text: str) -> int:
    """Count lines that are neither blank nor entirely comment.

    A line counts when any non-whitespace character on it lies outside line
    and block comments; string literal content is code. Empty input gives 0.
    One ``scan_source`` call; the parser reuses its own instead.
    """
    has_code, _, _ = scan_source(source_text)
    return sum(has_code)


# --------------------------------------------------------------------------
# Domain types
# --------------------------------------------------------------------------


def name_set(items: set) -> tuple:
    """A method's name set as held and written: sorted, each value once.

    An empty set gives CPython's one empty tuple.
    """
    return tuple(sorted(items))


class MethodFacts(NamedTuple):
    """One declared method (constructors included, named after the class).

    external_calls holds (receiver type name, method name) pairs for calls
    whose receiver type is not the enclosing class; used_fields holds names
    of the enclosing class's fields the body reads or writes (cohesion input).
    These two and referenced_types are sets held as ``name_set`` tuples,
    sorted with each value once; param_types keeps declaration order. Every
    maker of facts holds them so, and the writer writes them as held.
    """

    name: str
    param_types: tuple[str, ...] = ()
    referenced_types: tuple[str, ...] = ()
    external_calls: tuple[tuple[str, str], ...] = ()
    used_fields: tuple[str, ...] = ()


class ClassFacts(NamedTuple):
    """One declared class or interface, with its own code line count.

    field_types is a multiset held sorted, one entry per declared field's
    type name; every maker of facts sorts it, and the writer writes it as
    held.
    """

    name: str
    kind: str  # "class" | "interface"
    extends: str | None = None
    implements: tuple[str, ...] = ()
    field_types: tuple[str, ...] = ()
    methods: tuple[MethodFacts, ...] = ()
    loc: int = 0


class CUFacts(NamedTuple):
    """Facts for one compilation unit. ``path`` is its identity."""

    path: str
    package: str
    imports: tuple[str, ...] = ()
    classes: tuple[ClassFacts, ...] = ()
    loc: int = 0


# --------------------------------------------------------------------------
# Facts file IO
# --------------------------------------------------------------------------


# Each check raises where it fails, so a message is formatted only for the
# record it rejects.


def _strings(value, what: str, record: int) -> list[str]:
    # sys.intern checks each value while it interns it: it takes a str alone
    if isinstance(value, list):
        try:
            return list(map(sys.intern, value))
        except TypeError:
            pass
    raise FormatError(f"{what} must be a list of strings", record=record)


def _objects(value, what: str, record: int) -> list[dict]:
    if not (isinstance(value, list) and all(isinstance(v, dict) for v in value)):
        raise FormatError(f"{what} must be a list of objects", record=record)
    return value


def _count(value, what: str, record: int) -> int:
    # 2**53 is the largest integer a double holds exactly, and a count is a float statistic's sample
    if not (isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= 2**53):
        raise FormatError(f"{what} must be an integer from 0 to 2**53", record=record)
    return value


def _pair(p) -> tuple[str, str]:
    """An external call's [type, method] pair, interned; anything else
    raises TypeError, as sys.intern does on a value that is not a str."""
    if not (isinstance(p, list) and len(p) == 2):
        raise TypeError
    return sys.intern(p[0]), sys.intern(p[1])


def _method_from_dict(d: dict, record: int) -> MethodFacts:
    if not isinstance(d.get("name"), str):
        raise FormatError("method record needs a name", record=record)
    calls = d.get("external_calls", [])
    try:
        if not isinstance(calls, list):
            raise TypeError
        pairs = set(map(_pair, calls))
    except TypeError:
        raise FormatError("external_calls entries must be [type, method] pairs", record=record) from None
    return MethodFacts(
        sys.intern(d["name"]),
        tuple(_strings(d.get("param_types", []), "param_types", record)),
        name_set(set(_strings(d.get("referenced_types", []), "referenced_types", record))),
        name_set(pairs),
        name_set(set(_strings(d.get("used_fields", []), "used_fields", record))),
    )


def _class_from_dict(d: dict, record: int) -> ClassFacts:
    if not isinstance(d.get("name"), str):
        raise FormatError("class record needs a name", record=record)
    if fault := name_fault(d["name"]):
        raise FormatError(f"class name {fault}", record=record)
    if d.get("kind") not in CLASS_KINDS:
        raise FormatError(f"unknown class kind {d.get('kind')!r}", record=record)
    extends = d.get("extends")
    if not (extends is None or isinstance(extends, str)):
        raise FormatError("extends must be a string or null", record=record)
    return ClassFacts(
        name=sys.intern(d["name"]),
        kind=sys.intern(d["kind"]),
        extends=extends if extends is None else sys.intern(extends),
        implements=tuple(_strings(d.get("implements", []), "implements", record)),
        field_types=tuple(sorted(_strings(d.get("field_types", []), "field_types", record))),
        methods=tuple(_method_from_dict(m, record) for m in _objects(d.get("methods", []), "methods", record)),
        loc=_count(d.get("loc", 0), "class loc", record),
    )


def cu_from_dict(d: dict, record: int = 0) -> CUFacts:
    """One facts record; any missing or mistyped field raises FormatError.
    Its strings are interned, as in parsed facts, so a name decoded from
    many lines is one string; a method's name sets are read in any order
    and with repeats, and held as ``name_set`` tuples."""
    if not isinstance(d, dict):
        raise FormatError("record must be a JSON object", record=record)
    for key in ("path", "package", "imports", "classes", "loc"):
        if key not in d:
            raise FormatError(f"missing field {key!r}", record=record)
    if not (isinstance(d["path"], str) and d["path"] != ""):
        raise FormatError("path must be a non-empty string", record=record)
    if fault := name_fault(d["path"]):
        raise FormatError(f"path {fault}", record=record)
    if not isinstance(d["package"], str):
        raise FormatError("package must be a string", record=record)
    loc = _count(d["loc"], "loc", record)
    classes = tuple(_class_from_dict(c, record) for c in _objects(d["classes"], "classes", record))
    if not classes:
        raise FormatError("classes must be non-empty", record=record)
    if len({c.name for c in classes}) != len(classes):
        raise FormatError("duplicate class name within CU", record=record)
    if loc < len(classes):
        raise FormatError("loc smaller than the number of declared classes", record=record)
    return CUFacts(
        path=sys.intern(d["path"]),
        package=sys.intern(d["package"]),
        imports=tuple(_strings(d["imports"], "imports", record)),
        classes=classes,
        loc=loc,
    )


# the quoted, escaped form of a string that ``json.dumps`` writes with
# ensure_ascii, from the same C function
_quote = json.encoder.encode_basestring_ascii


def _names(items: tuple[str, ...]) -> str:
    return "[" + ",".join(map(_quote, items)) + "]"


def _method_json(m: MethodFacts) -> str:
    calls = ",".join([f"[{_quote(t)},{_quote(n)}]" for t, n in m.external_calls])
    return (
        f'{{"name":{_quote(m.name)},"param_types":{_names(m.param_types)},'
        f'"referenced_types":{_names(m.referenced_types)},"external_calls":[{calls}],'
        f'"used_fields":{_names(m.used_fields)}}}'
    )


def _class_json(c: ClassFacts) -> str:
    extends = "null" if c.extends is None else _quote(c.extends)
    methods = ",".join(map(_method_json, c.methods))
    return (
        f'{{"name":{_quote(c.name)},"kind":{_quote(c.kind)},"extends":{extends},'
        f'"implements":{_names(c.implements)},"field_types":{_names(c.field_types)},'
        f'"methods":[{methods}],"loc":{c.loc}}}'
    )


def _cu_json(cu: CUFacts) -> str:
    classes = ",".join(map(_class_json, cu.classes))
    return (
        f'{{"path":{_quote(cu.path)},"package":{_quote(cu.package)},"imports":{_names(cu.imports)},'
        f'"classes":[{classes}],"loc":{cu.loc}}}\n'
    )


def dump_facts(cus: list[CUFacts], memo: dict[int, tuple[CUFacts, str]] | None = None) -> str:
    """Serialize CUs to facts-file text (one JSON object per line).

    Each CU, class and method is written as a JSON object of its type's
    fields, in field order, with tuples as arrays and no space, as
    ``json.dumps`` with ensure_ascii and compact separators writes it. The
    values are written as held; both makers of facts, the parser and the
    loader, hold them in their canonical forms.

    ``memo`` maps the id of a CUFacts object to the object and its line. It
    holds the object, so the id names no other while it is there. An object
    found there is not encoded again, and the memo is left holding this
    call's objects only.
    """
    if memo is None:
        return "".join(map(_cu_json, cus))
    lines: dict[int, tuple[CUFacts, str]] = {}
    for cu in cus:
        key = id(cu)
        if key not in lines:
            lines[key] = memo.get(key) or (cu, _cu_json(cu))
    memo.clear()
    memo.update(lines)
    return "".join([lines[id(cu)][1] for cu in cus])


def dump_facts_file(cus: list[CUFacts], path, memo: dict[int, tuple[CUFacts, str]] | None = None) -> None:
    write_utf8(path, dump_facts(cus, memo))


def load_facts(text: str, memo: dict[str, CUFacts] | None = None) -> list[CUFacts]:
    """Parse facts-file text; raises FormatError with the 1-based line number.

    ``memo`` maps a line to its CUFacts. A line found there is not decoded
    again; on success the memo is left holding this text's lines only, and
    on failure it is left as it was.
    """
    known = {} if memo is None else memo
    cus: list[CUFacts] = []
    lines: dict[str, CUFacts] = {}
    seen: set[str] = set()
    for idx, line in records(text):
        cu = known.get(line)
        if cu is None:
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON: {exc.msg}", record=idx) from exc
            except (RecursionError, ValueError) as exc:
                raise FormatError(f"invalid JSON: {json_limit(exc)}", record=idx) from exc
            cu = cu_from_dict(raw, record=idx)
        if cu.path in seen:
            raise FormatError(f"duplicate CU path {cu.path!r}", record=idx)
        seen.add(cu.path)
        cus.append(cu)
        lines[line] = cu
    if memo is not None:
        memo.clear()
        memo.update(lines)
    return cus


def load_facts_file(path, memo: dict[str, CUFacts] | None = None) -> list[CUFacts]:
    return load_facts(read_utf8(path, FormatError), memo)
