"""Oracles for the lexer and the parser, kept for differential tests.

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
- ``parse_compilation_unit`` is the object-token parser that string tokens
  replaced: ``_Parser`` checks kinds and values on every step. It must give
  the same ``CUFacts``, or the same ``ParseError`` message, line and column,
  as ``faultgraph.javaparse.parse_compilation_unit`` on any text.
"""

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

from faultgraph.errors import ParseError
from faultgraph.facts import ClassFacts, CUFacts, MethodFacts
from faultgraph.javaparse import KEYWORDS, MODIFIERS, PRIMITIVES

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


class Token(NamedTuple):
    kind: str  # ident | number | string | char | punct
    value: str
    line: int
    col: int


@dataclass
class _TypeExpr:
    base: str
    args: list[str]

    def names(self) -> list[str]:
        return [n for n in [self.base, *self.args] if n not in PRIMITIVES]


@dataclass
class _ClassDraft:
    name: str
    kind: str
    extends: str | None = None
    implements: list[str] = field(default_factory=list)
    field_types: list[str] = field(default_factory=list)
    fields_by_name: dict[str, str] = field(default_factory=dict)
    methods: list[MethodFacts] = field(default_factory=list)
    start_line: int = 0
    end_line: int = 0
    children: list["_ClassDraft"] = field(default_factory=list)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        self.package = ""
        self.imports: list[str] = []
        self.drafts: list[_ClassDraft] = []  # named classes, pre-order

    # -- token helpers -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token | None:
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of file", self._last_line())
        self.pos += 1
        return tok

    def _last_line(self) -> int | None:
        return self.toks[-1].line if self.toks else None

    def fail(self, msg: str, tok: Token | None = None):
        tok = tok or self.peek() or (self.toks[-1] if self.toks else None)
        if tok is None:
            raise ParseError(msg)
        raise ParseError(msg, tok.line, tok.col)

    def accept_punct(self, value: str) -> bool:
        tok = self.peek()
        if tok and tok.kind == "punct" and tok.value == value:
            self.pos += 1
            return True
        return False

    def expect_punct(self, value: str):
        if not self.accept_punct(value):
            self.fail(f"expected {value!r}")

    def accept_ident(self, value: str | None = None) -> str | None:
        tok = self.peek()
        if tok and tok.kind == "ident" and (value is None or tok.value == value):
            self.pos += 1
            return tok.value
        return None

    # -- small grammar pieces ----------------------------------------------

    def dotted_name(self) -> str:
        tok = self.peek()
        if tok is None or tok.kind != "ident" or (tok.value in KEYWORDS and tok.value not in PRIMITIVES):
            self.fail("expected a name")
        parts = [self.next().value]
        while True:
            dot = self.peek()
            nxt = self.peek(1)
            if (
                dot
                and dot.kind == "punct"
                and dot.value == "."
                and nxt
                and nxt.kind == "ident"
                and nxt.value not in KEYWORDS
            ):
                self.pos += 2
                parts.append(nxt.value)
            else:
                break
        return ".".join(parts)

    def skip_annotation(self) -> bool:
        if not (self.peek() and self.peek().kind == "punct" and self.peek().value == "@"):
            return False
        self.pos += 1
        tok = self.peek()
        if tok and tok.kind == "ident":
            self.dotted_name()
        if self.peek() and self.peek().kind == "punct" and self.peek().value == "(":
            self.skip_balanced("(", ")")
        return True

    def skip_balanced(self, open_: str, close: str):
        self.expect_punct(open_)
        depth = 1
        while depth:
            tok = self.next()
            if tok.kind == "punct":
                if tok.value == open_:
                    depth += 1
                elif tok.value == close:
                    depth -= 1

    def try_generic_args(self) -> list[str] | None:
        """Scan <...> starting at the current '<'; return collected type names,
        or None (position unchanged) when the contents are not a type list."""
        start = self.pos
        assert self.accept_punct("<")
        depth = 1
        args: list[str] = []
        while depth:
            tok = self.peek()
            if tok is None:
                self.pos = start
                return None
            if tok.kind == "ident":
                if tok.value in ("extends", "super"):
                    self.pos += 1
                    continue
                if tok.value in KEYWORDS and tok.value not in PRIMITIVES:
                    self.pos = start
                    return None
                name = self.dotted_name()
                if name not in PRIMITIVES:
                    args.append(name)
                continue
            if tok.kind != "punct" or tok.value not in "<>,?[].":
                self.pos = start
                return None
            self.pos += 1
            if tok.value == "<":
                depth += 1
            elif tok.value == ">":
                depth -= 1
        return args

    def _supertype_name(self) -> str:
        """Name in an extends/implements clause, stripped to its raw type.
        Type arguments of supertypes have no home in the facts and are
        dropped."""
        name = self.dotted_name()
        if self.peek() and self.peek().kind == "punct" and self.peek().value == "<":
            if self.try_generic_args() is None:
                self.fail("malformed type arguments in supertype clause")
        return name

    def try_type(self) -> _TypeExpr | None:
        """Parse a type expression at the current position, or return None."""
        tok = self.peek()
        if tok is None or tok.kind != "ident":
            return None
        if tok.value in KEYWORDS and tok.value not in PRIMITIVES:
            return None
        start = self.pos
        base = self.dotted_name()
        args: list[str] = []
        if self.peek() and self.peek().kind == "punct" and self.peek().value == "<":
            got = self.try_generic_args()
            if got is None and base in PRIMITIVES:
                self.pos = start
                return None
            if got is not None:
                args = got
        while (
            self.peek()
            and self.peek().kind == "punct"
            and self.peek().value == "["
            and self.peek(1)
            and self.peek(1).kind == "punct"
            and self.peek(1).value == "]"
        ):
            self.pos += 2
        return _TypeExpr(base, args)

    # -- compilation unit ---------------------------------------------------

    def parse_unit(self):
        if self.accept_ident("package"):
            self.package = self.dotted_name()
            self.expect_punct(";")
        while True:
            while self.skip_annotation():
                pass
            if self.accept_ident("import"):
                static = self.accept_ident("static") is not None
                name = self.dotted_name()
                if self.accept_punct("."):
                    self.expect_punct("*")
                    name += ".*"
                if static:
                    # import static p.C.member -> the type is p.C
                    if name.endswith(".*"):
                        name = name[:-2]
                    elif "." in name:
                        name = name.rsplit(".", 1)[0]
                self.expect_punct(";")
                self.imports.append(name)
                continue
            break
        saw_type = False
        while self.peek() is not None:
            while self.skip_annotation():
                pass
            tok = self.peek()
            if tok is None:
                break
            if tok.kind == "ident" and tok.value in MODIFIERS:
                self.pos += 1
                continue
            if tok.kind == "ident" and tok.value in ("class", "interface"):
                self.parse_class(depth=0, fold_into=None)
                saw_type = True
                continue
            if tok.kind == "punct" and tok.value == ";":
                self.pos += 1
                continue
            self.fail(f"unsupported top-level construct {tok.value!r}", tok)
        if not saw_type:
            raise ParseError("no class or interface declarations", self._last_line())

    # -- class declarations ---------------------------------------------------

    def parse_class(self, depth: int, fold_into: _ClassDraft | None) -> None:
        kw = self.next()  # class | interface
        kind = kw.value
        name_tok = self.peek()
        name = self.accept_ident()
        if name is None or name in KEYWORDS:
            self.fail("expected class name", name_tok)
        if self.peek() and self.peek().kind == "punct" and self.peek().value == "<":
            if self.try_generic_args() is None:
                self.fail("malformed type parameter list")
        folded = fold_into is not None
        if folded:
            draft = fold_into
        else:
            draft = _ClassDraft(name=name, kind=kind, start_line=kw.line)
            self.drafts.append(draft)
        extends: list[str] = []
        implements: list[str] = []
        if self.accept_ident("extends"):
            extends.append(self._supertype_name())
            while self.accept_punct(","):
                extends.append(self._supertype_name())
        if self.accept_ident("implements"):
            implements.append(self._supertype_name())
            while self.accept_punct(","):
                implements.append(self._supertype_name())
        if not folded:
            if kind == "interface":
                # superinterfaces all behave as implements
                draft.implements = extends + implements
            else:
                draft.extends = extends[0] if extends else None
                draft.implements = implements
        self.expect_punct("{")
        self.parse_members(draft, depth)
        if not folded:
            draft.end_line = self.toks[self.pos - 1].line

    def parse_members(self, draft: _ClassDraft, depth: int):
        while True:
            tok = self.peek()
            if tok is None:
                self.fail("unterminated class body")
            if tok.kind == "punct" and tok.value == "}":
                self.pos += 1
                return
            if self.skip_annotation():
                continue
            if tok.kind == "punct" and tok.value == ";":
                self.pos += 1
                continue
            if tok.kind == "punct" and tok.value == "{":
                self.skip_balanced("{", "}")  # instance initializer: ignored
                continue
            if tok.kind == "ident" and tok.value in MODIFIERS:
                self.pos += 1
                continue
            if tok.kind == "ident" and tok.value in ("class", "interface"):
                if depth == 0:
                    child = len(self.drafts)
                    self.parse_class(depth=1, fold_into=None)
                    draft.children.append(self.drafts[child])
                else:
                    self.parse_class(depth=depth + 1, fold_into=draft)
                continue
            if tok.kind == "ident" and tok.value in ("enum", "record"):
                self.fail(f"unsupported declaration {tok.value!r}", tok)
            if tok.kind == "punct" and tok.value == "<":
                if self.try_generic_args() is None:
                    self.fail("malformed type parameter list")
                continue
            # constructor: ClassName (
            if (
                tok.kind == "ident"
                and tok.value == draft.name
                and self.peek(1)
                and self.peek(1).kind == "punct"
                and self.peek(1).value == "("
            ):
                self.pos += 1
                self.parse_method(draft, name=draft.name, rtype=None)
                continue
            rtype = self.try_type()
            if rtype is None:
                self.fail(f"unsupported class member near {tok.value!r}", tok)
            name = self.accept_ident()
            if name is None:
                if self.peek() and self.peek().kind == "punct" and self.peek().value == "(":
                    # constructor of a folded nested class
                    self.parse_method(draft, name=rtype.base, rtype=None)
                    continue
                self.fail("expected member name")
            if self.peek() and self.peek().kind == "punct" and self.peek().value == "(":
                self.parse_method(draft, name=name, rtype=rtype)
            else:
                self.parse_field(draft, first_name=name, ftype=rtype)

    def parse_field(self, draft: _ClassDraft, first_name: str, ftype: _TypeExpr):
        names = [first_name]
        while True:
            tok = self.next()
            if tok.kind == "punct" and tok.value == ";":
                break
            if tok.kind == "punct" and tok.value == ",":
                nxt = self.accept_ident()
                if nxt:
                    names.append(nxt)
                continue
            if tok.kind == "punct" and tok.value == "=":
                # skip initializer expression up to ',' or ';' at base depth
                level = 0
                while True:
                    t = self.peek()
                    if t is None:
                        self.fail("unterminated field initializer")
                    if t.kind == "punct" and t.value == "<" and self.try_generic_args() is not None:
                        continue  # type arguments; a failed scan leaves '<' an operator
                    if t.kind == "punct" and t.value in "([{":
                        level += 1
                    elif t.kind == "punct" and t.value in ")]}":
                        level -= 1
                    elif level == 0 and t.kind == "punct" and t.value in ",;":
                        break
                    self.pos += 1
        for n in names:
            draft.fields_by_name.setdefault(n, ftype.base)
            draft.field_types.extend(ftype.names())

    def parse_method(self, draft: _ClassDraft, name: str, rtype: _TypeExpr | None):
        params: list[tuple[str, _TypeExpr]] = []
        self.expect_punct("(")
        while not self.accept_punct(")"):
            while self.skip_annotation():
                pass
            if self.accept_ident("final"):
                pass
            ptype = self.try_type()
            if ptype is None:
                self.fail("expected parameter type")
            while self.accept_punct("."):  # varargs '...'
                pass
            pname = self.accept_ident() or ""
            while (
                self.peek()
                and self.peek().kind == "punct"
                and self.peek().value == "["
                and self.peek(1)
                and self.peek(1).kind == "punct"
                and self.peek(1).value == "]"
            ):
                self.pos += 2
            params.append((pname, ptype))
            self.accept_punct(",")
        throws: list[str] = []
        if self.accept_ident("throws"):
            throws.append(self.dotted_name())
            while self.accept_punct(","):
                throws.append(self.dotted_name())
        referenced: set[str] = set()
        if rtype is not None:
            referenced.update(rtype.names())
        for _, ptype in params:
            referenced.update(ptype.names())
        referenced.update(n for n in throws if n not in PRIMITIVES)
        calls: set[tuple[str, str]] = set()
        used_fields: set[str] = set()
        if self.accept_punct(";"):
            body: list[Token] = []
        else:
            body = self.collect_body()
            self.scan_body(body, draft, {p: t.base for p, t in params if p}, referenced, calls, used_fields)
        draft.methods.append(
            MethodFacts(
                name=name,
                param_types=tuple(t.base for _, t in params),
                referenced_types=tuple(sorted(referenced)),
                external_calls=tuple(sorted((t, m) for t, m in calls if t != draft.name)),
                used_fields=tuple(sorted(used_fields)),
            )
        )

    def collect_body(self) -> list[Token]:
        start = self.pos
        self.skip_balanced("{", "}")
        return self.toks[start + 1 : self.pos - 1]

    # -- method body scanning -------------------------------------------------

    def scan_body(
        self,
        body: list[Token],
        draft: _ClassDraft,
        params: dict[str, str],
        referenced: set[str],
        calls: set[tuple[str, str]],
        used_fields: set[str],
    ):
        locals_: dict[str, str] = {}
        sub = _Parser(body)
        # pass 1: local declarations (flow-insensitive)
        boundary = True
        while sub.peek() is not None:
            tok = sub.peek()
            if tok.kind == "ident" and tok.value == "new":
                sub.pos += 1
                t = sub.try_type()
                if t is not None:
                    referenced.update(t.names())
                boundary = False
                continue
            if boundary and tok.kind == "ident" and (tok.value not in KEYWORDS or tok.value in PRIMITIVES):
                mark = sub.pos
                t = sub.try_type()
                if t is not None:
                    nm = sub.peek()
                    after = sub.peek(1)
                    if (
                        nm
                        and nm.kind == "ident"
                        and nm.value not in KEYWORDS
                        and after
                        and after.kind == "punct"
                        and after.value in "=;,:)"
                    ):
                        if t.base not in PRIMITIVES:
                            locals_[nm.value] = t.base
                        referenced.update(t.names())
                        sub.pos += 1
                        boundary = False
                        continue
                sub.pos = mark
            boundary = tok.kind == "punct" and tok.value in "{};(,:" or (
                tok.kind == "ident" and tok.value == "final"
            )
            sub.pos += 1
        shadowed = set(params) | set(locals_)
        # pass 2: call sites and field usage
        for i, tok in enumerate(body):
            if tok.kind == "punct" and tok.value == "(" and i >= 1:
                self._record_call(body, i, draft, params, locals_, referenced, calls)
            if tok.kind != "ident" or tok.value in KEYWORDS:
                continue
            name = tok.value
            prev = body[i - 1] if i >= 1 else None
            nxt = body[i + 1] if i + 1 < len(body) else None
            if nxt and nxt.kind == "punct" and nxt.value == "(":
                continue  # call name, not a field read
            if name not in draft.fields_by_name:
                continue
            if prev and prev.kind == "punct" and prev.value == ".":
                pre2 = body[i - 2] if i >= 2 else None
                if pre2 and pre2.kind == "ident" and pre2.value == "this":
                    used_fields.add(name)
                continue
            if name not in shadowed:
                used_fields.add(name)

    def _record_call(
        self,
        body: list[Token],
        open_idx: int,
        draft: _ClassDraft,
        params: dict[str, str],
        locals_: dict[str, str],
        referenced: set[str],
        calls: set[tuple[str, str]],
    ):
        m_tok = body[open_idx - 1]
        if m_tok.kind != "ident" or m_tok.value in KEYWORDS:
            return
        j = open_idx - 2
        if j < 0 or body[j].kind != "punct" or body[j].value != ".":
            return  # unqualified call: own class
        segs: list[str] = []
        while j >= 0 and body[j].kind == "punct" and body[j].value == ".":
            prev = body[j - 1] if j >= 1 else None
            if prev is None or prev.kind != "ident":
                return  # receiver is an expression; type unknown
            segs.append(prev.value)
            j -= 2
        segs.reverse()
        method = m_tok.value
        rtype: str | None = None
        if segs[0] == "this":
            if len(segs) == 2 and segs[1] in draft.fields_by_name:
                rtype = draft.fields_by_name[segs[1]]
        elif segs[0] == "super":
            if len(segs) == 1 and draft.extends:
                rtype = draft.extends
        elif len(segs) == 1:
            s = segs[0]
            if s in locals_:
                rtype = locals_[s]
            elif s in params:
                rtype = params[s]
            elif s in draft.fields_by_name:
                rtype = draft.fields_by_name[s]
            elif s[0].isupper():
                rtype = s
                if s not in PRIMITIVES:
                    referenced.add(s)
        else:
            if segs[0] in locals_ or segs[0] in params or segs[0] in draft.fields_by_name:
                return  # member access chain on an object
            if segs[-1][0].isupper():
                rtype = ".".join(segs)
                referenced.add(rtype)
        if rtype is None or rtype in PRIMITIVES or rtype == draft.name:
            return
        calls.add((rtype, method))
        if "." not in rtype:
            referenced.add(rtype)


def _draft_loc(draft: _ClassDraft, has_code: list[bool]) -> int:
    span = sum(has_code[draft.start_line - 1 : draft.end_line])
    for child in draft.children:
        span -= sum(has_code[child.start_line - 1 : child.end_line])
    return max(span, 0)


def parse_compilation_unit(source_text: str, path: str) -> CUFacts:
    """Parse one source file into CUFacts. Raises ParseError with position."""
    has_code, stripped = scan_by_character(source_text)
    parser = _Parser([Token(*found) for found in tokenize_with_whitespace_group(stripped)])
    parser.parse_unit()
    names = [d.name for d in parser.drafts]
    if len(names) != len(set(names)):
        dup = sorted({n for n in names if names.count(n) > 1})[0]
        raise ParseError(f"duplicate class name {dup!r} in compilation unit")
    classes = tuple(
        ClassFacts(
            name=d.name,
            kind=d.kind,
            extends=d.extends,
            implements=tuple(d.implements),
            field_types=tuple(sorted(d.field_types)),
            methods=tuple(d.methods),
            loc=_draft_loc(d, has_code),
        )
        for d in parser.drafts
    )
    loc = sum(has_code)
    if loc < len(classes):
        # every declared class must occupy at least one counted line; a CU
        # packing several classes onto fewer lines cannot be represented
        raise ParseError(f"{len(classes)} classes declared across only {loc} code line(s)")
    return CUFacts(
        path=path,
        package=parser.package,
        imports=tuple(parser.imports),
        classes=classes,
        loc=loc,
    )
