"""Parser for the supported Java-like subset.

Supported: package and import declarations (including wildcard and static
imports), class and interface declarations with extends/implements, fields,
method and constructor signatures, and method bodies scanned for type
references, qualified call sites, and field usage. Generic types are stripped
to their raw name with every type argument recorded as a reference
(``List<A>`` contributes both ``List`` and ``A``).

Tokens come from ``facts.scan_source``, the one lexer, which also yields
each token's 1-based line and the code lines a class's line count reads.
The texts of a corpus release are lexed through one line memo, which
``parse_corpus_dir`` makes and hands down: a line is lexed alone the first
time it starts outside a block comment, so each distinct line is lexed
once and equal lines share their tokens. Tokens are plain strings. A
token's kind follows from its first character: an identifier or keyword
starts with a letter, ``_`` or ``$``, a number with a digit, a string or
char literal with its quote, and anything else is a one-character
punctuator, so ``tok == "("`` is a punctuator test.
No token holds a newline, which makes a newline the end-of-input sentinel. A
token's column is worked out only when a ``ParseError`` reports it, by
lexing the source text again (``facts.token_column``).

One parser reads a file's one token list. A method body is scanned where it
lies in that list: its own braces bound the scan, so every look-ahead stops
at its closing ``}`` and every look-behind at its opening ``{``. The parser
remembers each ``<`` whose type-argument scan is known to fail, so a body
of many comparisons is not read again from each of them, and each ``<`` a
scan closed, with where its list ends and the names it holds, so a list
nested n deep is read once rather than again from each of its ``,``.

Deliberate simplifications, chosen for determinism:
- Named nested classes one level deep are separate classes; anything deeper,
  plus anonymous and local classes, folds into the nearest named class.
- Interfaces report their superinterfaces through ``implements``.
- A type name followed by ``(`` is a constructor, recorded as a method
  with that name.
- Receiver types of calls come from declared parameter/local/field types or
  from an uppercase-initial qualifier (static call); chained calls and
  initializer blocks are ignored.
- A field initializer is skipped, not scanned; type arguments inside it
  (``new HashMap<String, Integer>()``) are skipped as types, so their commas
  end no declarator.
- A class's line count spans its declaration through its closing brace,
  excluding blank/comment lines and the spans of separately counted nested
  classes.
"""

import os
import sys
from collections import Counter
from typing import NamedTuple

from .errors import ParseError, detached, read_utf8
from .facts import (
    _IDENT_START,
    ClassFacts,
    CUFacts,
    MethodFacts,
    name_fault,
    name_set,
    scan_source,
    token_column,
)

KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while true false null
    var""".split()
)

PRIMITIVES = frozenset("boolean byte char double float int long short void var".split())

MODIFIERS = frozenset(
    "public protected private static final abstract synchronized native transient volatile strictfp default".split()
)

_EOF = "\n"
_END = (_EOF, _EOF)  # two, so a look-ahead of one token never runs off the list
_GENERIC = frozenset("<>,?[].")
_OPEN = frozenset("([{")
_CLOSE = frozenset(")]}")
_DECL_END = frozenset("=;,:)")
_BOUNDARY = frozenset("{};(,:")


class _TypeExpr(NamedTuple):
    base: str
    args: list[str]

    def names(self) -> list[str]:
        return [n for n in [self.base, *self.args] if n not in PRIMITIVES]


class _ClassDraft:
    """A named class as the parser reads it: its lists fill, and its
    supertypes and end line are set, as the declaration is read."""

    __slots__ = (
        "name",
        "kind",
        "extends",
        "implements",
        "field_types",
        "fields_by_name",
        "methods",
        "start_line",
        "end_line",
        "children",
    )

    def __init__(self, name: str, kind: str, start_line: int):
        self.name = name
        self.kind = kind
        self.extends: str | None = None
        self.implements: list[str] = []
        self.field_types: list[str] = []
        self.fields_by_name: dict[str, str] = {}
        self.methods: list[MethodFacts] = []
        self.start_line = start_line
        self.end_line = 0
        self.children: list[_ClassDraft] = []


class _Parser:
    """Recursive descent over ``toks``, which ends with the ``_END`` sentinels.

    ``lines`` and ``text`` (the source) serve error positions only.
    """

    def __init__(self, toks: list[str], lines: list[int], text: str):
        self.toks = toks
        self.lines = lines
        self.text = text
        self.pos = 0
        self.package = ""
        self.imports: list[str] = []
        self.drafts: list[_ClassDraft] = []  # named classes, pre-order
        self.no_args: set[int] = set()  # indices of '<' that open no type arguments
        # index of a '<' a scan closed -> (index past its '>', the scan's
        # names, where this list's names start and end in them)
        self.has_args: dict[int, tuple[int, list[str], int, int]] = {}

    # -- token helpers -----------------------------------------------------

    def next(self) -> str:
        tok = self.toks[self.pos]
        if tok == _EOF:
            raise ParseError("unexpected end of file", self._last_line())
        self.pos += 1
        return tok

    def _last_line(self) -> int | None:
        return self.lines[-1] if self.lines else None

    def fail(self, msg: str, at: int | None = None):
        """Raise ParseError at token index ``at`` (default: the current one);
        at the end of input the position is that of the last token."""
        i = min(self.pos if at is None else at, len(self.lines) - 1)
        raise ParseError(msg, self.lines[i], token_column(self.text, i))

    def accept(self, value: str) -> bool:
        if self.toks[self.pos] == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str):
        if not self.accept(value):
            self.fail(f"expected {value!r}")

    def accept_ident(self) -> str | None:
        tok = self.toks[self.pos]
        if tok[0] in _IDENT_START:
            self.pos += 1
            return tok
        return None

    # -- small grammar pieces ----------------------------------------------

    def dotted_name(self) -> str:
        toks = self.toks
        tok = toks[self.pos]
        if tok[0] not in _IDENT_START or (tok in KEYWORDS and tok not in PRIMITIVES):
            self.fail("expected a name")
        self.pos += 1
        parts = [tok]
        while toks[self.pos] == ".":
            nxt = toks[self.pos + 1]
            if nxt[0] not in _IDENT_START or nxt in KEYWORDS:
                break
            self.pos += 2
            parts.append(nxt)
        return ".".join(parts)

    def comma_list(self, item) -> list[str]:
        """``item (, item)*``, each read by ``item()``."""
        names = [item()]
        while self.accept(","):
            names.append(item())
        return names

    def skip_annotations(self):
        toks = self.toks
        while toks[self.pos] == "@":
            self.pos += 1
            if toks[self.pos][0] in _IDENT_START:
                self.dotted_name()
            if toks[self.pos] == "(":
                self.skip_balanced("(", ")")

    def skip_balanced(self, open_: str, close: str):
        self.expect(open_)
        toks, i, depth = self.toks, self.pos, 1
        while depth:
            tok = toks[i]
            if tok == open_:
                depth += 1
            elif tok == close:
                depth -= 1
            elif tok == _EOF:
                raise ParseError("unexpected end of file", self._last_line())
            i += 1
        self.pos = i

    def try_generic_args(self) -> list[str] | None:
        """Scan <...> starting at the current '<'; return collected type names,
        or None (position unchanged) when the contents are not a type list.

        A failed scan stops at a token that a scan from any '<' it left open
        would also read on to and stop at. Those '<' go into ``no_args``, and
        a scan that starts at or reaches one fails at once, so a body of many
        comparisons is not read again from each of its '<'. A successful scan
        records every '<' it closed in ``has_args``, and a scan that starts at
        one returns its names and jumps past it, so a nested list is not read
        again from each of its ','."""
        start = self.pos
        if start in self.no_args:
            return None
        known = self.has_args.get(start)
        if known is not None:
            self.pos, names, first, last = known
            return names[first:last]
        self.pos += 1
        opened = [(start, 0)]  # each '<' this scan opened and has not closed, and len(args) there
        args: list[str] = []
        while opened:
            tok = self.toks[self.pos]
            if tok[0] in _IDENT_START:
                if tok in ("extends", "super"):
                    self.pos += 1
                    continue
                if tok in KEYWORDS and tok not in PRIMITIVES:
                    break
                name = self.dotted_name()
                if name not in PRIMITIVES:
                    args.append(name)
                continue
            if tok not in _GENERIC or self.pos in self.no_args:
                break
            if tok == "<":
                opened.append((self.pos, len(args)))
            elif tok == ">":
                at, first = opened.pop()
                self.has_args[at] = (self.pos + 1, args, first, len(args))
            self.pos += 1
        else:
            return args
        self.no_args.update(at for at, _ in opened)
        self.pos = start
        return None

    def _supertype_name(self) -> str:
        """Name in an extends/implements clause, stripped to its raw type.
        Type arguments of supertypes have no home in the facts and are
        dropped."""
        name = self.dotted_name()
        if self.toks[self.pos] == "<" and self.try_generic_args() is None:
            self.fail("malformed type arguments in supertype clause")
        return name

    def skip_dims(self):
        while self.toks[self.pos] == "[" and self.toks[self.pos + 1] == "]":
            self.pos += 2

    def try_type(self) -> _TypeExpr | None:
        """Parse a type expression at the current position, or return None."""
        tok = self.toks[self.pos]
        if tok[0] not in _IDENT_START or (tok in KEYWORDS and tok not in PRIMITIVES):
            return None
        start = self.pos
        base = self.dotted_name()
        args: list[str] = []
        if self.toks[self.pos] == "<":
            got = self.try_generic_args()
            if got is None and base in PRIMITIVES:
                self.pos = start
                return None
            if got is not None:
                args = got
        self.skip_dims()
        return _TypeExpr(base, args)

    # -- compilation unit ---------------------------------------------------

    def parse_unit(self):
        if self.accept("package"):
            self.package = self.dotted_name()
            self.expect(";")
        self.skip_annotations()
        while self.accept("import"):
            static = self.accept("static")
            name = self.dotted_name()
            if self.accept("."):
                self.expect("*")
                name += ".*"
            if static:
                # import static p.C.member -> the type is p.C
                if name.endswith(".*"):
                    name = name[:-2]
                elif "." in name:
                    name = name.rsplit(".", 1)[0]
            self.expect(";")
            self.imports.append(name)
            self.skip_annotations()
        while self.toks[self.pos] != _EOF:
            self.skip_annotations()
            tok = self.toks[self.pos]
            if tok == _EOF:
                break
            if tok in MODIFIERS or tok == ";":
                self.pos += 1
                continue
            if tok in ("class", "interface"):
                self.parse_class(depth=0, fold_into=None)
                continue
            self.fail(f"unsupported top-level construct {tok!r}")
        if not self.drafts:
            raise ParseError("no class or interface declarations", self._last_line())

    # -- class declarations ---------------------------------------------------

    def parse_class(self, depth: int, fold_into: _ClassDraft | None) -> _ClassDraft:
        """Read a class into a new draft, or into ``fold_into`` when given;
        return the draft read into."""
        start_line = self.lines[self.pos]
        kind = self.next()  # class | interface
        name_at = self.pos
        name = self.accept_ident()
        if name is None or name in KEYWORDS:
            self.fail("expected class name", name_at)
        if self.toks[self.pos] == "<" and self.try_generic_args() is None:
            self.fail("malformed type parameter list")
        extends = self.comma_list(self._supertype_name) if self.accept("extends") else []
        implements = self.comma_list(self._supertype_name) if self.accept("implements") else []
        draft = fold_into
        if draft is None:
            draft = _ClassDraft(name=name, kind=kind, start_line=start_line)
            if kind == "interface":
                # superinterfaces all behave as implements
                draft.implements = extends + implements
            else:
                draft.extends = extends[0] if extends else None
                draft.implements = implements
            self.drafts.append(draft)
        self.expect("{")
        self.parse_members(draft, depth)
        # a folded class's end is overwritten when its named class ends
        draft.end_line = self.lines[self.pos - 1]
        return draft

    def parse_members(self, draft: _ClassDraft, depth: int):
        while True:
            self.skip_annotations()
            tok = self.toks[self.pos]
            if tok == _EOF:
                self.fail("unterminated class body")
            if tok == "}":
                self.pos += 1
                return
            if tok in MODIFIERS or tok == ";":
                self.pos += 1
                continue
            if tok == "{":
                self.skip_balanced("{", "}")  # instance initializer: ignored
                continue
            if tok in ("class", "interface"):
                if depth == 0:
                    draft.children.append(self.parse_class(depth=1, fold_into=None))
                else:
                    self.parse_class(depth=depth + 1, fold_into=draft)
                continue
            if tok in ("enum", "record"):
                self.fail(f"unsupported declaration {tok!r}")
            if tok == "<":
                if self.try_generic_args() is None:
                    self.fail("malformed type parameter list")
                continue
            rtype = self.try_type()
            if rtype is None:
                self.fail(f"unsupported class member near {tok!r}")
            name = self.accept_ident()
            if name is None:
                if self.toks[self.pos] == "(":  # a constructor
                    self.parse_method(draft, name=rtype.base, rtype=None)
                    continue
                self.fail("expected member name")
            if self.toks[self.pos] == "(":
                self.parse_method(draft, name=name, rtype=rtype)
            else:
                self.parse_field(draft, first_name=name, ftype=rtype)

    def parse_field(self, draft: _ClassDraft, first_name: str, ftype: _TypeExpr):
        names = [first_name]
        toks = self.toks
        while True:
            tok = self.next()
            if tok == ";":
                break
            if tok == ",":
                nxt = self.accept_ident()
                if nxt:
                    names.append(nxt)
                continue
            if tok == "=":
                # skip initializer expression up to ',' or ';' at base depth
                level = 0
                while True:
                    t = toks[self.pos]
                    if t == _EOF:
                        self.fail("unterminated field initializer")
                    if t == "<" and self.try_generic_args() is not None:
                        continue  # type arguments; a failed scan leaves '<' an operator
                    if t in _OPEN:
                        level += 1
                    elif t in _CLOSE:
                        level -= 1
                    elif level == 0 and (t == "," or t == ";"):
                        break
                    self.pos += 1
        for n in names:
            draft.fields_by_name.setdefault(n, ftype.base)
            draft.field_types.extend(ftype.names())

    def parse_method(self, draft: _ClassDraft, name: str, rtype: _TypeExpr | None):
        params: list[tuple[str, _TypeExpr]] = []
        self.expect("(")
        while not self.accept(")"):
            self.skip_annotations()
            self.accept("final")
            ptype = self.try_type()
            if ptype is None:
                self.fail("expected parameter type")
            while self.accept("."):  # varargs '...'
                pass
            pname = self.accept_ident() or ""
            self.skip_dims()
            params.append((pname, ptype))
            self.accept(",")
        throws = self.comma_list(self.dotted_name) if self.accept("throws") else []
        referenced: set[str] = set()
        if rtype is not None:
            referenced.update(rtype.names())
        for _, ptype in params:
            referenced.update(ptype.names())
        referenced.update(n for n in throws if n not in PRIMITIVES)
        calls: set[tuple[str, str]] = set()
        used_fields: set[str] = set()
        if not self.accept(";"):
            start = self.pos + 1
            self.skip_balanced("{", "}")
            end = self.pos - 1  # the closing brace
            self.pos = start
            self.scan_body(end, draft, {p: t.base for p, t in params if p}, referenced, calls, used_fields)
            self.pos = end + 1
        draft.methods.append(
            MethodFacts(
                name=name,
                param_types=tuple(t.base for _, t in params),
                referenced_types=name_set(referenced),
                external_calls=name_set(calls),
                used_fields=name_set(used_fields),
            )
        )

    # -- method body scanning -------------------------------------------------

    def scan_body(
        self,
        end: int,
        draft: _ClassDraft,
        params: dict[str, str],
        referenced: set[str],
        calls: set[tuple[str, str]],
        used_fields: set[str],
    ):
        """Scan the body ``toks[pos:end]`` in place; ``toks[end]`` is its
        closing brace and the token before ``toks[pos]`` its opening one."""
        toks = self.toks
        start = self.pos
        locals_: dict[str, str] = {}
        # pass 1: local declarations (flow-insensitive); try_type hands
        # dotted_name only names it accepts, so it never fails here
        boundary = True
        while self.pos < end:
            tok = toks[self.pos]
            if tok == "new":
                self.pos += 1
                t = self.try_type()
                if t is not None:
                    referenced.update(t.names())
                boundary = False
                continue
            if boundary and tok[0] in _IDENT_START and (tok not in KEYWORDS or tok in PRIMITIVES):
                mark = self.pos
                t = self.try_type()
                if t is not None:
                    nm = toks[self.pos]
                    if nm[0] in _IDENT_START and nm not in KEYWORDS and toks[self.pos + 1] in _DECL_END:
                        if t.base not in PRIMITIVES:
                            locals_[nm] = t.base
                        referenced.update(t.names())
                        self.pos += 1
                        boundary = False
                        continue
                self.pos = mark
            boundary = tok in _BOUNDARY or tok == "final"
            self.pos += 1
        shadowed = set(params) | set(locals_)
        # a name's type: a local's, else a parameter's, else a field's
        scope = {**draft.fields_by_name, **params, **locals_}
        # pass 2: call sites and field usage
        fields = draft.fields_by_name
        for i in range(start, end):
            tok = toks[i]
            if tok == "(":
                self._record_call(i, draft, scope, referenced, calls)
            elif tok in fields and tok not in KEYWORDS and toks[i + 1] != "(":
                # a field read, not a call name
                if toks[i - 1] == ".":
                    if toks[i - 2] == "this":
                        used_fields.add(tok)
                elif tok not in shadowed:
                    used_fields.add(tok)

    def _record_call(
        self,
        open_idx: int,
        draft: _ClassDraft,
        scope: dict[str, str],
        referenced: set[str],
        calls: set[tuple[str, str]],
    ):
        """Record the call whose ``(`` is at ``open_idx``; ``scope`` maps a
        variable in scope to its declared type."""
        toks = self.toks
        method = toks[open_idx - 1]
        if method[0] not in _IDENT_START or method in KEYWORDS:
            return
        j = open_idx - 2
        if toks[j] != ".":
            return  # unqualified call: own class
        segs: list[str] = []
        while toks[j] == ".":  # ends at the body's opening brace at the latest
            prev = toks[j - 1]
            if prev[0] not in _IDENT_START:
                return  # receiver is an expression; type unknown
            segs.append(prev)
            j -= 2
        segs.reverse()
        rtype: str | None = None
        if segs[0] == "this":
            if len(segs) == 2:
                rtype = draft.fields_by_name.get(segs[1])
        elif segs[0] == "super":
            if len(segs) == 1 and draft.extends:
                rtype = draft.extends
        elif len(segs) == 1:
            s = segs[0]
            rtype = scope.get(s)
            if rtype is None and s[0].isupper():
                rtype = s
                referenced.add(s)
        else:
            if segs[0] in scope:
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


def parse_compilation_unit(source_text: str, path: str, line_memo: dict | None = None) -> CUFacts:
    """Parse one source file into CUFacts. Raises ParseError with position.
    Its lines are lexed through ``line_memo`` (see ``scan_source``)."""
    has_code, toks, lines = scan_source(source_text, line_memo)
    toks += _END
    parser = _Parser(toks, lines, source_text)
    try:
        parser.parse_unit()
    except RecursionError:  # parse_class recurses once per nested class
        # no position: where the stack runs out depends on the caller's depth
        raise ParseError("class declarations nested too deeply") from None
    counts = Counter(d.name for d in parser.drafts)
    if len(counts) != len(parser.drafts):
        dup = min(n for n, k in counts.items() if k > 1)
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


def parse_corpus_dir(
    root, memo: dict[str, CUFacts | ParseError] | None = None
) -> tuple[list[CUFacts], list[tuple[str, ParseError]]]:
    """Parse every .java file under root (sorted relative paths).

    Returns (facts, failures); files that fail to parse, are not UTF-8, or
    whose relative path holds a tab, CR or LF or is not valid Unicode are
    reported, never silently dropped. ``memo`` maps source text to its
    facts or its ParseError; a text parsed before, in this call or in the
    previous one given the same memo, is not parsed again. On return the
    memo holds this call's texts only, so consecutive releases share their
    unchanged files and no older release's texts stay alive. The parser
    reads a file's path only into ``CUFacts.path``, so a hit differs from a
    fresh parse in no other field. Paths are interned, so a CU's path is the
    string the commit log names.

    The texts this call parses are lexed through one line memo (see
    ``scan_source``), so each distinct line is lexed once; it lives for
    this call only.
    """
    known = {} if memo is None else memo
    line_memo: dict[str, tuple[tuple[str, ...], bool]] = {}
    texts: dict[str, CUFacts | ParseError] = {}
    paths: list[str] = []
    for dirpath, _, filenames in os.walk(root):
        names = [fn for fn in filenames if fn.endswith(".java")]
        if names:
            rel_dir = os.path.relpath(dirpath, root).replace(os.sep, "/")
            prefix = "" if rel_dir == "." else rel_dir + "/"
            paths += [sys.intern(prefix + fn) for fn in names]
    paths.sort()
    facts: list[CUFacts] = []
    failures: list[tuple[str, ParseError]] = []
    for rel in paths:
        if fault := name_fault(rel):
            failures.append((rel, ParseError(f"path {rel!r} {fault}")))
            continue
        full = os.path.join(root, rel.replace("/", os.sep))
        try:
            text = read_utf8(full, ParseError)
        except ParseError as exc:
            failures.append((rel, detached(exc)))
            continue
        if "\r" in text:  # CR, LF and CR LF each end a Java line (JLS 3.4)
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        hit = texts.get(text, known.get(text))
        if hit is None:
            try:
                hit = parse_compilation_unit(text, rel, line_memo)
            except ParseError as exc:
                hit = detached(exc)
        texts[text] = hit
        if isinstance(hit, ParseError):
            failures.append((rel, hit))
        else:
            facts.append(hit if hit.path == rel else hit._replace(path=rel))
    if memo is not None:
        memo.clear()
        memo.update(texts)
    return facts, failures
