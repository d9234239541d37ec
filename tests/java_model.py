"""A model of the Java that ``faultgraph.javaparse`` reads, for model-based
tests in the style of QuickCheck (Claessen & Hughes, ICFP 2000).

``units()`` draws a compilation unit as a list of items: the tokens to
write, and events that say what they declare or use. ``render`` writes the
tokens as Java text, each after a gap drawn from ``GAPS`` (comments, blank
lines, line breaks), and works out the ``CUFacts`` that parsing the text must
give, or the error it must raise, from the events and from the lines it put
tokens on. Nothing here lexes or parses text; each fact follows a rule of
the parser's documented reading.

The model holds a package and imports; classes and interfaces with type
parameters, annotations, modifiers and supertypes, where a class nested one
level deep is a class of its own and one nested deeper folds into it, and a
class head or closing brace may share a line with a sibling class or with
its parent's code; fields with generic and array types and skipped
initializers; initializer blocks; constructors and methods with type
parameters, parameters and ``throws``; and method bodies with locals, calls
on local, parameter, field, ``this.``, ``super.``, static and qualified
receivers, field reads, comparisons and nested type-argument lists. Names
come from small pools, so a field, a parameter and a local often share one.
"""

from collections import namedtuple
from functools import cache
from types import SimpleNamespace

from hypothesis import strategies as st

from faultgraph.facts import ClassFacts, CUFacts, MethodFacts, name_set

VARS = ("a", "n", "x")  # fields, parameters and locals
TYPES = ("A", "B", "C", "D", "T", "List", "Map", "q.T")
QUALIFIERS = ("q", "r", "util")  # path segments that name no variable
PRIMITIVES = ("int", "boolean", "long", "void", "var")
METHODS = ("go", "run", "size")
LITERALS = ("1", "0x1F", "2L", "'c'", "'\\''", '"s"', '"/* no */"', '"{ // }"', '"a\\"b"', "true", "null")
GAPS = (" ", "\t", "\n  ", "\n\n", " /* c */ ", "/** { \" ' // */", " // { \" '\n", "\n/* a\n * b\n */\n", "// é /*\n")
NL = "\n"  # an item that ends a line; no token holds a line break

# a type's tokens, its raw name, and the names the parser reads from it
Type = namedtuple("Type", "tokens base names")


def dotted(name):
    return [tok for part in name.split(".") for tok in (".", part)][1:]


def T(base, *args, dims=0):
    tokens, names = dotted(base), [base]
    for i, arg in enumerate(args):
        tokens += ["," if i else "<", *arg.tokens]
        names += arg.names
    tokens += [">"] * bool(args) + ["[", "]"] * dims
    return Type(tokens, base, [n for n in names if n not in PRIMITIVES])


def wildcard(bound=None, t=None):
    return Type(["?", bound, *t.tokens] if bound else ["?"], "?", t.names if bound else [])


PLAIN = [T(b) for b in TYPES]
ARGS = [*PLAIN, T("B", dims=1), wildcard(), wildcard("extends", T("C")), wildcard("super", T("A"))]
ONE = [T(b, a) for b in ("List", "q.T") for a in ARGS]
GENERIC = ONE + [T("Map", a, b) for a in PLAIN[:3] for b in ONE[::3]] + [T("Map", T("C"), T("Map", T("A"), ONE[1]))]
ALL = [T(p) for p in PRIMITIVES[:3]] + PLAIN + GENERIC + [T(t.base, dims=d) for t in PLAIN[::2] for d in (1, 2)]
# a call's receiver: a variable (most often), a type, this, super, a literal, or a path
RECEIVERS = [
    *[(v,) for v in VARS] * 6, *[(t,) for t in TYPES[:5]], ("this",), *[("this", v) for v in VARS],
    ("this", "a", "x"), ("super",), ("super", "x"), ('"s"',), ("q", "r", "C"), ("x", "util", "D"),
    ("n", "A", "List"), *[(first, last) for first in ("x", "q", "A") for last in ("b", "C")],
]


def items(*parts):
    """Tokens (strings) and events (tuples), flattened out of lists."""
    out = []
    for part in parts:
        out += [part] if isinstance(part, (str, tuple)) else items(*part)
    return out


def tokens_only(parts):  # a field initializer or an initializer block: the parser skips it
    return [item for item in items(parts) if isinstance(item, str)]


def joined(lists, sep=","):
    return [[sep] * (i > 0) + list(each) for i, each in enumerate(lists)]


def call(segs, method, args):
    """``segs.method(args)``, or ``method(args)`` where ``segs`` is None."""
    if segs is None:
        return items(method, "(", joined(args), ")")
    if segs[0] == "this":
        reads = [("this", name) for name in segs[1:2]]
    else:
        reads = [("use", segs[0])] * (segs[0] in VARS)
    return items(joined([[s] for s in segs], "."), reads, ".", method, "(", joined(args), ")", ("call", segs, method))


variables = st.sampled_from(VARS)
types, generic_types, named_types = st.sampled_from(ALL), st.sampled_from(GENERIC), st.sampled_from(PLAIN + GENERIC)
var_reads = variables.map(lambda v: [v, ("use", v)])
this_reads = variables.map(lambda v: ["this", ".", v, ("this", v)])
leaves = st.one_of(st.sampled_from(LITERALS).map(lambda lit: [lit]), var_reads, this_reads)


@cache
def calls(depth=1):
    args = st.lists(exprs(depth - 1), max_size=2) if depth else st.just([])
    return st.builds(call, st.sampled_from([None, *RECEIVERS]), st.sampled_from(METHODS + VARS), args)


@cache
def exprs(depth=1):
    if depth == 0:
        return leaves
    sub = exprs(depth - 1)
    less = st.one_of(  # no type-argument scan from their '<' reaches a declaration
        st.builds(lambda a, b: items(a, "<", b), st.one_of(sub, st.just(["int"])), st.sampled_from(["1", "2L"])),
        st.builds(lambda a, b: items(a, "<", b), var_reads, this_reads),
        st.builds(lambda a, b, c: items(a, "<", b, ".", c, ">", "1"),  # a < b.c > 1: it closes, no name follows
                  var_reads, var_reads, st.sampled_from(VARS + QUALIFIERS)),
        st.builds(lambda a, op, b: items(a, op, "(", b, ")"), st.sampled_from(["1", "int"]),
                  st.sampled_from(["<", ">", "=="]), sub),
    )
    return st.one_of(
        leaves,
        calls(depth),
        less,
        sub.map(lambda e: items("(", e, ")")),
        st.builds(lambda t, args: items("new", t.tokens, "(", joined(args), ")", ("new", t)),
                  named_types, st.lists(sub, max_size=2)),
        st.builds(lambda b, n: items("new", dotted(b), "[", n, "]", ("new", T(b))), st.sampled_from(TYPES), leaves),
        st.builds(lambda c, a, b: items(c, "?", a, ":", b), var_reads, leaves, leaves),
    )


@cache
def statements(depth=1):
    e = exprs()
    local = st.builds(lambda f, t, v, init: items(NL, f, t.tokens, v, ("decl", v, t), init, ";"),
                      st.sampled_from([[], ["final"]]), st.one_of(types, generic_types, st.just(T("var"))),
                      variables, st.one_of(st.just([]), e.map(lambda x: ["=", x])))
    call_ = calls().map(lambda c: items(NL, c, ";"))
    # a local, then a call on it, whose receiver a parameter or a field of its name may also type
    local_call = st.builds(lambda t, v, m: items(NL, t.tokens, v, ("decl", v, t), ";", NL, call((v,), m, []), ";"),
                           named_types, variables, st.sampled_from(METHODS))
    kinds = [
        local,
        local_call,
        call_,
        call_,
        call_,
        st.builds(lambda target, x: items(NL, target, "=", x, ";"), st.one_of(var_reads, this_reads), e),
        st.builds(lambda x: items(NL, "return", x, ";"), st.one_of(  # no scan starts after `return`
            st.just([]), e, st.builds(lambda a, b: items(a, "<", b), var_reads, var_reads))),
        st.builds(lambda t, v: items(NL, "f", "(", t.tokens, ",", v, ")", ";"), generic_types, var_reads),
        # the scan from `a <` fails at ')' after closing t's lists; t is read through what it recorded
        st.builds(lambda a, b, t, v: items(NL, "call", "(", a, "<", b, ",", t.tokens, v, ("decl", v, t), ")", ";"),
                  var_reads, var_reads, named_types, variables),
        st.builds(lambda t: items(NL, "new", t.tokens, "(", ")", ("new", t), ";"), named_types),
    ]
    if depth:
        block = st.lists(statements(depth - 1), max_size=2).map(lambda ss: items("{", ss, NL, "}"))
        orelse = st.one_of(st.just([]), block.map(lambda b: ["else", b]))
        kinds.append(st.builds(lambda c, a, b: items(NL, "if", "(", c, ")", a, b), e, block, orelse))
    return st.one_of(kinds)


heads = st.sampled_from([
    [], ["public"], ["private", "static"], ["@", "Override", NL, "public"], ["@", "Deprecated", NL],
    ["@", "q", ".", "Ann", "(", "v", "=", "{", "1", ",", '"s"', "}", ")", NL, "final"],
])
type_params = st.sampled_from([[], ["<", "T", ">"], ["<", "K", ",", "T", "extends", "A", ">"]])
params = st.lists(
    st.tuples(st.sampled_from([[], ["@", "Nullable"], ["final"]]), types, st.sampled_from([[], ["."] * 3]), variables),
    max_size=3, unique_by=lambda p: p[3],
)


def method(head, tps, rtype, name, ps, throws, body):
    """``rtype`` is None for a constructor, and ``body`` for a bare ';'."""
    refs = [n for _, t, _, _ in ps for n in t.names] + (rtype.names if rtype else []) + throws
    return items(
        NL, head, tps, rtype.tokens if rtype else [], name, "(", joined([f, t.tokens, dots, v] for f, t, dots, v in ps),
        ")", ["throws", joined(map(dotted, throws))] if throws else [],
        ("method", name, [(v, t.base) for _, t, _, v in ps], refs), ";" if body is None else ["{", body, NL, "}"],
        ("end-method",),
    )


@cache
def methods(cls_name, interface):
    throws = st.sampled_from([[], ["IOException"], ["q.Bad", "E"]])
    body = st.lists(statements(), max_size=4)
    if interface:  # a bodiless method, or a default one
        return st.builds(lambda h, *rest: method(h if rest[-1] is None else ["default"], *rest), heads, type_params,
                         types, st.sampled_from(METHODS), params, throws, st.one_of(st.none(), body))
    # a method, or a constructor named after its class or not
    return st.builds(lambda h, tp, r, m, c, *rest: method(h, tp, r, m if r else c, *rest),
                     heads, type_params, st.one_of(st.just(T("void")), types, st.none()), st.sampled_from(METHODS),
                     st.sampled_from([cls_name, cls_name, "B"]), params, throws, st.one_of(body, body, st.none()))


@st.composite
def classes(draw, names, depth=0):
    """A class or interface named from ``names``, as are the classes in it."""
    name, kind = names.pop(), draw(st.sampled_from(["class", "class", "interface"]))
    supers = st.sampled_from([[], [PLAIN[1]], [GENERIC[0]], [PLAIN[2], PLAIN[7]]])
    ext, impl = (draw(supers)[:1], draw(supers)) if kind == "class" else (draw(supers), [])
    members = []
    for _ in range(draw(st.integers(0, 5))):
        member = draw(st.sampled_from(["field", "field", "method", "method", "class", "block", ";"]))
        if member == "field":
            t = draw(types)
            inits = draw(st.lists(st.tuples(variables, st.one_of(st.just([]), exprs())), min_size=1, max_size=3))
            decls = [[v, ("field", v, t), ["=", tokens_only(init)] if init else []] for v, init in inits]
            members.append(items(NL, draw(heads), t.tokens, joined(decls), ";"))
        elif member == "method" or member == "class" and depth == 2:
            members.append(draw(methods(name, kind == "interface")))
        elif member == "class" and names:
            members.append(draw(classes(names, depth + 1)))
        elif member == "block" and kind == "class":
            block = tokens_only(draw(st.lists(statements(0), max_size=2)))
            members.append(items(NL, draw(st.sampled_from([[], ["static"]])), "{", block, NL, "}"))
        else:
            members.append([NL, ";"])
    clauses = [[word, joined(t.tokens for t in ts)] for word, ts in (("extends", ext), ("implements", impl)) if ts]
    if kind == "interface":  # superinterfaces all behave as implements
        ext, impl = [], ext
    event = ("class", name, kind, ext[0].base if ext else None, [t.base for t in impl])
    # without its line break, a class head shares a line with what comes before it, and its '}' with what is in it
    nl = st.sampled_from([[], [NL]])
    return items(draw(nl), draw(heads), kind, event, name, draw(type_params), clauses, "{", members, draw(nl), "}",
                 ("end",))


# (tokens, the import's name in the facts)
IMPORTS = [
    (["java", ".", "util", ".", "List"], "java.util.List"), (["a", ".", "b", ".", "*"], "a.b.*"),
    (["static", "q", ".", "T", ".", "m"], "q.T"), (["static", "a", ".", "b", ".", "C", ".", "*"], "a.b.C"),
]


@st.composite
def units(draw):
    """A compilation unit: its items, the gaps to write between tokens, its
    package and its imports."""
    package = draw(st.sampled_from([[], ["p"], ["a", ".", "b"]]))
    imports = draw(st.lists(st.sampled_from(IMPORTS), max_size=3))
    names = list(draw(st.permutations(("A", "B", "C", "D", "E", "F", "G", "H", "Inner", "Leaf"))))
    top = [draw(classes(names)) for _ in range(draw(st.integers(1, 2))) if names]
    trailer = [[NL, "@", "Trailing"]] * draw(st.booleans()) + [NL] * draw(st.booleans())
    head = [["package", package, ";"]] * bool(package) + [[NL, "import", i, ";"] for i, _ in imports]
    body = items(head, top, trailer)
    gaps = draw(st.lists(st.sampled_from(GAPS), max_size=8))
    return body, gaps, "".join(package), [name for _, name in imports]


def method_facts(name, params, refs, events, draft) -> MethodFacts:
    referenced, calls_, used, locals_ = set(refs), set(), set(), {}
    for kind, *args in events:  # a declaration counts wherever it stands; the last of a name wins
        if kind == "decl":
            referenced.update(args[1].names)
            if args[1].base not in PRIMITIVES:
                locals_[args[0]] = args[1].base
        elif kind == "new":
            referenced.update(args[0].names)
    fields, shadowed = draft.fields, {*dict(params), *locals_}
    scope = {**fields, **dict(params), **locals_}  # a local, else a parameter, else a field
    for kind, *args in events:
        if kind in ("use", "decl") and args[0] in fields and args[0] not in shadowed:
            used.add(args[0])
        elif kind == "this" and args[0] in fields:
            used.add(args[0])
        elif kind == "call":
            segs, first = args[0], args[0][0]
            if first == "this":
                rtype = fields.get(segs[1]) if len(segs) == 2 else None
            elif first == "super":
                rtype = draft.extends if len(segs) == 1 else None
            elif len(segs) == 1:  # a variable, or a static call
                rtype = scope.get(first, first if first[0].isupper() else None)
                referenced.update([first] if first not in scope and first[0].isupper() else [])
            else:  # a qualified static call, unless it starts at a variable
                rtype = ".".join(segs) if first not in scope and segs[-1][0].isupper() else None
                referenced.update([rtype] if rtype else [])
            if rtype not in (None, *PRIMITIVES, draft.name):
                calls_.add((rtype, args[1]))
                referenced.update([rtype] if "." not in rtype else [])
    return MethodFacts(name, tuple(base for _, base in params), name_set(referenced), name_set(calls_), name_set(used))


def render(unit) -> tuple[str, CUFacts | str]:
    """The text of ``unit``, and the facts that parsing it must give, or the
    message of the ParseError it must raise when it has fewer code lines
    than classes."""
    body, gaps, package, imports = unit
    gaps = iter(gaps * len(body) or [" "] * len(body))
    parts, has_code, drafts, stack, method_ = [], [False], [], [], None
    for item in body:
        if item == NL:
            parts.append(NL)
            has_code.append(False)
        elif isinstance(item, str):
            gap = next(gaps)
            parts += [gap, item]
            has_code += [False] * gap.count(NL)
            has_code[-1] = True
        elif item[0] == "class":  # a class one level deep at most is a class of its own; a deeper one folds in
            if len(stack) < 2:
                _, name, kind, extends, implements = item
                draft = SimpleNamespace(name=name, kind=kind, extends=extends, implements=implements, field_types=[],
                                        fields={}, methods=[], start=len(has_code))
                drafts.append(draft)
            stack.append(draft if len(stack) < 2 else stack[1])
        elif item[0] == "end":  # a folded class's end is overwritten when its class ends
            stack.pop().end = len(has_code)
        elif item[0] == "field":
            stack[-1].fields.setdefault(item[1], item[2].base)
            stack[-1].field_types += item[2].names
        elif item[0] == "method":
            method_ = (*item[1:], [])
        elif item[0] == "end-method":
            stack[-1].methods.append(method_facts(*method_, stack[-1]))
        else:
            method_[-1].append(item)
    if body[-1] == NL:
        has_code.pop()  # a final line break starts no line

    # a class's span runs from its `class` line through its '}' line; each
    # code line counts for the last named class, in declaration order, whose span holds it
    owners = [max([i for i, d in enumerate(drafts) if d.start <= n <= d.end], default=None)
              for n, code in enumerate(has_code, 1) if code]
    if len(owners) < len(drafts):
        return "".join(parts), f"{len(drafts)} classes declared across only {len(owners)} code line(s)"
    classes_ = tuple(
        ClassFacts(d.name, d.kind, d.extends, tuple(d.implements), tuple(sorted(d.field_types)), tuple(d.methods),
                   owners.count(i))
        for i, d in enumerate(drafts)
    )
    return "".join(parts), CUFacts("T.java", package, tuple(imports), classes_, len(owners))
