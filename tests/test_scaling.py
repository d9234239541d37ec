"""No input drives a stage superlinear: one test per input shape that once did.

Each shape was probed at n, 2n and 4n, in process, on a 2-vCPU VM with
Python 3.11 (the best of two or three runs; seconds):

Mended, before -> after, at n = 1,000 / 2,000 / 4,000:

- parse, one method body calling ``f(a < b, a < b, ...)`` with n
  comparisons: 0.73 / 2.44 / 7.92 -> 0.006 / 0.011 / 0.021. Every boundary
  token started a type-argument scan that read on to the closing ``)``.
- parse, one body calling ``f(Map<A, Map<A, ... B>...>)`` with the list
  nested n deep, at n = 500 / 1,000 / 2,000: 0.16 / 0.62 / 2.54 -> 0.007 /
  0.013 / 0.029. The scan from each ``,`` inside it succeeded and read the
  rest of the nest again.
- resolve, one CU with n single-type imports and n field types, each
  naming a corpus class: 0.095 / 0.37 / 1.45 -> 0.005 / 0.011 / 0.025
  (10,000: 9.2 -> 0.069). Each name walked the imports.
- resolve, the same with n wildcard imports: 0.65 / 1.50 / 6.39 ->
  0.006 / 0.012 / 0.027. Each name walked the imports twice.
- bug mapping, one commit message citing n registered ids against n
  excluded intervals: 0.026 / 0.10 / 0.35 -> 0.002 / 0.004 / 0.009
  (20,000: 9.5 -> 0.035). Each id walked the intervals.

Linear already, at n = 2,000 / 8,000:

- a class of n methods, parsed and resolved: 0.022 / 0.093;
- one body of n qualified calls ``X.f()`` over 50 receivers, parsed and
  resolved: 0.010 / 0.046;
- one receiver chain ``a.b1.b2...f()`` of n segments, parsed: 0.004 / 0.015;
- n fields, each used in one body, parsed: 0.021 / 0.054;
- no line repeating anywhere, the line memo's worst case: the 1,299
  distinct texts of the seed-7 ``release-pair`` corpus, each line given a
  unique ``// n`` comment, so the tokens stay and every line is distinct;
  ``parse_corpus_dir`` at 650 / 1,299 texts (26,543 / 54,172 lines), with
  the collector off as ``main`` runs, over two sets of ten alternated
  processes, one regex pass per text -> the line memo, which lexes each
  new line alone: medians 0.183 / 0.354 -> 0.202 / 0.408, with a median
  pair ratio of 1.08-1.16 in each set and size. Lexing a text's new lines
  in one regex pass over them joined took 0.213 / 0.433 (ratios
  1.14-1.18). The same texts as written, whose 54,172 lines hold 5,499
  distinct ones: 0.354 -> 0.279 at 1,299.

Superlinear still, and to be mended: the continuous tail fit's x_min
screen on a "comb", m log-spaced values (``np.exp(np.linspace(0, 20, m))``)
each repeated 50 times with 1e-9 relative jitter. A whole fit takes
0.13-0.21 / 0.34-0.48 / 1.0-1.3 / 3.0-3.5 at 25,000 / 50,000 / 100,000 /
200,000 samples (0.44-0.47 / 1.2 / 2.2-3.8 / 6.2-9.5 with the screen
before batching, in the same two runs), and the screen evaluates 32 / 43
/ 56 / 74 points per candidate, about n^0.4; 100,000 Pareto draws take
0.16-0.26, at 23 points per candidate.
``tests/test_tailstats.py`` gates both counts.

The one quadratic shape allowed: lcom counts the method pairs of a class
that share no field, which is the orthogonal-vectors problem, for which no
subquadratic algorithm is known (R. Williams 2005, "A new algorithm for
optimal 2-constraint satisfaction and its implications", TCS 348:357). The
metrics of one class of 1,000 / 2,000 / 4,000 methods, each using its own
field, take 0.027 / 0.11 / 0.45.

Each test below is sized so that the code before its mend took at least
ten times its bound, and times only the stage under test; where the work
has a natural count, the test asserts on the count, so the speed of the
host cannot decide it.
"""

import time

from faultgraph import facts, javaparse
from faultgraph.bugs import FilterConfig, extract_issue_refs
from faultgraph.facts import ClassFacts, CUFacts
from faultgraph.javaparse import _Parser, parse_compilation_unit, parse_corpus_dir
from faultgraph.resolve import COMPOSITION, resolve_type_references


def test_a_failed_type_argument_scan_is_read_once(monkeypatch):
    # each comparison is one boundary (`(` or `,`) whose type scan reads a
    # name, and the first scan reads every name up to `)`: about 3n reads.
    # Scanning again from every `<` read about n*n: a million at n = 1,000.
    reads = 0
    dotted_name = _Parser.dotted_name

    def counted(self):
        nonlocal reads
        reads += 1
        return dotted_name(self)

    monkeypatch.setattr(_Parser, "dotted_name", counted)
    n = 1000
    source = "class A {\n    void m() {\n        f(" + ", ".join(["a < b"] * n) + ");\n    }\n}\n"
    cu = parse_compilation_unit(source, "A.java")
    assert reads <= 4 * n
    assert cu.classes[0].methods[0].referenced_types == ()


def nested_call(n: int) -> str:
    """One body calling ``f(Map<A, Map<A, ... B>...>)``, the list nested n deep."""
    return "class A {\n    void m() {\n        f(" + "Map<A, " * n + "B" + ">" * n + ");\n    }\n}\n"


def test_a_nested_type_argument_list_is_read_once(monkeypatch):
    # the scan from the outermost `<` reads each of the 2n + 1 names once,
    # and the scan from each of the n `,` boundaries reads `Map` before
    # jumping past its recorded list: 3n + 3 reads. Reading the rest of the
    # nest again from each `,` read about n*n: a million at n = 1,000.
    reads = 0
    dotted_name = _Parser.dotted_name

    def counted(self):
        nonlocal reads
        reads += 1
        return dotted_name(self)

    monkeypatch.setattr(_Parser, "dotted_name", counted)
    n = 1000
    cu = parse_compilation_unit(nested_call(n), "A.java")
    assert reads <= 4 * n
    assert cu.classes[0].methods[0].referenced_types == ()


def test_a_nested_type_argument_list_parses_in_linear_time():
    source = nested_call(2000)
    start = time.monotonic()
    parse_compilation_unit(source, "A.java")
    assert time.monotonic() - start < 0.5  # took 2.5 s


def test_each_distinct_line_is_lexed_once_where_no_line_repeats(tmp_path, monkeypatch):
    # the line memo's worst case: every line of every text is new, save the
    # empty one after each final line break. Each line that starts outside
    # a block comment is lexed alone once and entered; the two that start
    # inside one are not, and the rest of each after its "*/" is lexed alone
    # and not entered. A second parse_corpus_dir call has a line memo of its
    # own, so it lexes every line again.
    n = 200
    template = ["package p{i};", "", "/** C{i}", "   is a class */", "public class C{i} {{", "    int f; /* a"]
    template += ["       b */ int g;", "    void m() {{", "        f = g + 1;", "    }}", "}}"]
    lines = [[f"{row.format(i=i)} // {i}.{k}" for k, row in enumerate(template)] for i in range(n)]
    for i, text_lines in enumerate(lines):
        (tmp_path / f"C{i}.java").write_text("".join(line + "\n" for line in text_lines), encoding="utf-8")
    in_comment = [line for text_lines in lines for line in (text_lines[3], text_lines[6])]
    from_start = [line for text_lines in lines for line in text_lines if line not in in_comment] + [""]
    rests = [line.split("*/", 1)[1] for line in in_comment]
    lexed, memos = [], {}
    lex_line, scan = facts._lex_line, javaparse.scan_source

    def counted(row):
        lexed.append(row)
        return lex_line(row)

    def scan_recorded(text, memo=None):
        memos[id(memo)] = memo
        return scan(text, memo)

    monkeypatch.setattr(facts, "_lex_line", counted)
    monkeypatch.setattr(javaparse, "scan_source", scan_recorded)
    line_memos = []
    for _ in range(2):
        lexed.clear()
        memos.clear()
        cus, failures = parse_corpus_dir(tmp_path)
        assert len(cus) == n and failures == []
        assert sorted(lexed) == sorted(from_start + rests)
        (memo,) = memos.values()
        assert sorted(memo) == sorted(from_start)
        line_memos.append(memo)
    assert line_memos[0] is not line_memos[1]


def imports_corpus(n: int, wildcard: bool) -> list[CUFacts]:
    """``m/Main.java`` importing each of the n packages ``p<i>``, which
    declares ``T<i>``, and composing every ``T<i>``."""
    imports = tuple(f"p{i}.*" if wildcard else f"p{i}.T{i}" for i in range(n))
    fields = tuple(sorted(f"T{i}" for i in range(n)))
    main = CUFacts("m/Main.java", "m", imports, (ClassFacts("Main", "class", field_types=fields),))
    return [main, *(CUFacts(f"p{i}/T{i}.java", f"p{i}", (), (ClassFacts(f"T{i}", "class"),)) for i in range(n))]


def resolve_in_time(corpus: list[CUFacts], n: int, bound: float) -> None:
    start = time.monotonic()
    rc = resolve_type_references(corpus)
    assert time.monotonic() - start < bound
    assert sum(kind == COMPOSITION for _, _, kind in rc.edges) == n


def test_single_type_imports_are_read_once_per_cu():
    resolve_in_time(imports_corpus(10_000, wildcard=False), 10_000, 0.5)  # took 9.2 s


def test_wildcard_imports_are_read_once_per_cu():
    resolve_in_time(imports_corpus(4_000, wildcard=True), 4_000, 0.5)  # took 6.4 s


def test_excluded_intervals_are_searched_not_walked():
    n = 20_000
    intervals = tuple((10 * i, 10 * i + 2) for i in range(n))
    ids = [10 * i + 5 for i in range(n)]  # each between two intervals
    message = " ".join(map(str, ids))
    start = time.monotonic()
    refs = extract_issue_refs(message, frozenset(ids), FilterConfig(excluded_intervals=intervals))
    assert time.monotonic() - start < 0.5  # took 9.5 s
    assert refs == set(ids)
