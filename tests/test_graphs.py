import random
from collections import Counter

import pytest

from faultgraph.facts import ClassFacts, CUFacts, MethodFacts
from faultgraph.graphs import EDGE_KINDS, ClassGraph, CUGraph, build_class_graph, build_cu_graph
from faultgraph.javaparse import parse_compilation_unit, parse_corpus_dir
from faultgraph.metrics import compute_metrics
from faultgraph.resolve import COMPOSITION, DEPENDENCE, INHERITANCE, resolve_type_references


def graph_for(*sources):
    rc = resolve_type_references(
        [parse_compilation_unit(text, path) for path, text in sources]
    )
    cg = build_class_graph(rc)
    return rc, cg


def test_extends_produces_inheritance_edge():
    _, cg = graph_for(
        ("p/A.java", "package p;\nclass A extends B {\n void m() {}\n}\n"),
        ("p/B.java", "package p;\nclass B {\n void m() {}\n}\n"),
    )
    assert (("p/A.java", "A"), ("p/B.java", "B"), INHERITANCE) in cg.edges


def test_composition_and_dependence_are_distinct_kinds():
    _, cg = graph_for(
        (
            "p/A.java",
            "package p;\nclass A {\n    C c;\n    void m() {\n        c.go();\n    }\n}\n",
        ),
        ("p/C.java", "package p;\nclass C {\n void go() {}\n}\n"),
    )
    a, c = ("p/A.java", "A"), ("p/C.java", "C")
    assert (a, c, COMPOSITION) in cg.edges
    assert (a, c, DEPENDENCE) in cg.edges


def test_external_only_references_leave_node_isolated():
    _, cg = graph_for(
        (
            "p/A.java",
            "package p;\nimport java.util.List;\nclass A {\n    List xs;\n    void m() {\n        xs.add(1);\n    }\n}\n",
        ),
    )
    assert cg.nodes == {("p/A.java", "A")}
    assert cg.edges == frozenset()


def test_interface_constants_contribute_no_composition():
    _, cg = graph_for(
        ("p/I.java", "package p;\ninterface I {\n    B LIMIT = null;\n}\n"),
        ("p/B.java", "package p;\nclass B {\n void m() {}\n}\n"),
    )
    assert all(kind != COMPOSITION for _, _, kind in cg.edges)


def test_no_self_edges():
    _, cg = graph_for(
        (
            "p/A.java",
            "package p;\nclass A {\n    A next;\n    void m() {\n        next.m();\n    }\n}\n",
        ),
    )
    assert cg.edges == frozenset()


def test_intra_cu_relationship_produces_no_cu_edge():
    rc, cg = graph_for(
        (
            "p/Pair.java",
            "package p;\nclass A {\n    B b;\n    void m() {\n        b.go();\n    }\n}\n"
            "class B {\n    void go() {\n        new A();\n    }\n}\n",
        ),
    )
    assert len(cg.edges) > 0
    cug = build_cu_graph(cg, rc)
    assert cug.weights == {}


def test_two_classes_each_depending_on_one_gives_weight_two():
    rc, cg = graph_for(
        (
            "p/P.java",
            "package p;\nclass A {\n    void m(Q q) {\n        q.go();\n    }\n}\n"
            "class B {\n    void n(Q q) {\n        q.go();\n    }\n}\n",
        ),
        ("p/Q.java", "package p;\nclass Q {\n    void go() {}\n}\n"),
    )
    cug = build_cu_graph(cg, rc)
    assert cug.weights == {("p/P.java", "p/Q.java", DEPENDENCE): 2}


def test_inheritance_only_link_keeps_its_kind():
    rc, cg = graph_for(
        ("p/P.java", "package p;\nclass P extends Q {\n void m() {}\n}\n"),
        ("p/Q.java", "package p;\npublic class Q {\n void m() {}\n}\n"),
    )
    cug = build_cu_graph(cg, rc)
    assert cug.weights == {("p/P.java", "p/Q.java", INHERITANCE): 1}


def test_fixture_class_graph_matches_hand_oracle(corpus_r1_dir):
    facts, _ = parse_corpus_dir(corpus_r1_dir)
    rc = resolve_type_references(facts)
    cg = build_class_graph(rc)
    alpha = ("app/Alpha.java", "Alpha")
    base = ("app/Base.java", "Base")
    runner = ("app/Runner.java", "Runner")
    report = ("app/Report.java", "Report")
    util = ("lib/Util.java", "Util")
    text = ("lib/Util.java", "Text")
    sink = ("lib/Sink.java", "Sink")
    assert cg.edges == {
        (alpha, base, INHERITANCE),
        (alpha, runner, INHERITANCE),
        (alpha, util, COMPOSITION),
        (alpha, util, DEPENDENCE),
        (report, util, COMPOSITION),
        (report, util, DEPENDENCE),
        (report, sink, DEPENDENCE),
        (util, text, DEPENDENCE),
    }


def test_fixture_cu_graph_matches_hand_oracle(corpus_r1_dir):
    facts, _ = parse_corpus_dir(corpus_r1_dir)
    rc = resolve_type_references(facts)
    cug = build_cu_graph(build_class_graph(rc), rc)
    assert cug.weights == {
        ("app/Alpha.java", "app/Base.java", INHERITANCE): 1,
        ("app/Alpha.java", "app/Runner.java", INHERITANCE): 1,
        ("app/Alpha.java", "lib/Util.java", COMPOSITION): 1,
        ("app/Alpha.java", "lib/Util.java", DEPENDENCE): 1,
        ("app/Report.java", "lib/Util.java", COMPOSITION): 1,
        ("app/Report.java", "lib/Util.java", DEPENDENCE): 1,
        ("app/Report.java", "lib/Sink.java", DEPENDENCE): 1,
    }


def test_cu_weights_reproduce_brute_force_class_edge_counts(corpus_r1_dir, corpus_r2_dir):
    for directory in (corpus_r1_dir, corpus_r2_dir):
        facts, _ = parse_corpus_dir(directory)
        rc = resolve_type_references(facts)
        cg = build_class_graph(rc)
        cug = build_cu_graph(cg, rc)
        brute = Counter()
        for (sp, _), (tp, _), kind in cg.edges:
            if sp != tp:
                brute[(sp, tp, kind)] += 1
        assert dict(brute) == cug.weights


# --------------------------------------------------------------------------
# Per-node indexes: queries equal a scan of the whole edge set, in order.
# --------------------------------------------------------------------------


def random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    cids = [(f"p/C{i % 5}.java", f"K{i}") for i in range(n)]
    edges = frozenset(
        (s, t, rng.choice(EDGE_KINDS))
        for _ in range(rng.randint(0, 40))
        for s, t in [rng.sample(cids, 2) if n > 1 else (cids[0], cids[0])]
        if s != t
    )
    cg = ClassGraph(nodes=frozenset(cids), edges=edges)
    paths = sorted({p for p, _ in cids} | {"p/Lone.java"})
    keys = {
        (s, t, rng.choice(EDGE_KINDS)) for _ in range(rng.randint(0, 30)) for s, t in [rng.sample(paths, 2)]
    }
    ordered = rng.sample(sorted(keys), len(keys))  # insertion order is not sorted order
    cug = CUGraph(nodes=frozenset(paths), weights={k: rng.randint(1, 9) for k in ordered})
    return cg, cug


@pytest.mark.parametrize("seed", range(40))
def test_indexed_queries_equal_brute_force_scans(seed):
    cg, cug = random_graphs(seed)
    for node in cg.nodes | {("p/Missing.java", "X")}:
        for kinds in (EDGE_KINDS, (COMPOSITION, DEPENDENCE), (INHERITANCE,), ()):
            assert cg.out_neighbors(node, kinds=kinds) == {
                t for s, t, k in cg.edges if s == node and k in kinds
            }
    for path in cug.nodes | {"p/Missing.java"}:
        assert cug.out_edges(path) == [(t, k, w) for (s, t, k), w in cug.weights.items() if s == path]
        assert cug.in_edges(path) == [(s, k, w) for (s, t, k), w in cug.weights.items() if t == path]


def test_query_results_are_fresh_lists():
    _, cug = random_graphs(3)
    path = next(s for s, _, _ in cug.weights)
    cug.out_edges(path).clear()
    cug.in_edges(path).append(None)
    assert cug.out_edges(path) and None not in cug.in_edges(path)


def test_indexes_hold_the_graphs_own_tuples():
    cg, cug = random_graphs(5)
    edge_ids = {id(e) for e in cg.edges}
    assert all(id(e) in edge_ids for lst in cg._out.values() for e in lst)
    key_ids = {id(k) for k in cug.weights}
    assert all(id(k) in key_ids for idx in (cug._out, cug._in) for lst in idx.values() for k in lst)


def test_equality_and_repr_ignore_the_indexes():
    cg, cug = random_graphs(7)
    assert "_out" not in repr(cg) and "_out" not in repr(cug) and "_in" not in repr(cug)
    assert repr(cg) == f"ClassGraph(nodes={cg.nodes!r}, edges={cg.edges!r})"
    assert repr(cug) == f"CUGraph(nodes={cug.nodes!r}, weights={cug.weights!r})"
    assert ClassGraph(nodes=cg.nodes, edges=cg.edges) == cg
    assert CUGraph(nodes=cug.nodes, weights=dict(reversed(cug.weights.items()))) == cug
    assert hash(ClassGraph(nodes=cg.nodes, edges=cg.edges)) == hash(cg)


class CountingDict(dict):
    """A dict that counts every walk over its entries."""

    walks = 0

    def items(self):
        self.walks += 1
        return super().items()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_compute_metrics_walks_cu_weights_a_constant_number_of_times():
    n = 500
    cus = [
        CUFacts(
            path=f"p/C{i}.java",
            package="p",
            classes=(
                ClassFacts(
                    name=f"C{i}",
                    kind="class",
                    extends=f"C{(i + 1) % n}" if i % 3 == 0 else None,
                    field_types=(f"C{(i + 7) % n}",),
                    methods=(MethodFacts(name="m", referenced_types=frozenset({f"C{(i * 13 + 1) % n}"})),),
                    loc=3,
                ),
            ),
            loc=3,
        )
        for i in range(n)
    ]
    rc = resolve_type_references(cus)
    cg = build_class_graph(rc)
    plain = build_cu_graph(cg, rc)
    weights = CountingDict(plain.weights)
    cug = CUGraph(nodes=plain.nodes, weights=weights)
    assert len(weights) >= n
    before = weights.walks
    _, per_cu = compute_metrics(rc, cg, cug)
    assert len(per_cu) == n
    assert weights.walks - before <= 1
    assert per_cu == compute_metrics(rc, cg, plain)[1]
