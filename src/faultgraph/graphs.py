"""Class-level and CU-level software graphs.

Both graphs are directed with typed edges: inheritance (extends/implements),
composition (field types), dependence (types used or called inside method
bodies). A CU edge aggregates the class edges of one kind crossing between
two compilation units; its weight is the number of distinct class-level
edges it carries. Intra-CU class relationships never produce a CU edge.
"""

from dataclasses import dataclass

from .resolve import ClassId, ResolvedCorpus

INHERITANCE = "inheritance"
COMPOSITION = "composition"
DEPENDENCE = "dependence"
EDGE_KINDS = (INHERITANCE, COMPOSITION, DEPENDENCE)

ClassEdge = tuple[ClassId, ClassId, str]


@dataclass(frozen=True)
class ClassGraph:
    nodes: frozenset[ClassId]
    edges: frozenset[ClassEdge]

    def __post_init__(self):
        for src, tgt, kind in self.edges:
            assert src != tgt, f"self edge on {src}"
            assert kind in EDGE_KINDS, f"unknown edge kind {kind}"
            assert src in self.nodes and tgt in self.nodes, "edge endpoint missing from nodes"

    def out_neighbors(self, node: ClassId, kinds=EDGE_KINDS) -> set[ClassId]:
        return {t for s, t, k in self.edges if s == node and k in kinds}


@dataclass(frozen=True)
class CUGraph:
    nodes: frozenset[str]
    weights: dict[tuple[str, str, str], int]  # (source CU, target CU, kind) -> weight

    def __post_init__(self):
        for (src, tgt, kind), w in self.weights.items():
            assert src != tgt, f"self edge on {src}"
            assert kind in EDGE_KINDS
            assert w >= 1
            assert src in self.nodes and tgt in self.nodes

    def out_edges(self, path: str) -> list[tuple[str, str, int]]:
        return [(t, k, w) for (s, t, k), w in self.weights.items() if s == path]

    def in_edges(self, path: str) -> list[tuple[str, str, int]]:
        return [(s, k, w) for (s, t, k), w in self.weights.items() if t == path]


def build_class_graph(corpus: ResolvedCorpus) -> ClassGraph:
    nodes = frozenset(corpus.classes)
    edges: set[ClassEdge] = set()
    for cid, rc in corpus.classes.items():
        for tgt in rc.inherits:
            edges.add((cid, tgt, INHERITANCE))
        for tgt in rc.composes:
            edges.add((cid, tgt, COMPOSITION))
        for tgt in rc.depends:
            edges.add((cid, tgt, DEPENDENCE))
    return ClassGraph(nodes=nodes, edges=frozenset(edges))


def build_cu_graph(cg: ClassGraph, corpus: ResolvedCorpus) -> CUGraph:
    cu_of = {cid: rc.cu_path for cid, rc in corpus.classes.items()}
    weights: dict[tuple[str, str, str], int] = {}
    for src, tgt, kind in cg.edges:
        p, q = cu_of[src], cu_of[tgt]
        if p == q:
            continue
        key = (p, q, kind)
        weights[key] = weights.get(key, 0) + 1
    return CUGraph(nodes=frozenset(cu.path for cu in corpus.cus), weights=weights)
