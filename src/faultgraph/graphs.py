"""Class-level and CU-level software graphs.

Both graphs are directed with typed edges: inheritance (extends/implements),
composition (field types), dependence (types used or called inside method
bodies). A CU edge aggregates the class edges of one kind crossing between
two compilation units; its weight is the number of distinct class-level
edges it carries. Intra-CU class relationships never produce a CU edge.

Each graph builds its per-node adjacency once, at construction, so a
neighbour query costs O(degree) rather than a scan of the whole edge set.
The indexes hold the graph's own edge tuples and weight keys; they take no
part in equality or ``repr``.
"""

from dataclasses import dataclass, field

from .resolve import ClassId, ResolvedCorpus

INHERITANCE = "inheritance"
COMPOSITION = "composition"
DEPENDENCE = "dependence"
EDGE_KINDS = (INHERITANCE, COMPOSITION, DEPENDENCE)

ClassEdge = tuple[ClassId, ClassId, str]
CUEdgeKey = tuple[str, str, str]


@dataclass(frozen=True)
class ClassGraph:
    nodes: frozenset[ClassId]
    edges: frozenset[ClassEdge]
    _out: dict[ClassId, list[ClassEdge]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        out: dict[ClassId, list[ClassEdge]] = {}
        for edge in self.edges:
            src, tgt, kind = edge
            assert src != tgt, f"self edge on {src}"
            assert kind in EDGE_KINDS, f"unknown edge kind {kind}"
            assert src in self.nodes and tgt in self.nodes, "edge endpoint missing from nodes"
            out.setdefault(src, []).append(edge)
        object.__setattr__(self, "_out", out)

    def out_neighbors(self, node: ClassId, kinds=EDGE_KINDS) -> set[ClassId]:
        return {t for _, t, k in self._out.get(node, ()) if k in kinds}


@dataclass(frozen=True)
class CUGraph:
    nodes: frozenset[str]
    weights: dict[CUEdgeKey, int]  # (source CU, target CU, kind) -> weight
    # per-node weight keys, in the insertion order of ``weights``
    _out: dict[str, list[CUEdgeKey]] = field(init=False, repr=False, compare=False)
    _in: dict[str, list[CUEdgeKey]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        out: dict[str, list[CUEdgeKey]] = {}
        in_: dict[str, list[CUEdgeKey]] = {}
        for key, w in self.weights.items():
            src, tgt, kind = key
            assert src != tgt, f"self edge on {src}"
            assert kind in EDGE_KINDS
            assert w >= 1
            assert src in self.nodes and tgt in self.nodes
            out.setdefault(src, []).append(key)
            in_.setdefault(tgt, []).append(key)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", in_)

    def out_edges(self, path: str) -> list[tuple[str, str, int]]:
        w = self.weights
        return [(key[1], key[2], w[key]) for key in self._out.get(path, ())]

    def in_edges(self, path: str) -> list[tuple[str, str, int]]:
        w = self.weights
        return [(key[0], key[2], w[key]) for key in self._in.get(path, ())]


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
    weights: dict[CUEdgeKey, int] = {}
    for src, tgt, kind in cg.edges:
        p, q = cu_of[src], cu_of[tgt]
        if p == q:
            continue
        key = (p, q, kind)
        weights[key] = weights.get(key, 0) + 1
    return CUGraph(nodes=frozenset(cu.path for cu in corpus.cus), weights=weights)
