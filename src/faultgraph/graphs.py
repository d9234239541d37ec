"""Class-level and CU-level software graphs.

Both graphs are directed with typed edges: inheritance (extends/implements),
composition (field types), dependence (types used or called inside method
bodies). The class graph holds the edges that ``resolve`` binds. A CU edge
aggregates the class edges of one kind crossing between two compilation
units; its weight is the number of distinct class-level edges it carries.
Intra-CU class relationships never produce a CU edge.

Each graph builds its per-node adjacency once, at construction, so a
neighbour query costs O(degree) rather than a scan of the whole edge set.
The indexes hold the graph's own edge tuples and weight keys; they take no
part in equality or ``repr``.
"""

from dataclasses import dataclass, field

from .resolve import EDGE_KINDS, ClassEdge, ClassId, ResolvedCorpus

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
    return ClassGraph(nodes=frozenset(corpus.classes), edges=corpus.edges)


def build_cu_graph(cg: ClassGraph, corpus: ResolvedCorpus) -> CUGraph:
    weights: dict[CUEdgeKey, int] = {}
    for (p, _), (q, _), kind in cg.edges:
        if p == q:
            continue
        key = (p, q, kind)
        weights[key] = weights.get(key, 0) + 1
    return CUGraph(nodes=frozenset(cu.path for cu in corpus.cus), weights=weights)
