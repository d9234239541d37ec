"""Metric suites at class level and compilation-unit level.

Class level (unit method weights):
    wmc   method count
    cbo   distinct classes coupled to through composition or dependence
          out-edges (inheritance excluded)
    rfc   method count plus distinct externally called (type, method) pairs
    lcom  non-cohesive method pairs minus cohesive pairs, floored at zero;
          a pair is cohesive when both methods touch a common field
    loc   code lines of the class body

CU level:
    in_links / out_links   distinct neighbor CUs with any incoming/outgoing edge
    cu_cbo                 distinct out-neighbor CUs over non-inheritance edges
    cu_rfc                 total weight of all outgoing CU edges
    cu_wmc / cu_lcom / cu_loc   sums over the contained classes
"""

from typing import NamedTuple

from .errors import UnknownMetric
from .facts import ClassFacts, CUFacts
from .graphs import ClassGraph, CUGraph
from .resolve import COMPOSITION, DEPENDENCE, INHERITANCE, ClassId, ResolvedCorpus


class ClassMetrics(NamedTuple):
    wmc: int
    cbo: int
    rfc: int
    lcom: int
    loc: int


class MetricVector(NamedTuple):
    in_links: int
    out_links: int
    cu_loc: int
    cu_cbo: int
    cu_rfc: int
    cu_wmc: int
    cu_lcom: int


METRIC_NAMES = MetricVector._fields


def metric_value(vector: MetricVector, metric: str) -> int:
    if metric not in METRIC_NAMES:
        raise UnknownMetric(f"unknown metric {metric!r}; expected one of {', '.join(METRIC_NAMES)}")
    return getattr(vector, metric)


def class_metrics(c: ClassFacts, cu_path: str, cg: ClassGraph) -> ClassMetrics:
    cid: ClassId = (cu_path, c.name)
    coupled = cg.out_neighbors(cid, kinds=(COMPOSITION, DEPENDENCE))
    pairs = {pair for m in c.methods for pair in m.external_calls}
    used = [set(m.used_fields) for m in c.methods]
    cohesive = sum(not a.isdisjoint(b) for i, a in enumerate(used) for b in used[i + 1 :])
    non_cohesive = len(used) * (len(used) - 1) // 2 - cohesive
    return ClassMetrics(
        wmc=len(c.methods),
        cbo=len(coupled),
        rfc=len(c.methods) + len(pairs),
        lcom=max(0, non_cohesive - cohesive),
        loc=c.loc,
    )


def cu_metrics(cu: CUFacts, cug: CUGraph, per_class: dict[ClassId, ClassMetrics]) -> MetricVector:
    outs = cug.out_edges(cu.path)
    ins = cug.in_edges(cu.path)
    own = [per_class[(cu.path, cls.name)] for cls in cu.classes]
    return MetricVector(
        in_links=len({src for src, _, _ in ins}),
        out_links=len({tgt for tgt, _, _ in outs}),
        cu_loc=sum(m.loc for m in own),
        cu_cbo=len({tgt for tgt, kind, _ in outs if kind != INHERITANCE}),
        cu_rfc=sum(w for _, _, w in outs),
        cu_wmc=sum(m.wmc for m in own),
        cu_lcom=sum(m.lcom for m in own),
    )


def compute_metrics(
    corpus: ResolvedCorpus, cg: ClassGraph, cug: CUGraph
) -> tuple[dict[ClassId, ClassMetrics], dict[str, MetricVector]]:
    """Evaluate both suites for a whole release snapshot."""
    per_class = {cid: class_metrics(cls, cid[0], cg) for cid, cls in corpus.classes.items()}
    per_cu = {cu.path: cu_metrics(cu, cug, per_class) for cu in corpus.cus}
    return per_class, per_cu
