"""Type-name resolution over a parsed corpus.

Every type name recorded in the facts is bound either to a corpus class or
marked external. Simple names resolve in order: same compilation unit, same
package, explicit imports (first matching import wins, even when its target
lies outside the corpus), wildcard imports (only when exactly one corpus
package matches; a repeated on-demand import counts once). Dotted names
resolve as package-qualified class names. Ambiguous names are logged and
resolved by the stated order with ties broken by lexicographic CU path.
A class's supertypes are resolved in declaration order, then its field
types and then the names its methods use, each in name order; so its
warnings come in that order, whatever the string hash seed.

Each bound reference is one typed class edge: inheritance (extends or
implements), composition (a field type; an interface composes nothing) or
dependence (a type used or called inside a method body). A reference that
binds to its own class makes no edge.
"""

import logging
from collections import Counter
from dataclasses import dataclass

from .errors import FormatError
from .facts import ClassFacts, CUFacts

log = logging.getLogger(__name__)

ClassId = tuple[str, str]  # (CU path, class simple name)
ClassEdge = tuple[ClassId, ClassId, str]  # (source class, target class, kind)

INHERITANCE = "inheritance"
COMPOSITION = "composition"
DEPENDENCE = "dependence"
EDGE_KINDS = (INHERITANCE, COMPOSITION, DEPENDENCE)


def class_id_str(cid: ClassId) -> str:
    return f"{cid[0]}::{cid[1]}"


@dataclass(frozen=True)
class ResolvedCorpus:
    cus: tuple[CUFacts, ...]  # sorted by path
    classes: dict[ClassId, ClassFacts]
    edges: frozenset[ClassEdge]


class _Index:
    def __init__(self, cus: list[CUFacts]):
        self.cu_classes: dict[str, dict[str, ClassId]] = {}
        self.package_members: dict[str, dict[str, list[ClassId]]] = {}
        for cu in cus:
            per_cu: dict[str, ClassId] = {}
            for cls in cu.classes:
                cid = (cu.path, cls.name)
                per_cu[cls.name] = cid
                self.package_members.setdefault(cu.package, {}).setdefault(cls.name, []).append(cid)
            self.cu_classes[cu.path] = per_cu
        for members in self.package_members.values():
            for cids in members.values():
                cids.sort()

    def qualified(self, pkg: str, simple: str, context: str) -> ClassId | None:
        cids = self.package_members.get(pkg, {}).get(simple, [])
        if len(cids) > 1:
            log.warning(
                "ambiguous class %s.%s (%d definitions) referenced from %s; using %s",
                pkg, simple, len(cids), context, class_id_str(cids[0]),
            )
        return cids[0] if cids else None


def _resolve_name(name: str, cu: CUFacts, index: _Index) -> ClassId | None:
    if "." in name:
        pkg, simple = name.rsplit(".", 1)
        return index.qualified(pkg, simple, cu.path)
    hit = index.cu_classes[cu.path].get(name)
    if hit is not None:
        return hit
    hit = index.qualified(cu.package, name, cu.path)
    if hit is not None:
        return hit
    for imp in cu.imports:
        if imp.endswith(".*"):
            continue
        pkg, _, simple = imp.rpartition(".")
        if simple == name:
            # the import binds the name even if its target is not in the corpus
            return index.qualified(pkg, simple, cu.path)
    matches: dict[str, ClassId] = {}  # a repeated on-demand import counts once
    for imp in cu.imports:
        if not imp.endswith(".*"):
            continue
        pkg = imp[:-2]
        cids = index.package_members.get(pkg, {}).get(name, [])
        if cids:
            matches[pkg] = cids[0]
    if len(matches) == 1:
        return next(iter(matches.values()))
    if len(matches) > 1:
        log.warning(
            "wildcard imports of %s match packages %s in %s; leaving it external",
            name, sorted(matches), cu.path,
        )
    return None


def resolve_type_references(corpus: list[CUFacts]) -> ResolvedCorpus:
    """Bind all recorded type names to corpus classes or mark them external."""
    counts = Counter(cu.path for cu in corpus)
    if len(counts) != len(corpus):
        dup = min(p for p, k in counts.items() if k > 1)
        raise FormatError(f"duplicate CU path {dup!r} in corpus")
    cus = tuple(sorted(corpus, key=lambda c: c.path))
    index = _Index(list(cus))
    classes: dict[ClassId, ClassFacts] = {}
    edges: set[ClassEdge] = set()
    for cu in cus:
        for cls in cu.classes:
            cid = (cu.path, cls.name)
            classes[cid] = cls

            def link(names, kind: str) -> None:
                for name in names:
                    target = _resolve_name(name, cu, index)
                    if target is not None and target != cid:
                        edges.add((cid, target, kind))

            link(([cls.extends] if cls.extends else []) + list(cls.implements), INHERITANCE)
            if cls.kind != "interface":
                link(dict.fromkeys(cls.field_types), COMPOSITION)
            used: set[str] = set()
            for m in cls.methods:
                used.update(m.referenced_types)
                used.update(recv for recv, _ in m.external_calls)
            link(sorted(used), DEPENDENCE)
    return ResolvedCorpus(cus=cus, classes=classes, edges=frozenset(edges))
