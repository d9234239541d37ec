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

A name is bound by lookups, never by a walk over imports: one index per
corpus maps a simple name to the packages that define it and, in each, to
its first class in CU path order, and a count keeps how many more classes
share that name and package (the ambiguous ones); each CU's imports are read
once into a table from a simple name to the package of its first single-type
import, and the set of packages it imports on demand. A wildcard import
matches where that set meets the packages of the index entry.

Each bound reference is one typed class edge: inheritance (extends or
implements), composition (a field type; an interface composes nothing) or
dependence (a type used or called inside a method body). A reference that
binds to its own class makes no edge.
"""

from collections import Counter
from typing import NamedTuple

from .errors import FormatError, warn
from .facts import ClassFacts, CUFacts

ClassId = tuple[str, str]  # (CU path, class simple name)
ClassEdge = tuple[ClassId, ClassId, str]  # (source class, target class, kind)

INHERITANCE = "inheritance"
COMPOSITION = "composition"
DEPENDENCE = "dependence"
EDGE_KINDS = (INHERITANCE, COMPOSITION, DEPENDENCE)


class ResolvedCorpus(NamedTuple):
    cus: tuple[CUFacts, ...]  # sorted by path
    classes: dict[ClassId, ClassFacts]
    edges: frozenset[ClassEdge]


def resolve_type_references(corpus: list[CUFacts]) -> ResolvedCorpus:
    """Bind all recorded type names to corpus classes or mark them external."""
    counts = Counter(cu.path for cu in corpus)
    if len(counts) != len(corpus):
        dup = min(p for p, k in counts.items() if k > 1)
        raise FormatError(f"duplicate CU path {dup!r} in corpus")
    cus = tuple(sorted(corpus, key=lambda c: c.path))
    # name -> package -> its first class (cus is in path order), and how many
    # more classes a first class shares its name and package with: counts in
    # place of lists of ids keep the index smaller
    index: dict[str, dict[str, ClassId]] = {}
    more: Counter[ClassId] = Counter()
    for cu in cus:
        for cls in cu.classes:
            cid = (cu.path, cls.name)
            if (first := index.setdefault(cls.name, {}).setdefault(cu.package, cid)) is not cid:
                more[first] += 1

    def qualified(pkg: str, simple: str, context: str) -> ClassId | None:
        cid = index.get(simple, {}).get(pkg)
        if more.get(cid):
            warn(
                __name__,
                "ambiguous class %s.%s (%d definitions) referenced from %s; using %s::%s",
                pkg, simple, more[cid] + 1, context, *cid,
            )
        return cid

    classes: dict[ClassId, ClassFacts] = {}
    edges: set[ClassEdge] = set()
    for cu in cus:
        own = {cls.name: (cu.path, cls.name) for cls in cu.classes}
        single: dict[str, str] = {}  # simple name -> package of its first import
        wild: set[str] = set()  # a repeated on-demand import counts once
        for imp in cu.imports:
            if imp.endswith(".*"):
                wild.add(imp[:-2])
            else:
                pkg, _, simple = imp.rpartition(".")
                single.setdefault(simple, pkg)

        def bind(name: str) -> ClassId | None:
            if "." in name:  # package-qualified
                return qualified(*name.rsplit(".", 1), cu.path)
            hit = own.get(name) or qualified(cu.package, name, cu.path)
            if hit is not None:
                return hit
            if name in single:
                # the import binds the name even if its target is not in the corpus
                return qualified(single[name], name, cu.path)
            by_pkg = index.get(name, {})
            matches = by_pkg.keys() & wild
            if len(matches) > 1:
                warn(
                    __name__,
                    "wildcard imports of %s match packages %s in %s; leaving it external",
                    name, sorted(matches), cu.path,
                )
            return by_pkg[matches.pop()] if len(matches) == 1 else None

        for cls in cu.classes:
            cid = own[cls.name]
            classes[cid] = cls
            inherits = ([cls.extends] if cls.extends else []) + list(cls.implements)
            composes = dict.fromkeys(cls.field_types) if cls.kind != "interface" else ()
            used: set[str] = set()
            for m in cls.methods:
                used.update(m.referenced_types)
                used.update(recv for recv, _ in m.external_calls)
            for names, kind in ((inherits, INHERITANCE), (composes, COMPOSITION), (sorted(used), DEPENDENCE)):
                for target in map(bind, names):
                    if target not in (None, cid):
                        edges.add((cid, target, kind))
    return ResolvedCorpus(cus=cus, classes=classes, edges=frozenset(edges))
