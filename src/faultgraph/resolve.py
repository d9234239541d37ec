"""Type-name resolution over a parsed corpus.

Every type name recorded in the facts is bound either to a corpus class or
marked external. Simple names resolve in order: same compilation unit, same
package, explicit imports (first matching import wins, even when its target
lies outside the corpus), wildcard imports (only when exactly one corpus
package matches). Dotted names resolve as package-qualified class names.
Ambiguous names are logged and resolved by the stated order with ties broken
by lexicographic CU path.
"""

import logging
from dataclasses import dataclass

from .errors import FormatError
from .facts import ClassFacts, CUFacts

log = logging.getLogger(__name__)

ClassId = tuple[str, str]  # (CU path, class simple name)


def class_id_str(cid: ClassId) -> str:
    return f"{cid[0]}::{cid[1]}"


@dataclass(frozen=True)
class ResolvedClass:
    """One corpus class with its name references bound to corpus classes."""

    cu_path: str
    facts: ClassFacts
    inherits: frozenset[ClassId]
    composes: frozenset[ClassId]
    depends: frozenset[ClassId]


@dataclass(frozen=True)
class ResolvedCorpus:
    cus: tuple[CUFacts, ...]  # sorted by path
    classes: dict[ClassId, ResolvedClass]


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
    matches: list[tuple[str, ClassId]] = []
    for imp in cu.imports:
        if not imp.endswith(".*"):
            continue
        pkg = imp[:-2]
        cids = index.package_members.get(pkg, {}).get(name, [])
        if cids:
            matches.append((pkg, cids[0]))
    if len(matches) == 1:
        return matches[0][1]
    if len(matches) > 1:
        log.warning(
            "wildcard imports of %s match packages %s in %s; leaving it external",
            name, sorted(p for p, _ in matches), cu.path,
        )
    return None


def resolve_type_references(corpus: list[CUFacts]) -> ResolvedCorpus:
    """Bind all recorded type names to corpus classes or mark them external."""
    paths = [cu.path for cu in corpus]
    if len(paths) != len(set(paths)):
        dup = sorted({p for p in paths if paths.count(p) > 1})[0]
        raise FormatError(f"duplicate CU path {dup!r} in corpus")
    cus = tuple(sorted(corpus, key=lambda c: c.path))
    index = _Index(list(cus))
    classes: dict[ClassId, ResolvedClass] = {}
    for cu in cus:
        for cls in cu.classes:
            cid = (cu.path, cls.name)

            def bind(name: str) -> ClassId | None:
                got = _resolve_name(name, cu, index)
                return None if got == cid else got

            inherit_names = ([cls.extends] if cls.extends else []) + list(cls.implements)
            inherits = frozenset(t for n in inherit_names if (t := bind(n)) is not None)
            if cls.kind == "interface":
                composes = frozenset()
            else:
                composes = frozenset(t for n in set(cls.field_types) if (t := bind(n)) is not None)
            used: set[str] = set()
            for m in cls.methods:
                used.update(m.referenced_types)
                used.update(recv for recv, _ in m.external_calls)
            depends = frozenset(t for n in used if (t := bind(n)) is not None)
            classes[cid] = ResolvedClass(
                cu_path=cu.path,
                facts=cls,
                inherits=inherits,
                composes=composes,
                depends=depends,
            )
    return ResolvedCorpus(cus=cus, classes=classes)
