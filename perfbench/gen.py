"""Seeded input generator for the faultgraph benchmark, with its oracle.

Everything faultgraph is later checked against is computed here from the
generator's own model, without importing faultgraph:

- per CU: ``cu_wmc`` (declared methods) and ``out_links`` (distinct other
  CUs holding a class that one of the CU's classes extends, composes or
  depends on);
- per release: the number of distinct (issue, CU) links whose commit falls
  in the release window, whose issue passes the registry / ``min_id`` /
  excluded-interval filters, and whose CU exists in that release;
- for the tail fit: the generating exponent.

Method counts, class out-degree, CU popularity in commits and files per
commit are Pareto-distributed. Their totals are pinned to fixed values so
that the work a workload asks of faultgraph barely changes from seed to
seed; the seed moves where the heavy tails land, not how much there is.
"""

import json
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

MIN_ID = 100
EXCLUDED = ((400, 419), (1500, 1529))
WORDS = (
    "parser", "cache", "layout", "render", "socket", "index", "config", "ledger",
    "schema", "engine", "buffer", "cursor", "widget", "thread", "report", "loader",
)
EPOCH = datetime(2010, 1, 1, tzinfo=timezone.utc)
WINDOW = timedelta(days=182)
PACKAGES = 37
MEAN_METHODS = 4.0  # per class
MEAN_DEGREE = 2.5  # distinct classes each class extends, composes or depends on


def pareto_counts(rng, n: int, alpha: float, total: int, lo: int, hi: int) -> np.ndarray:
    """n Pareto-shaped integers in [lo, hi] that sum to exactly ``total``."""
    assert n * lo <= total <= n * hi
    w = 1.0 + rng.pareto(alpha, n)
    x = np.clip(np.floor(w * (total / w.sum())).astype(int), lo, hi)
    while x.sum() != total:
        step = 1 if x.sum() < total else -1
        room = np.flatnonzero(x < hi) if step > 0 else np.flatnonzero(x > lo)
        k = min(abs(int(total - x.sum())), room.size)
        x[rng.choice(room, size=k, replace=False)] += step
    return x


# --------------------------------------------------------------------------
# Corpus model
# --------------------------------------------------------------------------


def package(cu: int) -> str:
    return f"p{cu % PACKAGES}"


@dataclass
class Klass:
    cid: int
    cu: int
    methods: int
    extends: int | None = None
    fields: tuple[int, ...] = ()  # composition, each field also called once
    lists: tuple[int, ...] = ()  # List<C> composition, never called
    deps: tuple[int, ...] = ()  # dependence through params, locals, static calls

    def targets(self) -> set[int]:
        out = set(self.fields) | set(self.lists) | set(self.deps)
        if self.extends is not None:
            out.add(self.extends)
        return out


@dataclass
class Release:
    tag: str
    cus: dict[int, list[int]] = field(default_factory=dict)  # CU id -> class ids
    classes: dict[int, Klass] = field(default_factory=dict)

    def path(self, cu: int) -> str:
        return f"{package(cu)}/U{cu}.java"

    def paths(self) -> set[str]:
        return {self.path(cu) for cu in self.cus}

    def oracle(self) -> dict[str, list[int]]:
        """path -> [cu_wmc, out_links]."""
        out = {}
        for cu, cids in self.cus.items():
            wmc = sum(self.classes[c].methods for c in cids)
            nbrs = {self.classes[t].cu for c in cids for t in self.classes[c].targets()}
            nbrs.discard(cu)
            out[self.path(cu)] = [wmc, len(nbrs)]
        return out


class CorpusGen:
    """Builds and evolves release models; ids are never reused."""

    def __init__(self, rng):
        self.rng = rng
        self.next_cu = 0
        self.next_cid = 0

    def _new_cus(self, rel: Release, n: int) -> list[int]:
        # 80% one class, 10% two, 10% three: a fixed mix, shuffled
        sizes = self.rng.permutation([1] * (n - 2 * (n // 10)) + [2] * (n // 10) + [3] * (n // 10))
        fresh = []
        for size in sizes:
            cu = self.next_cu
            self.next_cu += 1
            rel.cus[cu] = []
            for _ in range(size):
                rel.cus[cu].append(self.next_cid)
                rel.classes[self.next_cid] = Klass(self.next_cid, cu, 1)
                fresh.append(self.next_cid)
                self.next_cid += 1
        return fresh

    def _wire(self, rel: Release, cids: list[int]) -> None:
        """Draw methods and out-edges for ``cids``; targets favour popular classes."""
        rng = self.rng
        n = len(cids)
        methods = pareto_counts(rng, n, 1.8, round(n * MEAN_METHODS), 1, 40)
        degree = pareto_counts(rng, n, 1.6, round(n * MEAN_DEGREE), 0, 60)
        pool = np.array(sorted(rel.classes))
        pop = 1.0 + rng.pareto(1.2, pool.size)
        pop /= pop.sum()
        for cid, m, d in zip(cids, methods, degree):
            picks = rng.choice(pool, size=min(int(d) + 1, pool.size), replace=False, p=pop)
            tgts = [int(t) for t in picks if t != cid][: int(d)]
            k = rel.classes[cid]
            ext = None
            if tgts and rng.random() < 0.3:
                ext = tgts.pop(0)
            nf = int(round(len(tgts) * 0.3))
            nl = int(round(len(tgts) * 0.1))
            rel.classes[cid] = replace(
                k,
                methods=int(m),
                extends=ext,
                fields=tuple(tgts[:nf]),
                lists=tuple(tgts[nf : nf + nl]),
                deps=tuple(tgts[nf + nl :]),
            )

    def first(self, tag: str, n_cus: int) -> Release:
        rel = Release(tag)
        self._wire(rel, self._new_cus(rel, n_cus))
        return rel

    def evolve(self, prev: Release, tag: str, add: float, edit: float, delete: float) -> Release:
        rng = self.rng
        rel = Release(tag, {cu: list(c) for cu, c in prev.cus.items()}, dict(prev.classes))
        old = sorted(rel.cus)
        gone = set(rng.choice(old, size=int(len(old) * delete), replace=False).tolist())
        dead = {c for cu in gone for c in rel.cus[cu]}
        for cu in gone:
            for c in rel.cus.pop(cu):
                del rel.classes[c]
        # a reference to a deleted class moves to another live class, so the
        # edge count does not depend on which classes the seed deletes
        live = sorted(rel.classes)
        for cid, k in list(rel.classes.items()):
            if not k.targets() & dead:
                continue
            taken = k.targets() | {cid}

            def move(t: int) -> int:
                if t not in dead:
                    return t
                while t in dead or t in taken:
                    t = live[int(rng.integers(len(live)))]
                taken.add(t)
                return t

            rel.classes[cid] = replace(
                k,
                extends=None if k.extends is None else move(k.extends),
                fields=tuple(move(t) for t in k.fields),
                lists=tuple(move(t) for t in k.lists),
                deps=tuple(move(t) for t in k.deps),
            )
        survivors = sorted(rel.cus)
        edited = rng.choice(survivors, size=int(len(survivors) * edit), replace=False)
        for cu in edited.tolist():
            for cid in rel.cus[cu]:
                k = rel.classes[cid]
                delta = int(rng.integers(-2, 4)) or 1
                rel.classes[cid] = replace(k, methods=max(1, k.methods + delta))
        rewired = [c for cu in edited.tolist()[: len(edited) // 3] for c in rel.cus[cu]]
        fresh = self._new_cus(rel, max(1, int(len(old) * add)))
        self._wire(rel, fresh + rewired)
        return rel


# --------------------------------------------------------------------------
# Java text
# --------------------------------------------------------------------------


def _class_text(k: Klass, public: bool) -> list[str]:
    name = f"C{k.cid}"
    head = ("public " if public else "") + f"class {name}"
    if k.extends is not None:
        head += f" extends C{k.extends}"
    lines = [f"/** Generated class {name}. */", head + " {"]
    for i, t in enumerate(k.fields):
        lines.append(f"    private C{t} f{i};")
    for i, t in enumerate(k.lists):
        lines.append(f"    protected List<C{t}> g{i}; // element type counts as composition")
    n_counters = 1 + k.methods // 3
    for i in range(n_counters):
        lines.append(f"    private int n{i} = {i};")
    per_method: list[list[str]] = [[] for _ in range(k.methods)]
    for i in range(len(k.fields)):
        per_method[i % k.methods].append(f"f{i}.op{i}(x);")
    params: list[list[str]] = [[] for _ in range(k.methods)]
    for j, t in enumerate(k.deps):
        m = j % k.methods
        style = j % 3
        if style == 0:
            params[m].append(f"C{t} arg{j}")
            per_method[m].append(f"x += arg{j}.hashCode();")
        elif style == 1:
            per_method[m].append(f"C{t} v{j} = new C{t}();")
        else:
            per_method[m].append(f"C{t}.make{j}(x);")
    for m in range(k.methods):
        sig = ", ".join(["int x"] + params[m])
        c = m % n_counters
        lines.append(f"    public int m{m}({sig}) {{")
        if m == 0:
            lines += [
                '        String s = "quoted \\"text\\" here"; /* literal */',
                "        if (x > 2) { x = x * s.length(); } // scale",
            ]
        lines += [f"        {stmt}" for stmt in per_method[m]]
        lines += [f"        n{c} = n{c} + x;", "        return x;", "    }"]
    lines.append("}")
    return lines


def write_corpus(rel: Release, root: Path) -> None:
    for cu, cids in rel.cus.items():
        path = root / rel.path(cu)
        pkg = package(cu)
        imports = set()
        uses_list = False
        for c in cids:
            k = rel.classes[c]
            uses_list |= bool(k.lists)
            for t in k.targets():
                tpkg = package(rel.classes[t].cu)
                if tpkg != pkg:
                    imports.add(f"{tpkg}.C{t}")
        lines = [f"package {pkg};", ""]
        if uses_list:
            lines.append("import java.util.List;")
        lines += [f"import {imp};" for imp in sorted(imports)]
        lines.append("")
        for i, c in enumerate(cids):
            lines += _class_text(rel.classes[c], public=i == 0)
            lines.append("")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines), encoding="utf-8")


# --------------------------------------------------------------------------
# Commit log and registry
# --------------------------------------------------------------------------

# Every default reference pattern is used: "bug #N", "fix(ed|es) [for bug] N",
# "issue N" and a bare integer. No other digits appear in a message, so the
# ids a message cites are exactly the integers placed in it.
TEMPLATES = (
    "Fixed {0} in {w} handling",
    "bug #{0}: tighten {w}",
    "fixes for bug {0}\tsee issue {1}",
    "issue {0} follow-up\nalso {1}",
    "{w} cleanup\\{w} path, refs {0}",
    "merge {w} branch",
)
TEMPLATE_WEIGHTS = (0.1, 0.1, 0.05, 0.05, 0.1, 0.6)


def escape(message: str) -> str:
    return message.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def window(k: int) -> tuple[datetime, datetime]:
    start = EPOCH + k * WINDOW
    return start, start + WINDOW - timedelta(seconds=1)


def _stamp(ts: datetime) -> str:
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


def write_history(rng, releases: list[Release], commits_per_window: int, root: Path) -> dict[str, int]:
    """Write commits.tsv and issues.tsv; return the oracle link count per release."""
    n_reg = max(2 * commits_per_window, EXCLUDED[-1][1] + 1)
    excluded = np.concatenate([np.arange(lo, hi + 1) for lo, hi in EXCLUDED])

    def accepted(i: int) -> bool:
        return MIN_ID <= i <= n_reg and not any(lo <= i <= hi for lo, hi in EXCLUDED)

    def draw_ids(n: int) -> np.ndarray:
        """70% registered at or above min_id; 10% each below min_id, inside
        an excluded interval, and not registered at all."""
        u = rng.random(n)
        ids = rng.integers(MIN_ID, n_reg + 1, size=n)
        for mask, pool in (
            (u < 0.1, np.arange(1, MIN_ID)),
            ((u >= 0.1) & (u < 0.2), excluded),
            ((u >= 0.2) & (u < 0.3), np.arange(n_reg + 1, n_reg + 1001)),
        ):
            ids[mask] = rng.choice(pool, size=int(mask.sum()))
        return ids

    lines = []
    links = {rel.tag: set() for rel in releases}
    in_corpus = [rel.paths() for rel in releases]
    n_out = commits_per_window // 20  # commits before the first window
    for k, rel in enumerate([None] + releases):
        n = n_out if rel is None else commits_per_window
        here = in_corpus[max(k - 1, 0)]
        gone = sorted(in_corpus[k - 2] - here) if k >= 2 else []
        paths = sorted(here)
        pop = 1.0 + rng.pareto(1.5, len(paths))
        sizes = pareto_counts(rng, n, 1.5, 3 * n, 1, 25)
        picks = np.split(rng.choice(len(paths), size=int(sizes.sum()), p=pop / pop.sum()), np.cumsum(sizes)[:-1])
        start, _ = window(k - 1)
        offsets = np.sort(rng.integers(0, int(WINDOW.total_seconds()), size=n)).tolist()
        templates = rng.choice(len(TEMPLATES), size=n, p=TEMPLATE_WEIGHTS).tolist()
        ids = draw_ids(2 * n).reshape(n, 2).tolist()
        words = rng.integers(len(WORDS), size=(n, 3)).tolist()
        extra = (rng.random((n, 2)) < 0.05).tolist()
        for c in range(n):
            files = {paths[i] for i in picks[c].tolist()}
            if extra[c][0]:
                files.add(f"docs/{WORDS[words[c][2]]}.txt")  # outside every corpus
            if extra[c][1] and gone:
                files.add(gone[words[c][2] * 7919 % len(gone)])  # deleted since the last release
            t = TEMPLATES[templates[c]]
            msg = t.format(*ids[c], w=WORDS[words[c][0]])
            ts = start + timedelta(seconds=offsets[c])
            lines.append(f"{_stamp(ts)}\t{WORDS[words[c][1]]}\t{escape(msg)}\t{';'.join(sorted(files))}")
            if rel is not None:
                for i in {ids[c][j] for j in range(2) if "{%d}" % j in t}:
                    if accepted(i):
                        links[rel.tag].update((i, f) for f in files if f in here)
    (root / "commits.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    reg = ["id\topen_date\trelease_tag"]
    for i in range(1, n_reg + 1):
        reg.append(f"{i}\t2009-12-01\t{releases[i % len(releases)].tag}")
    (root / "issues.tsv").write_text("\n".join(reg) + "\n", encoding="utf-8")
    return {tag: len(pairs) for tag, pairs in links.items()}


def write_config(root: Path, releases: list[Release], source: str) -> None:
    """``source`` is "corpus" (directories) or "facts" (pre-extracted files)."""
    cfg = {
        "releases": [
            {
                "tag": rel.tag,
                source: f"corpus_{rel.tag}" if source == "corpus" else f"facts/facts-{rel.tag}.jsonl",
                "window": [_stamp(t) for t in window(k)],
            }
            for k, rel in enumerate(releases)
        ],
        "commit_log": "commits.tsv",
        "issue_registry": "issues.tsv",
        "filter": {"min_id": MIN_ID, "excluded_intervals": [list(iv) for iv in EXCLUDED], "patterns": None},
        "release_pairs": [[a.tag, b.tag] for a, b in zip(releases, releases[1:])],
        "output_dir": "out",
    }
    name = "config.json" if source == "corpus" else "report.json"
    (root / name).write_text(json.dumps(cfg, indent=1), encoding="utf-8")


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


def report_inputs(root: Path, seed: int, n_releases: int, n_cus: int, commits: int,
                  add: float, edit: float, delete: float, source: str) -> dict:
    """Write corpora, commit log, registry and config(s) for a report workload.

    With ``source="facts"`` the corpora are written next to ``config.json``
    (for ``faultgraph extract``) and ``report.json`` reads the facts files
    that extract writes into ``facts/``.
    """
    rng = np.random.default_rng([seed, n_releases, n_cus])
    corpus = CorpusGen(rng)
    rels = [corpus.first("r1", n_cus)]
    for k in range(2, n_releases + 1):
        rels.append(corpus.evolve(rels[-1], f"r{k}", add=add, edit=edit, delete=delete))
    root.mkdir(parents=True, exist_ok=True)
    for rel in rels:
        write_corpus(rel, root / f"corpus_{rel.tag}")
    links = write_history(rng, rels, commits, root)
    write_config(root, rels, "corpus")
    if source == "facts":
        write_config(root, rels, "facts")
    return {"releases": {rel.tag: {"cus": rel.oracle(), "links": links[rel.tag]} for rel in rels}}


def tail_inputs(root: Path, seed: int, n: int, gamma: float) -> dict:
    """Continuous Pareto draws (x_min = 1) written with %.12g, so every value
    faultgraph prints with %.12g reads back as the same double."""
    rng = np.random.default_rng([seed, n])
    u = rng.random(n)
    x = (1.0 - u) ** (-1.0 / (gamma - 1.0))
    root.mkdir(parents=True, exist_ok=True)
    (root / "samples.txt").write_text("".join("%.12g\n" % v for v in x), encoding="utf-8")
    return {"gamma": gamma}
