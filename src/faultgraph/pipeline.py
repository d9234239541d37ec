"""Pipeline orchestration and report-bundle writers.

Every emitted file is plain tab-separated text with a fixed header row,
sorted rows, and floats rendered with %.12g, so reruns on identical inputs
produce byte-identical bundles. Statistical non-results (too small a tail,
zero variance, an empty family, too few updated CUs) are recorded as status
rows rather than aborting the run: on small systems they are expected
outcomes, not faults. The writers here decide every status a row carries;
the modules they call compute numbers or raise.
"""

from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager
from pathlib import Path

from .bugs import BugLedger, build_bug_ledger, load_issue_registry, parse_commit_log
from .config import PipelineConfig, ReleaseConfig, pair_tag, safe_tag
from .errors import (
    ConfigError,
    DegenerateInput,
    DegenerateTable,
    InputError,
    InsufficientTail,
    OutputError,
    ParseError,
    detached,
    printable,
    warn,
    write_utf8,
)
from .evolution import (
    FAMILY_NAMES,
    ReleaseSnapshot,
    classify_cus,
    family_stats,
    fractional_changes,
    stats_significance,
)
from .facts import CUFacts, dump_facts_file, load_facts_file
from .graphs import ClassGraph, CUGraph, build_class_graph, build_cu_graph
from .javaparse import parse_corpus_dir
from .metrics import METRIC_NAMES, ClassMetrics, MetricVector, compute_metrics, metric_value
from .resolve import ClassId, resolve_type_references
from .tailstats import CONTINUOUS, DISCRETE, ccdf, fit_power_law_tail, pearson

DISTRIBUTIONS = METRIC_NAMES + ("bugs_per_cu", "cus_per_bug")

STAGE_SOURCE = "source_facts"
STAGE_GRAPH = "metrics_graph"
STAGE_BUGS = "bug_mapping"
STAGE_STATS = "tail_stats"
STAGE_EVOLUTION = "evolution"


class StageFailure(InputError):
    """An input error bound to the pipeline stage it occurred in."""

    def __init__(self, stage: str, error: InputError):
        self.stage = stage
        self.error = error
        super().__init__(f"stage {stage}: {error}")


@contextmanager
def stage(name: str):
    """Bind an InputError raised inside to stage ``name``. A StageFailure
    passes unchanged, so the innermost stage is the one named, and so does
    an OutputError, which no stage's input caused."""
    try:
        yield
    except (StageFailure, OutputError):
        raise
    except InputError as exc:
        raise StageFailure(name, exc) from exc


def _fmt(x: float) -> str:
    return "%.12g" % x


def write_table(path: Path, header: list[str], rows: Iterable[Sequence]) -> Path:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(map(str, row)))
    write_utf8(path, "".join(line + "\n" for line in lines))
    return path


# --------------------------------------------------------------------------
# Release assembly
# --------------------------------------------------------------------------


class RunMemo:
    """What consecutive releases of a run share. ``sources`` maps a source
    text to its facts or its ParseError and holds the texts of the last
    corpus release parsed only; ``lines`` maps a facts-file line to its
    CUFacts and holds the lines of the last facts release loaded only. So
    consecutive releases share their unchanged files, and a text or line
    from two releases back is decoded again, to equal facts. ``encoded``
    maps the id of each CUFacts object the last facts file written holds
    to the object and its line, so an object that both loaders hand on
    unchanged is encoded once."""

    __slots__ = ("sources", "lines", "encoded")

    def __init__(self):
        self.sources: dict[str, CUFacts | ParseError] = {}
        self.lines: dict[str, CUFacts] = {}
        self.encoded: dict[int, tuple[CUFacts, str]] = {}


class ReleaseData:
    """One built release; ``attach_ledger`` gives it its ledger. ``memo``
    is the run's, and ``columns`` keeps each column ``distribution_samples``
    builds."""

    __slots__ = ("tag", "facts", "class_graph", "cu_graph", "per_class", "per_cu", "memo", "ledger", "columns")

    def __init__(
        self,
        tag: str,
        facts: list[CUFacts],
        class_graph: ClassGraph,
        cu_graph: CUGraph,
        per_class: dict[ClassId, ClassMetrics],
        per_cu: dict[str, MetricVector],
        memo: RunMemo,
    ):
        self.tag = tag
        self.facts = facts
        self.class_graph = class_graph
        self.cu_graph = cu_graph
        self.per_class = per_class
        self.per_cu = per_cu
        self.memo = memo
        self.ledger: BugLedger | None = None
        self.columns: dict[str, list[int]] = {}

    @property
    def snapshot(self) -> ReleaseSnapshot:
        assert self.ledger is not None, "snapshot needs a ledger"
        return ReleaseSnapshot(release=self.tag, metrics=self.per_cu, ledger=self.ledger)


def load_release_facts(rc: ReleaseConfig, memo: RunMemo) -> tuple[list[CUFacts], list[tuple[str, Exception]]]:
    """(facts, per-file parse failures) of a release; no CUs at all is an InputError.
    A corpus is parsed through ``memo.sources``, which then holds this
    corpus's texts, a facts file decoded through ``memo.lines``, which then
    holds this file's lines."""
    if rc.facts is not None:
        facts, failures = load_facts_file(rc.facts, memo.lines), []
    else:
        facts, failures = parse_corpus_dir(rc.corpus, memo.sources)
    if not facts:
        raise InputError(f"release {rc.tag!r}: no compilation units found")
    return facts, failures


def load_bug_ledgers(
    cfg: PipelineConfig, releases: Sequence[ReleaseConfig]
) -> dict[str, BugLedger | InputError]:
    """Each release's full in-window ledger from one read of the commit log
    and the registry, which are freed on return. The commits are sorted by
    timestamp once, each window is found by bisection, and the releases
    share one memo from message to issue ids, so each distinct in-window
    message is extracted once. A release whose ledger cannot be built (no
    window, say) maps to its InputError, which ``attach_ledger`` raises when
    that release gets its ledger."""
    with stage(STAGE_BUGS):
        if cfg.commit_log is None:
            raise ConfigError("config has no commit_log (required to map bugs)")
        if cfg.issue_registry is None:
            raise ConfigError("config has no issue_registry (required to map bugs)")
        commits = parse_commit_log(cfg.commit_log)
        registry = load_issue_registry(cfg.issue_registry)
    commits.sort(key=lambda c: c.timestamp)
    refs: dict[str, set[int]] = {}
    ledgers: dict[str, BugLedger | InputError] = {}
    for rc in releases:
        try:
            window = cfg.window_of(rc.tag)
            ledgers[rc.tag] = build_bug_ledger(commits, registry, cfg.filter_config, window, rc.tag, refs)
        except InputError as exc:
            ledgers[rc.tag] = detached(exc)  # its frame would hold the commits
    return ledgers


def build_release(rc: ReleaseConfig, memo: RunMemo) -> ReleaseData:
    """Facts, graphs and metrics of one release; a file that fails to parse aborts it."""
    with stage(STAGE_SOURCE):
        facts, failures = load_release_facts(rc, memo)
        if failures:
            listing = "; ".join(f"{printable(p)}: {e}" for p, e in failures)
            raise InputError(f"release {rc.tag!r}: {len(failures)} file(s) failed to parse: {listing}")
        corpus = resolve_type_references(facts)
    with stage(STAGE_GRAPH):
        cg = build_class_graph(corpus)
        cug = build_cu_graph(cg, corpus)
        per_class, per_cu = compute_metrics(corpus, cg, cug)
    return ReleaseData(
        tag=rc.tag, facts=facts, class_graph=cg, cu_graph=cug, per_class=per_class, per_cu=per_cu, memo=memo
    )


def attach_ledger(data: ReleaseData, full: BugLedger | InputError) -> None:
    """Restrict the release's full ledger to its CUs, warning of the links dropped."""
    with stage(STAGE_BUGS):
        if isinstance(full, InputError):
            raise full
    data.ledger = full.restricted_to(data.per_cu)
    dropped = len(full.links) - len(data.ledger.links)
    if dropped:
        warn(__name__, "release %s: dropped %d issue links to files outside the corpus", data.tag, dropped)


# --------------------------------------------------------------------------
# Per-release writers
# --------------------------------------------------------------------------


def _write_facts_file(tag: str, facts: list[CUFacts], out: Path, memo: RunMemo) -> Path:
    """A release's facts file, records in path order, as ``report`` and
    ``extract`` write it, encoded through ``memo.encoded``."""
    path = out / f"facts-{safe_tag(tag)}.jsonl"
    dump_facts_file(sorted(facts, key=lambda cu: cu.path), path, memo.encoded)
    return path


def write_facts(data: ReleaseData, out: Path) -> list[Path]:
    return [_write_facts_file(data.tag, data.facts, out, data.memo)]


def write_graphs(data: ReleaseData, out: Path) -> list[Path]:
    tag = safe_tag(data.tag)
    class_rows = sorted(
        [src[0], src[1], tgt[0], tgt[1], kind] for src, tgt, kind in data.class_graph.edges
    )
    cu_rows = sorted([s, t, k, w] for (s, t, k), w in data.cu_graph.weights.items())
    class_header = ["source_path", "source_class", "target_path", "target_class", "kind"]
    return [
        write_table(out / f"class-graph-{tag}.tsv", class_header, class_rows),
        write_table(out / f"cu-graph-{tag}.tsv", ["source", "target", "kind", "weight"], cu_rows),
    ]


def distribution_samples(data: ReleaseData, name: str) -> list[int]:
    """The release's column ``name``: a metric or ``bugs_per_cu`` per CU in
    path order, or ``cus_per_bug`` per issue in id order. Every writer reads
    these columns here. Each is built once, at its first read, and kept on
    the release, so no reader may change it; a bug column needs the ledger
    attached."""
    column = data.columns.get(name)
    if column is None:
        column = data.columns[name] = _build_column(data, name)
    return column


def _build_column(data: ReleaseData, name: str) -> list[int]:
    if name == "bugs_per_cu":
        assert data.ledger is not None
        return [data.ledger.count(p) for p in sorted(data.per_cu)]
    if name == "cus_per_bug":
        assert data.ledger is not None
        return [n for _, n in sorted(data.ledger.cus_per_bug.items())]
    return [metric_value(v, name) for _, v in sorted(data.per_cu.items())]


def write_metrics(data: ReleaseData, out: Path) -> list[Path]:
    tag = safe_tag(data.tag)
    class_rows = [
        [cid[0], cid[1], m.wmc, m.cbo, m.rfc, m.lcom, m.loc]
        for cid, m in sorted(data.per_class.items())
    ]
    columns = [distribution_samples(data, name) for name in METRIC_NAMES]
    class_header = ["path", "class", "wmc", "cbo", "rfc", "lcom", "loc"]
    return [
        write_table(out / f"class-metrics-{tag}.tsv", class_header, class_rows),
        write_table(out / f"metrics-{tag}.tsv", ["path", *METRIC_NAMES], zip(sorted(data.per_cu), *columns)),
    ]


def write_bugs(data: ReleaseData, out: Path) -> list[Path]:
    assert data.ledger is not None
    tag = safe_tag(data.tag)
    bugs = distribution_samples(data, "bugs_per_cu")
    cus = distribution_samples(data, "cus_per_bug")
    return [
        write_table(out / f"bugs-per-cu-{tag}.tsv", ["path", "bugs"], zip(sorted(data.per_cu), bugs)),
        write_table(out / f"cus-per-bug-{tag}.tsv", ["issue_id", "cus"], zip(sorted(data.ledger.cus_per_bug), cus)),
    ]


def write_ccdfs(data: ReleaseData, out: Path, names: Sequence[str] = DISTRIBUTIONS) -> list[Path]:
    tag = safe_tag(data.tag)
    paths = []
    for name in names:
        samples = distribution_samples(data, name)
        rows = [[_fmt(x), _fmt(p)] for x, p in ccdf(samples).points] if samples else []
        paths.append(write_table(out / f"ccdf-{tag}-{name}.tsv", ["x", "p"], rows))
    return paths


def write_tail_fits(data: ReleaseData, out: Path, names: Sequence[str] = DISTRIBUTIONS) -> list[Path]:
    rows = []
    for name in names:
        # count distributions are discrete; only the LOC scale is continuous
        mode = CONTINUOUS if name == "cu_loc" else DISCRETE
        positive = [s for s in distribution_samples(data, name) if s > 0]
        if not positive:
            rows.append([name, mode, "empty", "", "", "", ""])
            continue
        try:
            fit = fit_power_law_tail(positive, mode=mode)
            rows.append(
                [name, mode, "ok", _fmt(fit.gamma), _fmt(fit.x_min), _fmt(fit.ks), fit.n_tail]
            )
        except InsufficientTail:
            rows.append([name, mode, "insufficient-tail", "", "", "", len(positive)])
    header = ["distribution", "mode", "status", "gamma", "x_min", "ks", "n_tail"]
    return [write_table(out / f"tailfit-{safe_tag(data.tag)}.tsv", header, rows)]


def write_correlations(data: ReleaseData, out: Path) -> list[Path]:
    bugs = distribution_samples(data, "bugs_per_cu")
    rows = []
    for name in METRIC_NAMES:
        try:
            r = pearson(distribution_samples(data, name), bugs)
            rows.append([name, len(bugs), _fmt(r), "ok"])
        except DegenerateInput:
            rows.append([name, len(bugs), "", "degenerate"])
    return [write_table(out / f"correlation-{safe_tag(data.tag)}.tsv", ["metric", "n", "r", "status"], rows)]


# --------------------------------------------------------------------------
# Per-pair writers
# --------------------------------------------------------------------------


def write_evolution(prev: ReleaseSnapshot, nxt: ReleaseSnapshot, out: Path) -> list[Path]:
    """Families, significance and delta correlations of one release pair,
    from the two releases' snapshots alone. Every status of these rows is
    decided here: the chi-square row is empty-family when some family has no
    members; the delta row is too-few-updated under 3 usable changes."""
    pair = pair_tag(prev.release, nxt.release)
    family_rows, chi_rows, delta_rows = [], [], []
    for metric in METRIC_NAMES:
        partition = classify_cus(prev, nxt, metric)
        table = []  # the stats of each family that has members
        for family_name in FAMILY_NAMES:
            members = getattr(partition, family_name)
            if not members:
                family_rows.append([metric, family_name, 0, "", "", ""])
                continue
            stats = family_stats(members, nxt.ledger)
            table.append(stats)
            mean = _fmt(stats.mean_bugs_infected) if stats.mean_bugs_infected is not None else ""
            family_rows.append([metric, family_name, stats.n, stats.infected, _fmt(stats.infection_probability), mean])
        if len(table) < len(FAMILY_NAMES):
            chi_rows.append([metric, "", "", "", "empty-family"])
        else:
            try:
                res = stats_significance(table)
                chi_rows.append([metric, _fmt(res.chi2), res.dof, _fmt(res.p_value), "ok"])
            except DegenerateTable:
                chi_rows.append([metric, "", "", "", "degenerate"])
        changes, bug_counts = fractional_changes(partition, prev, nxt)
        n_used = len(changes)
        n_excluded = len(partition.updated) - n_used
        if n_used < 3:
            delta_rows.append([metric, n_used, n_excluded, "", "too-few-updated"])
        else:
            try:
                delta_rows.append([metric, n_used, n_excluded, _fmt(pearson(changes, bug_counts)), "ok"])
            except DegenerateInput:
                delta_rows.append([metric, n_used, n_excluded, "", "degenerate"])
    family_header = ["metric", "family", "n", "infected", "infection_probability", "mean_bugs_infected"]
    delta_header = ["metric", "n_used", "n_excluded", "r", "status"]
    return [
        write_table(out / f"evolution-{pair}.tsv", family_header, family_rows),
        write_table(out / f"significance-{pair}.tsv", ["metric", "chi2", "dof", "p_value", "status"], chi_rows),
        write_table(out / f"delta-correlation-{pair}.tsv", delta_header, delta_rows),
    ]


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def _make_out_dir(out_dir: Path) -> None:
    """Create the output directory; a path that cannot be one is a ConfigError."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror or exc}") from exc


def _select_releases(cfg: PipelineConfig, release: str | None) -> list[ReleaseConfig]:
    if release is None:
        return list(cfg.releases)
    return [cfg.release(release)]


def run_releases(
    cfg: PipelineConfig,
    out_dir: Path,
    writers: Sequence[Callable[[ReleaseData, Path], list[Path]]],
    pair_writers: Sequence[Callable[[ReleaseSnapshot, ReleaseSnapshot, Path], list[Path]]] = (),
    release: str | None = None,
    with_bugs: bool = True,
) -> list[Path]:
    """The one release driver.

    It reads the commit log and the registry once, building every selected
    release's ledger before any source is parsed, so the commits are freed
    first. It builds each selected release once and runs the writers on it.
    The releases share one ``RunMemo``: a source text or facts-file line
    that the previous release of its kind also held is not decoded again,
    and a CU the previous release wrote is not encoded again.
    With no ``release`` given and some pair writer, a release that a pair
    needs keeps only its snapshot (tag, per-CU metrics, ledger), each pair
    writer runs on two snapshots as soon as both are taken, and a snapshot
    no later pair needs is freed. A release's ``ReleaseData`` is dropped
    once its writers finish. Returns the written paths: every release's in
    release order, then every pair's in ``release_pairs`` order.
    """
    _make_out_dir(out_dir)
    selected = _select_releases(cfg, release)
    ledgers = load_bug_ledgers(cfg, selected) if with_bugs else None
    memo = RunMemo()
    emitted: list[Path] = []
    todo = list(enumerate(cfg.release_pairs)) if release is None and pair_writers else []
    pair_paths: dict[int, list[Path]] = {}
    snapshots: dict[str, ReleaseSnapshot] = {}
    for rc in selected:
        data = build_release(rc, memo=memo)
        if ledgers is not None:
            attach_ledger(data, ledgers.pop(rc.tag))
        with stage(STAGE_STATS):  # writers compute the statistics they write
            for writer in writers:
                emitted.extend(writer(data, out_dir))
        if any(rc.tag in pair for _, pair in todo):
            snapshots[rc.tag] = data.snapshot
        del data  # freed before the next build: a pair needs only the snapshot
        waiting = []
        with stage(STAGE_EVOLUTION):
            for j, (a, b) in todo:
                if a in snapshots and b in snapshots:
                    pair_paths[j] = [p for w in pair_writers for p in w(snapshots[a], snapshots[b], out_dir)]
                else:
                    waiting.append((j, (a, b)))
        todo = waiting
        needed = {tag for _, pair in todo for tag in pair}
        snapshots = {tag: snap for tag, snap in snapshots.items() if tag in needed}
    return emitted + [p for j in sorted(pair_paths) for p in pair_paths[j]]


def cmd_extract(cfg: PipelineConfig, out_dir: Path, release: str | None = None):
    """Parse corpora into facts files, sharing one ``RunMemo`` across releases.
    Failed files are reported and skipped; returns (written paths, failures)
    so the CLI can exit nonzero."""
    _make_out_dir(out_dir)
    memo = RunMemo()
    written: list[Path] = []
    failures: list[tuple[str, str, Exception]] = []
    for rc in _select_releases(cfg, release):
        with stage(STAGE_SOURCE):
            facts, failed = load_release_facts(rc, memo)
        failures.extend((rc.tag, path, err) for path, err in failed)
        written.append(_write_facts_file(rc.tag, facts, out_dir, memo))
    return written, failures


def cmd_analyze(cfg: PipelineConfig, out_dir: Path, release: str | None = None) -> list[Path]:
    """The full battery: facts, graphs, metrics, bugs, distributions, fits,
    correlations per release; families, significance, delta correlations per
    release pair."""
    writers = [
        write_facts, write_graphs, write_metrics, write_bugs, write_ccdfs, write_tail_fits, write_correlations
    ]
    return run_releases(cfg, out_dir, writers, [write_evolution], release=release)
