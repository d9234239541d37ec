"""Commit-log parsing, issue reference extraction, and per-release bug ledgers.

Commit log format: one record per line,
``ISO-8601 timestamp TAB author TAB message TAB semicolon-separated files``,
with tabs/newlines/backslashes inside the message escaped as ``\\t``, ``\\n``
and ``\\\\``. Issue registry: TSV with header ``id  open_date  release_tag``.

An issue id is extracted from a message when a configured pattern captures
it, it exists in the registry, it is at least ``min_id``, and it lies in no
excluded interval. A CU is hit by an issue when some in-window commit whose
message cites the issue touches the CU; each (issue, CU) pair counts once
per release no matter how many commits repeat it.
"""

import re
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .errors import ConfigError, FormatError, read_utf8

DEFAULT_PATTERNS = (
    r"\bbug\s*#?\s*(\d+)",
    r"\bfix(?:ed|es)?\s*(?:for\s*)?(?:bug\s*)?#?\s*(\d+)",
    r"\bissue\s*#?\s*(\d+)",
    r"(?<![\d.])(\d+)(?![\d.])",  # bare integer token
)


@dataclass(frozen=True)
class CommitEntry:
    timestamp: datetime
    author: str
    message: str
    files: tuple[str, ...]


@dataclass(frozen=True)
class IssueRegistry:
    meta: dict[int, tuple[str, str]]  # id -> (open_date, release_tag)

    @property
    def ids(self) -> frozenset[int]:
        return frozenset(self.meta)

    def __contains__(self, issue_id: int) -> bool:
        return issue_id in self.meta


@dataclass(frozen=True)
class FilterConfig:
    min_id: int = 1
    excluded_intervals: tuple[tuple[int, int], ...] = ()
    patterns: tuple[str, ...] = DEFAULT_PATTERNS

    def __post_init__(self):
        if self.min_id < 1:
            raise ConfigError("min_id must be a positive integer")
        for lo, hi in self.excluded_intervals:
            if lo > hi:
                raise ConfigError(f"excluded interval [{lo}, {hi}] is not well-formed")
        for pat in self.patterns:
            if re.compile(pat).groups != 1:
                raise ConfigError(f"pattern {pat!r} must have exactly one capture group")

    def excluded(self, issue_id: int) -> bool:
        return any(lo <= issue_id <= hi for lo, hi in self.excluded_intervals)


@dataclass(frozen=True)
class BugLedger:
    release: str
    links: frozenset[tuple[int, str]]  # (issue id, CU path)
    bugs_per_cu: dict[str, int] = field(default_factory=dict, compare=False)
    cus_per_bug: dict[int, int] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        per_cu: dict[str, int] = {}
        per_bug: dict[int, int] = {}
        for issue_id, path in self.links:
            per_cu[path] = per_cu.get(path, 0) + 1
            per_bug[issue_id] = per_bug.get(issue_id, 0) + 1
        object.__setattr__(self, "bugs_per_cu", per_cu)
        object.__setattr__(self, "cus_per_bug", per_bug)

    def count(self, path: str) -> int:
        return self.bugs_per_cu.get(path, 0)

    def restricted_to(self, paths) -> "BugLedger":
        """New ledger keeping only links whose CU is in ``paths``."""
        keep = frozenset((i, p) for i, p in self.links if p in paths)
        return BugLedger(release=self.release, links=keep)


def parse_timestamp(raw: str) -> datetime:
    """ISO-8601, with a trailing Z accepted; naive values are taken as UTC."""
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


_ESCAPE_RE = re.compile(r"\\([tn\\])")
_ESCAPES = {"t": "\t", "n": "\n", "\\": "\\"}


def _unescape(message: str) -> str:
    """Undo the log's ``\\t``, ``\\n`` and ``\\\\`` escapes; any other
    backslash is kept as written."""
    return _ESCAPE_RE.sub(lambda m: _ESCAPES[m.group(1)], message)


def parse_commit_log(path) -> list[CommitEntry]:
    return parse_commit_log_text(read_utf8(path, FormatError))


def parse_commit_log_text(text: str) -> list[CommitEntry]:
    entries: list[CommitEntry] = []
    for idx, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise FormatError(f"expected 4 tab-separated fields, found {len(parts)}", record=idx)
        raw_ts, author, message, file_list = parts
        try:
            ts = parse_timestamp(raw_ts)
        except ValueError as exc:
            raise FormatError(f"bad timestamp {raw_ts!r}", record=idx) from exc
        files = tuple(f.strip() for f in file_list.split(";") if f.strip())
        if not files:
            raise FormatError("commit record has no files", record=idx)
        entries.append(CommitEntry(ts, author, _unescape(message), files))
    return entries


def load_issue_registry(path) -> IssueRegistry:
    text = read_utf8(path, FormatError)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return IssueRegistry(meta={})
    header = lines[0].split("\t")
    if header[:3] != ["id", "open_date", "release_tag"]:
        raise FormatError(f"bad registry header {lines[0]!r}", record=1)
    meta: dict[int, tuple[str, str]] = {}
    for idx, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError("expected 3 tab-separated columns", record=idx)
        raw_id, open_date, release_tag = parts
        try:
            issue_id = int(raw_id)
        except ValueError as exc:
            raise FormatError(f"bad issue id {raw_id!r}", record=idx) from exc
        if issue_id <= 0:
            raise FormatError(f"issue id must be positive, got {issue_id}", record=idx)
        if issue_id in meta:
            raise FormatError(f"duplicate issue id {issue_id}", record=idx)
        meta[issue_id] = (open_date, release_tag)
    return IssueRegistry(meta=meta)


def extract_issue_refs(message: str, registry: IssueRegistry, cfg: FilterConfig) -> set[int]:
    found: set[int] = set()
    for pattern in cfg.patterns:
        for m in re.finditer(pattern, message, flags=re.IGNORECASE):
            issue_id = int(m.group(1))
            if issue_id in registry and issue_id >= cfg.min_id and not cfg.excluded(issue_id):
                found.add(issue_id)
    return found


def build_bug_ledger(
    commits: list[CommitEntry],
    registry: IssueRegistry,
    cfg: FilterConfig,
    window: tuple[datetime, datetime],
    release: str,
) -> BugLedger:
    start, end = window
    if start > end:
        raise ConfigError(f"release window for {release!r} has start after end")
    links: set[tuple[int, str]] = set()
    for commit in commits:
        if not (start <= commit.timestamp <= end):
            continue
        for issue_id in extract_issue_refs(commit.message, registry, cfg):
            for path in commit.files:
                links.add((issue_id, path))
    return BugLedger(release=release, links=frozenset(links))
