"""Commit-log parsing, issue reference extraction, and per-release bug ledgers.

Commit log format: one record per line,
``ISO-8601 timestamp TAB author TAB message TAB semicolon-separated files``,
with tabs/newlines/backslashes inside the message escaped as ``\\t``, ``\\n``
and ``\\\\``. Issue registry: TSV with header ``id  open_date  release_tag``.
Of a commit only the author is not kept, and of the registry only the ids.
A commit keeps its file list as written, checked to name a file; only a
ledger that finds the commit citing an accepted issue splits it, and then
interns each path, so a path that many commits touch is one string, the
same one as the CU's path.

An issue id is extracted from a message when a configured pattern captures
it, it exists in the registry, it is at least ``min_id``, and it lies in no
excluded interval. Each pattern is compiled once, case-insensitively, when
the ``FilterConfig`` is made, and its capture must be an integer: a capture
that is not one (or a group that matched nothing) is a configuration error,
while a run of digits too long for ``int()`` or not all ASCII cites no
registered id. The excluded intervals are sorted by low end once, too, so an
id is tested against all of them by one bisection.
A CU is hit by an issue when some in-window commit whose message cites the
issue touches the CU; each (issue, CU) pair counts once per release no matter
how many commits repeat it.

A ledger takes its window from commits sorted by timestamp by bisection, and
extracts the references of a message through a memo from message to issue
ids, so a run that shares one memo across its releases extracts each
distinct message once.
"""

import re
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from itertools import accumulate, repeat
from operator import attrgetter
from typing import NamedTuple

from .errors import ConfigError, FormatError, read_utf8, records

DEFAULT_PATTERNS = (
    r"\bbug\s*#?\s*(\d+)",
    r"\bfix(?:ed|es)?\s*(?:for\s*)?(?:bug\s*)?#?\s*(\d+)",
    r"\bissue\s*#?\s*(\d+)",
    r"(?<![\d.])(\d+)(?![\d.])",  # bare integer token
)


class CommitEntry(NamedTuple):
    timestamp: datetime
    message: str
    paths: str  # the file list as written: paths separated by ";"

    @property
    def files(self) -> tuple[str, ...]:
        """The touched paths, stripped, each interned; empty entries dropped."""
        return tuple(map(sys.intern, filter(None, map(str.strip, self.paths.split(";")))))


@dataclass(frozen=True)
class FilterConfig:
    min_id: int = 1
    excluded_intervals: tuple[tuple[int, int], ...] = ()
    patterns: tuple[str, ...] = DEFAULT_PATTERNS
    compiled: tuple[re.Pattern, ...] = field(init=False, repr=False, compare=False)
    # the intervals' low ends in order, and at each the highest high end so
    # far: an id is excluded when the reach of the last low end at or below
    # it is at or above it
    starts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    reach: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.min_id < 1:
            raise ConfigError("min_id must be a positive integer")
        for lo, hi in self.excluded_intervals:
            if lo > hi:
                raise ConfigError(f"excluded interval [{lo}, {hi}] is not well-formed")
        compiled = []
        for pat in self.patterns:
            try:
                rx = re.compile(pat, re.IGNORECASE)
            except (re.error, TypeError, OverflowError, RecursionError) as exc:
                raise ConfigError(f"pattern {pat!r} is not a valid regular expression: {exc}") from exc
            if rx.groups != 1:
                raise ConfigError(f"pattern {pat!r} must have exactly one capture group")
            compiled.append(rx)
        object.__setattr__(self, "compiled", tuple(compiled))
        intervals = sorted(self.excluded_intervals)
        object.__setattr__(self, "starts", tuple(lo for lo, _ in intervals))
        object.__setattr__(self, "reach", tuple(accumulate((hi for _, hi in intervals), max)))

    def excluded(self, issue_id: int) -> bool:
        i = bisect_right(self.starts, issue_id)
        return i > 0 and self.reach[i - 1] >= issue_id


@dataclass(frozen=True)
class BugLedger:
    release: str
    links: frozenset[tuple[int, str]]  # (issue id, CU path)

    @cached_property
    def bugs_per_cu(self) -> Counter[str]:
        return Counter(path for _, path in self.links)

    @cached_property
    def cus_per_bug(self) -> Counter[int]:
        return Counter(issue_id for issue_id, _ in self.links)

    def count(self, path: str) -> int:
        return self.bugs_per_cu.get(path, 0)

    def restricted_to(self, paths) -> "BugLedger":
        """New ledger keeping only links whose CU is in ``paths``."""
        keep = frozenset((i, p) for i, p in self.links if p in paths)
        return BugLedger(release=self.release, links=keep)


def parse_timestamp(raw: str) -> datetime:
    """ISO-8601, with a trailing Z accepted; naive values are taken as UTC.

    Raises ValueError for text that is not a timestamp or one whose UTC
    instant lies outside years 1 to 9999.
    """
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError as exc:
        raise ValueError(f"{exc} in UTC") from exc


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
    for idx, line in records(text):
        parts = line.split("\t")
        if len(parts) != 4:
            raise FormatError(f"expected 4 tab-separated fields, found {len(parts)}", record=idx)
        raw_ts, _author, message, file_list = parts
        try:
            ts = parse_timestamp(raw_ts)
        except ValueError as exc:
            raise FormatError(f"bad timestamp {raw_ts!r}", record=idx) from exc
        if not file_list.replace(";", " ").strip():
            raise FormatError("commit record has no files", record=idx)
        entries.append(CommitEntry(ts, _unescape(message) if "\\" in message else message, file_list))
    return entries


_REGISTRY_ID = re.compile("-?[0-9]+")


def load_issue_registry(path) -> frozenset[int]:
    """The registered issue ids; every row is checked, but only its id is kept."""
    lines = records(read_utf8(path, FormatError))
    first = next(lines, None)
    if first is None:
        return frozenset()
    idx, header = first
    if header != "id\topen_date\trelease_tag":
        raise FormatError(f"bad registry header {header!r}", record=idx)
    ids: set[int] = set()
    for idx, line in lines:
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError("expected 3 tab-separated columns", record=idx)
        raw_id = parts[0]
        try:
            # int() alone would also read '+7', '1_2', ' 7' and non-ASCII digits
            if not _REGISTRY_ID.fullmatch(raw_id):
                raise ValueError(raw_id)
            issue_id = int(raw_id)  # and this raises past int()'s digit limit
        except ValueError as exc:
            raise FormatError(f"bad issue id {raw_id!r}", record=idx) from exc
        if issue_id <= 0:
            raise FormatError(f"issue id must be positive, got {issue_id}", record=idx)
        if issue_id in ids:
            raise FormatError(f"duplicate issue id {issue_id}", record=idx)
        ids.add(issue_id)
    return frozenset(ids)


def extract_issue_refs(message: str, registry: frozenset[int], cfg: FilterConfig) -> set[int]:
    """Issue ids the message cites that pass the filter; a capture that is
    not an integer raises ConfigError naming the pattern."""
    found: set[int] = set()
    for rx in cfg.compiled:
        for raw in rx.findall(message):
            try:
                issue_id = int(raw)
            except ValueError:
                if raw.isdigit():
                    continue  # too many digits for int(), so no registered id
                if not raw:
                    # findall gives '' for a group that matched nothing too;
                    # the first match with no text in its group tells which
                    raw = next(m.group(1) for m in rx.finditer(message) if not m.group(1))
                raise ConfigError(
                    f"pattern {rx.pattern!r} captured {raw!r} in commit message {message!r}, not an issue number"
                ) from None
            if not raw.isascii():
                continue  # non-ASCII digits, in which no registered id is written
            if issue_id in registry and issue_id >= cfg.min_id and not cfg.excluded(issue_id):
                found.add(issue_id)
    return found


_timestamp = attrgetter("timestamp")


def build_bug_ledger(
    commits: list[CommitEntry],
    registry: frozenset[int],
    cfg: FilterConfig,
    window: tuple[datetime, datetime],
    release: str,
    refs: dict[str, set[int]] | None = None,
) -> BugLedger:
    """The release's ledger from the commits in its inclusive window.

    ``commits`` must be sorted by timestamp: the window is found by
    bisection. ``refs`` memoises ``extract_issue_refs`` per message; one memo
    may serve many windows, but only with the same registry and filter.
    """
    start, end = window
    if start > end:
        raise ConfigError(f"release window for {release!r} has start after end")
    if refs is None:
        refs = {}
    lo = bisect_left(commits, start, key=_timestamp)
    hi = bisect_right(commits, end, lo=lo, key=_timestamp)
    links: set[tuple[int, str]] = set()
    for commit in commits[lo:hi]:
        ids = refs.get(commit.message)
        if ids is None:
            ids = refs[commit.message] = extract_issue_refs(commit.message, registry, cfg)
        if ids:  # only a commit that cites an issue has its file list split
            files = commit.files
            for issue_id in ids:
                links.update(zip(repeat(issue_id), files))
    return BugLedger(release=release, links=frozenset(links))
