"""Pipeline configuration: a JSON file naming corpora, logs, and windows.

Schema:

{
  "releases": [
    {"tag": "r1", "corpus": "corpus_r1",            // directory of .java files
     "window": ["2007-01-01T00:00:00Z", "2007-06-30T23:59:59Z"]},
    {"tag": "r2", "facts": "facts-r2.jsonl",        // or a pre-extracted facts file
     "window": ["2007-07-01T00:00:00Z", "2007-12-31T23:59:59Z"]}
  ],
  "commit_log": "commits.tsv",
  "issue_registry": "issues.tsv",
  "filter": {"min_id": 100, "excluded_intervals": [[300, 305]], "patterns": null},
  "release_pairs": [["r1", "r2"]],
  "output_dir": "out"
}

Relative paths are resolved against the config file's directory. Every
referenced path must exist when the config is loaded. ``patterns: null``
selects the default issue-reference patterns. A field of the wrong JSON type
is a ConfigError naming the field, and so is a config in which two release
tags, or two release pairs, would give the same output file name.
"""

import json
import re
from datetime import datetime
from pathlib import Path
from typing import NamedTuple

from .bugs import FilterConfig, parse_timestamp
from .errors import ConfigError, json_limit, read_utf8


class ReleaseConfig(NamedTuple):
    tag: str
    corpus: Path | None
    facts: Path | None
    window: tuple[datetime, datetime] | None


class PipelineConfig(NamedTuple):
    releases: tuple[ReleaseConfig, ...]
    commit_log: Path | None
    issue_registry: Path | None
    filter_config: FilterConfig
    release_pairs: tuple[tuple[str, str], ...]
    output_dir: Path

    def release(self, tag: str) -> ReleaseConfig:
        for rc in self.releases:
            if rc.tag == tag:
                return rc
        raise ConfigError(f"unknown release tag {tag!r}")

    def window_of(self, tag: str) -> tuple[datetime, datetime]:
        rc = self.release(tag)
        if rc.window is None:
            raise ConfigError(f"release {tag!r} has no window (needed to map bugs to the release)")
        return rc.window


def safe_tag(tag: str) -> str:
    """A release tag as it appears in output file names."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", tag)


def pair_tag(a: str, b: str) -> str:
    """A release pair as it appears in output file names."""
    return f"{safe_tag(a)}-{safe_tag(b)}"


def _distinct_file_names(named: list[tuple[str, str]], what: str) -> None:
    """``named`` holds (label, file-name form) pairs; two labels with one
    form would overwrite each other's outputs."""
    seen: dict[str, str] = {}
    for label, name in named:
        if name in seen:
            raise ConfigError(f"{what} {seen[name]} and {label} give the same output file name {name!r}")
        seen[name] = label


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _path(raw: dict, key: str, what: str, base: Path) -> Path | None:
    """``base / raw[key]``, or None when the field is absent or null."""
    value = raw.get(key)
    if value is None:
        return None
    _require(isinstance(value, str) and value != "", f"{what} must be a non-empty string")
    return base / value


def _parse_window(raw, tag: str) -> tuple[datetime, datetime]:
    if not (isinstance(raw, list) and len(raw) == 2 and all(isinstance(t, str) for t in raw)):
        raise ConfigError(f"release {tag!r}: window must be [start, end] timestamp strings")
    try:
        start, end = parse_timestamp(raw[0]), parse_timestamp(raw[1])
    except ValueError as exc:
        raise ConfigError(f"release {tag!r}: bad window timestamp: {exc}") from exc
    if start > end:
        raise ConfigError(f"release {tag!r}: window start is after its end")
    return start, end


def _parse_release(raw, base: Path) -> ReleaseConfig:
    if not isinstance(raw, dict) or not isinstance(raw.get("tag"), str) or not raw["tag"]:
        raise ConfigError("each release needs a non-empty string tag")
    tag = raw["tag"]
    corpus_path = _path(raw, "corpus", f"release {tag!r}: corpus", base)
    facts_path = _path(raw, "facts", f"release {tag!r}: facts", base)
    if (corpus_path is None) == (facts_path is None):
        raise ConfigError(f"release {tag!r}: specify exactly one of corpus or facts")
    if corpus_path is not None and not corpus_path.is_dir():
        raise ConfigError(f"release {tag!r}: corpus directory not found: {corpus_path}")
    if facts_path is not None and not facts_path.is_file():
        raise ConfigError(f"release {tag!r}: facts file not found: {facts_path}")
    window = _parse_window(raw["window"], tag) if raw.get("window") is not None else None
    return ReleaseConfig(tag=tag, corpus=corpus_path, facts=facts_path, window=window)


def load_config(path) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(read_utf8(path, ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (RecursionError, ValueError) as exc:
        raise ConfigError(f"config is not valid JSON: {json_limit(exc)}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    base = path.parent
    releases_raw = raw.get("releases")
    if not isinstance(releases_raw, list) or not releases_raw:
        raise ConfigError("config needs a non-empty releases list")
    releases = tuple(_parse_release(r, base) for r in releases_raw)
    tags = [r.tag for r in releases]
    _distinct_file_names([(repr(tag), safe_tag(tag)) for tag in tags], "release tags")

    commit_log = _path(raw, "commit_log", "commit_log", base)
    if commit_log is not None and not commit_log.is_file():
        raise ConfigError(f"commit log not found (stage bug_mapping): {commit_log}")
    issue_registry = _path(raw, "issue_registry", "issue_registry", base)
    if issue_registry is not None and not issue_registry.is_file():
        raise ConfigError(f"issue registry not found (stage bug_mapping): {issue_registry}")

    filt = {} if raw.get("filter") is None else raw["filter"]
    _require(isinstance(filt, dict), "filter must be an object")
    kwargs = {}
    if filt.get("min_id") is not None:
        _require(_is_int(filt["min_id"]), "filter.min_id must be an integer")
        kwargs["min_id"] = filt["min_id"]
    if filt.get("excluded_intervals") is not None:
        intervals = filt["excluded_intervals"]
        _require(
            isinstance(intervals, list)
            and all(isinstance(iv, list) and len(iv) == 2 and all(map(_is_int, iv)) for iv in intervals),
            "filter.excluded_intervals must be a list of [low, high] integer pairs",
        )
        kwargs["excluded_intervals"] = tuple(tuple(iv) for iv in intervals)
    if filt.get("patterns") is not None:
        patterns = filt["patterns"]
        _require(
            isinstance(patterns, list) and all(isinstance(p, str) for p in patterns),
            "filter.patterns must be a list of strings or null",
        )
        kwargs["patterns"] = tuple(patterns)
    filter_config = FilterConfig(**kwargs)

    pairs_raw = [] if raw.get("release_pairs") is None else raw["release_pairs"]
    _require(isinstance(pairs_raw, list), "release_pairs must be a list")
    pairs = []
    for pair in pairs_raw:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError("each release pair must be [earlier, later]")
        a, b = pair
        for tag in (a, b):
            if tag not in tags:
                raise ConfigError(f"release pair references unknown tag {tag!r}")
        pairs.append((a, b))
    _distinct_file_names([(f"[{a!r}, {b!r}]", pair_tag(a, b)) for a, b in pairs], "release pairs")

    output_dir = _path(raw, "output_dir", "output_dir", base) or base / "out"
    return PipelineConfig(
        releases=releases,
        commit_log=commit_log,
        issue_registry=issue_registry,
        filter_config=filter_config,
        release_pairs=tuple(pairs),
        output_dir=output_dir,
    )
