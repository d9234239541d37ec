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
selects the default issue-reference patterns.
"""

import json
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from .bugs import FilterConfig, parse_timestamp
from .errors import ConfigError, read_utf8


@dataclass(frozen=True)
class ReleaseConfig:
    tag: str
    corpus: Path | None
    facts: Path | None
    window: tuple[datetime, datetime] | None


@dataclass(frozen=True)
class PipelineConfig:
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


def _parse_window(raw, tag: str) -> tuple[datetime, datetime]:
    if not (isinstance(raw, list) and len(raw) == 2):
        raise ConfigError(f"release {tag!r}: window must be [start, end]")
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
    corpus = raw.get("corpus")
    facts = raw.get("facts")
    if (corpus is None) == (facts is None):
        raise ConfigError(f"release {tag!r}: specify exactly one of corpus or facts")
    corpus_path = (base / corpus) if corpus else None
    facts_path = (base / facts) if facts else None
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
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    base = path.parent
    releases_raw = raw.get("releases")
    if not isinstance(releases_raw, list) or not releases_raw:
        raise ConfigError("config needs a non-empty releases list")
    releases = tuple(_parse_release(r, base) for r in releases_raw)
    tags = [r.tag for r in releases]
    if len(tags) != len(set(tags)):
        raise ConfigError("release tags must be unique")

    commit_log = None
    if raw.get("commit_log") is not None:
        commit_log = base / raw["commit_log"]
        if not commit_log.is_file():
            raise ConfigError(f"commit log not found (stage bug_mapping): {commit_log}")
    issue_registry = None
    if raw.get("issue_registry") is not None:
        issue_registry = base / raw["issue_registry"]
        if not issue_registry.is_file():
            raise ConfigError(f"issue registry not found (stage bug_mapping): {issue_registry}")

    filt = raw.get("filter") or {}
    if not isinstance(filt, dict):
        raise ConfigError("filter must be an object")
    kwargs = {}
    if filt.get("min_id") is not None:
        kwargs["min_id"] = filt["min_id"]
    if filt.get("excluded_intervals") is not None:
        kwargs["excluded_intervals"] = tuple(tuple(iv) for iv in filt["excluded_intervals"])
    if filt.get("patterns") is not None:
        kwargs["patterns"] = tuple(filt["patterns"])
    filter_config = FilterConfig(**kwargs)

    pairs_raw = raw.get("release_pairs") or []
    pairs = []
    for pair in pairs_raw:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError("each release pair must be [earlier, later]")
        a, b = pair
        for tag in (a, b):
            if tag not in tags:
                raise ConfigError(f"release pair references unknown tag {tag!r}")
        pairs.append((a, b))

    output_dir = base / (raw.get("output_dir") or "out")
    return PipelineConfig(
        releases=releases,
        commit_log=commit_log,
        issue_registry=issue_registry,
        filter_config=filter_config,
        release_pairs=tuple(pairs),
        output_dir=output_dir,
    )
