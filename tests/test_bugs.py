import random
import re
import sys
import tempfile
from datetime import timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultgraph import bugs
from faultgraph.bugs import (
    BugLedger,
    CommitEntry,
    FilterConfig,
    _unescape,
    build_bug_ledger,
    extract_issue_refs,
    load_issue_registry,
    parse_commit_log,
    parse_commit_log_text,
    parse_timestamp,
)
from faultgraph.config import PipelineConfig, ReleaseConfig, load_config
from faultgraph.errors import ConfigError, FormatError, records
from faultgraph.pipeline import load_bug_ledgers


def utc(s):
    return parse_timestamp(s)


def registry_of(*ids):
    return frozenset(ids)


WINDOW = (utc("2007-01-01T00:00:00Z"), utc("2007-12-31T23:59:59Z"))


# -- commit log parsing -------------------------------------------------------


def test_empty_log():
    assert parse_commit_log_text("") == []


def test_five_record_fixture_matches_hand_table():
    text = (
        "2007-02-10T09:00:00Z\tana\tFixed 120 in alpha pipeline\tapp/Alpha.java\n"
        "2007-03-05T10:30:00Z\tbo\tbug #145: tighten lifecycle\tapp/Base.java;app/Alpha.java\n"
        "2007-04-01T08:15:00Z\tana\tupdate copyright 2007\tapp/Runner.java\n"
        "2007-05-20T16:45:00Z\tcy\tmulti\\tline\\nnote\tlib/Util.java\n"
        "2007-08-15T11:00:00+02:00\tbo\tFixed 260 regression\tapp/Report.java;lib/Util.java\n"
    )
    entries = parse_commit_log_text(text)
    assert len(entries) == 5
    assert entries[0] == CommitEntry(
        utc("2007-02-10T09:00:00Z"), "Fixed 120 in alpha pipeline", "app/Alpha.java"
    )
    assert entries[1].files == ("app/Base.java", "app/Alpha.java")
    assert entries[3].message == "multi\tline\nnote"
    assert entries[4].timestamp == utc("2007-08-15T09:00:00Z")


def test_record_missing_file_list():
    with pytest.raises(FormatError) as err:
        parse_commit_log_text("2007-02-10T09:00:00Z\tana\tFixed 120\t\n")
    assert err.value.record == 1


# a file list's pieces: names, and blanks that str.strip removes and a
# record can hold, as no "\n" can
FILE_LISTS = st.lists(
    st.lists(
        st.sampled_from(["Alpha.java", "p/U1.java", "", " ", "\x0b", "\x1c", "\x85", "\u2028", "\u3000"]), max_size=3
    ).map("".join),
    min_size=1,
    max_size=5,
).map(";".join)


@settings(max_examples=300, deadline=None)
@given(FILE_LISTS)
def test_a_file_list_is_rejected_exactly_when_it_names_no_file(file_list):
    named = tuple(filter(None, map(str.strip, file_list.split(";"))))
    text = f"2007-02-10T09:00:00Z\tana\tFixed 120\t{file_list}\n"
    if not named:
        with pytest.raises(FormatError, match="commit record has no files"):
            parse_commit_log_text(text)
        return
    (entry,) = parse_commit_log_text(text)
    assert entry.files == named
    assert all(name is sys.intern(name) for name in entry.files)


def test_wrong_field_count():
    with pytest.raises(FormatError):
        parse_commit_log_text("2007-02-10T09:00:00Z\tana\tno files\n")


def test_bad_timestamp():
    with pytest.raises(FormatError):
        parse_commit_log_text("not-a-date\tana\tmsg\ta.java\n")


def test_partial_results_never_returned():
    text = "2007-02-10T09:00:00Z\tana\tok\ta.java\nbroken line\n"
    with pytest.raises(FormatError):
        parse_commit_log_text(text)


@pytest.mark.parametrize("inside", ["\x0c", "\u2028", "\x1c", "\x85", "\r"])
def test_a_record_ends_at_newline_only(inside):
    text = f"2007-01-01T00:00:00Z\tdev\tpage{inside}break 500\ta.java\n"
    (entry,) = parse_commit_log_text(text)
    assert entry.message == f"page{inside}break 500"


# every character that str.strip removes, the record-ending "\n" apart
STRIPPED = [c for c in map(chr, range(sys.maxunicode + 1)) if not c.strip() and c != "\n"]


@pytest.mark.parametrize("blank", STRIPPED, ids=lambda c: f"U+{ord(c):04X}")
def test_records_skips_what_strip_would_blank_and_keeps_the_rest_whole(blank):
    # records tests blankness with isspace, which copies nothing; it holds
    # for exactly the characters strip removes
    assert blank.isspace()
    text = f"a\n{blank * 3}\n\n{blank}b{blank}c\n{blank}\r\n"
    assert list(records(text)) == [(1, "a"), (4, f"{blank}b{blank}c")]


def test_crlf_log_loads_with_unchanged_record_indices():
    good = "2007-02-10T09:00:00Z\tana\tFixed 120\ta.java"
    assert parse_commit_log_text(f"{good}\r\n{good}\r\n") == parse_commit_log_text(f"{good}\n{good}\n")
    with pytest.raises(FormatError) as err:
        parse_commit_log_text(f"{good}\r\n\r\nbroken line\r\n")
    assert err.value.record == 3


def test_registry_records_end_at_newline_only(tmp_path):
    path = tmp_path / "issues.tsv"
    path.write_bytes("id\topen_date\trelease_tag\r\n5\t2007-01-01\tr\u20281\r\n7\t2007-01-02\tr2\r\n".encode())
    assert load_issue_registry(path) == {5, 7}
    path.write_bytes(b"id\topen_date\trelease_tag\n5\t2007-01-01\x0cr1\n")
    with pytest.raises(FormatError) as err:
        load_issue_registry(path)
    assert err.value.record == 2


@pytest.mark.parametrize(
    "text, record",
    [
        ("id\topen_date\trelease_tag\n\n\n5\t2007-01-01\tr1\nx\t2007-01-02\tr1\n", 5),
        ("\n\nid\topen\trelease\n", 3),
    ],
    ids=["row", "header"],
)
def test_registry_error_after_blank_lines_names_its_line(tmp_path, text, record):
    path = tmp_path / "issues.tsv"
    path.write_text(text)
    with pytest.raises(FormatError) as err:
        load_issue_registry(path)
    assert err.value.record == record
    assert str(err.value).startswith(f"record {record}: ")


REGISTRY_HEADER = "id\topen_date\trelease_tag\n"


@pytest.mark.parametrize(
    "text, record, message",
    [
        ("id\topen\trelease_tag\n", 1, "bad registry header"),
        ("id\topen_date\trelease_tag\textra\n5\t2007-01-01\tr1\n", 1, "bad registry header"),
        (REGISTRY_HEADER + "5\t2007-01-01\n", 2, "expected 3 tab-separated columns"),
        (REGISTRY_HEADER + "5\t2007-01-01\tr1\tmore\n", 2, "expected 3 tab-separated columns"),
        (REGISTRY_HEADER + "five\t2007-01-01\tr1\n", 2, "bad issue id 'five'"),
        (REGISTRY_HEADER + "5.0\t2007-01-01\tr1\n", 2, "bad issue id '5.0'"),
        (REGISTRY_HEADER + "1_20\t2007-01-01\tr1\n", 2, "bad issue id '1_20'"),
        (REGISTRY_HEADER + "+145\t2007-01-01\tr1\n", 2, "bad issue id '+145'"),
        (REGISTRY_HEADER + " 7\t2007-01-01\tr1\n", 2, "bad issue id ' 7'"),
        (REGISTRY_HEADER + "\u0661\u0662\u0660\t2007-01-01\tr1\n", 2, "bad issue id '\u0661\u0662\u0660'"),
        (REGISTRY_HEADER + "0\t2007-01-01\tr1\n", 2, "issue id must be positive, got 0"),
        (REGISTRY_HEADER + "-3\t2007-01-01\tr1\n", 2, "issue id must be positive, got -3"),
        (REGISTRY_HEADER + "5\t2007-01-01\tr1\n5\t2007-02-01\tr2\n", 3, "duplicate issue id 5"),
    ],
)
def test_the_registry_checks_every_row_it_keeps_only_the_id_of(tmp_path, text, record, message):
    path = tmp_path / "issues.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_issue_registry(path)
    assert err.value.record == record
    assert message in str(err.value)


def test_the_registry_is_the_set_of_its_ids(tmp_path):
    path = tmp_path / "issues.tsv"
    path.write_text(REGISTRY_HEADER + "7\t2007-01-01\tr1\n5\t\t\n", encoding="utf-8")
    assert load_issue_registry(path) == frozenset({5, 7})
    path.write_text("", encoding="utf-8")
    assert load_issue_registry(path) == frozenset()


LONE_CR_FILES = [
    (parse_commit_log, "2007-01-01T00:00:00Z\tdev\tpage\rbreak 500\ta.java\n", parse_commit_log_text),
    (load_issue_registry, REGISTRY_HEADER + "5\t2007-01-01\tr\r1\n", lambda text: {5}),
]


@pytest.mark.parametrize("load, text, want", LONE_CR_FILES, ids=["log", "registry"])
def test_a_lone_cr_read_from_a_file_stays_in_its_record(tmp_path, load, text, want):
    path = tmp_path / "input.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert load(path) == want(text)


@pytest.mark.parametrize(
    "load, text",
    [
        (parse_commit_log, "2007-02-10T09:00:00Z\tana\tFixed 120\ta.java\r\n\r\nbroken line\r\n"),
        (load_issue_registry, "id\topen_date\trelease_tag\r\n\r\nx\t2007-01-01\tr1\r\n"),
    ],
    ids=["log", "registry"],
)
def test_a_crlf_file_keeps_its_record_numbers(tmp_path, load, text):
    path = tmp_path / "input.tsv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(FormatError) as err:
        load(path)
    assert err.value.record == 3


@pytest.mark.parametrize("load", [parse_commit_log, load_issue_registry])
def test_unreadable_log_or_registry_is_a_format_error(tmp_path, load):
    path = tmp_path / "dangling.tsv"
    path.symlink_to(tmp_path / "missing.tsv")
    with pytest.raises(FormatError, match="dangling.tsv: cannot read"):
        load(path)


# -- issue extraction ---------------------------------------------------------


def test_fixed_pattern():
    cfg = FilterConfig()
    assert extract_issue_refs("Fixed 141181", registry_of(141181), cfg) == {141181}


def test_bug_hash_pattern():
    cfg = FilterConfig()
    assert extract_issue_refs("bug #141181", registry_of(141181), cfg) == {141181}


def test_unregistered_number_ignored():
    cfg = FilterConfig()
    assert extract_issue_refs("update copyright 2005", registry_of(141181), cfg) == set()


def test_min_id_filter():
    cfg = FilterConfig(min_id=100)
    got = extract_issue_refs("fix for bug #200, see 99", registry_of(200, 99), cfg)
    assert got == {200}


def test_excluded_interval_filter():
    cfg = FilterConfig(excluded_intervals=((300, 305),))
    assert extract_issue_refs("issue 303 workaround", registry_of(303), cfg) == set()


# short intervals over a few dozen ids: overlapping, nested, adjacent and
# repeated ones are common
INTERVALS = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 12)).map(lambda t: (t[0], t[0] + t[1])), max_size=12
)


@settings(max_examples=300, deadline=None)
@given(INTERVALS)
def test_excluded_matches_a_walk_over_every_interval(intervals):
    cfg = FilterConfig(excluded_intervals=tuple(intervals))
    for issue_id in range(-2, 56):
        assert cfg.excluded(issue_id) == any(lo <= issue_id <= hi for lo, hi in intervals), issue_id


@pytest.mark.parametrize(
    "intervals",
    [((5, 20), (8, 9)), ((5, 9), (8, 12)), ((5, 9), (10, 12)), ((10, 12), (5, 6), (5, 30)), ((7, 7), (7, 7))],
    ids=["nested", "overlapping", "adjacent", "unsorted", "repeated"],
)
def test_excluded_on_each_interval_shape(intervals):
    cfg = FilterConfig(excluded_intervals=intervals)
    assert [i for i in range(35) if cfg.excluded(i)] == [
        i for i in range(35) if any(lo <= i <= hi for lo, hi in intervals)
    ]


def test_bare_integer_matches_by_default():
    cfg = FilterConfig()
    assert extract_issue_refs("see 500 for details", registry_of(500), cfg) == {500}


def test_pattern_only_config_restricts_bare_integers():
    cfg = FilterConfig(patterns=(r"\bbug\s*#?\s*(\d+)",))
    reg = registry_of(500, 600)
    assert extract_issue_refs("bug 500 related to 600", reg, cfg) == {500}


def test_a_digit_run_too_long_for_int_cites_no_issue():
    message = "bump " + "7" * 5000 + " and fix bug 500"
    assert extract_issue_refs(message, registry_of(500), FilterConfig()) == {500}


@pytest.mark.parametrize(
    "message, patterns, ascii_twin",
    [
        ("Fixed bug #١٢٠ and issue １４５", None, "Fixed bug #120 and issue 145"),  # Arabic-Indic, fullwidth
        ("fix 1２0 and 14٥", None, "fix 120 and 145"),  # ASCII and non-ASCII digits in one run
        ("bug-١٢٠ and bug-²", (r"\bbug-(\w+)",), "bug-120 and bug-145"),  # ² is a digit int() does not read
    ],
)
def test_non_ascii_digits_cite_no_issue(message, patterns, ascii_twin):
    cfg = FilterConfig() if patterns is None else FilterConfig(patterns=patterns)
    assert extract_issue_refs(message, registry_of(120, 145), cfg) == set()
    assert extract_issue_refs(ascii_twin, registry_of(120, 145), cfg) == {120, 145}


def test_a_naive_timestamp_is_read_as_utc():
    assert parse_timestamp("2007-03-01T12:00:00") == utc("2007-03-01T12:00:00Z")


def test_decimal_fragments_not_matched_as_bare_integers():
    cfg = FilterConfig()
    assert extract_issue_refs("bump to 3.141 tonight", registry_of(141), cfg) == set()


@pytest.mark.parametrize(
    "pattern, bad, captured, good",
    [
        (r"\bbug-(\w+)", "fix bug-abc here", "'abc'", "fix bug-500 here"),  # a word, not a number
        (r"\bbug(\d+)?", "bug fix", "None", "bug500"),  # an optional group that matched nothing
        (r"\bbug(\d*)", "bug fix", "''", "bug500"),  # a group that matched the empty string
    ],
)
def test_a_capture_that_is_not_an_issue_number_is_a_config_error(pattern, bad, captured, good):
    cfg = FilterConfig(patterns=(pattern,))
    with pytest.raises(ConfigError) as err:
        extract_issue_refs(bad, registry_of(500), cfg)
    assert repr(pattern) in str(err.value) and f"captured {captured}" in str(err.value)
    assert extract_issue_refs(good, registry_of(500), cfg) == {500}


@pytest.mark.parametrize(
    "pattern",
    [
        "(unclosed",
        "((a)",
        7,
        r"bug \d+",
        r"(bug) (\d+)",
        pytest.param(r"bug (\d{99999999999999999999})", id="repeat-past-the-limit"),
        pytest.param("(" * 1000 + r"\d+" + ")" * 1000, id="groups-1000-deep"),
    ],
)
def test_an_invalid_pattern_is_a_config_error(pattern):
    with pytest.raises(ConfigError):
        FilterConfig(patterns=(pattern,))


def test_patterns_are_compiled_once_case_insensitively():
    cfg = FilterConfig(patterns=(r"\bbug\s*(\d+)",))
    assert [rx.pattern for rx in cfg.compiled] == list(cfg.patterns)
    assert all(rx.flags & re.IGNORECASE for rx in cfg.compiled)
    assert extract_issue_refs("BUG 500", registry_of(500), cfg) == {500}
    assert cfg == FilterConfig(patterns=(r"\bbug\s*(\d+)",))


@given(
    st.text(alphabet="abc #0123456789", max_size=60),
    st.sets(st.integers(min_value=1, max_value=999), max_size=8),
)
def test_extraction_subset_of_registry(message, ids):
    reg = registry_of(*ids)
    got = extract_issue_refs(message, reg, FilterConfig())
    assert got <= reg


@given(
    st.text(alphabet="abc #0123456789", max_size=60),
    st.sets(st.integers(min_value=1, max_value=999), min_size=1, max_size=8),
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=999), st.integers(min_value=0, max_value=99)),
        max_size=3,
    ),
)
def test_enlarging_exclusions_never_grows_extraction(message, ids, raw_intervals):
    reg = registry_of(*ids)
    intervals = tuple((lo, lo + width) for lo, width in raw_intervals)
    # each added interval can only shrink the extracted set
    prev = extract_issue_refs(message, reg, FilterConfig())
    for k in range(1, len(intervals) + 1):
        cur = extract_issue_refs(message, reg, FilterConfig(excluded_intervals=intervals[:k]))
        assert cur <= prev
        prev = cur


# -- ledger construction ------------------------------------------------------


def test_no_fixing_commits_gives_zero_ledger():
    commits = [CommitEntry(utc("2007-03-01T00:00:00Z"), "tidy imports", "a.java")]
    ledger = build_bug_ledger(commits, registry_of(500), FilterConfig(), WINDOW, "r1")
    assert ledger.links == frozenset()
    assert ledger.bugs_per_cu == {}
    assert ledger.cus_per_bug == {}


def test_single_commit_links_every_touched_file():
    commits = [CommitEntry(utc("2007-03-01T00:00:00Z"), "Fixed 500", "a.java;b.java")]
    ledger = build_bug_ledger(commits, registry_of(500), FilterConfig(), WINDOW, "r1")
    assert ledger.bugs_per_cu == {"a.java": 1, "b.java": 1}
    assert ledger.cus_per_bug == {500: 2}


def test_repeated_issue_file_pair_counts_once():
    commits = [
        CommitEntry(utc("2007-03-01T00:00:00Z"), "Fixed 500", "a.java"),
        CommitEntry(utc("2007-04-01T00:00:00Z"), "more work on 500", "a.java"),
    ]
    ledger = build_bug_ledger(commits, registry_of(500), FilterConfig(), WINDOW, "r1")
    assert ledger.bugs_per_cu == {"a.java": 1}
    assert ledger.cus_per_bug == {500: 1}


def test_window_is_inclusive_and_filters_commits():
    commits = [
        CommitEntry(utc("2007-01-01T00:00:00Z"), "Fixed 500", "a.java"),
        CommitEntry(utc("2007-12-31T23:59:59Z"), "Fixed 501", "b.java"),
        CommitEntry(utc("2008-01-01T00:00:00Z"), "Fixed 502", "c.java"),
    ]
    ledger = build_bug_ledger(commits, registry_of(500, 501, 502), FilterConfig(), WINDOW, "r1")
    assert set(ledger.cus_per_bug) == {500, 501}


def test_replay_is_idempotent():
    commits = [
        CommitEntry(utc("2007-03-01T00:00:00Z"), "Fixed 500 and 501", "a.java;b.java"),
    ]
    reg = registry_of(500, 501)
    first = build_bug_ledger(commits, reg, FilterConfig(), WINDOW, "r1")
    second = build_bug_ledger(commits * 2, reg, FilterConfig(), WINDOW, "r1")
    assert first.links == second.links


def test_a_ledger_splits_the_file_list_of_a_citing_commit_only(monkeypatch):
    commits = [
        CommitEntry(utc("2006-12-31T00:00:00Z"), "Fixed 500", "z.java"),  # before the window
        CommitEntry(utc("2007-02-01T00:00:00Z"), "tidy imports", "a.java;b.java"),
        CommitEntry(utc("2007-03-01T00:00:00Z"), "Fixed 500", "a.java; c.java"),
        CommitEntry(utc("2007-04-01T00:00:00Z"), "Fixed 999", "d.java"),  # not registered
    ]
    split = []
    files = CommitEntry.files.fget

    def counted_files(commit):
        split.append(commit.paths)
        return files(commit)

    monkeypatch.setattr(CommitEntry, "files", property(counted_files))
    ledger = build_bug_ledger(commits, registry_of(500), FilterConfig(), WINDOW, "r1")
    assert ledger.links == {(500, "a.java"), (500, "c.java")}
    assert split == ["a.java; c.java"]


def synthetic_log(seed: int, n_commits: int = 1000) -> tuple[str, frozenset[int]]:
    rng = random.Random(seed)
    ids = rng.sample(range(100, 5000), 60)
    files = [f"src/F{k}.java" for k in range(40)]
    lines = []
    for i in range(n_commits):
        ts = f"2007-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}T{rng.randint(0, 23):02d}:00:00Z"
        style = rng.random()
        cited = rng.sample(ids, rng.randint(0, 3))
        if style < 0.3:
            msg = " and ".join(f"Fixed {c}" for c in cited) or "routine maintenance"
        elif style < 0.6:
            msg = ", ".join(f"bug #{c}" for c in cited) or "cleanup pass"
        else:
            msg = " ".join(str(c) for c in cited) or "noop"
        touched = ";".join(rng.sample(files, rng.randint(1, 4)))
        lines.append(f"{ts}\tdev{rng.randint(0, 5)}\t{msg}\t{touched}")
    return "\n".join(lines) + "\n", registry_of(*ids)


@pytest.mark.parametrize("seed", range(100))
def test_ledger_double_count_identity_over_synthetic_logs(seed):
    text, reg = synthetic_log(seed)
    commits = sorted(parse_commit_log_text(text), key=lambda c: c.timestamp)  # build_bug_ledger bisects
    assert len(commits) == 1000
    ledger = build_bug_ledger(commits, reg, FilterConfig(min_id=100), WINDOW, "r1")
    assert sum(ledger.bugs_per_cu.values()) == sum(ledger.cus_per_bug.values()) == len(ledger.links)


def test_loaded_ledgers_build_their_counts_on_first_read(fixtures_dir):
    cfg = load_config(fixtures_dir / "pipeline_config.json")
    ledgers = load_bug_ledgers(cfg, cfg.releases)
    assert ledgers and all(isinstance(ledger, BugLedger) for ledger in ledgers.values())
    for ledger in ledgers.values():
        assert "bugs_per_cu" not in vars(ledger) and "cus_per_bug" not in vars(ledger)
    ledger = ledgers["r1"]
    assert sum(ledger.bugs_per_cu.values()) == len(ledger.links)
    assert "bugs_per_cu" in vars(ledger) and "cus_per_bug" not in vars(ledger)
    assert ledger == BugLedger(ledger.release, ledger.links)


def test_restricted_to_keeps_identity():
    ledger = BugLedger("r1", frozenset([(1, "a"), (1, "b"), (2, "a")]))
    cut = ledger.restricted_to({"a"})
    assert cut.bugs_per_cu == {"a": 2}
    assert sum(cut.bugs_per_cu.values()) == sum(cut.cus_per_bug.values()) == len(cut.links)


def unescape_by_character(message):
    """The character loop ``_unescape`` replaced, kept as its oracle."""
    out, i = [], 0
    while i < len(message):
        c = message[i]
        if c == "\\" and i + 1 < len(message) and message[i + 1] in "tn\\":
            out.append({"t": "\t", "n": "\n", "\\": "\\"}[message[i + 1]])
            i += 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


@given(st.text(alphabet="\\tnx\t\n a", max_size=60))
def test_unescape_matches_character_oracle(message):
    assert _unescape(message) == unescape_by_character(message)


def test_unescape_keeps_unknown_escapes_and_a_trailing_backslash():
    assert _unescape("a\\tb\\nc\\\\d") == "a\tb\nc\\d"
    assert _unescape("\\x \\\\n end\\") == "\\x \\n end\\"


# -- the sorted, memoised ledger against the per-release scan it replaced ------


def refs_by_finditer(message, registry, cfg):
    """``extract_issue_refs`` as it was before patterns were precompiled."""
    found = set()
    for pattern in cfg.patterns:
        for m in re.finditer(pattern, message, flags=re.IGNORECASE):
            issue_id = int(m.group(1))
            if issue_id in registry and issue_id >= cfg.min_id and not cfg.excluded(issue_id):
                found.add(issue_id)
    return found


def ledger_by_scan(commits, registry, cfg, window, release):
    """``build_bug_ledger`` as it was: test every commit of the log, in log order."""
    start, end = window
    if start > end:
        raise ConfigError(f"release window for {release!r} has start after end")
    links = set()
    for commit in commits:
        if not (start <= commit.timestamp <= end):
            continue
        for issue_id in refs_by_finditer(commit.message, registry, cfg):
            for path in commit.files:
                links.add((issue_id, path))
    return BugLedger(release=release, links=frozenset(links))


T0 = utc("2007-01-01T00:00:00Z")
MESSAGES = [
    "Fixed 101",
    "fix for bug #102 and 103",
    "issue 104\tsee 105",
    "bug 106\nsecond line 107",
    "back\\slash 108 \\t not a tab",
    "12 of 34 done",
    "nothing cited",
    "#109#110 1011",
]
CUSTOM_PATTERNS = (r"#(\d+)", r"(\d+)", r"(\d\d)", r"(1\d)")  # matches overlap


def escape(message):
    return message.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


@st.composite
def logs_and_windows(draw):
    hours = st.integers(min_value=0, max_value=12)
    commits = draw(
        st.lists(
            st.tuples(hours, st.sampled_from(MESSAGES), st.sets(st.sampled_from("ABCDE"), min_size=1)),
            max_size=40,
        )
    )
    windows = draw(st.lists(st.tuples(hours, hours), min_size=1, max_size=4))
    ids = draw(st.sets(st.sampled_from([10, 12, 34, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 1011])))
    cfg = FilterConfig(
        min_id=draw(st.sampled_from([1, 20])),
        excluded_intervals=draw(st.sampled_from([(), ((103, 106),), ((12, 12), (107, 109))])),
        patterns=draw(st.sampled_from([bugs.DEFAULT_PATTERNS, CUSTOM_PATTERNS])),
    )
    return commits, windows, registry_of(*ids), cfg


@settings(max_examples=150, deadline=None)
@given(logs_and_windows())
def test_ledgers_equal_the_per_release_scan(drawn):
    raw_commits, raw_windows, registry, cfg = drawn
    text = "".join(
        f"{(T0 + timedelta(hours=h)).isoformat()}\tdev\t{escape(msg)}\t{';'.join(sorted(files))}\n"
        for h, msg, files in raw_commits
    )
    windows = [(T0 + timedelta(hours=a), T0 + timedelta(hours=b)) for a, b in raw_windows]
    releases = tuple(ReleaseConfig(f"r{k}", None, None, w) for k, w in enumerate(windows))
    with tempfile.TemporaryDirectory() as tmp:
        log, reg = Path(tmp) / "commits.tsv", Path(tmp) / "issues.tsv"
        log.write_text(text, encoding="utf-8")
        reg.write_text(
            "id\topen_date\trelease_tag\n" + "".join(f"{i}\t2007-01-01\tr0\n" for i in sorted(registry)),
            encoding="utf-8",
        )
        cfg_all = PipelineConfig(releases, log, reg, cfg, (), Path(tmp))
        with mock.patch.object(bugs, "extract_issue_refs", wraps=bugs.extract_issue_refs) as spy:
            ledgers = load_bug_ledgers(cfg_all, releases)
            extracted = [c.args[0] for c in spy.call_args_list]
    commits = parse_commit_log_text(text)
    assert [c.message for c in commits] == [msg for _, msg, _ in raw_commits]
    in_window = set()
    for rc in releases:
        got = ledgers[rc.tag]
        try:
            want = ledger_by_scan(commits, registry, cfg, rc.window, rc.tag)
        except ConfigError:
            assert isinstance(got, ConfigError)
            continue
        assert got == want
        start, end = rc.window
        in_window |= {c.message for c in commits if start <= c.timestamp <= end}
    assert sorted(extracted) == sorted(in_window)


def test_refs_memo_is_filled_once_per_distinct_message():
    commits = [
        CommitEntry(utc(f"2007-0{month}-01T00:00:00Z"), msg, "a.java")
        for month, msg in ((1, "Fixed 500"), (2, "tidy"), (3, "Fixed 500"))
    ]
    refs = {}
    with mock.patch.object(bugs, "extract_issue_refs", wraps=bugs.extract_issue_refs) as spy:
        build_bug_ledger(commits, registry_of(500), FilterConfig(), WINDOW, "r1", refs)
        build_bug_ledger(commits, registry_of(500), FilterConfig(), WINDOW, "r2", refs)
    assert spy.call_count == 2
    assert refs == {"Fixed 500": {500}, "tidy": set()}
