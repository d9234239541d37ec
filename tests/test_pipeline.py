import ast
import gc
import json
import re
import shutil
import weakref
from pathlib import Path

import numpy as np
import pytest

from faultgraph import bugs, evolution, facts, javaparse, pipeline
from faultgraph.cli import main
from faultgraph.config import load_config
from faultgraph.errors import ConfigError, FormatError, InputError
from faultgraph.javaparse import parse_compilation_unit
from faultgraph.pipeline import (
    RunMemo,
    StageFailure,
    attach_ledger,
    build_release,
    cmd_analyze,
    load_bug_ledgers,
    stage,
)


def make_corpus(root, sizes):
    """One class per CU; padding fields inflate the class's line count."""
    root.mkdir(parents=True, exist_ok=True)
    for i, extra in enumerate(sizes):
        pad = "".join(f"    int f{j};\n" for j in range(extra))
        (root / f"C{i:03d}.java").write_text(
            f"package p;\n\npublic class C{i:03d} {{\n{pad}    void work() {{\n    }}\n}}\n"
        )


def write_cfg(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture()
def big_release(tmp_path):
    # heavy-tailed CU sizes so the cu_loc tail clears the 50-sample floor
    rng = np.random.default_rng(0)
    sizes = np.floor(3.0 * (1.0 - rng.random(120)) ** (-1.0 / 1.5)).astype(int)
    make_corpus(tmp_path / "src", sizes.tolist())
    (tmp_path / "commits.tsv").write_text(
        "2007-03-01T00:00:00Z\tdev\troutine cleanup\tC000.java\n"
        "2007-03-02T00:00:00Z\tdev\tFixed 500 in parser\tghost/Gone.java\n"
    )
    (tmp_path / "issues.tsv").write_text("id\topen_date\trelease_tag\n500\t2007-01-01\tr1\n")
    cfg_path = write_cfg(
        tmp_path,
        {
            "releases": [
                {
                    "tag": "r1",
                    "corpus": "src",
                    "window": ["2007-01-01T00:00:00Z", "2007-12-31T23:59:59Z"],
                }
            ],
            "commit_log": "commits.tsv",
            "issue_registry": "issues.tsv",
        },
    )
    return cfg_path, tmp_path


def test_large_corpus_reaches_ok_tail_fit_and_degenerate_correlation(big_release, capsys):
    cfg_path, tmp_path = big_release
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    tailfit = (out / "tailfit-r1.tsv").read_text().splitlines()
    by_name = {line.split("\t")[0]: line.split("\t") for line in tailfit[1:]}
    assert by_name["cu_loc"][2] == "ok"
    assert float(by_name["cu_loc"][3]) > 1.0  # fitted exponent
    # every CU has zero bugs: all correlations are degenerate
    correlation = (out / "correlation-r1.tsv").read_text().splitlines()
    assert all(line.split("\t")[3] == "degenerate" for line in correlation[1:])


def test_links_to_unknown_files_are_dropped_with_count(big_release, caplog):
    cfg_path, _ = big_release
    cfg = load_config(cfg_path)
    data = build_release(cfg.release("r1"), RunMemo())
    ledgers = load_bug_ledgers(cfg, [cfg.release("r1")])
    import logging

    with caplog.at_level(logging.WARNING, logger="faultgraph.pipeline"):
        attach_ledger(data, ledgers["r1"])
    assert data.ledger.links == frozenset()
    # the ghost/Gone.java link
    assert [rec.getMessage() for rec in caplog.records] == [
        "release r1: dropped 1 issue links to files outside the corpus"
    ]


def test_bugs_without_commit_log_names_stage(tmp_path, capsys):
    make_corpus(tmp_path / "src", [1, 2])
    cfg_path = write_cfg(tmp_path, {"releases": [{"tag": "r1", "corpus": "src"}]})
    code = main(["bugs", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert "bug_mapping" in err and "commit_log" in err


def test_fit_with_unknown_distribution_name(big_release, capsys):
    cfg_path, tmp_path = big_release
    code = main(
        ["fit", "--config", str(cfg_path), "--metric", "bogus", "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "unknown distribution" in capsys.readouterr().err


def test_fit_on_pure_metric_distribution_needs_no_bug_inputs(tmp_path, capsys):
    make_corpus(tmp_path / "src", [1, 2, 3])
    cfg_path = write_cfg(tmp_path, {"releases": [{"tag": "r1", "corpus": "src"}]})
    out = tmp_path / "o"
    code = main(["fit", "--config", str(cfg_path), "--metric", "cu_wmc", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert (out / "tailfit-r1.tsv").exists()


def test_analyze_strict_on_missing_window(tmp_path):
    make_corpus(tmp_path / "src", [1])
    (tmp_path / "commits.tsv").write_text("2007-03-01T00:00:00Z\tdev\tFixed 5\tC000.java\n")
    (tmp_path / "issues.tsv").write_text("id\topen_date\trelease_tag\n5\t2007-01-01\tr1\n")
    cfg_path = write_cfg(
        tmp_path,
        {
            "releases": [{"tag": "r1", "corpus": "src"}],
            "commit_log": "commits.tsv",
            "issue_registry": "issues.tsv",
        },
    )
    cfg = load_config(cfg_path)
    with pytest.raises(StageFailure) as err:
        cmd_analyze(cfg, tmp_path / "out")
    assert err.value.stage == "bug_mapping"
    assert isinstance(err.value.error, ConfigError)


def test_a_stage_binds_an_input_error_and_keeps_an_inner_stage():
    with pytest.raises(StageFailure) as err:
        with stage("outer"):
            with stage("inner"):
                raise FormatError("bad record")
    assert err.value.stage == "inner" and isinstance(err.value.error, FormatError)
    assert isinstance(err.value, InputError) and str(err.value) == "stage inner: bad record"
    with pytest.raises(RuntimeError):
        with stage("outer"):
            raise RuntimeError("a fault, not an input error")


def test_fit_rejects_unknown_distribution_before_parsing(big_release, capsys):
    cfg_path, tmp_path = big_release
    (tmp_path / "src" / "Broken.java").write_text("package p;\nclass {\n}\n")
    code = main(["fit", "--config", str(cfg_path), "--metric", "bogus", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert "unknown distribution" in err and "Broken.java" not in err


def count_calls(monkeypatch, name):
    """Replace pipeline.<name> with a wrapper recording each call's arguments."""
    calls = []
    original = getattr(pipeline, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv, log_reads, builds",
    [
        (["report"], 1, ["r1", "r2"]),
        (["report", "--release", "r2"], 1, ["r2"]),
        (["evolve"], 1, ["r1", "r2"]),
        (["bugs"], 1, ["r1", "r2"]),
        (["fit", "--metric", "cu_wmc"], 0, ["r1", "r2"]),
        (["graph"], 0, ["r1", "r2"]),
    ],
)
def test_driver_reads_bug_inputs_once_and_builds_each_release_once(
    tmp_path, monkeypatch, capsys, fixtures_dir, argv, log_reads, builds
):
    log = count_calls(monkeypatch, "parse_commit_log")
    registry = count_calls(monkeypatch, "load_issue_registry")
    built = count_calls(monkeypatch, "build_release")
    config = str(fixtures_dir / "pipeline_config.json")
    assert main([*argv, "--config", config, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert len(log) == len(registry) == log_reads
    assert [rc.tag for (rc,) in built] == builds


def test_report_computes_each_family_stats_once(tmp_path, monkeypatch, capsys, fixtures_dir):
    calls = []
    original = evolution.family_stats

    def spy(family, ledger):
        calls.append(family)
        return original(family, ledger)

    monkeypatch.setattr(evolution, "family_stats", spy)
    monkeypatch.setattr(pipeline, "family_stats", spy)
    out = tmp_path / "o"
    assert main(["report", "--config", str(fixtures_dir / "pipeline_config.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split("\t") for line in (out / "evolution-r1-r2.tsv").read_text().splitlines()[1:]]
    # one call per non-empty family: at most three per metric of the one pair
    assert len(calls) == sum(row[2] != "0" for row in rows) == 19


# --------------------------------------------------------------------------
# One parse per distinct source text, shared by every release of a run
# --------------------------------------------------------------------------


def count_parses(monkeypatch):
    """Wrap javaparse.parse_compilation_unit, the name parse_corpus_dir calls
    on a memo miss; return the list of texts it is called with."""
    texts = []
    original = javaparse.parse_compilation_unit

    def counted(text, path):
        texts.append(text)
        return original(text, path)

    monkeypatch.setattr(javaparse, "parse_compilation_unit", counted)
    return texts


def test_report_parses_each_distinct_source_once(tmp_path, monkeypatch, capsys, fixtures_dir):
    parsed = count_parses(monkeypatch)
    config = str(fixtures_dir / "pipeline_config.json")
    assert main(["report", "--config", config, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    texts = [p.read_text(encoding="utf-8") for d in ("corpus_r1", "corpus_r2") for p in (fixtures_dir / d).rglob("*.java")]
    assert len(texts) == 12 and len(set(texts)) == 8  # four files are the same in both releases
    assert sorted(parsed) == sorted(set(texts))


SHARED = "package p;\n\npublic class A {\n    int n;\n    void run() {\n        n = n + 1;\n    }\n}\n"
MOVED = "package p;\n\nclass B extends A {\n    A peer;\n    void go(A a) {\n        a.run();\n        peer.run();\n    }\n}\n"
FRESH = "package p;\n\nclass C {\n    B b;\n    void use() {\n        b.go(null);\n    }\n}\n"
BROKEN = "package p;\n\nclass {\n}\n"


def two_release_config(tmp_path, r1_files, r2_files):
    for tag, files in (("r1", r1_files), ("r2", r2_files)):
        for rel, text in files.items():
            path = tmp_path / f"corpus_{tag}" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    (tmp_path / "commits.tsv").write_text("2007-03-01T00:00:00Z\tdev\tFixed 500\tp/A.java\n")
    (tmp_path / "issues.tsv").write_text("id\topen_date\trelease_tag\n500\t2007-01-01\tr1\n")
    return write_cfg(
        tmp_path,
        {
            "releases": [
                {"tag": "r1", "corpus": "corpus_r1", "window": ["2007-01-01T00:00:00Z", "2007-06-30T23:59:59Z"]},
                {"tag": "r2", "corpus": "corpus_r2", "window": ["2007-07-01T00:00:00Z", "2007-12-31T23:59:59Z"]},
            ],
            "commit_log": "commits.tsv",
            "issue_registry": "issues.tsv",
            "release_pairs": [["r1", "r2"]],
        },
    )


def facts_records(path):
    return {rec["path"]: rec for rec in map(json.loads, path.read_text().splitlines())}


def test_same_text_at_two_paths_gives_facts_differing_only_in_path(tmp_path, monkeypatch, capsys):
    cfg_path = two_release_config(
        tmp_path,
        {"p/A.java": SHARED, "p/B.java": MOVED},
        {"p/A.java": SHARED, "p/Moved.java": MOVED, "p/C.java": FRESH},
    )
    parsed = count_parses(monkeypatch)
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(parsed) == sorted([SHARED, MOVED, FRESH])
    r1, r2 = facts_records(out / "facts-r1.jsonl"), facts_records(out / "facts-r2.jsonl")
    assert r2["p/A.java"] == r1["p/A.java"]
    assert r2["p/Moved.java"] == {**r1["p/B.java"], "path": "p/Moved.java"}
    assert r2["p/Moved.java"] == json.loads(facts.dump_facts([parse_compilation_unit(MOVED, "p/Moved.java")]))


def test_extract_shares_the_memo_and_reports_a_repeated_failure_per_release(tmp_path, monkeypatch, capsys):
    cfg_path = two_release_config(
        tmp_path,
        {"p/A.java": SHARED, "p/B.java": MOVED, "p/Bad.java": BROKEN},
        {"p/A.java": SHARED, "p/B.java": MOVED, "p/C.java": FRESH, "q/Bad.java": BROKEN},
    )
    parsed = count_parses(monkeypatch)
    code = main(["extract", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert sorted(parsed) == sorted([SHARED, MOVED, FRESH, BROKEN])
    failures = [line.strip() for line in err.splitlines() if line.startswith("  [")]
    assert len(failures) == 2
    assert failures[0].startswith("[r1] p/Bad.java: ") and failures[1].startswith("[r2] q/Bad.java: ")
    assert failures[0].split(": ", 1)[1] == failures[1].split(": ", 1)[1]
    assert "line 3" in failures[0]


# --------------------------------------------------------------------------
# One decode per distinct facts line and one extraction per distinct message
# --------------------------------------------------------------------------


def count_wrapped(monkeypatch, module, name):
    """Wrap ``module.name``; return the list of first arguments it is called with."""
    seen = []
    original = getattr(module, name)

    def counted(first, *args, **kwargs):
        seen.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return seen


def test_a_facts_release_chain_decodes_each_new_line_and_extracts_each_message_once(
    tmp_path, monkeypatch, capsys, fixtures_dir
):
    assert main(["extract", "--config", str(fixtures_dir / "pipeline_config.json"), "--out", str(tmp_path)]) == 0
    log = (fixtures_dir / "commits.tsv").read_text().splitlines()
    # each message again later in the year, and once more outside every window
    later = ["2007-12-30" + line[10:] for line in log]
    outside = ["2009" + line[4:] for line in log]
    (tmp_path / "commits.tsv").write_text("".join(f"{line}\n" for line in log + later + outside))
    windows = {
        "r1": ["2007-01-01T00:00:00Z", "2007-06-30T23:59:59Z"],
        "r2": ["2007-07-01T00:00:00Z", "2007-12-31T23:59:59Z"],
    }
    cfg_path = write_cfg(
        tmp_path,
        {
            "releases": [
                {"tag": "r1", "facts": "facts-r1.jsonl", "window": windows["r1"]},
                {"tag": "r2", "facts": "facts-r2.jsonl", "window": windows["r2"]},
                {"tag": "r2-again", "facts": "facts-r2.jsonl", "window": windows["r2"]},
            ],
            "commit_log": "commits.tsv",
            "issue_registry": str(fixtures_dir / "issues.tsv"),
            "filter": {"min_id": 100, "excluded_intervals": [[300, 305]]},
            "release_pairs": [["r1", "r2"], ["r2", "r2-again"]],
        },
    )
    decoded = count_wrapped(monkeypatch, facts, "cu_from_dict")
    extracted = count_wrapped(monkeypatch, bugs, "extract_issue_refs")
    assert main(["report", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    r1, r2 = ((tmp_path / f"facts-{tag}.jsonl").read_text().splitlines() for tag in ("r1", "r2"))
    assert 0 < len(set(r2) - set(r1)) < len(r2)  # the fixtures share records across releases
    new_in_r2 = sorted(set(r2) - set(r1))
    assert sorted(d["path"] for d in decoded) == sorted(json.loads(line)["path"] for line in r1 + new_in_r2)
    messages = [line.split("\t")[2] for line in log]
    assert len(set(messages)) == len(messages) == 8
    assert sorted(extracted) == sorted(messages)
    out = tmp_path / "out"
    assert (out / "bugs-per-cu-r2.tsv").read_bytes() == (out / "bugs-per-cu-r2-again.tsv").read_bytes()
    assert (out / "facts-r2.jsonl").read_text().splitlines() == r2


# --------------------------------------------------------------------------
# One encode per distinct CU object and one build per release column
# --------------------------------------------------------------------------


@pytest.fixture(params=["corpus", "facts"])
def fixture_pair(request, tmp_path, fixtures_dir):
    """The fixture pair's report config, its releases read from the corpora
    or from the facts files ``extract`` writes of them."""
    cfg = json.loads((fixtures_dir / "pipeline_config.json").read_text())
    cfg["commit_log"], cfg["issue_registry"] = (str(fixtures_dir / cfg[k]) for k in ("commit_log", "issue_registry"))
    for rel in cfg["releases"]:
        rel["corpus"] = str(fixtures_dir / rel["corpus"])
    if request.param == "facts":
        corpus_cfg = write_cfg(tmp_path, cfg)
        assert main(["extract", "--config", str(corpus_cfg), "--out", str(tmp_path / "facts")]) == 0
        for rel in cfg["releases"]:
            del rel["corpus"]
            rel["facts"] = str(tmp_path / "facts" / f"facts-{rel['tag']}.jsonl")
    (tmp_path / "run").mkdir()
    return write_cfg(tmp_path / "run", cfg)


def test_each_distinct_cu_object_is_encoded_once(fixture_pair, tmp_path, monkeypatch, capsys):
    dumped, encoded = [], count_wrapped(monkeypatch, facts, "_cu_json")
    dump = facts.dump_facts

    def recording_dump(cus, memo=None):
        dumped.append(list(cus))  # held, so no id is reused
        return dump(cus, memo)

    monkeypatch.setattr(facts, "dump_facts", recording_dump)
    out = tmp_path / "out"
    assert main(["report", "--config", str(fixture_pair), "--out", str(out)]) == 0
    capsys.readouterr()
    r1, r2 = dumped
    distinct = {id(cu): cu for cu in r1 + r2}
    assert sorted(map(id, encoded)) == sorted(distinct)
    assert 0 < len(distinct) - len(r1) < len(r2)  # r2 hands on some objects of r1
    # the files are those a memo-free dump writes
    for tag, cus in (("r1", r1), ("r2", r2)):
        assert (out / f"facts-{tag}.jsonl").read_bytes() == dump(cus).encode()


def test_the_encode_memo_holds_the_last_release_written_only(tmp_path, monkeypatch, capsys):
    # r3 holds r1's text of B, two releases back: it is parsed and encoded
    # again, and after the run the memo holds r3's objects alone
    files = {"r1": {"p/A.java": SHARED, "p/B.java": MOVED}, "r2": {"p/A.java": SHARED, "p/C.java": FRESH}}
    files["r3"] = files["r1"]
    for tag, corpus in files.items():
        for rel, text in corpus.items():
            (tmp_path / tag / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / tag / rel).write_text(text)
    cfg_path = write_cfg(tmp_path, {"releases": [{"tag": tag, "corpus": tag} for tag in files]})
    memos, dumped = [], []

    class RecordedMemo(RunMemo):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(pipeline, "RunMemo", RecordedMemo)
    encoded = count_wrapped(monkeypatch, facts, "_cu_json")
    dump = facts.dump_facts
    monkeypatch.setattr(facts, "dump_facts", lambda cus, memo=None: dumped.append(list(cus)) or dump(cus, memo))
    assert main(["extract", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    (memo,) = memos
    r1, r2, r3 = dumped
    assert [cu.path for cu in encoded] == ["p/A.java", "p/B.java", "p/C.java", "p/B.java"]
    assert r3[0] is r2[0] is r1[0]  # A, handed on by the source memo
    assert r3[1] is not r1[1] and r3[1] == r1[1]  # B, decoded again to equal facts
    assert sorted(memo.encoded) == sorted(map(id, r3))
    assert all(memo.encoded[id(cu)][0] is cu for cu in r3)


def test_each_release_column_is_built_once(tmp_path, monkeypatch, capsys, fixtures_dir):
    built = []
    build = pipeline._build_column
    monkeypatch.setattr(pipeline, "_build_column", lambda data, name: built.append((data.tag, name)) or build(data, name))
    config = str(fixtures_dir / "pipeline_config.json")
    assert main(["report", "--config", config, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert sorted(built) == sorted((tag, name) for tag in ("r1", "r2") for name in pipeline.DISTRIBUTIONS)


# --------------------------------------------------------------------------
# What the driver frees, and when
# --------------------------------------------------------------------------


class _Token:
    """Dies with the record that holds it: the record types are tuples, which
    no weak reference can watch, but an instance of a subclass of one has a
    ``__dict__`` to hold a token."""


class _WatchedCommit(bugs.CommitEntry):
    pass


class _WatchedSnapshot(evolution.ReleaseSnapshot):
    pass


def watch(record) -> weakref.ref:
    """A weak reference that dies with ``record``, an instance of a subclass above."""
    record.token = _Token()
    return weakref.ref(record.token)


def test_commit_log_is_freed_before_any_source_is_parsed(tmp_path, monkeypatch, capsys, fixtures_dir):
    refs = []
    read_log = pipeline.parse_commit_log

    def keep_refs(path):
        commits = [_WatchedCommit(*c) for c in read_log(path)]
        refs.extend(map(watch, commits))
        return commits

    monkeypatch.setattr(pipeline, "parse_commit_log", keep_refs)
    alive = []
    parse = javaparse.parse_compilation_unit

    def check_then_parse(text, path):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        return parse(text, path)

    monkeypatch.setattr(javaparse, "parse_compilation_unit", check_then_parse)
    config = str(fixtures_dir / "pipeline_config.json")
    assert main(["report", "--config", config, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert refs and alive and max(alive) == 0


@pytest.mark.parametrize("windowless", [None, "r2"])
def test_the_commit_log_is_freed_with_the_collector_off(tmp_path, monkeypatch, capsys, fixtures_dir, windowless):
    # main turns the cyclic collector off, so only reference counts free the commits;
    # a release without a window keeps its ledger error, which must not hold them
    cfg = json.loads((fixtures_dir / "pipeline_config.json").read_text())
    for rel in cfg["releases"]:
        rel["corpus"] = str(fixtures_dir / rel["corpus"])
        if rel["tag"] == windowless:
            del rel["window"]
    for key in ("commit_log", "issue_registry"):
        cfg[key] = str(fixtures_dir / cfg[key])
    refs = []
    read_log = pipeline.parse_commit_log

    def keep_refs(path):
        commits = [_WatchedCommit(*c) for c in read_log(path)]
        refs.extend(map(watch, commits))
        return commits

    monkeypatch.setattr(pipeline, "parse_commit_log", keep_refs)
    alive = []
    parse = javaparse.parse_compilation_unit

    def check_then_parse(text, path):
        alive.append(sum(ref() is not None for ref in refs))
        return parse(text, path)

    monkeypatch.setattr(javaparse, "parse_compilation_unit", check_then_parse)
    code = main(["report", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    capsys.readouterr()
    assert code == (0 if windowless is None else 1)
    assert refs and alive and max(alive) == 0


def test_release_is_freed_once_no_later_pair_needs_it(tmp_path, monkeypatch, capsys, fixtures_dir):
    for tag, corpus in (("r1", "corpus_r1"), ("r2", "corpus_r2"), ("r3", "corpus_r1")):
        shutil.copytree(fixtures_dir / corpus, tmp_path / f"corpus_{tag}")
    for name in ("commits.tsv", "issues.tsv"):
        shutil.copy(fixtures_dir / name, tmp_path / name)
    cfg = json.loads((fixtures_dir / "pipeline_config.json").read_text())
    cfg["releases"].append(
        {"tag": "r3", "corpus": "corpus_r3", "window": ["2008-01-01T00:00:00Z", "2008-06-30T23:59:59Z"]}
    )
    for rel in cfg["releases"]:
        rel["corpus"] = f"corpus_{rel['tag']}"
    cfg["release_pairs"] = [["r1", "r2"], ["r2", "r3"]]
    cfg_path = write_cfg(tmp_path, cfg)
    built, snapshots = {}, {}
    alive_at_build = {}
    build = pipeline.build_release

    def alive(refs):
        return sorted(tag for tag, ref in refs.items() if ref() is not None)

    def track(rc, **kwargs):
        gc.collect()
        alive_at_build[rc.tag] = (alive(built), alive(snapshots))
        data = build(rc, **kwargs)
        built[rc.tag] = weakref.ref(data)
        return data

    def track_snapshot(**kwargs):
        snap = _WatchedSnapshot(**kwargs)
        snapshots[snap.release] = watch(snap)
        return snap

    # a subclass without __slots__, so a weak reference can watch it
    monkeypatch.setattr(pipeline, "ReleaseData", type("WatchedData", (pipeline.ReleaseData,), {}))
    monkeypatch.setattr(pipeline, "build_release", track)
    monkeypatch.setattr(pipeline, "ReleaseSnapshot", track_snapshot)
    assert main(["report", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    printed = [line.rsplit("/", 1)[1] for line in capsys.readouterr().out.splitlines()]
    # no release's whole build outlives its writers; a pending pair keeps its snapshot only
    assert alive_at_build == {"r1": ([], []), "r2": ([], ["r1"]), "r3": ([], ["r2"])}
    pair_files = [name for name in printed if name.startswith(("evolution-", "significance-", "delta-correlation-"))]
    assert printed[-len(pair_files):] == pair_files
    assert [name.rsplit("-", 2)[1:] for name in pair_files] == [["r1", "r2.tsv"]] * 3 + [["r2", "r3.tsv"]] * 3
    per_release = [re.search(r"-(r\d)[-.]", name).group(1) for name in printed[: -len(pair_files)]]
    assert per_release == sorted(per_release) and set(per_release) == {"r1", "r2", "r3"}


def test_a_release_error_keeps_its_stage_before_a_later_missing_window(tmp_path):
    make_corpus(tmp_path / "src1", [1])
    (tmp_path / "src1" / "Broken.java").write_text("package p;\nclass {\n}\n")
    make_corpus(tmp_path / "src2", [1])
    (tmp_path / "commits.tsv").write_text("2007-03-01T00:00:00Z\tdev\tFixed 5\tC000.java\n")
    (tmp_path / "issues.tsv").write_text("id\topen_date\trelease_tag\n5\t2007-01-01\tr1\n")
    cfg_path = write_cfg(
        tmp_path,
        {
            "releases": [
                {"tag": "r1", "corpus": "src1", "window": ["2007-01-01T00:00:00Z", "2007-12-31T23:59:59Z"]},
                {"tag": "r2", "corpus": "src2"},
            ],
            "commit_log": "commits.tsv",
            "issue_registry": "issues.tsv",
        },
    )
    with pytest.raises(StageFailure) as err:
        cmd_analyze(load_config(cfg_path), tmp_path / "out")
    assert err.value.stage == "source_facts"
    assert "Broken.java" in str(err.value)


FORMATS = Path(__file__).resolve().parents[1] / "docs" / "formats.md"


def documented_statuses() -> set[str]:
    """The ``status`` values that docs/formats.md lists."""
    listing = re.search(r"`status` values: (.*?)\.", FORMATS.read_text(encoding="utf-8"), re.S).group(1)
    return set(re.findall(r"`([^`]+)`", listing))


def row_literals(tree: ast.AST) -> set[str]:
    """The non-empty string constants of every list display that also holds
    a computed cell, as a writer's rows do (a header holds constants only)."""
    return {
        cell.value
        for node in ast.walk(tree)
        if isinstance(node, ast.List) and any(not isinstance(e, (ast.Constant, ast.Starred)) for e in node.elts)
        for cell in node.elts
        if isinstance(cell, ast.Constant) and isinstance(cell.value, str) and cell.value
    }


def test_every_status_string_lives_in_the_writers():
    statuses = documented_statuses()
    package = Path(pipeline.__file__).parent
    assert row_literals(ast.parse((package / "pipeline.py").read_text(encoding="utf-8"))) == statuses
    for path in sorted(package.glob("*.py")):
        if path.name == "pipeline.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        held = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)} & statuses
        assert not held, f"{path.name} holds status strings {sorted(held)}"
