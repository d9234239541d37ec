import json

import numpy as np
import pytest

from faultgraph import pipeline
from faultgraph.cli import main
from faultgraph.config import load_config
from faultgraph.errors import ConfigError
from faultgraph.pipeline import (
    StageFailure,
    attach_ledger,
    build_release,
    cmd_analyze,
    load_bug_inputs,
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
    data = build_release(cfg.release("r1"))
    commits, registry = load_bug_inputs(cfg)
    import logging

    with caplog.at_level(logging.WARNING, logger="faultgraph.pipeline"):
        attach_ledger(cfg, data, commits, registry)
    assert data.dropped_links == 1  # the ghost/Gone.java link
    assert data.ledger.links == frozenset()
    assert any("dropped 1" in rec.message for rec in caplog.records)


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
