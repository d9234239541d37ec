import gc
import json
import shutil
import sys
import warnings

import pytest

from faultgraph import cli, pipeline
from faultgraph.cli import main
from faultgraph.errors import FormatError, ParseError, read_utf8

CONFIG = "tests/fixtures/pipeline_config.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, fixtures_dir, **overrides):
    """Copy fixture inputs next to a tweaked config inside tmp_path."""
    for name in ("corpus_r1", "corpus_r2"):
        shutil.copytree(fixtures_dir / name, tmp_path / name)
    for name in ("commits.tsv", "issues.tsv"):
        shutil.copy(fixtures_dir / name, tmp_path / name)
    cfg = json.loads((fixtures_dir / "pipeline_config.json").read_text())
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_extract_is_deterministic(tmp_path, capsys, fixtures_dir):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a, _, _ = run(capsys, "extract", "--config", CONFIG, "--out", str(out_a))
    code_b, _, _ = run(capsys, "extract", "--config", CONFIG, "--out", str(out_b))
    assert code_a == code_b == 0
    for name in ("facts-r1.jsonl", "facts-r2.jsonl"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_extract_skips_malformed_file_but_reports_it(tmp_path, capsys, fixtures_dir):
    cfg_path = write_config(tmp_path, fixtures_dir)
    (tmp_path / "corpus_r1" / "app" / "Broken.java").write_text("package app;\nclass {\n}\n")
    code, out, err = run(capsys, "extract", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "Broken.java" in err
    facts = (tmp_path / "o" / "facts-r1.jsonl").read_text()
    assert "app/Alpha.java" in facts  # other CUs still emitted


def test_an_out_path_that_cannot_be_a_directory_is_an_input_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for command, out in (("report", blocker), ("extract", blocker / "sub")):
        code, _, err = run(capsys, command, "--config", CONFIG, "--out", str(out))
        assert code == 1
        assert f"cannot create output directory {out}" in err and "internal error" not in err


def test_a_dangling_java_symlink_is_a_failed_file(tmp_path, capsys, fixtures_dir):
    cfg_path = write_config(tmp_path, fixtures_dir)
    (tmp_path / "corpus_r1" / "app" / "Dangling.java").symlink_to(tmp_path / "missing.java")
    code, _, err = run(capsys, "report", "--config", str(cfg_path), "--out", str(tmp_path / "r"))
    assert code == 1
    assert "stage source_facts" in err and "Dangling.java" in err and "internal error" not in err
    code, _, err = run(capsys, "extract", "--config", str(cfg_path), "--out", str(tmp_path / "e"))
    assert code == 1
    assert "1 file(s) skipped" in err and "app/Dangling.java" in err and "internal error" not in err
    assert "app/Alpha.java" in (tmp_path / "e" / "facts-r1.jsonl").read_text()


def test_extract_empty_corpus_directory(tmp_path, capsys, fixtures_dir):
    cfg_path = write_config(tmp_path, fixtures_dir)
    empty = tmp_path / "empty_corpus"
    empty.mkdir()
    cfg = json.loads(cfg_path.read_text())
    cfg["releases"][0]["corpus"] = "empty_corpus"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "extract", "--config", str(cfg_path))
    assert code == 1
    assert "no compilation units found" in err


def test_report_matches_committed_golden_bundle(tmp_path, capsys, fixtures_dir):
    out = tmp_path / "bundle"
    code, _, _ = run(capsys, "report", "--config", CONFIG, "--out", str(out))
    assert code == 0
    golden = fixtures_dir / "golden_out"
    got = sorted(p.name for p in out.iterdir())
    expected = sorted(p.name for p in golden.iterdir())
    assert got == expected
    for name in expected:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


def test_report_reruns_byte_identical(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "report", "--config", CONFIG, "--out", str(out_a))[0] == 0
    assert run(capsys, "report", "--config", CONFIG, "--out", str(out_b))[0] == 0
    for path in sorted(out_a.iterdir()):
        assert path.read_bytes() == (out_b / path.name).read_bytes()


def test_report_without_release_pairs_emits_no_evolution_outputs(tmp_path, capsys, fixtures_dir):
    cfg_path = write_config(tmp_path, fixtures_dir, release_pairs=[])
    out = tmp_path / "bundle"
    code, _, _ = run(capsys, "report", "--config", str(cfg_path), "--out", str(out))
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert not any(n.startswith(("evolution-", "significance-", "delta-correlation-")) for n in names)
    assert "correlation-r1.tsv" in names


def test_facts_file_ingestion_reproduces_parser_route_bundle(tmp_path, capsys, fixtures_dir):
    # extract facts files, point a config at them instead of the corpora,
    # and check the analysis bundle is identical to the parser route
    cfg_path = write_config(tmp_path, fixtures_dir)
    facts_dir = tmp_path / "facts"
    assert run(capsys, "extract", "--config", str(cfg_path), "--out", str(facts_dir))[0] == 0
    cfg = json.loads(cfg_path.read_text())
    for entry in cfg["releases"]:
        entry.pop("corpus")
        entry["facts"] = f"facts/facts-{entry['tag']}.jsonl"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "bundle"
    assert run(capsys, "report", "--config", str(cfg_path), "--out", str(out))[0] == 0
    golden = fixtures_dir / "golden_out"
    for path in sorted(golden.iterdir()):
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_missing_registry_names_bug_mapping_stage(tmp_path, capsys, fixtures_dir):
    cfg_path = write_config(tmp_path, fixtures_dir, issue_registry="missing.tsv")
    code, _, err = run(capsys, "report", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "bug_mapping" in err


@pytest.mark.parametrize("pattern", [r"\bbug-(\w+)", r"\bbug(\d+)?"])
def test_a_capture_that_is_not_an_issue_number_exits_1_at_bug_mapping(tmp_path, capsys, fixtures_dir, pattern):
    cfg_path = write_config(tmp_path, fixtures_dir, filter={"patterns": [pattern]})
    with open(tmp_path / "commits.tsv", "a") as fh:
        fh.write("2007-03-01T00:00:00Z\tdev\tfix bug-abc here\tapp/Alpha.java\n")
    code, _, err = run(capsys, "report", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "stage bug_mapping" in err and repr(pattern) in err and "internal error" not in err


def test_an_invalid_pattern_exits_1(tmp_path, capsys, fixtures_dir):
    cfg_path = write_config(tmp_path, fixtures_dir, filter={"patterns": ["(\\d+"]})
    code, _, err = run(capsys, "report", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "not a valid regular expression" in err


def test_malformed_corpus_aborts_report_with_stage_label(tmp_path, capsys, fixtures_dir):
    cfg_path = write_config(tmp_path, fixtures_dir)
    (tmp_path / "corpus_r1" / "app" / "Broken.java").write_text("package app;\nclass {\n}\n")
    code, _, err = run(capsys, "report", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "stage source_facts" in err


def test_reports_are_recomputable_from_intermediate_files(fixtures_dir):
    # no hidden state: correlation and family reports re-derive exactly from
    # the emitted metric tables and bug ledgers
    from faultgraph.tailstats import pearson

    golden = fixtures_dir / "golden_out"

    def read_rows(name):
        lines = (golden / name).read_text().splitlines()
        header = lines[0].split("\t")
        return [dict(zip(header, line.split("\t"))) for line in lines[1:]]

    metrics = {"r1": {}, "r2": {}}
    bugs = {"r1": {}, "r2": {}}
    for tag in ("r1", "r2"):
        for row in read_rows(f"metrics-{tag}.tsv"):
            metrics[tag][row["path"]] = {k: int(v) for k, v in row.items() if k != "path"}
        for row in read_rows(f"bugs-per-cu-{tag}.tsv"):
            bugs[tag][row["path"]] = int(row["bugs"])

    for tag in ("r1", "r2"):
        paths = sorted(metrics[tag])
        for row in read_rows(f"correlation-{tag}.tsv"):
            assert row["status"] == "ok"
            recomputed = pearson(
                [metrics[tag][p][row["metric"]] for p in paths],
                [bugs[tag][p] for p in paths],
            )
            assert float(row["r"]) == pytest.approx(recomputed, abs=1e-11)

    common = set(metrics["r1"]) & set(metrics["r2"])
    for row in read_rows("evolution-r1-r2.tsv"):
        metric, family = row["metric"], row["family"]
        if family == "updated":
            members = {p for p in common if metrics["r1"][p][metric] != metrics["r2"][p][metric]}
        elif family == "unchanged":
            members = {p for p in common if metrics["r1"][p][metric] == metrics["r2"][p][metric]}
        else:
            members = set(metrics["r2"]) - set(metrics["r1"])
        assert int(row["n"]) == len(members)
        if not members:
            continue
        infected = [p for p in members if bugs["r2"][p] >= 1]
        assert int(row["infected"]) == len(infected)
        assert float(row["infection_probability"]) == pytest.approx(len(infected) / len(members))
        if infected:
            mean = sum(bugs["r2"][p] for p in infected) / len(infected)
            assert float(row["mean_bugs_infected"]) == pytest.approx(mean)


def test_graph_metrics_bugs_commands(tmp_path, capsys):
    out = tmp_path / "o"
    for command, expect in [
        ("graph", "cu-graph-r1.tsv"),
        ("metrics", "metrics-r1.tsv"),
        ("bugs", "bugs-per-cu-r1.tsv"),
        ("correlate", "correlation-r1.tsv"),
        ("evolve", "evolution-r1-r2.tsv"),
    ]:
        code, _, _ = run(capsys, command, "--config", CONFIG, "--out", str(out))
        assert code == 0, command
        assert (out / expect).exists(), command


def test_fit_release_restricted_to_one_metric(tmp_path, capsys):
    out = tmp_path / "o"
    code, _, _ = run(
        capsys, "fit", "--config", CONFIG, "--release", "r1", "--metric", "cu_wmc", "--out", str(out)
    )
    assert code == 0
    assert (out / "ccdf-r1-cu_wmc.tsv").exists()
    assert not (out / "ccdf-r1-cu_loc.tsv").exists()


def test_fit_synthetic_is_seeded_and_deterministic(capsys):
    code_a, out_a, _ = run(capsys, "fit", "--synthetic", "continuous:2.5:5000", "--seed", "7")
    code_b, out_b, _ = run(capsys, "fit", "--synthetic", "continuous:2.5:5000", "--seed", "7")
    code_c, out_c, _ = run(capsys, "fit", "--synthetic", "continuous:2.5:5000", "--seed", "8")
    assert code_a == code_b == code_c == 0
    assert out_a == out_b
    assert out_a != out_c
    assert "gamma=" in out_a


@pytest.mark.parametrize(
    "spec, seed, fit",
    [
        ("discrete:2.5:2000", "0", "gamma=2.46798303529 x_min=1 ks=0.00556712438922"),
        ("discrete:2.5:2000", "4", "gamma=2.49853662854 x_min=1 ks=0.00737389194173"),
        # an explicit x_min reaches the sampler as a float
        ("discrete:2.5:2000:3", "4", "gamma=2.50943939235 x_min=3 ks=0.00903997210428"),
    ],
)
def test_fit_synthetic_discrete_output_is_pinned(capsys, spec, seed, fit):
    line = f"distribution=synthetic mode=discrete status=ok {fit} n_tail=2000\n"
    assert run(capsys, "fit", "--synthetic", spec, "--seed", seed) == (0, line, "")


def test_fit_synthetic_discrete_draws_where_the_zeta_at_x_min_underflows(capsys):
    # zeta(200, 100) is about 1e-400, yet P(X >= 101) is about 0.137
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "fit", "--synthetic", "discrete:200:100:100")
    assert (code, err) == (0, "")
    assert "status=ok" in out and " x_min=100 " in out


def test_fit_samples_file(tmp_path, capsys):
    from faultgraph.tailstats import pareto_samples
    import numpy as np

    rng = np.random.default_rng(3)
    path = tmp_path / "samples.txt"
    path.write_text("\n".join(str(x) for x in pareto_samples(2000, 2.5, 1.0, rng)))
    code, out, _ = run(capsys, "fit", "--samples", str(path), "--mode", "continuous", "--x-min", "1.0")
    assert code == 0
    assert "status=ok" in out


def test_a_continuous_tail_beyond_the_double_range_never_exits_2(tmp_path, capsys):
    import numpy as np

    path = tmp_path / "samples.txt"
    path.write_text("".join("%.17g\n" % v for v in np.geomspace(1e-300, 1e300, 200)))
    # the scan skips the candidates whose tail overflows x_min's ratio
    code, out, _ = run(capsys, "fit", "--samples", str(path), "--mode", "continuous")
    assert code == 0 and "status=ok" in out
    code, _, err = run(capsys, "fit", "--samples", str(path), "--mode", "continuous", "--x-min", "1e-305")
    assert code == 1
    assert err == "faultgraph: stage tail_stats: tail spans more than the double range above x_min\n"


def test_a_discrete_tail_within_rounding_of_x_min_exits_1(tmp_path, capsys):
    # 10^15 + 1 lies 1e-15 above 10^15 in relative terms, so the tail's mean
    # log is within rounding of log(x_min)
    path = tmp_path / "samples.txt"
    path.write_text("1000000000000000\n" * 60 + "1000000000000001\n")
    code, _, err = run(capsys, "fit", "--samples", str(path), "--mode", "discrete", "--x-min", "1000000000000000")
    assert code == 1
    assert err == "faultgraph: stage tail_stats: tail has no spread above x_min\n"


def test_a_discrete_tail_at_the_top_of_the_double_range_fits_quietly(tmp_path, capsys, monkeypatch):
    # 1e308 / (x_min - 1/2) overflows at x_min 1, so the root search's start
    # is taken from the sum of the logs less n log(x_min - 1/2): no overflow
    # warning, and a start near the root. A start from the overflowed sum
    # lies at the range's low end, and the search then takes 16 steps.
    from faultgraph import tailstats

    steps = 0
    moments = tailstats._zeta_moments

    def counted(x, q):
        nonlocal steps
        steps += 1
        return moments(x, q)

    monkeypatch.setattr(tailstats, "_zeta_moments", counted)
    path = tmp_path / "samples.txt"
    path.write_text("1\n" * 60 + "1e308\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "fit", "--samples", str(path), "--mode", "discrete")
    assert code == 0 and err == "" and caught == []
    assert "status=ok" in out
    assert steps <= 6


def test_unknown_release_tag_is_an_input_error(capsys):
    code, _, err = run(capsys, "metrics", "--config", CONFIG, "--release", "r9", "--out", "/tmp/x")
    assert code == 1
    assert "r9" in err


def test_missing_config_flag(capsys):
    code, _, err = run(capsys, "metrics", "--out", "/tmp/x")
    assert code == 1


@pytest.mark.parametrize("x_min", ["0", "-1"])
def test_fit_samples_with_nonpositive_x_min_is_an_input_error(tmp_path, capsys, x_min):
    path = tmp_path / "samples.txt"
    path.write_text("\n".join(str(1.0 + i / 10) for i in range(100)))
    code, _, err = run(capsys, "fit", "--samples", str(path), "--mode", "continuous", "--x-min", x_min)
    assert code == 1
    assert "internal error" not in err


def test_fit_missing_samples_file_is_an_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "fit", "--samples", str(tmp_path / "missing.txt"))
    assert code == 1
    assert "missing.txt" in err and "stage tail_stats" in err


def test_fit_samples_file_that_is_not_utf8_says_so(tmp_path, capsys):
    path = tmp_path / "samples.txt"
    path.write_bytes(b"1.5\n\xff2.5\n")
    code, _, err = run(capsys, "fit", "--samples", str(path))
    assert code == 1
    assert "stage tail_stats" in err and "not UTF-8" in err


def test_fit_non_numeric_samples_file_names_its_stage(tmp_path, capsys):
    path = tmp_path / "samples.txt"
    path.write_text("1.5\n2.5\nthree\n")
    code, _, err = run(capsys, "fit", "--samples", str(path))
    assert code == 1
    assert "stage tail_stats" in err and "'three'" in err and "internal error" not in err


@pytest.mark.parametrize(
    "command, blocked",
    [
        ("metrics", "metrics-r1.tsv"),
        ("report", "facts-r1.jsonl"),
        ("report", "significance-r1-r2.tsv"),
        ("extract", "facts-r2.jsonl"),
    ],
)
def test_an_output_file_that_cannot_be_written_exits_1(tmp_path, capsys, command, blocked):
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    code, _, err = run(capsys, command, "--config", CONFIG, "--out", str(out))
    assert code == 1
    # a write failure is no stage's input error, so no stage is named
    assert err.startswith(f"faultgraph: cannot write output file {out / blocked}: ")


FIT_MODE_MIXES = [
    (["--samples", "S", "--synthetic", "continuous:2.5:500"], "--samples"),
    (["--config", CONFIG, "--samples", "S"], "--config"),
    (["--config", CONFIG, "--synthetic", "continuous:2.5:500"], "--config"),
    (["--samples", "S", "--metric", "cu_wmc"], "--metric"),
    (["--samples", "S", "--release", "r1"], "--release"),
    (["--samples", "S", "--out", "O"], "--out"),
    (["--samples", "S", "--seed", "3"], "--seed"),
    (["--synthetic", "continuous:2.5:500", "--mode", "continuous"], "--mode"),
    (["--synthetic", "continuous:2.5:500", "--x-min", "2"], "--x-min"),
    (["--config", CONFIG, "--mode", "continuous"], "--mode"),
    (["--config", CONFIG, "--x-min", "2"], "--x-min"),
    (["--config", CONFIG, "--seed", "7"], "--seed"),
]


@pytest.mark.parametrize("flags, named", FIT_MODE_MIXES)
def test_fit_flags_of_another_mode_are_a_usage_error(tmp_path, capsys, flags, named):
    samples = tmp_path / "samples.txt"
    samples.write_text("".join(f"{1 + k / 7}\n" for k in range(500)))
    out = tmp_path / "o"
    argv = [str(samples) if f == "S" else str(out) if f == "O" else f for f in flags]
    code, stdout, err = run(capsys, "fit", *argv)
    assert code == 1
    assert named in err and "internal error" not in err
    assert stdout == "" and not out.exists()


def test_fit_defaults_to_seed_0_and_discrete_samples(tmp_path, capsys):
    from faultgraph.tailstats import zeta_samples
    import numpy as np

    _, seeded, _ = run(capsys, "fit", "--synthetic", "discrete:2.5:2000", "--seed", "0")
    assert run(capsys, "fit", "--synthetic", "discrete:2.5:2000") == (0, seeded, "")
    path = tmp_path / "samples.txt"
    path.write_text("".join(f"{x}\n" for x in zeta_samples(2000, 2.5, 1, np.random.default_rng(3))))
    code, out, _ = run(capsys, "fit", "--samples", str(path))
    assert code == 0 and "mode=discrete status=ok" in out


@pytest.mark.parametrize("command", ["metrics", "report"])
def test_a_fault_in_a_writer_exits_2(tmp_path, capsys, monkeypatch, command):
    def broken(data, out):
        raise RuntimeError("writer fault")

    monkeypatch.setattr(cli, "write_metrics", broken)
    monkeypatch.setattr(pipeline, "write_metrics", broken)
    code, _, err = run(capsys, command, "--config", CONFIG, "--out", str(tmp_path / "o"))
    assert code == 2
    assert "internal error: writer fault" in err


@pytest.mark.parametrize(
    "spec", ["continuous:2.5:abc", "continuous:2.5:-5", "continuous:x:100", "continuous:2.5", "uniform:2.5:100"]
)
def test_fit_malformed_synthetic_spec_is_a_config_error(capsys, spec):
    code, _, err = run(capsys, "fit", "--synthetic", spec)
    assert code == 1
    assert "--synthetic" in err


@pytest.mark.parametrize(
    "spec,named",
    [("continuous:nan:100", "gamma"), ("discrete:inf:100", "gamma"), ("discrete:2.5:100:nan", "x_min")],
)
def test_fit_synthetic_non_finite_parameter_is_named(capsys, spec, named):
    code, _, err = run(capsys, "fit", "--synthetic", spec)
    assert code == 1
    assert named in err
    assert "internal error" not in err


SUBCOMMAND_FILES = {
    "extract": ("facts-",),
    "graph": ("class-graph-", "cu-graph-"),
    "metrics": ("class-metrics-", "metrics-"),
    "bugs": ("bugs-per-cu-", "cus-per-bug-"),
    "fit": ("ccdf-", "tailfit-"),
    "correlate": ("correlation-",),
    "evolve": ("evolution-", "significance-", "delta-correlation-"),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FILES))
def test_subcommand_files_match_golden_bundle(tmp_path, capsys, fixtures_dir, command):
    out = tmp_path / command
    code, stdout, _ = run(capsys, command, "--config", CONFIG, "--out", str(out))
    assert code == 0
    golden = fixtures_dir / "golden_out"
    expected = sorted(p.name for p in golden.iterdir() if p.name.startswith(SUBCOMMAND_FILES[command]))
    assert expected
    assert sorted(p.name for p in out.iterdir()) == expected
    assert sorted(stdout.split()) == sorted(str(out / name) for name in expected)
    for name in expected:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


NOT_UTF8 = "ok \xff\n".encode("latin-1")


def test_non_utf8_java_file_is_a_reported_parse_failure(tmp_path, capsys, fixtures_dir):
    cfg_path = write_config(tmp_path, fixtures_dir)
    (tmp_path / "corpus_r1" / "app" / "Latin.java").write_bytes(b"package app;\nclass Latin {\n" + NOT_UTF8 + b"}\n")
    code, _, err = run(capsys, "extract", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "Latin.java" in err and "not UTF-8" in err
    assert "app/Alpha.java" in (tmp_path / "o" / "facts-r1.jsonl").read_text()
    code, _, err = run(capsys, "report", "--config", str(cfg_path), "--out", str(tmp_path / "r"))
    assert code == 1
    assert "stage source_facts" in err and "Latin.java" in err


@pytest.mark.parametrize(
    "char, said",
    [
        ("\t", "holds a tab, CR or LF"),
        ("\r", "holds a tab, CR or LF"),
        ("\n", "holds a tab, CR or LF"),
        # the byte 0xff, which is not UTF-8, reaches the program as the lone
        # surrogate U+DCFF (PEP 383), which no UTF-8 writer can encode
        ("\udcff", "is not valid Unicode"),
    ],
    ids=["tab", "cr", "lf", "not-unicode"],
)
def test_a_java_path_that_would_split_a_bundle_row_is_a_failed_file(tmp_path, capsys, fixtures_dir, char, said):
    cfg_path = write_config(tmp_path, fixtures_dir)
    try:
        (tmp_path / "corpus_r1" / "app" / f"Sp{char}lit.java").write_text("package app;\nclass Split {\n void m() {}\n}\n")
    except (OSError, UnicodeEncodeError) as exc:
        pytest.skip(f"the file system refuses the name: {exc}")
    for command in ("report", "metrics"):
        code, _, err = run(capsys, command, "--config", str(cfg_path), "--out", str(tmp_path / command))
        assert code == 1, err
        assert "stage source_facts" in err and said in err and "internal error" not in err
    code, _, err = run(capsys, "extract", "--config", str(cfg_path), "--out", str(tmp_path / "e"))
    assert code == 1
    assert "1 file(s) skipped" in err and said in err
    facts = (tmp_path / "e" / "facts-r1.jsonl").read_text()
    assert "app/Alpha.java" in facts and "Split" not in facts


@pytest.mark.parametrize(
    "old, new, said",
    [
        ('"path":"app/Alpha.java"', '"path":"app/Al\\tpha.java"', "holds a tab, CR or LF"),
        ('"name":"Alpha"', '"name":"Al\\npha"', "holds a tab, CR or LF"),
        # a lone surrogate, which no UTF-8 writer can encode
        ('"path":"app/Alpha.java"', '"path":"app/Al\\udcffpha.java"', "is not valid Unicode"),
        ('"name":"Alpha"', '"name":"A\\udcff"', "is not valid Unicode"),
    ],
    ids=["path", "class-name", "path-not-unicode", "class-name-not-unicode"],
)
def test_a_facts_name_that_would_split_a_bundle_row_exits_1(tmp_path, capsys, fixtures_dir, old, new, said):
    cfg_path = write_config(tmp_path, fixtures_dir)
    assert run(capsys, "extract", "--config", str(cfg_path), "--out", str(tmp_path / "e"))[0] == 0
    text = (tmp_path / "e" / "facts-r1.jsonl").read_text()
    assert text.count(old) == 1
    (tmp_path / "facts.jsonl").write_text(text.replace(old, new))
    cfg = json.loads(cfg_path.read_text())
    del cfg["releases"][0]["corpus"]
    cfg["releases"][0]["facts"] = "facts.jsonl"
    cfg_path.write_text(json.dumps(cfg))
    for command in ("report", "metrics"):
        code, _, err = run(capsys, command, "--config", str(cfg_path), "--out", str(tmp_path / command))
        assert code == 1, err
        assert "stage source_facts" in err and "record 1:" in err and said in err
        assert not (tmp_path / command / "metrics-r1.tsv").exists()


@pytest.mark.parametrize("name, stage", [("commits.tsv", "bug_mapping"), ("issues.tsv", "bug_mapping")])
def test_non_utf8_bug_input_is_a_format_error(tmp_path, capsys, fixtures_dir, name, stage):
    cfg_path = write_config(tmp_path, fixtures_dir)
    path = tmp_path / name
    path.write_bytes(path.read_bytes() + NOT_UTF8)
    code, _, err = run(capsys, "report", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code == 1
    assert f"stage {stage}" in err and name in err and "not UTF-8" in err


def test_non_utf8_facts_file_is_a_format_error(tmp_path, capsys, fixtures_dir):
    cfg_path = write_config(tmp_path, fixtures_dir)
    (tmp_path / "facts.jsonl").write_bytes(NOT_UTF8)
    cfg = json.loads(cfg_path.read_text())
    del cfg["releases"][0]["corpus"]
    cfg["releases"][0]["facts"] = "facts.jsonl"
    cfg_path.write_text(json.dumps(cfg))
    for command in ("extract", "report"):
        code, _, err = run(capsys, command, "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert code == 1, command
        assert "stage source_facts" in err and "facts.jsonl" in err and "not UTF-8" in err


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"releases": []}' + NOT_UTF8)
    code, _, err = run(capsys, "report", "--config", str(path))
    assert code == 1
    assert "config.json" in err and "not UTF-8" in err


@pytest.mark.parametrize(
    "data, where",
    [
        (b"x" * 9_000 + b"\xff" + b"y" * 100, "byte 9000: invalid start byte"),
        (b"x" * 20_000 + b"\xe2\x82" + b"y" * 100, "byte 20000: invalid continuation byte"),
        (b"class A {}\n\xe2\x82", "byte 11: unexpected end of data"),
    ],
    ids=["past-one-chunk", "past-two-chunks", "cut-at-the-end"],
)
def test_a_non_utf8_input_names_its_first_bad_byte(tmp_path, data, where):
    # the offset counts from the start of the file, however it is read
    path = tmp_path / "A.java"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        read_utf8(path, ParseError)
    assert str(exc.value) == f"{path}: not UTF-8 text ({where})"


def test_an_unreadable_input_says_why(tmp_path):
    with pytest.raises(FormatError) as exc:
        read_utf8(tmp_path / "gone.tsv", FormatError)
    assert str(exc.value) == f"{tmp_path / 'gone.tsv'}: cannot read: No such file or directory"
    with pytest.raises(FormatError) as exc:
        read_utf8(tmp_path, FormatError)
    assert str(exc.value) == f"{tmp_path}: cannot read: Is a directory"


def test_an_input_is_read_as_written(tmp_path):
    path = tmp_path / "commits.tsv"
    path.write_bytes("\ufeffa\r\nb\rc\u2028d\n".encode())
    assert read_utf8(path, FormatError) == "\ufeffa\r\nb\rc\u2028d\n"


@pytest.mark.parametrize("command", ["extract", "graph", "metrics", "bugs", "correlate", "evolve", "report"])
def test_seed_is_a_fit_option_only(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", CONFIG, "--out", str(tmp_path), "--seed", "7"])
    assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--config"],  # missing value
        ["fit", "--mode", "sideways"],  # value outside its choices
        ["report", "--no-such-flag"],
        ["no-such-command"],
        [],  # no subcommand
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, said",
    [
        (["--samples", "S", "--mode", "discrete", "--x-min", "1.5"], "discrete x_min must be an integer >= 1"),
        (["--synthetic", "continuous:2.5:100:-1"], "x_min must be finite and positive"),
        (["--synthetic", "discrete:2.5:10:2000000"], "above the support cap"),
    ],
    ids=["discrete-samples", "continuous-synthetic", "discrete-synthetic"],
)
def test_fit_x_min_outside_its_domain_exits_1(tmp_path, capsys, argv, said):
    samples = tmp_path / "samples.txt"
    samples.write_text("".join(f"{k}\n" for k in range(1, 200)))
    code, _, err = run(capsys, "fit", *[str(samples) if a == "S" else a for a in argv])
    assert code == 1
    assert "stage tail_stats" in err and said in err and "internal error" not in err


def test_evolve_without_release_pairs_exits_1(tmp_path, capsys, fixtures_dir):
    cfg_path = write_config(tmp_path, fixtures_dir, release_pairs=[])
    code, _, err = run(capsys, "evolve", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "no release_pairs" in err


def test_bugs_without_an_issue_registry_exits_1_at_bug_mapping(tmp_path, capsys, fixtures_dir):
    cfg_path = write_config(tmp_path, fixtures_dir, issue_registry=None)
    code, _, err = run(capsys, "bugs", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "stage bug_mapping: config has no issue_registry" in err


def facts_release(tmp_path, fixtures_dir, edit_first_record):
    """A fixture config whose r1 reads the extracted r1 facts with its first
    record replaced by ``edit_first_record(record)``."""
    cfg_path = write_config(tmp_path, fixtures_dir)
    assert main(["extract", "--config", str(cfg_path), "--out", str(tmp_path / "e")]) == 0
    first, *rest = (tmp_path / "e" / "facts-r1.jsonl").read_text().splitlines(keepends=True)
    (tmp_path / "facts.jsonl").write_text(edit_first_record(first.rstrip("\n")) + "\n" + "".join(rest))
    cfg = json.loads(cfg_path.read_text())
    del cfg["releases"][0]["corpus"]
    cfg["releases"][0]["facts"] = "facts.jsonl"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


def with_loc(record, cu_loc=None, class_loc=None):
    d = json.loads(record)
    if cu_loc is not None:
        d["loc"] = cu_loc
    if class_loc is not None:
        d["classes"][0]["loc"] = class_loc
    return json.dumps(d)


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "edit, said",
    [
        (lambda record: DEEP, "invalid JSON: nested too deeply"),
        (lambda record: record[: record.rindex(":") + 1] + "7" * 5000 + "}", "invalid JSON: an integer literal has"),
        (lambda record: with_loc(record, cu_loc=10**400), "loc must be an integer from 0 to 2**53"),
        (lambda record: with_loc(record, cu_loc=2**53 + 1), "loc must be an integer from 0 to 2**53"),
        (lambda record: with_loc(record, class_loc=10**400), "class loc must be an integer from 0 to 2**53"),
    ],
    ids=["deep", "long-integer", "cu-loc", "cu-loc-past-2**53", "class-loc"],
)
def test_a_facts_record_past_a_number_or_nesting_limit_exits_1(tmp_path, capsys, fixtures_dir, edit, said):
    cfg_path = facts_release(tmp_path, fixtures_dir, edit)
    code, _, err = run(capsys, "fit", "--config", str(cfg_path), "--metric", "cu_loc", "--out", str(tmp_path / "o"))
    assert code == 1
    assert "stage source_facts" in err and f"record 1: {said}" in err and "internal error" not in err


def test_a_loc_of_2_to_the_53_loads(tmp_path, capsys, fixtures_dir):
    cfg_path = facts_release(tmp_path, fixtures_dir, lambda record: with_loc(record, cu_loc=2**53, class_loc=2**53))
    code, _, err = run(capsys, "fit", "--config", str(cfg_path), "--metric", "cu_loc", "--out", str(tmp_path / "o"))
    assert code == 0, err


def with_classes(change):
    """An edit of a facts record that applies ``change`` to its list of
    classes, whose first, Alpha, has the methods run and total."""

    def edit(record):
        d = json.loads(record)
        change(d["classes"])
        return json.dumps(d)

    return edit


@pytest.mark.parametrize(
    "change, said",
    [
        (lambda classes: classes[0].pop("name"), "class record needs a name"),
        (lambda classes: classes[0]["methods"][0].pop("name"), "method record needs a name"),
        (
            lambda classes: classes[0]["methods"][0].update(external_calls=[["Util"]]),
            "external_calls entries must be [type, method] pairs",
        ),
        (
            lambda classes: classes[0]["methods"][0].update(external_calls="Util.format"),
            "external_calls entries must be [type, method] pairs",
        ),
        (lambda classes: classes.append(classes[0]), "duplicate class name within CU"),
    ],
    ids=["class-without-name", "method-without-name", "call-not-a-pair", "calls-not-a-list", "duplicate-class"],
)
def test_a_malformed_facts_record_exits_1(tmp_path, capsys, fixtures_dir, change, said):
    cfg_path = facts_release(tmp_path, fixtures_dir, with_classes(change))
    code, _, err = run(capsys, "metrics", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "stage source_facts" in err and f"record 1: {said}" in err and "internal error" not in err


@pytest.mark.parametrize(
    "text, said",
    [(DEEP, "nested too deeply"), ('{"releases": ' + "7" * 5000 + "}", "an integer literal has")],
    ids=["deep", "long-integer"],
)
def test_a_config_past_a_number_or_nesting_limit_exits_1(tmp_path, capsys, text, said):
    path = tmp_path / "config.json"
    path.write_text(text)
    code, _, err = run(capsys, "report", "--config", str(path))
    assert code == 1
    assert f"config is not valid JSON: {said}" in err and "internal error" not in err


def test_a_digit_run_too_long_for_an_issue_id_cites_nothing(tmp_path, capsys, fixtures_dir):
    cfg_path = write_config(tmp_path, fixtures_dir)
    assert run(capsys, "bugs", "--config", str(cfg_path), "--out", str(tmp_path / "without"))[0] == 0
    with open(tmp_path / "commits.tsv", "a") as fh:
        fh.write("2007-03-01T00:00:00Z\tdev\tbump " + "7" * 5000 + "\tapp/Alpha.java\n")
    code, _, err = run(capsys, "bugs", "--config", str(cfg_path), "--out", str(tmp_path / "with"))
    assert code == 0, err
    without = sorted((tmp_path / "without").iterdir())
    assert [p.name for p in without] == sorted(p.name for p in (tmp_path / "with").iterdir())
    for path in without:
        assert (tmp_path / "with" / path.name).read_bytes() == path.read_bytes(), path.name


def test_a_failed_file_takes_one_line_of_the_failure_listing(tmp_path, capsys, fixtures_dir):
    cfg_path = write_config(tmp_path, fixtures_dir)
    app = tmp_path / "corpus_r1" / "app"
    (app / "Broken.java").write_text("package app;\nclass {\n}\n")
    (app / "Sp\nlit.java").write_text("package app;\nclass Split {\n void m() {}\n}\n")
    (app / "V\vt.java").write_bytes(b"package app;\nclass Vt {\n" + NOT_UTF8 + b"}\n")
    code, _, err = run(capsys, "extract", "--config", str(cfg_path), "--out", str(tmp_path / "e"))
    assert code == 1
    skipped, broken, split, vt = err.splitlines()  # splitlines also splits at a vertical tab
    assert skipped == "3 file(s) skipped:"
    assert broken.startswith("  [r1] app/Broken.java: ")  # an ordinary path prints as it is
    assert split == "  [r1] 'app/Sp\\nlit.java': path 'app/Sp\\nlit.java' holds a tab, CR or LF"
    assert vt.startswith("  [r1] 'app/V\\x0bt.java': '")
    assert vt.endswith("/app/V\\x0bt.java': not UTF-8 text (byte 27: invalid start byte)")
    code, _, err = run(capsys, "report", "--config", str(cfg_path), "--out", str(tmp_path / "r"))
    assert code == 1
    (line,) = err.splitlines()
    assert "3 file(s) failed to parse: app/Broken.java: " in line
    assert "; 'app/Sp\\nlit.java': path 'app/Sp\\nlit.java' holds a tab, CR or LF; 'app/V\\x0bt.java': '" in line


def test_deep_class_nesting_is_a_failed_file(tmp_path, capsys, fixtures_dir):
    cfg_path = write_config(tmp_path, fixtures_dir)
    depth = 2000
    (tmp_path / "corpus_r1" / "app" / "Deep.java").write_text(
        "package app;\n" + "".join(f"class C{i} {{\n" for i in range(depth)) + "}\n" * depth
    )
    code, _, err = run(capsys, "extract", "--config", str(cfg_path), "--out", str(tmp_path / "e"))
    assert code == 1
    assert "  [r1] app/Deep.java: class declarations nested too deeply\n" in err and "internal error" not in err
    code, _, err = run(capsys, "report", "--config", str(cfg_path), "--out", str(tmp_path / "r"))
    assert code == 1
    assert "stage source_facts" in err and "internal error" not in err


def test_an_out_of_range_commit_timestamp_names_its_record(tmp_path, capsys, fixtures_dir):
    cfg_path = write_config(tmp_path, fixtures_dir)
    stamp = "9999-12-31T23:59:59-01:00"  # a valid local time whose UTC instant is past year 9999
    records = len((tmp_path / "commits.tsv").read_text().splitlines())
    with open(tmp_path / "commits.tsv", "a") as fh:
        fh.write(f"{stamp}\tdev\tfix bug 101\tapp/Alpha.java\n")
    code, _, err = run(capsys, "bugs", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code == 1
    assert f"record {records + 1}: bad timestamp {stamp!r}" in err and "internal error" not in err


def test_fit_synthetic_negative_seed_is_a_config_error(capsys):
    code, _, err = run(capsys, "fit", "--synthetic", "continuous:2.5:100", "--seed", "-1")
    assert code == 1
    assert "--seed must be a non-negative integer, got -1" in err


@pytest.mark.parametrize("n", [str(sys.maxsize), "1" + "0" * 30], ids=["maxsize", "1e30"])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_fit_synthetic_n_past_the_address_space_is_a_config_error(capsys, mode, n):
    code, _, err = run(capsys, "fit", "--synthetic", f"{mode}:2.5:{n}")
    assert code == 1
    assert f"--synthetic needs 1 <= N <= {sys.maxsize // 8}, got {n}" in err and "internal error" not in err


def test_fit_synthetic_n_beyond_memory_is_a_config_error(capsys, monkeypatch):
    def unallocatable(n, *args):
        raise MemoryError(f"Unable to allocate {n * 8 / 2**30:.0f} GiB")

    monkeypatch.setattr(cli, "pareto_samples", unallocatable)
    code, _, err = run(capsys, "fit", "--synthetic", "continuous:2.5:100000000000")
    assert code == 1
    assert "--synthetic N=100000000000 draws more samples than memory holds" in err
    assert "internal error" not in err


def test_fit_synthetic_draw_past_the_double_range_warns_nothing(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "fit", "--synthetic", "continuous:1.0000000001:200")
    assert code == 1
    assert "samples must be finite and positive" in err and "internal error" not in err


# -- the collector policy: off while a command runs, as before once it returns --


@pytest.fixture()
def collector_state():
    """Restore the test process's collector state whatever a test sets."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_restores_the_collector_state_on_every_exit(tmp_path, capsys, monkeypatch, collector_state, enabled):
    during = []

    def broken(data, out):
        during.append(gc.isenabled())
        raise RuntimeError("writer fault")

    monkeypatch.setattr(cli, "write_metrics", broken)
    (gc.enable if enabled else gc.disable)()
    for argv, code in [
        (["fit", "--synthetic", "continuous:2.5:200"], 0),
        (["report"], 1),  # no --config
        (["metrics", "--config", CONFIG, "--out", str(tmp_path / "o")], 2),
    ]:
        assert run(capsys, *argv)[0] == code
        assert gc.isenabled() is enabled
    with pytest.raises(SystemExit):
        main(["report", "--no-such-flag"])
    capsys.readouterr()
    assert gc.isenabled() is enabled
    assert during == [False]


def cyclic_garbage(capsys, *argv) -> tuple[int, int]:
    """(exit code, objects in reference cycles the command leaves unreachable).
    The command runs once before it is counted, so the modules it imports
    lazily are not counted."""
    run(capsys, *argv)
    gc.collect()
    gc.disable()
    code = run(capsys, *argv)[0]
    return code, gc.collect()


# Measured on Python 3.11: each command leaves no object in a cycle. Before
# the parser was built once per process, every command left the 372 argparse
# objects of its own parser; and a failed file's error kept with its traceback
# held the whole release's facts in a cycle: 563 to 569 objects here.
GARBAGE_BOUND = 0


def test_a_report_leaves_bounded_cyclic_garbage(tmp_path, capsys, collector_state):
    code, garbage = cyclic_garbage(capsys, "report", "--config", CONFIG, "--out", str(tmp_path / "o"))
    assert code == 0 and garbage <= GARBAGE_BOUND


@pytest.mark.parametrize("failing", [b"package app;\nclass {\n}\n", b"class \xe9 {}\n"], ids=["syntax", "not-utf8"])
def test_an_extract_with_a_failing_file_leaves_bounded_cyclic_garbage(
    tmp_path, capsys, fixtures_dir, collector_state, failing
):
    cfg_path = write_config(tmp_path, fixtures_dir)
    (tmp_path / "corpus_r1" / "app" / "Broken.java").write_bytes(failing)
    code, garbage = cyclic_garbage(capsys, "extract", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code == 1 and garbage <= GARBAGE_BOUND
