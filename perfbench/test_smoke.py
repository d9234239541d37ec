"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

The oracle must accept faultgraph's unmodified output and reject it once a
single metric row or ledger row is altered.
"""

import re

import pytest

import check
import gen
import run
import tracing

TINY_PAIR = run.Workload("report", releases=2, cus=40, commits=60, add=0.10, edit=0.30, delete=0.05)
TINY_HISTORY = run.Workload(
    "report", releases=3, cus=30, commits=40, add=0.10, edit=0.30, delete=0.05, source="facts"
)
TINY_FIT = run.Workload("fit", samples=3000, gamma=2.5)


def _report(tmp_path, w):
    inputs = tmp_path / "in"
    oracle = run.setup(w, 7, inputs)
    out = tmp_path / "out"
    code, _, _ = run.spawn([*run.FAULTGRAPH, *run.command(w, inputs, out)], tmp_path / "o", tmp_path / "e")
    assert code == 0, (tmp_path / "e").read_text()
    return out, oracle


def _alter(path, row: int, col: int):
    lines = path.read_text().splitlines()
    cells = lines[row].split("\t")
    cells[col] = str(int(cells[col]) + 1)
    lines[row] = "\t".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("w", [TINY_PAIR, TINY_HISTORY], ids=["release-pair", "history"])
def test_oracle_accepts_output_and_rejects_one_altered_row(tmp_path, w):
    out, oracle = _report(tmp_path, w)
    assert check.check_report(out, oracle) == []
    before = check.digest(out)

    metrics = out / "metrics-r2.tsv"
    saved = metrics.read_text()
    _alter(metrics, 1, saved.split("\n")[0].split("\t").index("cu_wmc"))
    assert check.digest(out) != before
    assert check.check_report(out, oracle) != []
    metrics.write_text(saved)
    assert check.check_report(out, oracle) == []

    _alter(out / "bugs-per-cu-r1.tsv", 1, 1)
    assert check.check_report(out, oracle) != []


def test_generated_log_reaches_every_filter_branch(tmp_path):
    oracle = run.setup(TINY_PAIR, 7, tmp_path)
    log = (tmp_path / "commits.tsv").read_text()
    assert "\\t" in log and "\\n" in log and "\\\\" in log
    for phrase in ("bug #", "Fixed ", "fixes for bug", "issue ", "refs ", "docs/"):
        assert phrase in log
    registered = len((tmp_path / "issues.tsv").read_text().splitlines()) - 1
    cited = {int(i) for line in log.splitlines() for i in re.findall(r"\d+", line.split("\t")[2])}
    assert any(i < gen.MIN_ID for i in cited)
    assert any(lo <= i <= hi for i in cited for lo, hi in gen.EXCLUDED)
    assert any(i > registered for i in cited)
    assert all(r["links"] > 0 for r in oracle["releases"].values())


def test_fit_oracle(tmp_path):
    oracle = run.setup(TINY_FIT, 7, tmp_path)
    samples = [float(x) for x in (tmp_path / "samples.txt").read_text().split()]
    args = [*run.FAULTGRAPH, *run.command(TINY_FIT, tmp_path, tmp_path)]
    code, _, _ = run.spawn(args, tmp_path / "o", tmp_path / "e")
    assert code == 0
    stdout = (tmp_path / "o").read_text()
    assert check.check_fit(stdout, samples, oracle) == []
    gamma = check.FIT_LINE.search(stdout).group(1)
    altered = stdout.replace(f"gamma={gamma}", f"gamma={float(gamma) + 1e-6!r}")
    assert check.check_fit(altered, samples, oracle) != []


def test_traced_run_accounts_for_its_wall_time(tmp_path):
    inputs = tmp_path / "in"
    oracle = run.setup(TINY_PAIR, 7, inputs)
    plain, _ = run.run_once(TINY_PAIR, inputs, oracle, None, 0, traced=False)
    traced, values = run.run_once(TINY_PAIR, inputs, oracle, None, 1, traced=True)
    assert plain.problems == [] and traced.problems == []
    assert plain.digest == traced.digest
    assert values["javaparse.files"] == sum(len(r["cus"]) for r in oracle["releases"].values())
    assert values["facts.scans_per_file"] == 2.0
    assert values["bugs.log_reads"] == TINY_PAIR.releases
    assert 0 <= values["trace.unattributed_s"] < traced.wall_s
    attributed = sum(values[name] for name in tracing.TIMES)
    assert attributed + values["trace.unattributed_s"] == pytest.approx(traced.wall_s)
    assert set(values) | {"cli.import_s", "cli.cpu_s", "trace.overhead_s"} == {n for n, _ in run.PER_LAYER}
