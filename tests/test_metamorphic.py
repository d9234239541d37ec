"""Whole-run metamorphic relations: input changes a report must not see.

Each relation changes the seed-11 release-pair inputs of the benchmark's
generator (built as ``test_generated_bundle.py`` builds them) in a way the
analysis must ignore, runs ``faultgraph report`` on them and compares the
bundle and stderr, byte for byte, with those of the untouched inputs. Every
run is a fresh interpreter under ``PYTHONHASHSEED=0`` unless a relation sets
another seed: the first warning of a process binds ``logging`` to the
stderr that exists then, so stderr is compared across processes.

Each relation fails on a matching defect: the hash seeds on a set of names
iterated unsorted, the duplicated commits on a link counted once per commit
line, the shuffled registry on rows assumed to be in id order, the appended
comments on a comment line counted as code, the four added commits on a
window, registry, ``min_id`` or excluded-interval filter that lets them
through, the run from facts on a facts writer that drops a field, and the
renamed output directory on a writer that puts the output path in a row.

Three relations change the environment, not the inputs: numpy's kernels
moved to its x86-64 baseline (``NPY_DISABLE_CPU_FEATURES``; skipped where
``opt_func_info`` shows that float64 ``log`` stays where it was, as is the
check that the pinned tail fits keep every bit under those kernels), a far
time zone (``TZ=Pacific/Chatham``, UTC+12:45 or +13:45) and the C locale
(``LC_ALL=C``). Each fails on a matching defect: a ``np.log`` value
written with ``repr``, a window timestamp read as local time, and a
message that reads the locale's encoding (the default locale and C differ
in ``LC_CTYPE``, while UTF-8 mode holds under both).

One relation is not an identity: a CU that references nothing and that
nothing references, added to both corpora, adds its own rows to the metric
tables and changes no other row. It fails on an ``in_links`` that counts
every CU of the release.
"""

import importlib.util
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
from functools import partial

import pytest
from test_tailstats import PINNED_FITS, TAILS

ROOT = pathlib.Path(__file__).resolve().parents[1]
GEN = ROOT / "perfbench" / "gen.py"
SEED = 11


def faultgraph(*argv: str, hash_seed: int = 0, env: dict[str, str] | None = None) -> str:
    """Run one command in a fresh interpreter, with ``env`` added to the
    environment, require exit 0 and return its stderr."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": str(hash_seed), **(env or {})}
    done = subprocess.run([sys.executable, "-m", "faultgraph.cli", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stderr


def report(inputs: pathlib.Path, out: pathlib.Path, hash_seed: int = 0, env=None) -> tuple[dict[str, bytes], str]:
    """The bundle (file name -> bytes) and stderr of one ``report`` run."""
    argv = ("report", "--config", str(inputs / "config.json"), "--out", str(out))
    stderr = faultgraph(*argv, hash_seed=hash_seed, env=env)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}, stderr


def assert_same_run(got, expected):
    (bundle, stderr), (expected_bundle, expected_stderr) = got, expected
    assert sorted(bundle) == sorted(expected_bundle)
    assert [name for name in bundle if bundle[name] != expected_bundle[name]] == []
    assert stderr == expected_stderr


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("faultgraph_bench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    root = tmp_path_factory.mktemp("metamorphic")
    inputs = root / "pair"
    gen.report_inputs(inputs, SEED, 2, 200, 800, 0.10, 0.30, 0.02, "corpus")
    run = report(inputs, root / "out")
    assert "dropped" in run[1]  # the stderr compared is not empty
    return inputs, run


def read_lines(path: pathlib.Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def write_lines(path: pathlib.Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def a_corpus_file(inputs: pathlib.Path) -> str:
    """A file of r1's corpus, as a commit names it."""
    corpus = inputs / "corpus_r1"
    return min(corpus.rglob("*.java")).relative_to(corpus).as_posix()


def shuffle_commits_with_duplicates(inputs):
    rng = random.Random(SEED)
    lines = read_lines(inputs / "commits.tsv")
    lines += rng.sample(lines, len(lines) // 3)
    rng.shuffle(lines)
    write_lines(inputs / "commits.tsv", lines)


def shuffle_registry_rows(inputs):
    rng = random.Random(SEED)
    header, *rows = read_lines(inputs / "issues.tsv")
    rng.shuffle(rows)
    write_lines(inputs / "issues.tsv", [header, *rows])


def append_comments(inputs):
    for path in inputs.rglob("*.java"):
        with path.open("a", encoding="utf-8") as f:
            f.write("// a line comment\n\n\n/* a block\n   comment */\n")


def add_commit_before_every_window(inputs):
    lines = read_lines(inputs / "commits.tsv")
    lines.append(f"2000-01-01T00:00:00Z\tdev\tFixed 150 in parser handling\t{a_corpus_file(inputs)}")
    write_lines(inputs / "commits.tsv", lines)


def cite_in_r1(inputs, issue_id):
    """Add a commit at the start of r1's window that fixes ``issue_id`` in a
    file of r1's corpus."""
    start, _ = json.loads((inputs / "config.json").read_text(encoding="utf-8"))["releases"][0]["window"]
    lines = read_lines(inputs / "commits.tsv")
    lines.append(f"{start}\tdev\tFixed {issue_id} in parser handling\t{a_corpus_file(inputs)}")
    write_lines(inputs / "commits.tsv", lines)


def report_from_extracted_facts(inputs):
    """Extract the corpora into facts files, then point the config at those
    files and delete the corpora, so that ``report`` can only read facts."""
    config = inputs / "config.json"
    faultgraph("extract", "--config", str(config), "--out", str(inputs / "facts"))
    cfg = json.loads(config.read_text(encoding="utf-8"))
    for rel in cfg["releases"]:
        shutil.rmtree(inputs / rel.pop("corpus"))
        rel["facts"] = f"facts/facts-{rel['tag']}.jsonl"
    config.write_text(json.dumps(cfg, indent=1), encoding="utf-8")


# Each relation changes a copy of the inputs in place. One that returns a
# name has the report written into a directory of that name, not "out".
RELATIONS = {
    "commits-shuffled-and-duplicated": shuffle_commits_with_duplicates,
    "registry-rows-shuffled": shuffle_registry_rows,
    "comments-appended": append_comments,
    "commit-before-every-window": add_commit_before_every_window,
    "unregistered-id-in-a-window": partial(cite_in_r1, issue_id=987654321),
    # the generator registers every id from 1, and its filter has min_id 100
    "id-below-min-id-in-a-window": partial(cite_in_r1, issue_id=50),
    # and excludes the interval [400, 419]
    "excluded-id-in-a-window": partial(cite_in_r1, issue_id=405),
    "report-from-extracted-facts": report_from_extracted_facts,
    "output-directory-renamed": lambda inputs: "a renamed bundle",
}


@pytest.mark.parametrize("hash_seed", [1, 12345])
def test_a_report_does_not_depend_on_the_hash_seed(baseline, tmp_path, hash_seed):
    inputs, expected = baseline
    assert_same_run(report(inputs, tmp_path / "out", hash_seed), expected)


# numpy's float64 log kernel, as ``opt_func_info`` reports it
LOG_KERNEL = "from numpy.lib.introspect import opt_func_info; print(opt_func_info('^log$', 'float64'))"
# numpy's dispatch targets above its x86-64 baseline: on a CPU with AVX-512,
# float64 log moves from X86_V4 to baseline(X86_V2)
BASELINE_KERNELS = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"}


def skip_unless_baseline_kernels_move_log():
    if importlib.util.find_spec("numpy.lib.introspect") is None:
        pytest.skip("numpy has no opt_func_info to show a kernel move")
    kernels = [
        subprocess.run([sys.executable, "-c", LOG_KERNEL], env={**os.environ, **env}, capture_output=True, text=True)
        for env in ({}, BASELINE_KERNELS)
    ]
    if kernels[0].stdout == kernels[1].stdout:
        pytest.skip(f"{BASELINE_KERNELS} leaves numpy's float64 log kernel where it was: {kernels[0].stdout.strip()}")


def test_a_report_does_not_depend_on_numpy_kernels(baseline, tmp_path):
    skip_unless_baseline_kernels_move_log()
    inputs, expected = baseline
    assert_same_run(report(inputs, tmp_path / "out", env=BASELINE_KERNELS), expected)


# fits each pinned tail named on its command line, as
# test_fit_of_a_seeded_distribution_is_pinned_bit_for_bit does, and prints
# the fit's fields as float.hex
FIT_PINNED = """
import pathlib, sys
from faultgraph.tailstats import fit_power_law_tail
for name, mode in zip(sys.argv[2::2], sys.argv[3::2]):
    values = [float(v) for v in (pathlib.Path(sys.argv[1]) / f"{name}-r1.txt").read_text().split()]
    fit = fit_power_law_tail([v for v in values if v > 0], mode=mode)
    print(name, mode, fit.gamma.hex(), fit.x_min.hex(), fit.ks.hex(), fit.n_tail)
"""


def test_the_pinned_fits_do_not_depend_on_numpy_kernels():
    skip_unless_baseline_kernels_move_log()
    argv = [TAILS, *(part for key in sorted(PINNED_FITS) for part in key)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **BASELINE_KERNELS}
    done = subprocess.run([sys.executable, "-c", FIT_PINNED, *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    got = {}
    for line in done.stdout.splitlines():
        name, mode, gamma, x_min, ks, n_tail = line.split()
        got[name, mode] = (gamma, x_min, ks, int(n_tail))
    assert got == PINNED_FITS


@pytest.mark.parametrize("env", [{"TZ": "Pacific/Chatham"}, {"LC_ALL": "C"}], ids=["far-time-zone", "c-locale"])
def test_a_report_does_not_depend_on_its_time_zone_or_locale(baseline, tmp_path, env):
    inputs, expected = baseline
    assert_same_run(report(inputs, tmp_path / "out", env=env), expected)


@pytest.mark.parametrize("change", RELATIONS.values(), ids=RELATIONS.keys())
def test_a_report_ignores_an_input_change_it_must_not_see(baseline, tmp_path, change):
    inputs, expected = baseline
    changed = tmp_path / "pair"
    shutil.copytree(inputs, changed)
    out = change(changed) or "out"
    assert_same_run(report(changed, tmp_path / out), expected)


LONELY = """package lonely;

/** A class that names no other type and that no other type names. */
public class Lonely {
    private int count = 0;
    public int add(int x) {
        count = count + x;
        return count;
    }
}
"""


def test_a_cu_that_references_nothing_adds_only_its_own_metric_rows(baseline, tmp_path):
    inputs, (expected, _) = baseline
    changed = tmp_path / "pair"
    shutil.copytree(inputs, changed)
    for corpus in sorted(changed.glob("corpus_*")):
        (corpus / "lonely").mkdir()
        (corpus / "lonely" / "Lonely.java").write_text(LONELY, encoding="utf-8")
    bundle, _ = report(changed, tmp_path / "out")
    tables = sorted(name for name in expected if name.startswith(("metrics-", "class-metrics-")))
    assert len(tables) == 4
    for name in tables:
        rows = bundle[name].decode("utf-8").splitlines()
        own = [row for row in rows if row.startswith("lonely/Lonely.java\t")]
        assert len(own) == 1, name
        assert [row for row in rows if row not in own] == expected[name].decode("utf-8").splitlines(), name
        if name.startswith("metrics-"):
            assert own[0].split("\t")[1:3] == ["0", "0"]  # in_links, out_links
