"""faultgraph benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is taken from ``src/``).
The workload's inputs are generated from the seed; faultgraph sees only
those files. A closed loop of one client then runs the workload's
``faultgraph`` command, one process at a time, until ``--seconds`` have
passed (at least ``MIN_RUNS`` times). Every run gets a fresh output
directory, and its output is checked against the generator's oracle.

Nothing is deleted until the benchmark run ends, outside every timed
window: on ext4 (measured on a 2-vCPU VM), creating 2000 small files right
after deleting as many took several times the system time it took
otherwise, so deleting between timed steps would charge one step for the
clean-up of another.

With ``--trace 0`` the result holds the end-to-end metrics: ``wall_s``
(spawn to exit, median), ``peak_rss_mb`` (child max RSS, median) and
``setup_s`` (input generation plus any program-side preparation, median
over at least ``SETUPS`` set-ups and ``SETUP_S`` seconds of them). With
``--trace 1`` it holds the per-layer metrics of ``tracing.py``: untraced
and traced runs alternate; the layer figures come from the traced run with
the median wall time, ``cli.import_s`` from fresh interpreters and
``cli.cpu_s`` from the untraced runs.

``wall_s`` and ``setup_s`` are reported at reference speed. A shared
machine's speed drifts: on a 2-vCPU VM the same pure-Python loop ran up to
40% slower from one minute to the next, and two sets of ten runs of this
benchmark differed by 25% in their medians. So every timed command, and the
set-ups as a whole, sit between two timings of fixed reference work
(``reference_s``), and their time is scaled by ``REF_S`` over the mean of
those two: the time the step would take where the reference work takes
``REF_S``. The lines before the result give the times as measured too.

Workloads, and why each was chosen:

- ``release-pair``: ``report`` on two releases given as Java source. The
  paper's core path; parse, facts scanning, graphs and metrics dominate.
- ``history``: ``report`` on six releases given as facts files (written by
  ``faultgraph extract`` during set-up) with a large commit log. The parser
  is bypassed; the commit log is re-read for every release, so bugs and
  evolution dominate.
- ``tail-fit``: ``fit --samples FILE --mode continuous`` on Pareto draws.
  The continuous x_min scan is quadratic in the sample count, and the short
  command makes interpreter start-up and imports a large share.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same figures for people, with run counts, the failure fraction,
the output digest and the environment.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import check
import gen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"


SETUPS = 3  # at least this many set-ups, and more while they take under SETUP_S in all
SETUP_S = 1.0
MIN_RUNS = 3
MIN_TRACED = 2
IMPORTS = 3
COMMAND_TIMEOUT_S = 150.0
REF_LOOP = 60_000
REF_S = 0.05  # the reference work's time at the speed reported times are scaled to
FAULTGRAPH = ["-c", "import sys; from faultgraph.cli import main; sys.exit(main())"]


@dataclass(frozen=True)
class Workload:
    kind: str  # "report" or "fit"
    releases: int = 0
    cus: int = 0
    commits: int = 0  # per release window
    add: float = 0.0
    edit: float = 0.0
    delete: float = 0.0
    source: str = "corpus"  # "corpus" or "facts"
    samples: int = 0
    gamma: float = 0.0


WORKLOADS = {
    "release-pair": Workload("report", releases=2, cus=900, commits=4000, add=0.10, edit=0.30, delete=0.02),
    "history": Workload(
        "report", releases=6, cus=300, commits=4000, add=0.05, edit=0.30, delete=0.03, source="facts"
    ),
    "tail-fit": Workload("fit", samples=10000, gamma=2.5),
}


@dataclass
class Run:
    wall_s: float
    scaled_s: float  # wall_s at reference speed
    rss_mb: float
    cpu_s: float
    problems: list[str]
    digest: str


def spawn(args: list[str], stdout: Path, stderr: Path) -> tuple[int, float, object]:
    """Run ``python3 ARGS`` with faultgraph importable from ``src/``, to
    completion; return (exit code, wall s, rusage of the child)."""
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), write, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2) if stderr == stdout else (os.POSIX_SPAWN_OPEN, 2, str(stderr), write, 0o644),
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    timer = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage


# --------------------------------------------------------------------------
# Set-up: inputs from the seed, plus program-side preparation
# --------------------------------------------------------------------------


def setup(w: Workload, seed: int, root: Path) -> dict:
    if w.kind == "fit":
        return gen.tail_inputs(root, seed, w.samples, w.gamma)
    oracle = gen.report_inputs(
        root, seed, w.releases, w.cus, w.commits, w.add, w.edit, w.delete, w.source
    )
    if w.source == "facts":
        log = root.parent / "extract.log"  # outside the inputs: it names their directory
        code, _, _ = spawn(
            [*FAULTGRAPH, "extract", "--config", str(root / "config.json"), "--out", str(root / "facts")], log, log
        )
        if code != 0:
            raise RuntimeError(f"faultgraph extract exited {code}: {log.read_text()[-500:]}")
    return oracle


# --------------------------------------------------------------------------
# One timed command
# --------------------------------------------------------------------------


def command(w: Workload, inputs: Path, out: Path) -> list[str]:
    if w.kind == "fit":
        return ["fit", "--samples", str(inputs / "samples.txt"), "--mode", "continuous"]
    cfg = inputs / ("report.json" if w.source == "facts" else "config.json")
    return ["report", "--config", str(cfg), "--out", str(out)]


def run_once(w: Workload, inputs: Path, oracle: dict, samples, n: int, traced: bool) -> tuple[Run, dict]:
    """One command in a fresh output directory, then its checks."""
    out = inputs.parent / f"out-{n}"
    logs = inputs.parent / f"log-{n}"
    logs.mkdir()
    spans_path = logs / "spans.json"  # outside the output directory
    head = [str(HERE / "tracing.py"), str(spans_path)] if traced else FAULTGRAPH
    before = reference_s()
    code, wall, usage = spawn([*head, *command(w, inputs, out)], logs / "stdout", logs / "stderr")
    speed = 2 * REF_S / (before + reference_s())
    problems = [] if code == 0 else [f"exit code {code}: {(logs / 'stderr').read_text()[-300:]}"]
    stdout = (logs / "stdout").read_text()
    if code == 0 and w.kind == "fit":
        problems += check.check_fit(stdout, samples, oracle)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
    elif code == 0:
        problems += check.check_report(out, oracle)
        digest = check.digest(out)
    else:
        digest = ""
    per_layer = {}
    if traced and spans_path.exists():
        per_layer = tracing.layer_metrics(json.loads(spans_path.read_text())["spans"], wall)
    elif traced:
        problems.append("traced run wrote no spans")
    run = Run(wall, wall * speed, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, problems, digest)
    return run, per_layer


def reference_s() -> float:
    """Median time of three runs of fixed work like faultgraph's: a dict of
    tuple and string keys built in pure Python, and a NumPy sort and unique
    over an array of a few MB. The yardstick for how fast the machine runs
    such code right now."""
    values = (np.arange(REF_LOOP * 4) * 7919 % 100_003).astype(float)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(REF_LOOP):
            table[i * 7919 % 100_003, str(i)] = i * i
        sum(table.values())
        for _ in range(10):
            np.unique(values)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fresh_import_s() -> float:
    """``import faultgraph.cli`` timed inside a fresh interpreter."""
    probe = "import time; t = time.perf_counter(); import faultgraph.cli; print(time.perf_counter() - t)"
    out, err = WORK / f"import-{os.getpid()}.out", WORK / f"import-{os.getpid()}.err"
    try:
        code, _, _ = spawn(["-c", probe], out, err)
        if code != 0:
            raise RuntimeError(f"import probe exited {code}: {err.read_text()[-300:]}")
        return float(out.read_text())
    finally:
        out.unlink(missing_ok=True)
        err.unlink(missing_ok=True)


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------


def tail_note(values: list[float]) -> str:
    """The highest percentile with at least ten runs beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"no percentile has 10 runs beyond it with {n} runs"
    k = n - 10  # runs at or below the percentile
    return f"p{100 * k // n} {sorted(values)[k - 1]:.4f} ({n - k} runs beyond it)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "faultgraph" / "cli.py").is_file():
        print(f"perfbench: no faultgraph sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    info = environment()

    # build: byte-compile once, outside every timed window; a failure here
    # shows again in the runs' output checks
    WORK.mkdir(parents=True, exist_ok=True)
    build_log = WORK / f"build-{os.getpid()}.log"
    code, _, _ = spawn(["-m", "compileall", "-q", str(SRC)], build_log, build_log)
    if code != 0:
        print(f"perfbench: byte-compiling {SRC} failed:\n{build_log.read_text()[-1000:]}", file=sys.stderr)
    build_log.unlink()

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return measure(args, w, info, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, w: Workload, info: dict, run_dir: Path) -> int:
    problems: list[str] = []
    setup_s, input_digests = [], set()
    i = 0
    before = reference_s()
    while i < SETUPS or sum(setup_s) < SETUP_S:
        inputs = run_dir / f"setup-{i}" / "in"
        start = time.perf_counter()
        oracle = setup(w, args.seed, inputs)
        setup_s.append(time.perf_counter() - start)
        input_digests.add(check.digest(inputs))
        i += 1
    setup_speed = 2 * REF_S / (before + reference_s())
    if len(input_digests) != 1:
        problems.append("the same seed generated different inputs")
    samples = None
    if w.kind == "fit":
        samples = [float(x) for x in (inputs / "samples.txt").read_text().split()]

    plain: list[Run] = []
    traced: list[tuple[Run, dict]] = []
    imports = [fresh_import_s() for _ in range(IMPORTS)] if args.trace else []
    start = time.perf_counter()
    while True:
        plain.append(run_once(w, inputs, oracle, samples, len(plain) + len(traced), traced=False)[0])
        if args.trace:
            traced.append(run_once(w, inputs, oracle, samples, len(plain) + len(traced), traced=True))
        enough = len(traced) >= MIN_TRACED if args.trace else len(plain) >= MIN_RUNS
        if enough and time.perf_counter() - start >= args.seconds:
            break

    runs = plain + [r for r, _ in traced]
    failed = sum(1 for r in runs if r.problems)
    digests = {r.digest for r in runs if not r.problems}
    if len(digests) > 1:
        problems.append(f"runs gave {len(digests)} different output digests")
    for r in runs:
        problems += r.problems
    walls = [r.wall_s for r in plain]

    lines = [
        f"workload={args.workload} seed={args.seed} trace={args.trace} " + json.dumps(info),
        f"output sha256 {sorted(digests)[0] if digests else '-'} ({len(runs)} runs)",
        f"fail_frac {failed}/{len(runs)} = {failed / len(runs):.4f}"
        " (runs with a nonzero exit or a failed check / runs attempted)",
    ]
    if args.trace:
        # the layer figures all come from one traced run, the one with the
        # median wall time, so that they add up to its wall time
        median_run, values = sorted(traced, key=lambda t: t[0].wall_s)[(len(traced) - 1) // 2]
        values["cli.import_s"] = statistics.median(imports)
        values["cli.cpu_s"] = statistics.median(r.cpu_s for r in plain)
        # each traced run follows an untraced one; pairing them cancels most
        # of the machine's drift between the two
        values["trace.overhead_s"] = statistics.median(t.wall_s - p.wall_s for p, (t, _) in zip(plain, traced))
        if values["trace.unattributed_s"] < 0:
            problems.append("layer self times exceed the traced wall time")
        lines.append(
            f"traced wall {median_run.wall_s:.4f} s (median of {len(traced)} traced runs)"
            f" = layer self times {sum(values[n] for n in tracing.TIMES):.4f} s"
            f" + unattributed {values['trace.unattributed_s']:.4f} s;"
            f" trace overhead {values['trace.overhead_s']:.4f} s (median over {len(traced)} traced/untraced pairs)"
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        scaled = [r.scaled_s for r in plain]
        rss = [r.rss_mb for r in plain]
        setup_median = statistics.median(setup_s)
        metrics = {
            "wall_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "setup_s": {"value": setup_median * setup_speed, "unit": "s"},
        }
        lines += [
            f"wall_s median {metrics['wall_s']['value']:.4f} s at reference speed over {len(scaled)} runs;"
            f" {tail_note(scaled)}; as measured: median {statistics.median(walls):.4f} s, runs "
            + " ".join(f"{x:.4f}" for x in walls),
            f"peak_rss_mb median {metrics['peak_rss_mb']['value']:.2f} MB over {len(rss)} runs; max {max(rss):.2f}",
            f"setup_s median {metrics['setup_s']['value']:.4f} s at reference speed over {len(setup_s)} set-ups;"
            f" as measured: median {setup_median:.4f} s, min {min(setup_s):.4f} max {max(setup_s):.4f}",
            f"machine speed against the reference: {1 / setup_speed:.3f} in set-up, "
            + " ".join(f"{r.wall_s / r.scaled_s:.3f}" for r in plain)
            + " around the runs (1 = reference; higher is slower)",
        ]
    lines += [f"problem: {p}" for p in problems[:10]]
    print("\n".join(lines))
    result = {"correct": not problems, "attempted": len(runs), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.cpu_s", "s"),
    ("config.load_s", "s"),
    ("javaparse.parse_s", "s"),
    ("javaparse.files", "count"),
    ("javaparse.failed", "count"),
    ("javaparse.kb_per_s", "KB/s"),
    ("facts.scan_s", "s"),
    ("facts.scans_per_file", "ratio"),
    ("facts.load_s", "s"),
    ("facts.dump_s", "s"),
    ("resolve.resolve_s", "s"),
    ("resolve.classes", "count"),
    ("graphs.build_s", "s"),
    ("graphs.query_s", "s"),
    ("graphs.queries", "count"),
    ("graphs.class_edges", "count"),
    ("graphs.cu_edges", "count"),
    ("metrics.compute_s", "s"),
    ("bugs.log_parse_s", "s"),
    ("bugs.log_reads", "count"),
    ("bugs.commits", "count"),
    ("bugs.registry_s", "s"),
    ("bugs.ledger_s", "s"),
    ("bugs.links", "count"),
    ("tailstats.fit_s", "s"),
    ("tailstats.fits", "count"),
    ("tailstats.candidates", "count"),
    ("tailstats.ccdf_s", "s"),
    ("tailstats.corr_s", "s"),
    ("evolution.evolve_s", "s"),
    ("pipeline.build_self_s", "s"),
    ("pipeline.write_s", "s"),
    ("pipeline.files_written", "count"),
    ("pipeline.bytes_written", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
]


if __name__ == "__main__":
    sys.exit(main())
