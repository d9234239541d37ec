"""Command-line front end.

Subcommands: extract, graph, metrics, bugs, fit, correlate, evolve, report
(report runs the full battery). Exit codes: 0 success, 1 input error,
2 internal invariant violation.

This module owns the process's run-time policies:

- The cyclic garbage collector is off while a command runs (see ``main``).
- Interpreter exit collects nothing: importing this module registers
  ``gc.freeze`` with ``atexit``. Exit runs the ``atexit`` handlers and then
  several full collections over every object still tracked, some 23,000
  after this import alone. A freeze moves them all to the permanent
  generation, which no collection walks. Handlers registered before this
  import run after the freeze, and the exit status is the command's.
- BLAS runs on one thread. No command calls a BLAS routine, yet numpy's
  OpenBLAS starts a pool of worker threads on import whose idle workers
  spin and slow start-up, so ``OPENBLAS_NUM_THREADS`` is set to 1 before
  numpy is first imported, unless the environment already sets it.
- ``logging`` is imported only when a warning is given
  (``errors.warn``); ``main`` asks for warnings on stderr as
  ``LEVEL logger: message``.

Every faultgraph layer is imported here, whatever the command, so a tracer
that wraps the layers' functions finds them all in ``sys.modules``.
"""

import argparse
import atexit
import gc
import os
import sys
from functools import cache, partial
from pathlib import Path

# before the first numpy import of the process: an OpenBLAS pool that no
# command uses costs start-up time in its idle workers' busy-wait
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .config import load_config
from .errors import ConfigError, InputError, printable, read_utf8, warnings_to_stderr
from .metrics import METRIC_NAMES
from .pipeline import (
    DISTRIBUTIONS,
    STAGE_STATS,
    _fmt,
    cmd_analyze,
    cmd_extract,
    run_releases,
    stage,
    write_bugs,
    write_ccdfs,
    write_correlations,
    write_evolution,
    write_graphs,
    write_metrics,
    write_tail_fits,
)
from .tailstats import CONTINUOUS, DISCRETE, fit_power_law_tail, pareto_samples, zeta_samples

# exit's collections then walk nothing that was alive before it
atexit.register(gc.freeze)


def _out_dir(args, cfg) -> Path:
    return Path(args.out) if args.out is not None else cfg.output_dir


def _config(args):
    if args.config is None:
        raise ConfigError("--config is required for this command")
    return load_config(args.config)


def run_extract(args) -> int:
    cfg = _config(args)
    written, failures = cmd_extract(cfg, _out_dir(args, cfg), release=args.release)
    _print_paths(written)
    if failures:
        print(f"{len(failures)} file(s) skipped:", file=sys.stderr)
        for tag, path, err in failures:
            print(f"  [{tag}] {printable(path)}: {err}", file=sys.stderr)
        return 1
    return 0


def _print_paths(paths) -> int:
    for path in paths:
        print(path)
    return 0


def _run_writers(args, writers, with_bugs: bool) -> int:
    cfg = _config(args)
    out = _out_dir(args, cfg)
    return _print_paths(run_releases(cfg, out, writers, release=args.release, with_bugs=with_bugs))


# more 8-byte draws than this would span more bytes than the address space
_MAX_SYNTHETIC = sys.maxsize // 8


def _parse_synthetic(spec: str):
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError("--synthetic takes MODE:GAMMA:N[:XMIN]")
    mode = parts[0]
    if mode not in (DISCRETE, CONTINUOUS):
        raise ConfigError(f"--synthetic mode must be {DISCRETE} or {CONTINUOUS}")
    try:
        gamma, n = float(parts[1]), int(parts[2])
        x_min = float(parts[3]) if len(parts) == 4 else 1.0
    except ValueError as exc:
        raise ConfigError(f"--synthetic takes MODE:GAMMA:N[:XMIN]: {exc}") from exc
    if not 1 <= n <= _MAX_SYNTHETIC:
        raise ConfigError(f"--synthetic needs 1 <= N <= {_MAX_SYNTHETIC}, got {n}")
    return mode, gamma, n, x_min


# the flags each fit mode reads: a config's releases (the default), a
# samples file, or synthetic draws
FIT_FLAGS = {
    "config": ("config", "metric", "release", "out"),
    "samples": ("samples", "mode", "x_min"),
    "synthetic": ("synthetic", "seed"),
}


def run_fit(args) -> int:
    selected = "synthetic" if args.synthetic is not None else "samples" if args.samples is not None else "config"
    stray = [
        dest for m, dests in FIT_FLAGS.items() if m != selected for dest in dests if getattr(args, dest) is not None
    ]
    if stray:
        flags = ", ".join("--" + dest.replace("_", "-") for dest in stray)
        raise ConfigError(f"fit --{selected} cannot be combined with {flags}")
    if selected == "config":
        if args.metric not in (None, *DISTRIBUTIONS):  # rejected before any release is built
            raise ConfigError(f"unknown distribution {args.metric!r}; expected one of {', '.join(DISTRIBUTIONS)}")
        names = DISTRIBUTIONS if args.metric is None else (args.metric,)
        writers = [partial(write_ccdfs, names=names), partial(write_tail_fits, names=names)]
        return _run_writers(args, writers, with_bugs=args.metric not in METRIC_NAMES)
    with stage(STAGE_STATS):
        if selected == "synthetic":
            mode, gamma, n, x_min = _parse_synthetic(args.synthetic)
            seed = 0 if args.seed is None else args.seed
            if seed < 0:
                raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
            draw = pareto_samples if mode == CONTINUOUS else zeta_samples
            try:
                with np.errstate(over="ignore"):  # an infinite draw is rejected by the fit
                    name, samples = "synthetic", draw(n, gamma, x_min, np.random.default_rng(seed))
            except MemoryError as exc:
                raise ConfigError(f"--synthetic N={n} draws more samples than memory holds") from exc
        else:
            mode, x_min, name = args.mode or DISCRETE, args.x_min, Path(args.samples).name
            try:
                samples = [float(line) for line in read_utf8(args.samples, InputError).split()]
            except ValueError as exc:
                raise InputError(f"samples file must hold one number per line: {exc}") from exc
        fit = fit_power_law_tail(samples, mode=mode, x_min=x_min)
    print(
        f"distribution={name} mode={mode} status=ok gamma={_fmt(fit.gamma)} "
        f"x_min={_fmt(fit.x_min)} ks={_fmt(fit.ks)} n_tail={fit.n_tail}"
    )
    return 0


def run_evolve(args) -> int:
    cfg = _config(args)
    if not cfg.release_pairs:
        raise ConfigError("config has no release_pairs to evolve over")
    return _print_paths(run_releases(cfg, _out_dir(args, cfg), [], [write_evolution]))


def run_report(args) -> int:
    cfg = _config(args)
    return _print_paths(cmd_analyze(cfg, _out_dir(args, cfg), release=args.release))


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1: a bad command line is
    input, and argparse's own code 2 is reserved for internal faults."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: its hundreds of
    argparse objects hold one another in cycles, and parsing does not change
    it."""
    parser = _ArgumentParser(
        prog="faultgraph",
        description="Software-graph metrics, bug mapping, and heavy-tail statistics for Java-like corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, release=True):
        p.add_argument("--config", help="pipeline config file (JSON)")
        p.add_argument("--out", help="output directory (overrides config output_dir)")
        if release:
            p.add_argument("--release", help="restrict to one release tag")

    p = sub.add_parser("extract", help="parse corpora into facts files")
    common(p)
    p.set_defaults(func=run_extract)

    # a release subcommand is a choice of writers, looked up when it runs
    p = sub.add_parser("graph", help="emit class and CU graph edge lists")
    common(p)
    p.set_defaults(func=lambda args: _run_writers(args, [write_graphs], with_bugs=False))

    p = sub.add_parser("metrics", help="emit class and CU metric tables")
    common(p)
    p.set_defaults(func=lambda args: _run_writers(args, [write_metrics], with_bugs=False))

    p = sub.add_parser("bugs", help="emit per-release bug ledgers")
    common(p)
    p.set_defaults(func=lambda args: _run_writers(args, [write_bugs], with_bugs=True))

    p = sub.add_parser("fit", help="emit CCDFs and power-law tail fits")
    common(p)
    p.add_argument("--metric", help=f"restrict to one distribution ({', '.join(DISTRIBUTIONS)})")
    p.add_argument("--samples", help="fit a plain file of numbers instead of a release")
    p.add_argument("--mode", choices=[DISCRETE, CONTINUOUS], help=f"mode for --samples (default {DISCRETE})")
    p.add_argument("--x-min", type=float, help="fixed x_min for --samples")
    p.add_argument("--synthetic", help="MODE:GAMMA:N[:XMIN] -- generate and fit synthetic samples")
    p.add_argument("--seed", type=int, help="seed for --synthetic (default 0)")
    p.set_defaults(func=run_fit)

    p = sub.add_parser("correlate", help="emit metric-bug Pearson tables")
    common(p)
    p.set_defaults(func=lambda args: _run_writers(args, [write_correlations], with_bugs=True))

    p = sub.add_parser("evolve", help="emit family, significance, and delta-correlation reports")
    common(p, release=False)
    p.set_defaults(func=run_evolve)

    p = sub.add_parser("report", help="run the full battery")
    common(p)
    p.set_defaults(func=run_report)

    return parser


def main(argv=None) -> int:
    """Run one command. The cyclic garbage collector is off while it runs:
    a release keeps hundreds of thousands of small acyclic objects alive,
    which every full collection would walk again, and a command leaves
    little cyclic garbage. The collector's state is restored on return."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        warnings_to_stderr()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"faultgraph: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"faultgraph: internal error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
