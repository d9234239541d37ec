"""Command-line front end.

Subcommands: extract, graph, metrics, bugs, fit, correlate, evolve, report
(report runs the full battery). Exit codes: 0 success, 1 input error,
2 internal invariant violation.
"""

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from .config import load_config
from .errors import ConfigError, InputError
from .pipeline import (
    STAGE_STATS,
    StageFailure,
    _fmt,
    build_release,
    cmd_analyze,
    cmd_extract,
    write_bugs,
    write_ccdfs,
    write_correlations,
    write_evolution,
    write_graphs,
    write_metrics,
    write_tail_fits,
)
from .tailstats import CONTINUOUS, DISCRETE, fit_power_law_tail, pareto_samples, zeta_samples


def _out_dir(args, cfg=None) -> Path:
    if args.out is not None:
        return Path(args.out)
    if cfg is not None:
        return cfg.output_dir
    return Path("out")


def _config(args):
    if args.config is None:
        raise ConfigError("--config is required for this command")
    return load_config(args.config)


def run_extract(args) -> int:
    cfg = _config(args)
    written, failures = cmd_extract(cfg, _out_dir(args, cfg), release=args.release)
    for path in written:
        print(path)
    if failures:
        print(f"{len(failures)} file(s) skipped:", file=sys.stderr)
        for tag, path, err in failures:
            print(f"  [{tag}] {path}: {err}", file=sys.stderr)
        return 1
    return 0


def _per_release(args, writers, with_bugs: bool) -> int:
    cfg = _config(args)
    out = _out_dir(args, cfg)
    out.mkdir(parents=True, exist_ok=True)
    releases = cfg.releases if args.release is None else [cfg.release(args.release)]
    for rc in releases:
        data = build_release(cfg, rc, with_bugs=with_bugs)
        for writer in writers:
            result = writer(data, out)
            for path in result if isinstance(result, list) else [result]:
                print(path)
    return 0


def run_graph(args) -> int:
    return _per_release(args, [write_graphs], with_bugs=False)


def run_metrics(args) -> int:
    return _per_release(args, [write_metrics], with_bugs=False)


def run_bugs(args) -> int:
    return _per_release(args, [write_bugs], with_bugs=True)


def run_correlate(args) -> int:
    return _per_release(args, [write_correlations], with_bugs=True)


def _parse_synthetic(spec: str):
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError("--synthetic takes MODE:GAMMA:N[:XMIN]")
    mode = parts[0]
    if mode not in (DISCRETE, CONTINUOUS):
        raise ConfigError(f"synthetic mode must be {DISCRETE} or {CONTINUOUS}")
    try:
        gamma, n = float(parts[1]), int(parts[2])
        x_min = float(parts[3]) if len(parts) == 4 else 1.0
    except ValueError as exc:
        raise ConfigError(f"--synthetic takes MODE:GAMMA:N[:XMIN]: {exc}") from exc
    if n < 1:
        raise ConfigError(f"--synthetic needs N >= 1, got {n}")
    return mode, gamma, n, x_min


def run_fit(args) -> int:
    if args.synthetic is not None:
        mode, gamma, n, x_min = _parse_synthetic(args.synthetic)
        rng = np.random.default_rng(args.seed)
        if mode == CONTINUOUS:
            samples = pareto_samples(n, gamma, x_min, rng)
        else:
            samples = zeta_samples(n, gamma, int(x_min), rng)
        fit = fit_power_law_tail(samples, mode=mode, x_min=x_min)
        print(
            f"distribution=synthetic mode={mode} status=ok gamma={_fmt(fit.gamma)} "
            f"x_min={_fmt(fit.x_min)} ks={_fmt(fit.ks)} n_tail={fit.n_tail}"
        )
        return 0
    if args.samples is not None:
        try:
            values = [float(line) for line in Path(args.samples).read_text().split()]
        except OSError as exc:
            raise InputError(f"cannot read samples file: {exc}") from exc
        except ValueError as exc:
            raise InputError(f"samples file must hold one number per line: {exc}") from exc
        try:
            fit = fit_power_law_tail(values, mode=args.mode, x_min=args.x_min)
        except InputError as exc:
            raise StageFailure(STAGE_STATS, exc) from exc
        print(
            f"distribution={Path(args.samples).name} mode={args.mode} status=ok "
            f"gamma={_fmt(fit.gamma)} x_min={_fmt(fit.x_min)} ks={_fmt(fit.ks)} n_tail={fit.n_tail}"
        )
        return 0
    only = args.metric
    needs_bugs = only is None or only in ("bugs_per_cu", "cus_per_bug")
    return _per_release(
        args,
        [
            lambda data, out: write_ccdfs(data, out, only=only),
            lambda data, out: write_tail_fits(data, out, only=only),
        ],
        with_bugs=needs_bugs,
    )


def run_evolve(args) -> int:
    cfg = _config(args)
    if not cfg.release_pairs:
        raise ConfigError("config has no release_pairs to evolve over")
    out = _out_dir(args, cfg)
    out.mkdir(parents=True, exist_ok=True)
    data = {}
    for rc in cfg.releases:
        data[rc.tag] = build_release(cfg, rc, with_bugs=True)
    for a, b in cfg.release_pairs:
        for path in write_evolution(data[a], data[b], out):
            print(path)
    return 0


def run_report(args) -> int:
    cfg = _config(args)
    for path in cmd_analyze(cfg, _out_dir(args, cfg), release=args.release):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faultgraph",
        description="Software-graph metrics, bug mapping, and heavy-tail statistics for Java-like corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, release=True):
        p.add_argument("--config", help="pipeline config file (JSON)")
        p.add_argument("--out", help="output directory (overrides config output_dir)")
        p.add_argument("--seed", type=int, default=0, help="seed for synthetic data")
        if release:
            p.add_argument("--release", help="restrict to one release tag")

    p = sub.add_parser("extract", help="parse corpora into facts files")
    common(p)
    p.set_defaults(func=run_extract)

    p = sub.add_parser("graph", help="emit class and CU graph edge lists")
    common(p)
    p.set_defaults(func=run_graph)

    p = sub.add_parser("metrics", help="emit class and CU metric tables")
    common(p)
    p.set_defaults(func=run_metrics)

    p = sub.add_parser("bugs", help="emit per-release bug ledgers")
    common(p)
    p.set_defaults(func=run_bugs)

    p = sub.add_parser("fit", help="emit CCDFs and power-law tail fits")
    common(p)
    p.add_argument("--metric", help="restrict to one distribution (metric name, bugs_per_cu, cus_per_bug)")
    p.add_argument("--samples", help="fit a plain file of numbers instead of a release")
    p.add_argument("--mode", choices=[DISCRETE, CONTINUOUS], default=DISCRETE)
    p.add_argument("--x-min", type=float, default=None)
    p.add_argument("--synthetic", help="MODE:GAMMA:N[:XMIN] -- generate and fit synthetic samples")
    p.set_defaults(func=run_fit)

    p = sub.add_parser("correlate", help="emit metric-bug Pearson tables")
    common(p)
    p.set_defaults(func=run_correlate)

    p = sub.add_parser("evolve", help="emit family, significance, and delta-correlation reports")
    common(p, release=False)
    p.set_defaults(func=run_evolve)

    p = sub.add_parser("report", help="run the full battery")
    common(p)
    p.set_defaults(func=run_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageFailure as exc:
        print(f"faultgraph: {exc}", file=sys.stderr)
        return 1 if exc.is_input_error else 2
    except InputError as exc:
        print(f"faultgraph: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"faultgraph: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
