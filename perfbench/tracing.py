"""Traced faultgraph run and the per-layer metrics derived from it.

As a script, ``python3 perfbench/tracing.py SPANS.json ARGS...`` runs
``faultgraph ARGS...`` in this process with the public functions of every
layer wrapped, keeps one span (name, parent, start, end) per call in memory,
and writes them to SPANS.json when the command ends. A function is rebound
in every module namespace that holds it, so calls through ``from ... import``
bindings (``cli``, ``pipeline``) and through re-exports (``scan_source`` is
reached as both ``facts.scan_source`` and ``javaparse.scan_source``) are all
seen. Nothing inside faultgraph is changed.

Imported, the module only reads span files; it never imports faultgraph.
"""

import functools
import inspect
import json
import os
import sys
import time

# layer -> wrapped functions ("Class.method" for methods)
WRAPPED = {
    "cli": ("main",),
    "config": ("load_config",),
    "javaparse": ("parse_corpus_dir", "parse_compilation_unit"),
    "facts": ("scan_source", "count_loc", "load_facts_file", "dump_facts_file"),
    "resolve": ("resolve_type_references",),
    "graphs": (
        "build_class_graph",
        "build_cu_graph",
        "ClassGraph.out_neighbors",
        "CUGraph.out_edges",
        "CUGraph.in_edges",
    ),
    "metrics": ("compute_metrics",),
    "bugs": ("parse_commit_log", "load_issue_registry", "build_bug_ledger"),
    "tailstats": ("fit_power_law_tail", "ccdf", "pearson", "chi_square_independence"),
    "evolution": ("classify_cus", "family_stats", "family_significance", "fractional_changes"),
    "pipeline": (
        "cmd_analyze",
        "cmd_extract",
        "build_release",
        "load_release_facts",
        "attach_ledger",
        "write_facts",
        "write_graphs",
        "write_metrics",
        "write_bugs",
        "write_ccdfs",
        "write_tail_fits",
        "write_correlations",
        "write_evolution",
        "write_table",
    ),
}

# span name -> the per-layer time its self time adds to; spans not listed
# (cli.main) fall into trace.unattributed_s with interpreter start-up,
# imports and argument parsing
SELF_TIME = {
    "config.load_config": "config.load_s",
    "javaparse.parse_corpus_dir": "javaparse.parse_s",
    "javaparse.parse_compilation_unit": "javaparse.parse_s",
    "facts.scan_source": "facts.scan_s",
    "facts.count_loc": "facts.scan_s",
    "facts.load_facts_file": "facts.load_s",
    "facts.dump_facts_file": "facts.dump_s",
    "resolve.resolve_type_references": "resolve.resolve_s",
    "graphs.build_class_graph": "graphs.build_s",
    "graphs.build_cu_graph": "graphs.build_s",
    "graphs.ClassGraph.out_neighbors": "graphs.query_s",
    "graphs.CUGraph.out_edges": "graphs.query_s",
    "graphs.CUGraph.in_edges": "graphs.query_s",
    "metrics.compute_metrics": "metrics.compute_s",
    "bugs.parse_commit_log": "bugs.log_parse_s",
    "bugs.load_issue_registry": "bugs.registry_s",
    "bugs.build_bug_ledger": "bugs.ledger_s",
    "tailstats.fit_power_law_tail": "tailstats.fit_s",
    "tailstats.ccdf": "tailstats.ccdf_s",
    "tailstats.pearson": "tailstats.corr_s",
    "tailstats.chi_square_independence": "tailstats.corr_s",
    "evolution.classify_cus": "evolution.evolve_s",
    "evolution.family_stats": "evolution.evolve_s",
    "evolution.family_significance": "evolution.evolve_s",
    "evolution.fractional_changes": "evolution.evolve_s",
}
SELF_TIME.update(
    {f"pipeline.{fn}": "pipeline.write_s" for fn in WRAPPED["pipeline"] if fn.startswith("write_")}
)
SELF_TIME.update(
    {f"pipeline.{fn}": "pipeline.build_self_s" for fn in WRAPPED["pipeline"] if not fn.startswith("write_")}
)
TIMES = sorted(set(SELF_TIME.values()))


# --------------------------------------------------------------------------
# In the traced process
# --------------------------------------------------------------------------


def _bound(fn, args, kwargs, name: str, default=None):
    return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name, default)


def _fit_input(fn, args, kwargs, result):
    return {
        "samples": _bound(fn, args, kwargs, "samples"),
        "x_min": _bound(fn, args, kwargs, "x_min"),
        "min_tail": _bound(fn, args, kwargs, "min_tail", 50),
    }


def _sized(attr: str | None = None):
    """Size of a call's result, or None when the call raised."""
    return lambda fn, a, k, r: None if r is None else len(getattr(r, attr) if attr else r)


# span name -> what to keep from a call, taken after its span has closed.
# Per-file calls read their positional arguments directly (faultgraph passes
# them positionally) to keep the cost charged to the caller's span small.
INFO = {
    "javaparse.parse_compilation_unit": lambda fn, a, k, r: len(a[0]),
    "resolve.resolve_type_references": _sized("classes"),
    "graphs.build_class_graph": _sized("edges"),
    "graphs.build_cu_graph": _sized("weights"),
    "bugs.parse_commit_log": _sized(),
    "bugs.build_bug_ledger": _sized("links"),
    "tailstats.fit_power_law_tail": _fit_input,
    "pipeline.write_table": lambda fn, a, k, r: str(a[0]),
    "facts.dump_facts_file": lambda fn, a, k, r: str(a[1]),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, raised, info]
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock, info = self.spans, self.stack, time.perf_counter, INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, False, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[3] = clock()
                stack.pop()
                if info is not None:
                    rec[5] = info(fn, args, kwargs, result)

        return traced

    def install(self) -> None:
        """Rebind each wrapped function wherever a faultgraph module holds it."""
        modules = [m for n, m in sys.modules.items() if n == "faultgraph" or n.startswith("faultgraph.")]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"faultgraph.{layer}"]
            for qual in names:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, attr, self.wrap(f"{layer}.{qual}", getattr(cls, attr)))
                    continue
                original = getattr(home, qual)
                wrapped = self.wrap(f"{layer}.{qual}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def dump(self, path: str) -> None:
        """Resolve the kept call inputs to counts, then write the spans."""
        import numpy as np

        for rec in self.spans:
            if rec[0] == "tailstats.fit_power_law_tail":
                inp = rec[5]
                if inp["x_min"] is not None:
                    rec[5] = 0
                    continue
                arr = np.sort(np.asarray(list(inp["samples"]), dtype=float))
                need = max(int(inp["min_tail"]), 2)
                values = np.unique(arr)
                rec[5] = int(np.count_nonzero(arr.size - np.searchsorted(arr, values, side="left") >= need))
            elif rec[0] in ("pipeline.write_table", "facts.dump_facts_file") and rec[5] is not None:
                rec[5] = [rec[5], os.path.getsize(rec[5]) if os.path.exists(rec[5]) else 0]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def traced_main(spans_path: str, argv: list[str]) -> int:
    import faultgraph.cli

    tracer = Tracer()
    tracer.install()
    try:
        return faultgraph.cli.main(argv)
    finally:
        tracer.dump(spans_path)


# --------------------------------------------------------------------------
# In the benchmark process
# --------------------------------------------------------------------------


def layer_metrics(spans: list[list], traced_wall: float) -> dict[str, float]:
    """Per-layer self times and counts from one traced run.

    A span's self time is its duration minus its children's; calls are
    sequential, so children never overlap. ``trace.unattributed_s`` is the
    traced wall time left after every layer's self time.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: 0.0 for name in TIMES}
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    failed = 0
    parse_wall = 0.0
    for (name, _, start, end, raised, info), kids in zip(spans, child):
        if name in SELF_TIME:
            out[SELF_TIME[name]] += (end - start) - kids
        count[name] = count.get(name, 0) + 1
        if isinstance(info, (int, float)):
            total[name] = total.get(name, 0) + info
        if name == "javaparse.parse_compilation_unit" and raised:
            failed += 1
        if name == "javaparse.parse_corpus_dir":
            parse_wall += end - start
    files = count.get("javaparse.parse_compilation_unit", 0)
    scans = count.get("facts.scan_source", 0)
    written = [info for name, *_, info in spans if name in ("pipeline.write_table", "facts.dump_facts_file")]
    out.update(
        {
            "javaparse.files": files,
            "javaparse.failed": failed,
            "javaparse.kb_per_s": total.get("javaparse.parse_compilation_unit", 0) / 1024 / parse_wall
            if parse_wall
            else 0.0,
            "facts.scans_per_file": scans / files if files else 0.0,
            "resolve.classes": total.get("resolve.resolve_type_references", 0),
            "graphs.queries": sum(
                count.get(f"graphs.{q}", 0)
                for q in ("ClassGraph.out_neighbors", "CUGraph.out_edges", "CUGraph.in_edges")
            ),
            "graphs.class_edges": total.get("graphs.build_class_graph", 0),
            "graphs.cu_edges": total.get("graphs.build_cu_graph", 0),
            "bugs.log_reads": count.get("bugs.parse_commit_log", 0),
            "bugs.commits": total.get("bugs.parse_commit_log", 0),
            "bugs.links": total.get("bugs.build_bug_ledger", 0),
            "tailstats.fits": count.get("tailstats.fit_power_law_tail", 0),
            "tailstats.candidates": total.get("tailstats.fit_power_law_tail", 0),
            "pipeline.files_written": len(written),
            "pipeline.bytes_written": sum(size for _, size in written),
            "trace.unattributed_s": traced_wall - sum(out[name] for name in TIMES),
        }
    )
    return out


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1], sys.argv[2:]))
