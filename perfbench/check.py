"""Output checks against the generator's oracle; none of them uses faultgraph."""

import hashlib
import math
import re
from pathlib import Path


def digest(out_dir: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


def check_report(out_dir: Path, oracle: dict) -> list[str]:
    """Per-CU cu_wmc and out_links, and per-release link totals."""
    problems = []
    for tag, want in oracle["releases"].items():
        try:
            header, rows = _rows(out_dir / f"metrics-{tag}.tsv")
            wmc, out = header.index("cu_wmc"), header.index("out_links")
            got = {r[0]: [int(r[wmc]), int(r[out])] for r in rows}
            if got != want["cus"]:
                bad = sorted(set(got) ^ set(want["cus"])) or sorted(
                    p for p in got if got[p] != want["cus"][p]
                )
                problems.append(f"{tag}: cu_wmc/out_links differ from the oracle at {bad[:3]}")
            for ledger in (f"bugs-per-cu-{tag}.tsv", f"cus-per-bug-{tag}.tsv"):
                _, rows = _rows(out_dir / ledger)
                links = sum(int(r[1]) for r in rows)
                if links != want["links"]:
                    problems.append(f"{tag}: {ledger} sums to {links} links, oracle {want['links']}")
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"{tag}: unreadable output: {exc}")
    return problems


FIT_LINE = re.compile(r"gamma=(\S+) x_min=(\S+) ks=\S+ n_tail=(\d+)")


def check_fit(stdout: str, samples: list[float], oracle: dict) -> list[str]:
    """gamma equals the closed-form MLE at the reported x_min, and lies near
    the generating exponent."""
    m = FIT_LINE.search(stdout)
    if m is None:
        return [f"no fit line in output {stdout[:200]!r}"]
    gamma, x_min, n_tail = float(m.group(1)), float(m.group(2)), int(m.group(3))
    tail = [x for x in samples if x >= x_min]
    mle = 1.0 + len(tail) / math.fsum(math.log(x / x_min) for x in tail)
    problems = []
    if len(tail) != n_tail:
        problems.append(f"n_tail {n_tail} but {len(tail)} samples lie at or above x_min={x_min}")
    if abs(gamma - mle) > 1e-9:
        problems.append(f"gamma {gamma!r} differs from the closed-form MLE {mle!r} at x_min={x_min}")
    if abs(gamma - oracle["gamma"]) > 0.1:
        problems.append(f"gamma {gamma!r} is more than 0.1 from the generating {oracle['gamma']}")
    return problems
