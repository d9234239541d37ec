"""Which lines of ``src/faultgraph`` does tier-1 leave unrun?

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer,
then prints each executable line of ``src/faultgraph`` that no test ran.
It exits 1 if one of them is not on ``ALLOWED``, or if an entry of
``ALLOWED`` names no unreached line (a stale entry), and 0 otherwise;
pytest's own verdict is printed but does not decide it. pytest does not
collect this file, so tier-1 does not run it. From the repository root:

    python tests/reach.py [extra pytest arguments]

Only this process is traced: a line that a test reaches in a subprocess
counts as unreached. Tracing makes tier-1 about twice as slow.
"""

import os
import pathlib
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "faultgraph"

# Unreached lines that may stay so, by file and stripped source text, each
# with its reason.
ALLOWED = {
    ("cli.py", "sys.exit(main())"): (
        "the __main__ guard: tests call main() in process, and run `python -m faultgraph.cli` only in subprocesses"
    ),
    ("javaparse.py", 'raise ParseError("class declarations nested too deeply") from None'): (
        "tests/test_cli.py::test_deep_class_nesting_is_a_failed_file reaches it, but the RecursionError that leads"
        " here is raised first in a call of the tracer, and Python then removes the tracer"
    ),
    ("tailstats.py", 'raise RuntimeError(f"root search failed to converge after {_ROOT_STEPS} steps, value is {x}")'): (
        "the one internal-fault guard: no input is known to reach it, but no bound on the steps every input"
        " meets is proven; the longest search found, on 3e7 ones and one 1e308, takes 30 of its 100 steps"
    ),
}


def executable_lines(path: pathlib.Path) -> set[int]:
    """The lines of the module at ``path`` that hold bytecode."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's code starts with an instruction at line 0
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def tracer_into(hits: dict[str, set[int]]):
    """A global trace function that adds each line run in a file of ``hits``
    to that file's set, and traces no frame of any other file. Each file's
    local trace function is made once: one made per call would be a
    reference cycle, and the tests that bound a run's cyclic garbage would
    count it."""

    def adding_to(lines: set[int]):
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    local = {name: adding_to(lines) for name, lines in hits.items()}

    def trace(frame, event, arg):
        return local.get(frame.f_code.co_filename)

    return trace


class Retrace:
    """Installs the tracer again before each test: Python removes a trace
    function that raises, as one does when a test runs out of stack."""

    def __init__(self, trace):
        self.trace = trace

    def pytest_runtest_setup(self, item):
        sys.settrace(self.trace)


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hits = {name: set() for name in files}
    trace = tracer_into(hits)
    sys.settrace(trace)
    try:
        verdict = pytest.main(["-q", "--continue-on-collection-errors", *argv], plugins=[Retrace(trace)])
    finally:
        sys.settrace(None)
    print(f"\npytest exit status: {int(verdict)}")

    unreached = allowed = 0
    stale = set(ALLOWED)
    for name, path in files.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - hits[name]):
            key = (path.name, source[line - 1].strip())
            reason = ALLOWED.get(key)
            stale.discard(key)
            if reason is None:
                unreached += 1
                print(f"UNREACHED {path.relative_to(ROOT)}:{line}: {key[1]}")
            else:
                allowed += 1
                print(f"allowed   {path.relative_to(ROOT)}:{line}: {reason}")
    for file, text in sorted(stale):
        print(f"STALE     allow-list entry matches no unreached line: {file}: {text}")
    print(f"{unreached} unreached line(s) outside the allow-list, {allowed} allowed, {len(stale)} stale entr(ies)")
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
