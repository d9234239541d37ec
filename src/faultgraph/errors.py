"""Exception types shared across the toolchain, how a kept error lets go of
its frames, the one UTF-8 reader of input files and the one writer of
output files, a name printed on one line, the limits of the JSON decoder,
the rule that splits a file into records, and the one way a warning is given.

Every error raised on bad *input* derives from InputError so the CLI can map
it to exit code 1; anything else escaping a stage is treated as an internal
fault (exit code 2).
"""

import sys
from collections.abc import Iterator


class FaultgraphError(Exception):
    """Base class for all toolchain errors."""


class InputError(FaultgraphError):
    """Problem with user-supplied data or configuration."""


class ParseError(InputError):
    """Source text outside the supported Java subset.

    Carries 1-based line/column of the offending token when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{message} ({where})"
        super().__init__(message)


class FormatError(InputError):
    """Malformed record in a structured input file (facts file, commit log, registry)."""

    def __init__(self, message: str, record: int | None = None):
        self.record = record
        if record is not None:
            message = f"record {record}: {message}"
        super().__init__(message)


class ConfigError(InputError):
    """Invalid or incomplete pipeline configuration."""


class OutputError(ConfigError):
    """An output file that cannot be written: a fault of the output path,
    not of the input a stage reads, so no stage is named."""


class EmptyInput(InputError):
    """An operation received an empty sample set."""


class InsufficientTail(InputError):
    """Too few (or degenerate) tail samples for a power-law fit."""


class DomainError(InputError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateInput(InputError):
    """Statistical input without enough variation (zero variance, length mismatch)."""


class DegenerateTable(InputError):
    """Contingency table with a zero row or column marginal."""


class EmptyFamily(InputError):
    """A CU family required to be non-empty is empty."""


class UnknownMetric(InputError):
    """Metric name not in the per-CU metric vector."""


def detached(exc: InputError) -> InputError:
    """``exc`` without its traceback and the errors it was raised from, for an
    error kept after its handler ends. Its traceback's frames would hold the
    keeper, and all the keeper's frame holds, in a cycle that only the cyclic
    collector frees, and ``cli.main`` turns that collector off."""
    exc.__traceback__ = exc.__cause__ = exc.__context__ = None
    return exc


def printable(name: str) -> str:
    """``name`` as a one-line message prints it: as it is, or as its repr if some character is not printable."""
    return name if name.isprintable() else repr(name)


def read_utf8(path, error: type[InputError]) -> str:
    r"""The text of an input file with its line endings as written, so a lone
    ``\r`` inside a record stays in it; a file that cannot be read or whose
    bytes are not UTF-8 raises ``error``."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{printable(str(path))}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    except OSError as exc:
        raise error(f"{printable(str(path))}: cannot read: {exc.strerror or exc}") from exc


def write_utf8(path, text: str) -> None:
    r"""Write an output file as UTF-8 with ``\n`` newlines; a file that cannot
    be written raises OutputError naming it."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write output file {path}: {exc.strerror or exc}") from exc


def json_limit(exc: RecursionError | ValueError) -> str:
    """Which limit ``json.loads`` hit when it raised ``exc`` rather than a JSONDecodeError."""
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    return f"an integer literal has more than {sys.get_int_max_str_digits()} digits"


def records(text: str) -> Iterator[tuple[int, str]]:
    r"""(1-based line number, line) of each non-blank record of a
    record-per-line input. A record ends at ``\n`` only, so a form feed or
    U+2028 inside a record stays in it; one trailing ``\r`` is dropped, so
    CRLF files load too."""
    for number, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if line and not line.isspace():  # the whitespace class of strip, without a copy
            yield number, line


# whether a warning goes to stderr as "LEVEL logger: message": the command
# line asks for it (``warnings_to_stderr``); a library caller's own logging
# configuration is left alone
_stderr_warnings = False


def warnings_to_stderr() -> None:
    """Give every later warning on stderr, as ``LEVEL logger: message``."""
    global _stderr_warnings
    _stderr_warnings = True


def warn(logger: str, msg: str, *args) -> None:
    """Log a warning from the logger named ``logger``, formatted from ``msg``
    and ``args`` as ``logging`` does. ``logging`` is imported here, at the
    first warning, since no command needs it otherwise; so is the stderr
    handler set up, on the stderr that exists then."""
    import logging

    if _stderr_warnings:
        logging.basicConfig(level=logging.WARNING, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger(logger).warning(msg, *args)
