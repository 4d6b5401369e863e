"""Exception taxonomy shared by all xldv modules.

``cli.main`` maps these onto exit codes and the category of its one
``xldv: error: <category>: <message>`` line: ConfigError (which includes a
bad command line) -> 1 ``config``; DataError (and subclasses) and
InvalidArgumentError -> 2 ``data``; NumericError -> 3 ``numeric``; any other
XldvError (DegenerateInputError, StateError) -> 2 ``internal``.
"""


class XldvError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(XldvError, ValueError):
    """A caller-supplied value violates an operation's preconditions."""


class DegenerateInputError(XldvError, ValueError):
    """Input is structurally valid but numerically degenerate (e.g. zero vector)."""


class StateError(XldvError, RuntimeError):
    """Operation called in the wrong order (e.g. backward before forward)."""


class DataError(XldvError):
    """A required artifact is missing, unreadable, or inconsistent."""


class FormatError(DataError):
    """A serialized file is malformed.

    ``offset`` is the byte offset where parsing failed; ``record`` names the
    failing record when known; ``path`` is the file. It pickles whole (a
    worker process raises it in the parent), as every error here does.
    """

    def __init__(self, message, offset=None, record=None, path=None):
        detail = message if path is None else f"{path}: {message}"
        if record is not None:
            detail += f" (record {record!r})"
        if offset is not None:
            detail += f" at byte offset {offset}"
        super().__init__(detail)
        self.offset = offset
        self.record = record
        self.path = path


class NumericError(XldvError, ArithmeticError):
    """A computation produced non-finite values or lost positive definiteness."""


class ConfigError(XldvError, ValueError):
    """Configuration file or override is invalid.

    ``line`` is the 1-based line number in the config file when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
