"""Exception taxonomy: one class per exit code of the command line, plus two leaves.

Each class carries the exit code `bernreg.cli.main` returns for it, and
the error message is the one line it prints. DataError (3) is malformed
or unusable input, NumericalError (4) a numerical procedure that failed,
and MismatchError (5) artifacts that do not belong together. Usage
problems are ValueErrors and exit 2. Two leaves are told apart by their
callers: CorruptChainFile carries the byte offset of the damage, and
summarize catches Degenerate to report constant draws.
"""


class BernregError(Exception):
    """Base class for every error raised by this package.

    Subclasses set `exit_code`; the base keeps Python's own code for an
    uncaught error, though nothing raises it directly.
    """

    exit_code = 1


class DataError(BernregError):
    """Input data is malformed or unusable."""

    exit_code = 3


class NumericalError(BernregError):
    """A numerical procedure failed or was asked for something unstable."""

    exit_code = 4


class MismatchError(BernregError):
    """Artifacts that do not belong together were combined."""

    exit_code = 5


class CorruptChainFile(DataError):
    """A stored fit could not be read back; carries the byte offset."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class Degenerate(NumericalError):
    """All samples are identical; the diagnostic is undefined."""
