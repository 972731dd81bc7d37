"""Exception taxonomy shared by all modules, and the one input reader.

The CLI maps these to exit codes: InputError -> 2, RefusalError -> 3,
InconsistencyError -> 4.
"""

from pathlib import Path


class InputError(ValueError):
    """Malformed input or violated operation precondition."""


class RefusalError(RuntimeError):
    """Operation refused: an enumeration bound would be exceeded, or the
    instance falls on a known-intractable branch."""


class InconsistencyError(RuntimeError):
    """Two methods that must agree produced different answers, or an oracle
    returned values no genuine count/Shapley oracle could produce."""


def read_input(path: str | Path, newline: str | None = None) -> str:
    """The text of an input file; one that cannot be decoded raises
    InputError naming the file.  An unreadable path raises OSError, whose
    message names it."""
    try:
        with open(path, newline=newline) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None
