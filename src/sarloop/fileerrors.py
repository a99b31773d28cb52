"""Malformed-file errors that name the file they were read from."""

import contextlib
import functools


@contextlib.contextmanager
def naming(path):
    """Make each parse or validation error raised in the block a ``ValueError``
    whose message starts with ``path`` (the CLI prints it)."""
    try:
        yield
    except ValueError as exc:
        if type(exc) is ValueError and str(exc).startswith(str(path)):
            raise
        raise ValueError(f"{path}: {exc}") from exc


def names_its_file(reader):
    """Make ``reader(path, ...)`` raise its errors ``naming`` its file."""

    @functools.wraps(reader)
    def read(path, *args, **kwargs):
        with naming(path):
            return reader(path, *args, **kwargs)

    return read
