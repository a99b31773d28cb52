"""Malformed-file errors that name the file they were read from."""

import functools


def names_its_file(reader):
    """Make each parse or validation error of ``reader(path, ...)`` a
    ``ValueError`` whose message starts with ``path`` (the CLI prints it)."""

    @functools.wraps(reader)
    def read(path, *args, **kwargs):
        try:
            return reader(path, *args, **kwargs)
        except ValueError as exc:
            if type(exc) is ValueError and str(exc).startswith(str(path)):
                raise
            raise ValueError(f"{path}: {exc}") from exc

    return read
