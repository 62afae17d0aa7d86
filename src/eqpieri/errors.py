"""Shared error types, and the integer check of input.

InputError means the caller handed us something invalid (CLI exit code 1).
ConsistencyError means an internal invariant failed, i.e. a bug or a broken
convention, never a user mistake (CLI exit code 2).
"""

import operator


class InputError(ValueError):
    pass


class ConsistencyError(RuntimeError):
    pass


def as_int(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{what} = {value!r} is not an integer") from None
