"""Validation helpers for config dataclasses.

A dataclass's annotations are the one statement of its fields' types:
``fits`` tests a value against one, ``check_types(self)`` in
``__post_init__`` tests every field, and ``require`` states a value check.
"""

from __future__ import annotations

import numbers
import types
import typing


def fits(hint, value) -> bool:
    """Whether ``value`` has type ``hint``; tuples are checked by length and element."""
    if isinstance(hint, types.UnionType):
        return any(fits(h, value) for h in typing.get_args(hint))
    if hint is int or hint is float:  # a bool is neither; an int is also a float
        kind = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, kind) and not isinstance(value, bool)
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(fits, args, value))
    return isinstance(value, typing.get_origin(hint) or hint)


def check_types(obj) -> None:
    """Raise ``TypeError`` naming the first field whose value does not fit its annotation."""
    for name, hint in typing.get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if not fits(hint, value):
            raise TypeError(f"{name} must be {type_name(hint)}, got {value!r}")


def type_name(hint) -> str:
    return hint.__name__ if isinstance(hint, type) else str(hint)


def require(ok: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``ok``."""
    if not ok:
        raise ValueError(message)
