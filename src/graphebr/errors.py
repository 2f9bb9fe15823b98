"""Exception taxonomy shared across the package, the integer-field check
that the config dataclasses share, the node-id array check, and the
generator-seed check."""

import numbers
import operator
from dataclasses import fields
from typing import get_args, get_type_hints

import numpy as np


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class GraphParseError(ValidationError):
    """A graph or feature file is malformed at a specific line."""

    def __init__(self, path, line_number, message):
        self.path = str(path)
        self.line_number = int(line_number)
        super().__init__(f"{path}:{line_number}: {message}")


class ShapeError(ValidationError):
    """Operand shapes do not conform to an operation's shape rule."""


class DomainError(ValidationError):
    """A value lies outside the mathematical domain of an operation."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values."""


class SkipExample(Exception):
    """A sampled training example is unusable; the caller should redraw."""


def _integral(cls) -> bool:
    return issubclass(cls, numbers.Integral) and not issubclass(cls, bool)


def is_integer(value) -> bool:
    """An integer, numpy's included, that is not a bool."""
    return _integral(type(value))


def integer_array(values, what: str) -> np.ndarray:
    """`values` as an int64 array, refusing any element that is not an
    integer by `is_integer` (a bool, a float, a string): nothing is cast.

    An integer-typed numpy array, or a flat list of Python ints, passes as
    it is; any other input is checked once per distinct element type.
    """
    if isinstance(values, list) and set(map(type, values)) <= {int}:
        return np.array(values, dtype=np.int64)
    raw = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if raw.dtype.kind not in "iu" and not all(map(_integral, set(map(type, raw.flat)))):
        raise ValidationError(f"{what} must be integers")
    return np.ascontiguousarray(raw, dtype=np.int64)


def require_seed(value, where: str) -> None:
    """Reject a generator seed that is not a non-negative integer."""
    if not is_integer(value) or value < 0:
        raise ValidationError(f"{where}: rng_seed must be a non-negative integer, got {value!r}")


def require_integer_fields(obj, where: str) -> None:
    """Check every `int`, `int | None` and `tuple[int, ...]` field of a
    dataclass instance.

    A value that is not an integer, such as 2.5 or True, raises one
    ValidationError that names the field; nothing is rounded. Accepted
    values are stored as Python ints, and a sequence as a tuple.
    """
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        hint, value = hints[f.name], getattr(obj, f.name)
        if type(None) in get_args(hint):
            if value is None:
                continue
            (hint,) = set(get_args(hint)) - {type(None)}
        if hint is int:
            if not is_integer(value):
                raise ValidationError(f"{where}: {f.name} must be an integer")
            value = operator.index(value)
        elif hint == tuple[int, ...]:
            if not isinstance(value, (list, tuple)) or not all(map(is_integer, value)):
                raise ValidationError(f"{where}: {f.name} must be a list of integers")
            value = tuple(map(operator.index, value))
        else:
            continue
        object.__setattr__(obj, f.name, value)
