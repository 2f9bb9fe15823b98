"""Exception taxonomy shared across the package, the field-type check
that the config dataclasses share, the node-id array check, and the
generator-seed check."""

import numbers
import operator
from dataclasses import fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class GraphParseError(ValidationError):
    """A text file (edges, features, an embedding table or a query list)
    is malformed at a specific line; the text reads `PATH: line N: ...`."""

    def __init__(self, path, line_number, message):
        self.path = str(path)
        self.line_number = int(line_number)
        super().__init__(f"{path}: line {line_number}: {message}")


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


def _list_of(check):
    return lambda value: isinstance(value, (list, tuple)) and all(map(check, value))


# What a field of each annotation accepts: (what an error calls it, check)
FIELD_TYPES = {
    int: ("an integer", is_integer),
    float: ("a real number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple[str, ...]: ("a list of strings", _list_of(lambda v: isinstance(v, str))),
    tuple[int, ...]: ("a list of integers", _list_of(is_integer)),
}


def require_field_types(obj, where: str) -> None:
    """Check every field of a dataclass instance against its annotation: a
    FIELD_TYPES key or a dataclass, either of them `| None`.

    A wrong type (2.5 or True for an int, True or "x" for a float, a bare
    string for a list) raises one ValidationError naming the field; nothing
    is rounded or parsed. Integers are stored as Python ints and sequences
    as tuples. Finiteness and range checks stay with each class.
    """
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        hint, value = hints[f.name], getattr(obj, f.name)
        if type(None) in get_args(hint):
            if value is None:
                continue
            (hint,) = set(get_args(hint)) - {type(None)}
        if is_dataclass(hint):
            kind, ok = f"a {hint.__name__}", lambda v: isinstance(v, hint)
        else:
            kind, ok = FIELD_TYPES[hint]
        if not ok(value):
            raise ValidationError(f"{where}: {f.name} must be {kind}")
        if hint is int:
            value = operator.index(value)
        elif get_origin(hint) is tuple:
            value = tuple(map(operator.index, value) if hint == tuple[int, ...] else value)
        object.__setattr__(obj, f.name, value)
