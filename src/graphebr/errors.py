"""Exception taxonomy shared across the package, and the integer-field
check that the config dataclasses share."""

import numbers
import operator
from dataclasses import fields
from typing import get_args, get_type_hints


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


def is_integer(value) -> bool:
    """An integer, numpy's included, that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
