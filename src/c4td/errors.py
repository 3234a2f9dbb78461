"""Exception types, and the one value rule: ``check_fields`` checks every scalar argument
and config field, and the JSON readers test values with its ``is_kind`` and ``is_number``."""

import numbers
import reprlib
import sys


class C4Error(Exception):
    """Base class for errors raised by this package."""


class InputError(C4Error, ValueError):
    """Caller passed arguments that violate a precondition."""


class FormatError(C4Error, ValueError):
    """Serialized payload does not match the expected schema."""


class ParseError(FormatError):
    """Malformed line in a line-oriented file. Carries the line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class NumericalError(C4Error, RuntimeError):
    """An iterative routine failed to converge or lost required structure."""


# float and int come first in each isinstance tuple: they match without an ABC's slower check
def is_number(value) -> bool:
    """An integer or a real number, finite or not; a bool is neither."""
    return isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool)


# What each kind accepts and how a message names it; a "X | None" kind also takes None.
# A finite number is one a float can hold: an integer literal past 1.8e308 is not.
_KINDS = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: is_number(v) and abs(v) <= sys.float_info.max, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "widths": (lambda v: isinstance(v, tuple) and len(v) > 0
               and all(_is_int(w) and w > 0 for w in v),
               "a nonempty tuple of positive integers"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "any": (lambda v: True, "anything"),  # for a row whose rule tests the class
}


def is_kind(kind: str, value) -> bool:
    """Whether ``value`` is of the field kind ``kind``, such as "int" or "bool"."""
    return _KINDS[kind][0](value)


def check_fields(values: dict, schema: dict[str, tuple], where: str = "") -> None:
    """Raise InputError, naming ``where + name``, for the first value breaking its row.

    ``values`` is a dataclass's ``vars``, a function's ``locals()`` on entry or
    a config section. A row is ``(kind,)`` or ``(kind, rule, wording)``; names
    that only one side has are skipped.
    """
    for name, row in schema.items():
        value = values.get(name)
        if name not in values or value is None and row[0].endswith(" | None"):
            continue
        check, noun = _KINDS[row[0].removesuffix(" | None")]
        if not check(value):
            raise InputError(f"{where}{name} must be {noun}, got {reprlib.repr(value)}")
        if len(row) > 1 and not row[1](value):
            raise InputError(f"{where}{name} {row[2]}, got {reprlib.repr(value)}")


def at_least(low: int) -> tuple:
    return ("int", lambda v: v >= low, f"must be at least {low}")


POSITIVE = ("float", lambda v: v > 0, "must be positive")
NONNEGATIVE = ("float", lambda v: v >= 0, "must be nonnegative")
DISCOUNT = ("float", lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")


def check_json_numbers(value, message: str) -> None:
    """Raise FormatError(message) unless every scalar inside the JSON lists ``value`` is a number.

    A bool or a numeric string is none, though numpy would make it a float.
    A ``value`` that is not a list is left to the caller's shape check.
    """
    pending = [value] if isinstance(value, list) else []
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif not is_number(item):
            raise FormatError(f"{message}; found {item!r}")
