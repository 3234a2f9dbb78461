"""Exception types shared across the package, and the number check of its JSON readers."""


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


def check_json_numbers(value, message: str) -> None:
    """Raise FormatError(message) unless every scalar inside the JSON lists ``value`` is a number.

    A number is an int or a float, not a bool: numpy would turn booleans and
    numeric strings into floats. A ``value`` that is not a list is left to
    the caller's shape check.
    """
    pending = [value] if isinstance(value, list) else []
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif type(item) is not int and type(item) is not float:
            raise FormatError(f"{message}; found {item!r}")
