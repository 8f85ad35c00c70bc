"""Shared exception types and the one scalar range check.

Every numeric bound on an input scalar (a config value, a dataclass field,
a function argument or a CSV cell) goes through check_range, so a bad
value of any kind, NaN and +-inf included, is a ValidationError that
names its field; the CLI exits 1 on it.
"""

import math
import numbers


class ValidationError(ValueError):
    """Bad input data or configuration; messages name the offending field."""


def check_range(name: str, value, lo: float = 0, *, above: bool = False,
                finite: bool = True) -> None:
    """Reject value (name names it) unless it is a real number, not a bool,
    that is >= lo (> lo if above) and, unless finite is False, neither
    +inf nor -inf. The comparisons are negated, so NaN always fails."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (value > lo if above else value >= lo)
            and (not finite or -math.inf < value < math.inf)):
        bound = f"{'>' if above else '>='} {lo}"
        rule = ("finite" if lo == -math.inf else
                f"finite and {bound}" if finite else bound)
        raise ValidationError(f"{name} must be {rule}, got {value!r}")
