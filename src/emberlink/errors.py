"""Shared exception types and the one scalar range check.

Every numeric bound on an input scalar (a config value, a dataclass field,
a function argument or a CSV cell) goes through check_range, so a bad
value of any kind, NaN and +-inf included, is a ValidationError that
names its field; the CLI exits 1 on it. A count, dimension, hour or bit
count is checked with integer=True, so 2.0 is refused, not read as 2; a
seed goes through check_seed, the same test over [0, SEED_LIMIT).
"""

import math
import numbers

SEED_LIMIT = 2 ** 128  # seeds are Philox keys, which lie in [0, 2**128)


class ValidationError(ValueError):
    """Bad input data or configuration; messages name the offending field."""


def check_range(name: str, value, lo: float = 0, *, above: bool = False,
                finite: bool = True, integer: bool = False) -> None:
    """Reject value (name names it) unless it is a real number, not a bool,
    that is >= lo (> lo if above) and, unless finite is False, neither
    +inf nor -inf; with integer, unless it is an integral number (so
    finite) >= lo. The comparisons are negated, so NaN always fails."""
    if not (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool)
            and (value > lo if above else value >= lo)
            and (integer or not finite or -math.inf < value < math.inf)):
        bound = f"{'>' if above else '>='} {lo}"
        rule = (f"an integer {bound}" if integer else "finite" if lo == -math.inf
                else f"finite and {bound}" if finite else bound)
        raise ValidationError(f"{name} must be {rule}, got {value!r}")


def check_seed(name: str, seed) -> None:
    """Reject a seed (name names it) unless it is an integer in [0, SEED_LIMIT)."""
    if not (isinstance(seed, numbers.Integral) and not isinstance(seed, bool)
            and 0 <= seed < SEED_LIMIT):
        raise ValidationError(f"{name} must be an integer in [0, 2**128), got {seed!r}")
