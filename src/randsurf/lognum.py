"""Log-scale views of exact nonnegative rationals.

The explicit error bounds blow past double precision quickly (the
leading factor is (6m)^(3m+4), already ~1e212 at m = 30), so reports
give each bound as its base-10 logarithm next to its 12-digit value
(the CLI's number rule renders a LogNumber that way, rounding the
digits from the exact value).  A LogNumber wraps one exact nonnegative
Fraction and derives its views from it: log10 after shifting the value
by a power of two to a mantissa near 1, so huge numerators and
denominators cost no digits, and float() by correctly rounded
conversion, infinite past the double range.  Ordering compares the
Fractions exactly.  The bounds' log mode returns LogNumbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_LOG10_2 = math.log10(2.0)


@dataclass(frozen=True, order=True)
class LogNumber:
    value: Fraction

    def __post_init__(self) -> None:
        value = Fraction(self.value)
        if value < 0:
            raise ValueError("LogNumber is nonnegative")
        object.__setattr__(self, "value", value)

    @property
    def log10(self) -> float:
        num, den = self.value.numerator, self.value.denominator
        if num == 0:
            return -math.inf
        # value = mantissa * 2^shift with mantissa in (1/2, 2); int / int
        # is correctly rounded however long the operands are
        shift = num.bit_length() - den.bit_length()
        if shift >= 0:
            mantissa = num / (den << shift)
        else:
            mantissa = (num << -shift) / den
        return math.log10(mantissa) + shift * _LOG10_2

    def __float__(self) -> float:
        """Correctly rounded double value, infinite when out of float range."""
        try:
            return float(self.value)
        except OverflowError:
            return math.inf
