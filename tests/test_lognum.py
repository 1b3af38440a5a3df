import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from randsurf.lognum import LogNumber


def test_constructors():
    assert LogNumber(Fraction(1000)).log10 == pytest.approx(3.0)
    assert LogNumber(Fraction(1, 100)).log10 == pytest.approx(-2.0)
    assert float(LogNumber(Fraction(5, 2))) == 2.5
    assert LogNumber(7).value == Fraction(7)
    with pytest.raises(ValueError):
        LogNumber(Fraction(-1, 3))


def test_huge_integers_do_not_overflow():
    x = LogNumber(Fraction(10**400))
    assert x.log10 == pytest.approx(400.0)
    y = LogNumber(Fraction(10**400, 10**398))
    assert y.log10 == pytest.approx(2.0)
    assert float(x) == math.inf  # past double range, reported as inf


def test_log10_keeps_its_digits_when_both_logs_are_huge():
    value = Fraction(10**400 + 1, 10**398)
    with mpmath.workdps(50):
        true = float(mpmath.log10(mpmath.mpf(value.numerator) / value.denominator))
    assert abs(LogNumber(value).log10 - true) <= 1e-15


def test_zero_behaviour():
    zero, one = LogNumber(Fraction(0)), LogNumber(Fraction(1))
    assert zero < one
    assert zero.log10 == -math.inf
    assert float(zero) == 0.0


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6)),
       st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6)))
def test_comparisons_match_rationals(x, y):
    a, b = LogNumber(x), LogNumber(y)
    assert (a < b) == (x < y)
    assert (a <= b) == (x <= y)
    assert (a >= b) == (x >= y)
    assert (a == b) == (x == y)
