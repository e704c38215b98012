from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cantor_measure.dyadic import ONE, Dyadic
from cantor_measure.errors import ValidationError

nums = st.integers(min_value=-(1 << 40), max_value=1 << 40)
exps = st.integers(min_value=0, max_value=40)


def frac(x: Dyadic) -> Fraction:
    return Fraction(x.num, 1 << x.exp)


@given(nums, exps)
def test_canonical_form(n, e):
    x = Dyadic(n, e)
    assert x.exp == 0 or x.num % 2 == 1
    assert frac(x) == Fraction(n, 1 << e)


@given(nums, exps, nums, exps)
def test_arithmetic_matches_fractions(a, ea, b, eb):
    x, y = Dyadic(a, ea), Dyadic(b, eb)
    assert frac(x + y) == frac(x) + frac(y)
    assert frac(x - y) == frac(x) - frac(y)
    assert frac(x * y) == frac(x) * frac(y)
    assert frac(abs(x)) == abs(frac(x))
    assert frac(-x) == -frac(x)


@given(nums, exps, nums, exps)
def test_order_matches_fractions(a, ea, b, eb):
    x, y = Dyadic(a, ea), Dyadic(b, eb)
    assert (x < y) == (frac(x) < frac(y))
    assert (x == y) == (frac(x) == frac(y))
    assert (x <= y) == (frac(x) <= frac(y))


@given(st.integers(min_value=-30, max_value=30))
def test_pow2(k):
    assert frac(Dyadic.pow2(k)) == Fraction(2) ** k


def test_parse_and_str_round_trip():
    for (num, exp), s in [((0, 0), "0/2^0"), ((1, 0), "1/2^0"), ((-3, 4), "-3/2^4"),
                          ((7, 2), "7/2^2")]:
        assert str(Dyadic(num, exp)) == s
    assert str(Dyadic(4, 2)) == str(Dyadic(1, 0)) == "1/2^0"


@given(nums, exps, st.integers(min_value=1, max_value=1000))
def test_div_floor_bounds(a, e, den):
    x = Dyadic(a, e)
    got = frac(x.div_floor(den))
    true = frac(x) / den
    assert got <= true < got + Fraction(1, 1 << 60)


def test_div_floor_exact_when_representable():
    assert Dyadic(3, 0).div_floor(4) == Dyadic(3, 2)
    assert Dyadic(1, 0).div_floor(2) == Dyadic(1, 1)


def test_div_floor_rejects_nonpositive():
    with pytest.raises(ValidationError):
        ONE.div_floor(0)
