"""Exact dyadic rationals num / 2**exp with arbitrary-precision integers.

Canonical form: num odd, or exp == 0, so field equality is value equality.
No floats anywhere; every operation is exact except the explicitly-rounding
div_floor, which callers use only to compress sample averages.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import total_ordering

from .errors import ValidationError


def _canonical(num: int, exp: int) -> tuple[int, int]:
    if exp < 0:
        raise ValidationError(f"negative dyadic exponent {exp}")
    if num == 0:
        return 0, 0
    # strip shared factors of two; (num & -num) isolates the low set bit
    tz = (num & -num).bit_length() - 1
    s = min(tz, exp)
    return num >> s, exp - s


@total_ordering
@dataclass(frozen=True, slots=True)
class Dyadic:
    num: int
    exp: int

    def __post_init__(self):
        n, e = _canonical(self.num, self.exp)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "exp", e)

    @classmethod
    def pow2(cls, k: int) -> "Dyadic":
        """2**k for any integer k."""
        return cls(1 << k, 0) if k >= 0 else cls(1, -k)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) - (other.num << (e - other.exp)), e)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.num * other.num, self.exp + other.exp)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.exp)

    def __lt__(self, other: "Dyadic") -> bool:
        e = max(self.exp, other.exp)
        return self.num << (e - self.exp) < other.num << (e - other.exp)

    def div_floor(self, den: int, bits: int = 60) -> "Dyadic":
        """floor(self / den * 2**bits) / 2**bits; exact when representable."""
        if den <= 0:
            raise ValidationError("divisor must be positive")
        return Dyadic((self.num << bits) // (den << self.exp), bits)

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    def __str__(self) -> str:
        try:
            return f"{self.num}/2^{self.exp}"
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ValidationError(
                f"exact value with {self.num.bit_length()}-bit numerator and exponent {self.exp}"
                f" exceeds the int/str conversion limit of {sys.get_int_max_str_digits()} digits"
            ) from None


ZERO = Dyadic(0, 0)
ONE = Dyadic(1, 0)
