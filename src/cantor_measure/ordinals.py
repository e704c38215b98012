"""Ordinal notations below omega^omega in Cantor normal form.

A notation is a tuple of (exponent, coefficient) pairs with strictly
decreasing exponents and positive coefficients; the empty tuple is zero.
Comparison is the usual term-by-term CNF order, which is the tuple order
of the terms: exponents strictly decrease, pairs compare by exponent and
then coefficient, and on a common prefix the longer notation is larger.
Text form: "w^2*3+w+1" style, with "w" for omega.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Iterator

from .errors import ValidationError


@dataclass(frozen=True, slots=True, order=True)
class OrdinalNotation:
    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        exps = [e for e, _ in self.terms]
        if exps != sorted(exps, reverse=True) or len(set(exps)) != len(exps):
            raise ValidationError(f"exponents must strictly decrease: {self.terms}")
        if any(e < 0 or c < 1 for e, c in self.terms):
            raise ValidationError(f"bad CNF term in {self.terms}")

    @classmethod
    def zero(cls) -> "OrdinalNotation":
        return cls(())

    @classmethod
    def finite(cls, n: int) -> "OrdinalNotation":
        if n < 0:
            raise ValidationError("finite notation needs n >= 0")
        return cls(()) if n == 0 else cls(((0, n),))

    def is_zero(self) -> bool:
        return not self.terms

    def successor(self) -> "OrdinalNotation":
        if self.terms and self.terms[-1][0] == 0:
            e, c = self.terms[-1]
            return OrdinalNotation(self.terms[:-1] + ((0, c + 1),))
        return OrdinalNotation(self.terms + ((0, 1),))

    def predecessor(self) -> "OrdinalNotation | None":
        """Defined only for successor notations (last exponent 0)."""
        if not self.terms or self.terms[-1][0] != 0:
            return None
        e, c = self.terms[-1]
        if c > 1:
            return OrdinalNotation(self.terms[:-1] + ((0, c - 1),))
        return OrdinalNotation(self.terms[:-1])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append("w" if c == 1 else f"w*{c}")
            else:
                parts.append(f"w^{e}" if c == 1 else f"w^{e}*{c}")
        return "+".join(parts)

    _TERM_RE = re.compile(r"^(?:w(?:\^(\d+))?(?:\*(\d+))?|(\d+))$", re.ASCII)

    @classmethod
    def parse(cls, text: str) -> "OrdinalNotation":
        text = text.strip()
        if text == "0":
            return cls.zero()
        terms = []
        for part in text.split("+"):
            m = cls._TERM_RE.match(part.strip())
            if not m:
                raise ValidationError(f"bad ordinal notation term {part!r}")
            if m.group(3) is not None:
                terms.append((0, _nat(m.group(3))))
            else:
                e = _nat(m.group(1)) if m.group(1) is not None else 1
                c = _nat(m.group(2)) if m.group(2) is not None else 1
                terms.append((e, c))
        return cls(tuple(terms))


def _nat(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ValidationError(f"{len(digits)}-digit number exceeds the int/str conversion"
                              f" limit of {sys.get_int_max_str_digits()} digits") from None


ONE_ORD = OrdinalNotation.finite(1)


def notations_up_to(bound: OrdinalNotation) -> list[OrdinalNotation]:
    """All nonzero notations <= bound whose coefficients are at most 3,
    ascending.  Finite for any bound below omega^omega."""
    if bound.is_zero():
        return []
    out = []
    todo: list[tuple[tuple, int]] = [((), bound.terms[0][0])]
    while todo:  # (terms so far, largest exponent the next term may take)
        prefix, next_exp = todo.pop()
        if prefix and OrdinalNotation(prefix) <= bound:
            out.append(OrdinalNotation(prefix))
        todo += [(prefix + ((e, c),), e - 1)
                 for e in range(next_exp, -1, -1) for c in range(1, 4)]
    return sorted(out)


def descending_chain(top: OrdinalNotation) -> Iterator[OrdinalNotation]:
    """A strictly descending chain top = r_0 > r_1 > ... > 1, stepping by
    predecessors where they exist and jumping to 1 below a limit.  Lazy: a
    finite part n takes n steps, so a caller bounds how many it reads."""
    if top < ONE_ORD:
        raise ValidationError("chain needs top >= 1")
    r = top
    yield r
    while r != ONE_ORD:
        pred = r.predecessor()
        r = pred if pred is not None and pred >= ONE_ORD else ONE_ORD
        yield r
