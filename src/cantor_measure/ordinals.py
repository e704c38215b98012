"""Ordinal notations below omega^omega in Cantor normal form.

A notation is a tuple of (exponent, coefficient) pairs with strictly
decreasing exponents and positive coefficients; the empty tuple is zero.
Comparison is the usual term-by-term CNF order.  Text form: "w^2*3+w+1"
style, with "w" for omega.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True, slots=True)
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

    @classmethod
    def omega(cls) -> "OrdinalNotation":
        return cls(((1, 1),))

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return all(e == 0 for e, _ in self.terms)

    def _cmp(self, other: "OrdinalNotation") -> int:
        for (e1, c1), (e2, c2) in zip(self.terms, other.terms):
            if e1 != e2:
                return 1 if e1 > e2 else -1
            if c1 != c2:
                return 1 if c1 > c2 else -1
        if len(self.terms) != len(other.terms):
            return 1 if len(self.terms) > len(other.terms) else -1
        return 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

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

    _TERM_RE = re.compile(r"^(?:w(?:\^(\d+))?(?:\*(\d+))?|(\d+))$")

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
                terms.append((0, int(m.group(3))))
            else:
                e = int(m.group(1)) if m.group(1) is not None else 1
                c = int(m.group(2)) if m.group(2) is not None else 1
                terms.append((e, c))
        return cls(tuple(terms))


ONE_ORD = OrdinalNotation.finite(1)


def notations_up_to(bound: OrdinalNotation, coeff_cap: int = 3) -> list[OrdinalNotation]:
    """All nonzero notations <= bound whose coefficients are <= coeff_cap,
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
                 for e in range(next_exp, -1, -1) for c in range(1, coeff_cap + 1)]
    return sorted(out)


def descending_chain(top: OrdinalNotation) -> list[OrdinalNotation]:
    """A strictly descending chain top = r_0 > r_1 > ... > 1, stepping by
    predecessors where they exist and jumping to 1 below a limit."""
    if top < ONE_ORD:
        raise ValidationError("chain needs top >= 1")
    chain = [top]
    while chain[-1] != ONE_ORD:
        pred = chain[-1].predecessor()
        chain.append(pred if pred is not None and pred >= ONE_ORD else ONE_ORD)
    return chain
