"""Step functions constant on depth-d cylinders.

Internally a table of integer numerators over a shared power-of-two
denominator: value on cell p is values[int(p, 2)] / 2**exp (cells in
lexicographic = numeric order).  Canonical form has minimal depth (no two
sibling cells equal everywhere) and minimal exponent, so equality of step
functions is tuple equality.  All arithmetic is exact integer work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, or_, sub
from typing import Iterable

from .dyadic import Dyadic
from .errors import ValidationError
from .space import ClopenSet, Point


def _reduce(depth: int, exp: int, values: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    while depth > 0 and values[::2] == values[1::2]:
        values = values[::2]
        depth -= 1
    if exp > 0:
        low = reduce(or_, values, 0)  # lowest set bit of any value
        if not low:
            exp = 0
        else:
            s = min((low & -low).bit_length() - 1, exp)
            if s:
                values = tuple(v >> s for v in values)
                exp -= s
    return depth, exp, values


@dataclass(frozen=True, slots=True)
class StepFunction:
    depth: int
    exp: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.depth < 0 or self.exp < 0:
            raise ValidationError("depth and exp must be nonnegative")
        if len(self.values) != 1 << self.depth:
            raise ValidationError(
                f"table length {len(self.values)} != 2^{self.depth}"
            )
        d, e, v = _reduce(self.depth, self.exp, self.values)
        object.__setattr__(self, "depth", d)
        object.__setattr__(self, "exp", e)
        object.__setattr__(self, "values", v)

    # -- constructors

    @classmethod
    def constant(cls, c: Dyadic) -> "StepFunction":
        return cls(0, c.exp, (c.num,))

    @classmethod
    def from_char(cls, s: ClopenSet) -> "StepFunction":
        d = s.depth()
        table = [0] * (1 << d)
        for g in s.generators:
            size = 1 << (d - len(g))
            start = int(g, 2) * size if g else 0
            table[start : start + size] = [1] * size
        return cls(d, 0, tuple(table))

    @classmethod
    def from_dyadics(cls, depth: int, cells: Iterable[Dyadic]) -> "StepFunction":
        cells = list(cells)
        e = max((c.exp for c in cells), default=0)
        return cls(depth, e, tuple(c.num << (e - c.exp) for c in cells))

    # -- structure

    def at_depth(self, d: int) -> tuple[int, ...]:
        if d < self.depth:
            raise ValidationError("cannot coarsen below canonical depth")
        values = self.values
        for _ in range(d - self.depth):  # each pass doubles every cell
            twice = [0] * (2 * len(values))
            twice[::2] = twice[1::2] = values
            values = twice
        return tuple(values)

    def _aligned(self, other: "StepFunction") -> tuple[int, tuple[int, ...], tuple[int, ...], int]:
        d = max(self.depth, other.depth)
        e = max(self.exp, other.exp)
        a, b = self.at_depth(d), other.at_depth(d)
        if e > self.exp:
            a = tuple(v << (e - self.exp) for v in a)
        if e > other.exp:
            b = tuple(v << (e - other.exp) for v in b)
        return d, a, b, e

    def value_on(self, p: str) -> Dyadic:
        """Value on the cylinder [p]; requires len(p) >= depth."""
        if len(p) < self.depth:
            raise ValidationError(f"cell {p!r} shallower than depth {self.depth}")
        idx = int(p[: self.depth], 2) if self.depth else 0
        return Dyadic(self.values[idx], self.exp)

    def value_at(self, x: Point) -> Dyadic:
        return Dyadic(self.values[x.cell_index(self.depth)], self.exp)

    # -- arithmetic

    def __add__(self, other: "StepFunction") -> "StepFunction":
        d, a, b, e = self._aligned(other)
        return StepFunction(d, e, tuple(map(add, a, b)))

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        d, a, b, e = self._aligned(other)
        return StepFunction(d, e, tuple(map(sub, a, b)))

    def abs_diff(self, other: "StepFunction") -> "StepFunction":
        d, a, b, e = self._aligned(other)
        return StepFunction(d, e, tuple(map(abs, map(sub, a, b))))

    def max_with(self, other: "StepFunction") -> "StepFunction":
        d, a, b, e = self._aligned(other)
        return StepFunction(d, e, tuple(map(max, a, b)))

    def min_with(self, other: "StepFunction") -> "StepFunction":
        d, a, b, e = self._aligned(other)
        return StepFunction(d, e, tuple(map(min, a, b)))

    def integral(self) -> Dyadic:
        return Dyadic(sum(self.values), self.exp + self.depth)

    def precompose_prefix(self, p: str) -> "StepFunction":
        """x -> self(p + x)."""
        if len(p) >= self.depth:
            return StepFunction.constant(self.value_on(p))
        d = self.depth - len(p)
        base = int(p, 2) << d if p else 0
        return StepFunction(d, self.exp, self.values[base : base + (1 << d)])

    def cell_average(self, i: int) -> "StepFunction":
        """Depth-i step function whose value on [p] is 2^i * integral over
        [p]; equals self once i >= depth."""
        if i < 0:
            raise ValidationError("cell depth must be nonnegative")
        if i >= self.depth:
            return self
        block = 1 << (self.depth - i)
        sums = tuple(
            sum(self.values[j : j + block]) for j in range(0, len(self.values), block)
        )
        return StepFunction(i, self.exp + (self.depth - i), sums)

    # -- level sets (thresholds may be non-dyadic rationals a/b)

    def _level(self, a: int, b: int, want_above: bool) -> ClopenSet:
        scale = b
        thr = a << self.exp
        gens = []
        for i, v in enumerate(self.values):
            big = v * scale > thr if want_above else v * scale < thr
            if big:
                gens.append(format(i, f"0{self.depth}b") if self.depth else "")
        return ClopenSet(tuple(gens))

    def strictly_above(self, a: int, b: int = 1) -> ClopenSet:
        """{x : f(x) > a/b} as a clopen set."""
        return self._level(a, b, True)

    def strictly_below(self, a: int, b: int = 1) -> ClopenSet:
        """{x : f(x) < a/b} as a clopen set."""
        return self._level(a, b, False)

    def is_char(self) -> bool:
        return self.exp == 0 and all(v in (0, 1) for v in self.values)

    def char_support(self) -> ClopenSet:
        if not self.is_char():
            raise ValidationError("not a characteristic function")
        return self.strictly_above(0, 1)


def l1_norm(f: StepFunction, g: StepFunction | None = None) -> Dyadic:
    """Exact L1 norm of f (or of f - g)."""
    if g is None:
        return Dyadic(sum(map(abs, f.values)), f.exp + f.depth)
    return l1_norm(f.abs_diff(g))
