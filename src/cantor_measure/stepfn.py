"""Step functions: functions on Cantor space constant on the cells of a
finite partition into cylinders.

A step function is held as its canonical partition: the prefixes of its
cells, sorted so that their cylinders cover the space left to right, one
integer numerator per cell, and one shared denominator 2**exp.  Canonical
means that no two sibling cells [p0], [p1] carry the same value (the
reduction rule of algebraic decision diagrams) and that exp is minimal, so
the partition is unique and equality of step functions is tuple equality.
The characteristic function of a clopen set has exp 0, and its value-1
cells are exactly the set's generators.  Every operation costs the number
of cells, not 2**depth, where depth is the length of the longest prefix.
All arithmetic is exact integer work.

The dense table of numerators over the 2**depth cells of one depth is only
an adapter for tests and oracles: the constructor StepFunction(depth, exp,
values), from_dyadics, at_depth and values.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add, eq, or_, sub
from typing import Iterable, Sequence

from .dyadic import Dyadic
from .errors import ValidationError
from .space import ClopenSet, Point, char_partition, locate

_set = object.__setattr__


def _cells(prefixes: tuple[str, ...], nums: tuple[int, ...], exp: int) -> "StepFunction":
    """The step function with these cells, brought to canonical form."""
    f = object.__new__(StepFunction)
    _set(f, "prefixes", prefixes)
    _set(f, "nums", nums)
    _set(f, "exp", exp)
    f.__post_init__()
    return f


def _abs_sub(a: int, b: int) -> int:
    return abs(a - b)


@dataclass(frozen=True, slots=True, init=False)
class StepFunction:
    prefixes: tuple[str, ...]
    nums: tuple[int, ...]
    exp: int

    def __init__(self, depth: int, exp: int, values: Sequence[int]):
        """Dense adapter: values[i] / 2**exp on the i-th depth-`depth` cell."""
        if depth < 0 or exp < 0:
            raise ValidationError("depth and exp must be nonnegative")
        if len(values) != 1 << depth:
            raise ValidationError(f"table length {len(values)} != 2^{depth}")
        cells = tuple(format(i, f"0{depth}b") for i in range(1 << depth)) if depth else ("",)
        _set(self, "prefixes", cells)
        _set(self, "nums", tuple(values))
        _set(self, "exp", exp)
        self.__post_init__()

    def __post_init__(self):
        """Canonical form: merge sibling cells of equal value, which sit next
        to each other in sorted order, so the merge runs only when some
        neighbours are equal; then strip the factors of two all numerators
        share."""
        nums = self.nums
        if any(map(eq, nums, nums[1:])):
            ps: list[str] = []
            vs: list[int] = []
            for p, v in zip(self.prefixes, nums):
                while vs and vs[-1] == v and p[-1:] == "1" and ps[-1] == p[:-1] + "0":
                    ps.pop()
                    vs.pop()
                    p = p[:-1]
                ps.append(p)
                vs.append(v)
            nums = tuple(vs)
            _set(self, "prefixes", tuple(ps))
            _set(self, "nums", nums)
        if self.exp > 0:
            low = reduce(or_, nums, 0)  # lowest set bit of any value
            s = min((low & -low).bit_length() - 1, self.exp) if low else self.exp
            if s:
                _set(self, "nums", tuple(v >> s for v in nums))
                _set(self, "exp", self.exp - s)

    # -- constructors

    @classmethod
    def constant(cls, c: Dyadic) -> "StepFunction":
        return _cells(("",), (c.num,), c.exp)

    @classmethod
    def from_char(cls, s: ClopenSet) -> "StepFunction":
        cells, inside = char_partition(s)
        return _cells(tuple(cells), tuple(inside), 0)

    @classmethod
    def from_dyadics(cls, depth: int, cells: Iterable[Dyadic]) -> "StepFunction":
        cells = list(cells)
        e = max((c.exp for c in cells), default=0)
        return cls(depth, e, tuple(c.num << (e - c.exp) for c in cells))

    # -- structure

    @property
    def depth(self) -> int:
        return max(map(len, self.prefixes))

    @property
    def values(self) -> tuple[int, ...]:
        """Dense adapter: the numerators over the depth-`depth` cells."""
        return self.at_depth(self.depth)

    def at_depth(self, d: int) -> tuple[int, ...]:
        if d < self.depth:
            raise ValidationError("cannot coarsen below canonical depth")
        out: list[int] = []
        for p, v in zip(self.prefixes, self.nums):
            out += [v] * (1 << (d - len(p)))
        return tuple(out)

    def value_on(self, p: str) -> Dyadic:
        """Value on the cylinder [p]; [p] must lie inside one cell."""
        i = bisect_right(self.prefixes, p) - 1
        if i < 0 or not p.startswith(self.prefixes[i]):
            raise ValidationError(f"cylinder {p!r} is not inside one cell")
        return Dyadic(self.nums[i], self.exp)

    def value_at(self, x: Point) -> Dyadic:
        return Dyadic(self.nums[locate(self.prefixes, x)], self.exp)

    # -- arithmetic

    def _apply(self, other: "StepFunction", op) -> "StepFunction":
        """op on the numerators over the common refinement.  Both partitions
        are walked left to right; the longer of the two current prefixes is
        the next cell, and the shorter one's cell ends with it when the rest
        of the longer one is all 1s."""
        e = max(self.exp, other.exp)
        a = self.nums if e == self.exp else [v << (e - self.exp) for v in self.nums]
        b = other.nums if e == other.exp else [v << (e - other.exp) for v in other.nums]
        ps, qs = self.prefixes, other.prefixes
        if ps == qs:
            return _cells(ps, tuple(map(op, a, b)), e)
        cells: list[str] = []
        vals: list[int] = []
        i = j = 0
        while i < len(ps):
            p, q = ps[i], qs[j]
            vals.append(op(a[i], b[j]))
            if len(p) < len(q):
                cells.append(q)
                j += 1
                i += "0" not in q[len(p):]
            else:
                cells.append(p)
                i += 1
                j += "0" not in p[len(q):]
        return _cells(tuple(cells), tuple(vals), e)

    def __add__(self, other: "StepFunction") -> "StepFunction":
        return self._apply(other, add)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return self._apply(other, sub)

    def abs_diff(self, other: "StepFunction") -> "StepFunction":
        return self._apply(other, _abs_sub)

    def max_with(self, other: "StepFunction") -> "StepFunction":
        return self._apply(other, max)

    def min_with(self, other: "StepFunction") -> "StepFunction":
        return self._apply(other, min)

    def integral(self) -> Dyadic:
        return _weighted_sum(self, self.nums)

    def precompose_prefix(self, p: str) -> "StepFunction":
        """x -> self(p + x): the run of cells extending p, p stripped."""
        ps = self.prefixes
        lo, hi = bisect_left(ps, p), bisect_left(ps, p + "2")
        if lo == hi:  # [p] lies strictly inside one cell
            return StepFunction.constant(self.value_on(p))
        k = len(p)
        return _cells(tuple(q[k:] for q in ps[lo:hi]), self.nums[lo:hi], self.exp)

    def cell_average(self, i: int) -> "StepFunction":
        """Depth-i step function whose value on [p] is 2^i * integral over
        [p]; equals self once i >= depth.  Cells at most i deep keep their
        value; deeper ones are summed per depth-i block."""
        if i < 0:
            raise ValidationError("cell depth must be nonnegative")
        d = self.depth
        if i >= d:
            return self
        cells: list[str] = []
        sums: list[int] = []
        for p, v in zip(self.prefixes, self.nums):
            w = v << (d - max(len(p), i))
            if cells and cells[-1] == p[:i]:
                sums[-1] += w
            else:
                cells.append(p[:i])
                sums.append(w)
        return _cells(tuple(cells), tuple(sums), self.exp + (d - i))

    # -- level sets (thresholds may be non-dyadic rationals a/b)

    def strictly_above(self, a: int, b: int = 1) -> ClopenSet:
        """{x : f(x) > a/b} as a clopen set."""
        thr = a << self.exp
        return ClopenSet(tuple(p for p, v in zip(self.prefixes, self.nums) if v * b > thr))

    def strictly_below(self, a: int, b: int = 1) -> ClopenSet:
        """{x : f(x) < a/b} as a clopen set."""
        thr = a << self.exp
        return ClopenSet(tuple(p for p, v in zip(self.prefixes, self.nums) if v * b < thr))

    def is_char(self) -> bool:
        return self.exp == 0 and all(v in (0, 1) for v in self.nums)

    def char_support(self) -> ClopenSet:
        if not self.is_char():
            raise ValidationError("not a characteristic function")
        return self.strictly_above(0, 1)


def _weighted_sum(f: StepFunction, nums: Iterable[int]) -> Dyadic:
    """Sum over the cells [p] of num * 2^-|p|, over f's denominator."""
    d = f.depth
    return Dyadic(sum(v << (d - len(p)) for p, v in zip(f.prefixes, nums)), f.exp + d)


def l1_norm(f: StepFunction, g: StepFunction | None = None) -> Dyadic:
    """Exact L1 norm of f (or of f - g)."""
    if g is not None:
        f = f.abs_diff(g)
    return _weighted_sum(f, map(abs, f.nums))
