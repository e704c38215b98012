"""Cantor space plumbing: cylinders, clopen sets, points, staged open sets.

Finite binary strings are plain Python str over '0'/'1'; the empty string is
the root cylinder (the whole space).  A clopen set is held as its canonical
prefix-free generator antichain, so equality is syntactic.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .dyadic import Dyadic, ZERO
from .errors import ValidationError

Bits = str


def validate_bits(p: str) -> str:
    if any(ch not in "01" for ch in p):
        raise ValidationError(f"not a binary string: {p!r}")
    return p


def prefix_free_normalize(gens: Iterable[str]) -> tuple[str, ...]:
    """Canonical antichain with the same union of cylinders.

    One pass over the sorted distinct generators, O(n log n) for n inputs.
    A string's extensions follow it in one contiguous run of sorted order,
    so p is absorbed exactly when it starts with the last generator kept.
    Kept generators sit on a stack; while its top two are siblings q0 and
    q1 they collapse to q, so no sibling pair survives.  The result is
    sorted; {""} denotes the whole space, () the empty set.
    """
    kept: list[str] = []
    for p in sorted(set(gens)):
        validate_bits(p)
        if kept and p.startswith(kept[-1]):
            continue
        kept.append(p)
        while len(kept) > 1 and kept[-2][-1:] == "0" and kept[-1] == kept[-2][:-1] + "1":
            kept.pop()
            kept[-1] = kept[-1][:-1]
    return tuple(kept)


@dataclass(frozen=True, slots=True)
class ClopenSet:
    """Finite union of cylinders, stored as the canonical antichain."""

    generators: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "generators", prefix_free_normalize(self.generators))

    @classmethod
    def empty(cls) -> "ClopenSet":
        return cls(())

    @classmethod
    def full(cls) -> "ClopenSet":
        return cls(("",))

    @classmethod
    def cylinder(cls, p: str) -> "ClopenSet":
        return cls((validate_bits(p),))

    def is_empty(self) -> bool:
        return not self.generators

    def is_full(self) -> bool:
        return self.generators == ("",)

    def depth(self) -> int:
        return max((len(p) for p in self.generators), default=0)

    @property
    def mu(self) -> Dyadic:
        return mu_I(self)

    def covers_prefix(self, p: str) -> bool:
        """Whole cylinder [p] inside the set (membership decided by a generator
        at or above p, or by the generators below p covering it)."""
        return clopen_intersection(self, ClopenSet.cylinder(p)) == ClopenSet.cylinder(p)

    def contains_prefix_point(self, p: str) -> bool:
        """Some generator is a prefix of p (decides membership of any x in [p]
        when len(p) >= depth)."""
        return any(p.startswith(g) for g in self.generators)

    def hit(self, x: Point) -> str | None:
        """The generator that is a prefix of x, or None.  Reads each bit of x
        once and stops as soon as no generator extends the bits read: the
        generators extending a prefix are a contiguous run of the sorted
        antichain, narrowed by bisection."""
        gens = self.generators
        lo, hi = 0, len(gens)
        seen = ""
        while lo < hi:
            if len(gens[lo]) == len(seen):
                return gens[lo]
            seen += "1" if x.bit(len(seen)) else "0"
            lo = bisect_left(gens, seen, lo, hi)
            hi = bisect_left(gens, seen + "2", lo, hi)
        return None


def mu_I(s: ClopenSet) -> Dyadic:
    """Intensional measure: sum of 2^-|p| over the canonical antichain."""
    if s.is_empty():
        return ZERO
    d = s.depth()
    return Dyadic(sum(1 << (d - len(p)) for p in s.generators), d)


def clopen_union(*sets: ClopenSet) -> ClopenSet:
    return ClopenSet(tuple(itertools.chain.from_iterable(s.generators for s in sets)))


def clopen_intersection(a: ClopenSet, b: ClopenSet) -> ClopenSet:
    """Each generator of one antichain keeps the other's generators that
    extend it, found as one bisected run of the sorted antichain."""
    out: list[str] = []
    for xs, ys in ((a.generators, b.generators), (b.generators, a.generators)):
        for p in xs:
            out.extend(ys[bisect_left(ys, p):bisect_left(ys, p + "2")])
    return ClopenSet(tuple(out))


def clopen_complement(a: ClopenSet) -> ClopenSet:
    """Walks the cylinders above the generators, each holding the index
    range of the sorted antichain that extends it: an empty range is a
    complement generator, a range that starts at the cylinder itself is
    inside the set, and any other range splits at the first 1-child."""
    gens = a.generators
    out: list[str] = []
    todo = [("", 0, len(gens))]
    while todo:
        prefix, lo, hi = todo.pop()
        if lo == hi:
            out.append(prefix)
        elif gens[lo] != prefix:
            mid = bisect_left(gens, prefix + "1", lo, hi)
            todo.append((prefix + "0", lo, mid))
            todo.append((prefix + "1", mid, hi))
    return ClopenSet(tuple(out))


def clopen_subset(a: ClopenSet, b: ClopenSet) -> bool:
    return clopen_intersection(a, b) == a


# ---------------------------------------------------------------------------
# points

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _splitmix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def seeded_bit(seed: int, n: int) -> int:
    """Pure function of (seed, position); no hidden state, safe to share."""
    return _splitmix((seed + (n + 1) * _GOLDEN) & _MASK) >> 63


class Point:
    """Infinite binary sequence exposed one bit at a time."""

    def bit(self, n: int) -> int:
        raise NotImplementedError

    def cell_index(self, d: int) -> int:
        """Bits 0..d-1 read as a binary number: the index of the depth-d
        cylinder containing the point."""
        idx = 0
        for i in range(d):
            idx = (idx << 1) | self.bit(i)
        return idx

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class EventuallyPeriodicPoint(Point):
    head: str
    period: str

    def __post_init__(self):
        validate_bits(self.head)
        validate_bits(self.period)
        if not self.period:
            raise ValidationError("period must be nonempty")

    def bit(self, n: int) -> int:
        if n < len(self.head):
            return int(self.head[n])
        return int(self.period[(n - len(self.head)) % len(self.period)])

    def describe(self) -> str:
        return f"u={self.head}:v={self.period}"


@dataclass(frozen=True)
class SeededPoint(Point):
    seed: int

    def bit(self, n: int) -> int:
        return seeded_bit(self.seed, n)

    def describe(self) -> str:
        return f"seed={self.seed}"


@dataclass(frozen=True)
class TailPoint(Point):
    head: str
    base: Point

    def __post_init__(self):
        validate_bits(self.head)

    def bit(self, n: int) -> int:
        if n < len(self.head):
            return int(self.head[n])
        return self.base.bit(n - len(self.head))

    def describe(self) -> str:
        return f"{self.head}~{self.base.describe()}"


@dataclass(frozen=True)
class ColumnPoint(Point):
    base: Point
    index: int

    def bit(self, n: int) -> int:
        return self.base.bit(cantor_pair(self.index, n))

    def describe(self) -> str:
        return f"{self.base.describe()}[{self.index}]"


def cantor_pair(k: int, n: int) -> int:
    return (k + n) * (k + n + 1) // 2 + n


def column(x: Point, k: int) -> Point:
    if k < 0:
        raise ValidationError("column index must be nonnegative")
    return ColumnPoint(x, k)


def tail_append(p: str, x: Point) -> Point:
    return TailPoint(p, x)


def point_in(x: Point, s: ClopenSet) -> bool:
    """Reads at most max-generator-length bits of x."""
    return s.hit(x) is not None


def enumerate_eventually_periodic(max_head: int, max_period: int) -> Iterator[EventuallyPeriodicPoint]:
    """All u v^w with |u| <= max_head, 1 <= |v| <= max_period."""
    for hl in range(max_head + 1):
        for head_bits in itertools.product("01", repeat=hl):
            for pl in range(1, max_period + 1):
                for per_bits in itertools.product("01", repeat=pl):
                    yield EventuallyPeriodicPoint("".join(head_bits), "".join(per_bits))


# ---------------------------------------------------------------------------
# staged open sets

@dataclass
class StagedOpenSet:
    """Monotone staged enumeration of an open set.

    stage(s) is a clopen set; each stage must cover every earlier one.  Beyond
    the last entry a list-backed set stays constant.  The optional tail budget
    bounds how much measure later stages may still add.
    """

    stages: Sequence[ClopenSet] | Callable[[int], ClopenSet]
    tail_budget: Callable[[int], Dyadic] | None = None
    _memo: list[ClopenSet] = field(default_factory=list, repr=False)

    def stage(self, s: int) -> ClopenSet:
        if s < 0:
            raise ValidationError("stage must be nonnegative")
        while len(self._memo) <= s:
            i = len(self._memo)
            if callable(self.stages):
                cur = self.stages(i)
            elif i < len(self.stages):
                cur = self.stages[i]
            elif self.stages:
                cur = self.stages[-1]
            else:
                cur = ClopenSet.empty()
            if self._memo and not clopen_subset(self._memo[-1], cur):
                raise ValidationError(f"stage {i} does not extend stage {i - 1}")
            self._memo.append(cur)
        return self._memo[s]

    def measure_bounds(self, s: int):
        from .dyadic import DyadicInterval

        lo = mu_I(self.stage(s))
        hi = lo + self.tail_budget(s) if self.tail_budget is not None else lo
        return DyadicInterval(lo, hi)

    @classmethod
    def constant(cls, c: ClopenSet) -> "StagedOpenSet":
        return cls(stages=[c])
