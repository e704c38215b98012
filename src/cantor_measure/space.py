"""Cantor space plumbing: cylinders, clopen sets, points, staged open sets.

Finite binary strings are plain Python str over '0'/'1'; the empty string is
the root cylinder (the whole space).  A clopen set is held as its canonical
prefix-free generator antichain, so equality is syntactic.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .dyadic import Dyadic, ZERO
from .errors import ValidationError

Bits = str


def validate_bits(p: str) -> str:
    if p.strip("01"):  # whatever is left once the 0s and 1s are gone
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
    """Finite union of cylinders, stored as the canonical antichain.  The
    slot _char keeps from_char's table for this object: unset until then,
    not compared, hashed or printed, it lives and dies with its set."""

    generators: tuple[str, ...] = ()
    _char: object = field(init=False, compare=False, repr=False)

    def __getstate__(self):  # a copy or pickle is a set without a kept table
        return (self.generators,)

    def __post_init__(self):
        object.__setattr__(self, "generators", prefix_free_normalize(self.generators))

    @classmethod
    def empty(cls) -> "ClopenSet":
        return _EMPTY

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

    def covers_prefix(self, p: str) -> bool:
        """Whole cylinder [p] inside the set.  Generators below p that covered
        [p] would have merged into p, so in the canonical antichain this
        holds exactly when some generator is a prefix of p: the last one
        sorted at or before p."""
        i = bisect_right(self.generators, p) - 1
        return i >= 0 and p.startswith(self.generators[i])

    def hit(self, x: Point) -> str | None:
        """The generator that is a prefix of x, or None."""
        i = locate(self.generators, x)
        return None if i is None else self.generators[i]


_EMPTY = ClopenSet()  # frozen, so one instance serves every caller


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


def char_partition(a: ClopenSet) -> tuple[list[str], list[int]]:
    """The canonical partition of the space by a, left to right: the
    cylinders with 1 for those inside a and 0 for those outside.

    Walks the cylinders above the generators, each holding the index range
    of the sorted antichain that extends it: an empty range is a 0-cell, a
    range that starts at the cylinder itself is a 1-cell, and any other
    range splits at the first 1-child."""
    gens = a.generators
    cells: list[str] = []
    inside: list[int] = []
    todo = [("", 0, len(gens))]
    while todo:
        prefix, lo, hi = todo.pop()
        if lo == hi or gens[lo] == prefix:
            cells.append(prefix)
            inside.append(int(lo < hi))
        else:
            mid = bisect_left(gens, prefix + "1", lo, hi)
            todo.append((prefix + "1", mid, hi))
            todo.append((prefix + "0", lo, mid))
    return cells, inside


def clopen_complement(a: ClopenSet) -> ClopenSet:
    """The 0-cells of the partition by a."""
    cells, inside = char_partition(a)
    return ClopenSet(tuple(p for p, v in zip(cells, inside) if not v))


def clopen_subset(a: ClopenSet, b: ClopenSet) -> bool:
    """a inside b: every generator's cylinder is covered by b."""
    return all(map(b.covers_prefix, a.generators))


# ---------------------------------------------------------------------------
# points

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def seeded_bit(seed: int, n: int) -> int:
    """Pure function of (seed, position); no hidden state, safe to share.
    Bit 63 of splitmix64, whose final z ^ (z >> 31) cannot change it."""
    z = (seed + (n + 1) * _GOLDEN) & _MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    return (z ^ (z >> 27)) * 0x94D049BB133111EB >> 63 & 1


class Point:
    """Infinite binary sequence exposed one bit at a time."""

    def bit(self, n: int) -> int:
        raise NotImplementedError

    def bits(self, lo: int, hi: int) -> str:
        """Bits lo..hi-1 as a string over '0'/'1'."""
        return "".join("1" if self.bit(n) else "0" for n in range(lo, hi))

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

    def bits(self, lo: int, hi: int) -> str:
        if hi <= len(self.head):  # all inside the head
            return self.head[lo:hi]
        h, v = len(self.head), self.period
        a = max(lo, h)  # the first bit wanted from the periodic part
        n = max(hi - a, 0)
        off = (a - h) % len(v)
        return self.head[lo:hi] + (v[off:] + v * (n // len(v) + 1))[:n]

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


def partition_trie(prefixes: Sequence[str]) -> list[int]:
    """The binary trie of a canonical partition (sorted prefixes whose
    cylinders cover the space), flat: the children of the internal node at
    entry i sit at trie[i] and trie[i + 1], each either the entry of an
    internal node (even, >= 0) or ~j for the leaf prefixes[j].  The root is
    entry 0; a one-cell partition [""] has no internal node, so no entries."""
    trie: list[int] = []
    todo = [(0, len(prefixes), 0, -1)]  # index range, depth, slot to fill
    while todo:
        lo, hi, k, slot = todo.pop()
        if hi - lo <= 1:
            if lo == hi:
                raise ValidationError("prefixes are not a sorted partition")
            node = ~lo
        else:
            node = len(trie)
            trie += (0, 0)
            mid = bisect_left(prefixes, "1", lo, hi, key=itemgetter(k))
            todo += ((lo, mid, k + 1, node), (mid, hi, k + 1, node + 1))
        if slot >= 0:
            trie[slot] = node
    return trie


def seeded_leaves(seed: int, columns: Iterable[int], trie: Sequence[int]) -> list[int]:
    """For each column index k >= 0, the leaf of the partition trie that holds
    column k of the seeded stream: bit n of column k is seeded_bit(seed,
    cantor_pair(k, n)), inlined, and drawn only while the walk stands on an
    internal node, so a column reads exactly as many bits as its leaf is
    deep (Knuth and Yao's generating tree).  An empty trie reads no bits."""
    if not trie:
        return [0 for _ in columns]
    mask, golden = _MASK, _GOLDEN
    out = []
    for k in columns:
        z0 = seed + (k * (k + 1) // 2 + 1) * golden  # counter of position cantor_pair(k, 0)
        step = (k + 2) * golden  # cantor_pair(k, n + 1) - cantor_pair(k, n) = k + n + 2
        node = 0
        while node >= 0:
            z = z0 & mask
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
            node = trie[node + ((z ^ (z >> 27)) * 0x94D049BB133111EB >> 63 & 1)]
            z0 += step
            step += golden
        out.append(~node)
    return out


def locate(strings: Sequence[str], x: Point) -> int | None:
    """Index of the longest string of a sorted, distinct list that is a
    prefix of x, or None; on an antichain, the only one.  The strings
    extending the first k bits of x are a contiguous run of the list,
    which bit k splits at the first string whose character k is '1', found
    by bisection on that character alone.  A string equal to the bits read
    heads the run: it is remembered and skipped.  Once one string is left,
    the rest of it is compared with one slice of x's bits, so the walk reads
    each bit once and no further than the last string it could find."""
    lo, hi, k, found = 0, len(strings), 0, None
    while lo < hi:
        s = strings[lo]
        if len(s) == k:
            found, lo = lo, lo + 1
        elif hi - lo == 1:
            return lo if x.bits(k, len(s)) == s[k:] else found
        else:
            mid = bisect_left(strings, "1", lo, hi, key=itemgetter(k))
            if x.bit(k):
                lo = mid
            else:
                hi = mid
            k += 1
    return found


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

    stage(s) is the clopen set the stage rule gives for s; each stage must
    cover every earlier one.  Stages are built in order and kept.
    """

    stages: Callable[[int], ClopenSet]
    _memo: list[ClopenSet] = field(default_factory=list, repr=False)

    def stage(self, s: int) -> ClopenSet:
        if s < 0:
            raise ValidationError("stage must be nonnegative")
        while len(self._memo) <= s:
            i = len(self._memo)
            cur = self.stages(i)
            if self._memo and not clopen_subset(self._memo[-1], cur):
                raise ValidationError(f"stage {i} does not extend stage {i - 1}")
            self._memo.append(cur)
        return self._memo[s]

    @classmethod
    def constant(cls, c: ClopenSet) -> "StagedOpenSet":
        return cls(stages=lambda s: c)
