"""Padding ranked codes with budgeted side material.

A decoration generator supplies, for each ordinal budget b, a positive and a
negative insert: alternating codes of root rank exactly b with intersection
or leaf roots.  Decorating a ranked alternating code interleaves these under
every interior node whose rank exceeds the budget, positives under unions
and De Morgan complements of negatives under intersections, so that rank
discipline and alternation survive and membership can only change inside the
inserts' denotations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .codes import (
    BorelCode,
    ComplNode,
    InterNode,
    Leaf,
    UnionNode,
    check_rank,
    child_items,
    denotation,
    eval_map_violations,
    evaluate,
    is_alternating,
    member,
    normalize_demorgan,
    require_complement_free,
)
from .dyadic import Dyadic
from .errors import ValidationError
from .ordinals import OrdinalNotation, descending_chain, notations_up_to
from .space import ClopenSet, Point, clopen_intersection, clopen_union, mu_I, point_in


def _insert_ok(code: BorelCode, budget: OrdinalNotation, side: str) -> None:
    require_complement_free(code, f"decoration {side} insert")
    if not check_rank(code):
        raise ValidationError(f"{side} insert for budget {budget} breaks rank discipline")
    if code.rank != budget:
        raise ValidationError(
            f"{side} insert for budget {budget} has root rank {code.rank}"
        )
    if not is_alternating(code):
        raise ValidationError(f"{side} insert for budget {budget} is not alternating")
    if isinstance(code, UnionNode):
        raise ValidationError(
            f"{side} insert for budget {budget} must have an intersection or leaf root"
        )


@dataclass(frozen=True)
class DecorationGenerator:
    """Ascending (budget, positive, negative) triples, validated on build."""

    entries: tuple[tuple[OrdinalNotation, BorelCode, BorelCode], ...]

    def __post_init__(self):
        prev = None
        for b, pos, neg in self.entries:
            if b.is_zero():
                raise ValidationError("budget 0 never matches an interior node")
            if prev is not None and not prev < b:
                raise ValidationError("budgets must be strictly ascending")
            prev = b
            _insert_ok(pos, b, "positive")
            _insert_ok(neg, b, "negative")

    @classmethod
    def empty(cls, budgets: Iterable[OrdinalNotation]) -> "DecorationGenerator":
        """Generator whose inserts all denote the empty set, one entry per
        budget."""
        return cls(tuple((b, empty_set_code(b), empty_set_code(b)) for b in budgets))

    def budgets(self) -> tuple[OrdinalNotation, ...]:
        return tuple(b for b, _, _ in self.entries)

    def insert_for(self, b: OrdinalNotation, under_union: bool) -> BorelCode:
        """What goes under a node for budget b: the positive insert under a
        union, the De Morgan complement of the negative one under an
        intersection (its root flips to a union, keeping alternation)."""
        for bb, pos, neg in self.entries:
            if bb == b:
                return pos if under_union else normalize_demorgan(ComplNode(neg))
        raise ValidationError(f"no entry for budget {b}")

    def footprint(self) -> ClopenSet:
        """Union of the denotations of every insert; membership outside it
        is immune to decoration."""
        parts = []
        for _, pos, neg in self.entries:
            parts.append(denotation(pos))
            parts.append(denotation(neg))
        return clopen_union(*parts) if parts else ClopenSet.empty()


def _rank_chain(b: OrdinalNotation, label: ClopenSet) -> BorelCode:
    """Alternating chain of root rank exactly b denoting the clopen label:
    intersection root, kinds alternating down the rank chain, single-child
    nodes over one leaf."""
    if b.is_zero():
        raise ValidationError("rank chain needs a positive root rank")
    chain = descending_chain(b)
    node: BorelCode = Leaf(label, rank=chain[-1])
    for i in range(len(chain) - 2, -1, -1):
        cls = InterNode if i % 2 == 0 else UnionNode
        node = cls(children=(node,), rank=chain[i])
    return node


def empty_set_code(b: OrdinalNotation) -> BorelCode:
    """Alternating chain of root rank exactly b denoting the empty set."""
    return _rank_chain(b, ClopenSet.empty())


def empty_generator(bound: OrdinalNotation) -> DecorationGenerator:
    """Generator whose inserts all denote the empty set, one entry per
    nonzero notation up to the bound with coefficients at most 3."""
    return DecorationGenerator.empty(notations_up_to(bound))


def split_generator(budgets: Sequence[OrdinalNotation],
                    targets: Sequence[ClopenSet] | None = None) -> DecorationGenerator:
    """Generator whose budget-b entry splits a small clopen target into a
    next-bit positive half and negative half.

    Target k defaults to the cylinder [0^k 1]; explicit targets must be
    pairwise disjoint with mu at most 2^-k.  The halves append one bit to
    each generator, so positives and negatives never meet."""
    blist = list(budgets)
    if targets is None:
        targets = [ClopenSet.cylinder("0" * k + "1") for k in range(len(blist))]
    if len(targets) != len(blist):
        raise ValidationError("one target per budget")
    for k, t in enumerate(targets):
        if mu_I(t) > Dyadic.pow2(-k):
            raise ValidationError(f"target {k} exceeds its 2^-{k} allowance")
        for other in targets[k + 1 :]:
            if not clopen_intersection(t, other).is_empty():
                raise ValidationError("targets must be pairwise disjoint")
    entries = []
    for k, (b, t) in enumerate(zip(blist, targets)):
        pos = ClopenSet(tuple(g + "0" for g in t.generators))
        neg = ClopenSet(tuple(g + "1" for g in t.generators))
        entries.append((b, _rank_chain(b, pos), _rank_chain(b, neg)))
    return DecorationGenerator(tuple(entries))


def decorate(code: BorelCode, gen: DecorationGenerator) -> BorelCode:
    """Insert the generator's material under every interior node.

    Original child at slot n moves to slot 2n; the insert for budget b sits
    at slot 2k+1 where k is the budget's position in the generator.  Only
    budgets strictly below the node's rank are inserted, so rank strictly
    descends along every edge of the result.  Leaves, labels, and ranks are
    untouched."""
    require_complement_free(code, "decorate")
    if not check_rank(code):
        raise ValidationError("decorate needs a rank-disciplined code")
    if not is_alternating(code):
        raise ValidationError("decorate needs an alternating code")
    return _decorate(code, gen)


def _decorate(node: BorelCode, gen: DecorationGenerator) -> BorelCode:
    if isinstance(node, Leaf):
        return node
    under_union = isinstance(node, UnionNode)
    items: list[tuple[int, BorelCode]] = [
        (2 * s, _decorate(c, gen)) for s, c in child_items(node)
    ]
    for k, (b, _, _) in enumerate(gen.entries):
        if b < node.rank:
            items.append((2 * k + 1, _decorate(gen.insert_for(b, under_union), gen)))
    items.sort(key=lambda sc: sc[0])
    slots = tuple(s for s, _ in items)
    kids = tuple(c for _, c in items)
    cls = UnionNode if under_union else InterNode
    return cls(children=kids, rank=node.rank, slots=slots)


@dataclass(frozen=True)
class PreservationReport:
    checked: int
    preserved: int
    captured: tuple[int, ...]
    violations: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return self.preserved == self.checked - len(self.captured) and not self.violations

    def __bool__(self) -> bool:
        return self.ok


def check_preservation(code: BorelCode, gen: DecorationGenerator,
                       points: Sequence[Point]) -> PreservationReport:
    """Membership audit of a decoration over sample points.

    Outside the generator's footprint the decorated code must agree with the
    original.  Points inside the footprint are only required to carry a
    clause-valid evaluation map on the decorated tree (which pins the map
    down uniquely); their indices are reported as captured."""
    decorated = decorate(code, gen)
    fp = gen.footprint()
    preserved = 0
    captured: list[int] = []
    violations: list[tuple[int, tuple[int, ...]]] = []
    for i, x in enumerate(points):
        emap = evaluate(decorated, x)
        for addr in eval_map_violations(decorated, x, emap):
            violations.append((i, addr))
        if point_in(x, fp):
            captured.append(i)
            continue
        if member(code, x) == member(decorated, x):
            preserved += 1
        else:
            violations.append((i, ()))
    return PreservationReport(len(points), preserved, tuple(captured), tuple(violations))
