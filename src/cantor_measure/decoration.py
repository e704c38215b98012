"""Padding ranked codes with budgeted side material.

A decoration generator supplies, for each ordinal budget b, a positive and a
negative insert: alternating codes of root rank exactly b with intersection
or leaf roots.  Decorating a ranked alternating code interleaves these under
every interior node whose rank exceeds the budget, positives under unions
and De Morgan complements of negatives under intersections, so that rank
discipline and alternation survive and membership can only change inside the
inserts' denotations.

check_preservation proves that last property over the whole space, by
clopen inclusions between the denotations of the original and the decorated
code, each folded once per distinct node.  The evaluation maps are checked
at sample points, read off the same denotations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
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
    fold,
    is_alternating,
    nodes,
    normalize_demorgan,
    require_complement_free,
)
from .dsl import MAX_CODE_NODES
from .dyadic import Dyadic
from .errors import CertificateError, ValidationError
from .ordinals import OrdinalNotation, descending_chain, notations_up_to
from .space import ClopenSet, Point, clopen_intersection, clopen_subset, clopen_union, locate, mu_I


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
            if neg is not pos:
                _insert_ok(neg, b, "negative")

    @classmethod
    def empty(cls, budgets: Iterable[OrdinalNotation]) -> "DecorationGenerator":
        """Generator whose inserts all denote the empty set, one entry per
        budget, with one rank chain as both its positive and its negative."""
        budgets = list(budgets)
        chains = _rank_chains((b, ClopenSet.empty()) for b in budgets)
        return cls(tuple((b, c, c) for b, c in zip(budgets, chains)))

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
        is immune to decoration.  One memo serves every insert, so a chain
        that is both halves of an entry is folded once."""
        memo: dict[tuple[int, bool], ClopenSet] = {}
        return clopen_union(*[denotation(c, memo) for _, pos, neg in self.entries
                              for c in (pos, neg)])


def _rank_chains(specs: Iterable[tuple[OrdinalNotation, ClopenSet]]) -> list[BorelCode]:
    """For each (b, label), an alternating chain of root rank exactly b
    denoting the clopen label: intersection root, kinds alternating down the
    rank chain, single-child nodes over one leaf.  One node per rank, and a
    finite part n of b takes n ranks; all the chains together are refused
    past MAX_CODE_NODES nodes, before the rest of them is stepped through."""
    room, out = MAX_CODE_NODES, []
    for b, label in specs:
        if b.is_zero():
            raise ValidationError("rank chain needs a positive root rank")
        chain = list(islice(descending_chain(b), room + 1))
        room -= len(chain)
        if room < 0:
            raise ValidationError(f"rank chain of a budget exceeds MAX_CODE_NODES = "
                                  f"{MAX_CODE_NODES} nodes, with the chains built before it")
        node: BorelCode = Leaf(label, rank=chain[-1])
        for i in range(len(chain) - 2, -1, -1):
            cls = InterNode if i % 2 == 0 else UnionNode
            node = cls(children=(node,), rank=chain[i])
        out.append(node)
    return out


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
    chains = iter(_rank_chains((b, ClopenSet(tuple(g + bit for g in t.generators)))
                               for b, t in zip(blist, targets) for bit in "01"))
    return DecorationGenerator(tuple(zip(blist, chains, chains)))


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
    return fold(code, partial(_decorated, gen, {}))


def _decorated(gen: DecorationGenerator, inserts: dict[tuple[int, bool], BorelCode],
               node: BorelCode, kids: list[BorelCode], flip: bool) -> BorelCode:
    """The decorated node; insert (k, under_union) is built the first time a
    node takes it.  Nodes take inserts in ascending budget order, and an
    insert of budget b has rank b, so its nodes ask only for lower budgets:
    those on the taker's side are built, and one on the other side is built
    by a nested fold that finds both sides below its budget built, so
    nesting is at most two levels deep."""
    if isinstance(node, Leaf):
        return node
    under_union = isinstance(node, UnionNode)
    items = [(2 * s, kid) for (s, _), kid in zip(child_items(node), kids)]
    for k, (b, _, _) in enumerate(gen.entries):
        if b < node.rank:
            if (k, under_union) not in inserts:
                inserts[k, under_union] = fold(gen.insert_for(b, under_union),
                                               partial(_decorated, gen, inserts))
            items.append((2 * k + 1, inserts[k, under_union]))
    items.sort(key=lambda sc: sc[0])
    slots = tuple(s for s, _ in items)
    kids = tuple(c for _, c in items)
    return type(node)(children=kids, rank=node.rank, slots=slots)


@dataclass(frozen=True)
class PreservationReport:
    """Sample counts, violations (point index, () for a sample point
    outside the footprint whose membership changed), and whether the two
    codes agree outside the footprint over the whole space (an audit of
    samples alone leaves it True)."""

    checked: int
    preserved: int
    captured: tuple[int, ...]
    violations: tuple[tuple[int, tuple[int, ...]], ...]
    whole_space: bool = True

    @property
    def ok(self) -> bool:
        return self.whole_space and not self.violations


def check_preservation(code: BorelCode, gen: DecorationGenerator, points: Sequence[Point],
                       decorated: BorelCode | None = None) -> PreservationReport:
    """Audit of decorated = decorate(code, gen), built here unless given.

    Outside the generator's footprint F the decorated code must agree with
    the original.  One fold memoized by node identity gives every distinct
    node's denotation (decorate shares each insert across the nodes it
    pads), and den(code) <= den(decorated) | F and den(decorated) <=
    den(code) | F prove that over the whole space.

    Each sample point's cell is the longest string, "" included, of the
    sorted generators of F and of every denotation that is a prefix of it
    (locate's walk), and both codes' memberships are read off the
    denotations there.  That is exact: each generator of a denotation D
    that is a prefix of x is in the list, so it is a prefix of x's cell
    too, and x is in D exactly when D covers the whole cell; likewise for
    F.  Points inside F are captured; any other is preserved when both
    memberships agree, and a violation (its index, ()) when they differ.
    Every distinct interior node's denotation must also agree with its
    clause over its children's at each cell, or the clopen algebra is at
    fault and a CertificateError names the node's address."""
    if decorated is None:
        decorated = decorate(code, gen)
    fp = gen.footprint()
    dens: dict[tuple[int, bool], ClopenSet] = {}
    after, before = denotation(decorated, dens), denotation(code, dens)
    whole = (clopen_subset(before, clopen_union(after, fp))
             and clopen_subset(after, clopen_union(before, fp)))
    gens = sorted(set(fp.generators).union(("",), *(den.generators for den in dens.values())))
    located = [gens[locate(gens, x)] for x in points]
    cells = {c: j for j, c in enumerate(dict.fromkeys(located))}
    masks: dict[tuple[int, bool], int] = {}
    for tree in (decorated, code):
        clashes: list[BorelCode] = []
        fold(tree, partial(_cell_mask, dens, list(cells), clashes), masks)
        if clashes:
            where = next(addr for addr, node in nodes(tree) if node is clashes[0])
            raise CertificateError(f"denotation disagrees with its clause at {where}")
    changed = masks[id(decorated), False] ^ masks[id(code), False]
    captured, violations = [], []
    for i, c in enumerate(located):
        if fp.covers_prefix(c):
            captured.append(i)
        elif changed >> cells[c] & 1:
            violations.append((i, ()))
    preserved = len(points) - len(captured) - len(violations)
    return PreservationReport(len(points), preserved, tuple(captured), tuple(violations), whole)


def _cell_mask(dens: dict[tuple[int, bool], ClopenSet], cells: list[str],
               clashes: list[BorelCode], node: BorelCode, kids: list[int], flip: bool) -> int:
    """Bit j set when cell j lies in the node's denotation; an interior
    node whose bits differ from its clause over its children's goes to
    clashes."""
    den = dens[id(node), flip]
    mask = sum(1 << j for j, c in enumerate(cells) if den.covers_prefix(c))
    if isinstance(node, (UnionNode, InterNode)):
        union = isinstance(node, UnionNode)
        clause = 0 if union else (1 << len(cells)) - 1
        for k in kids:
            clause = clause | k if union else clause & k
        if mask != clause:
            clashes.append(node)
    return mask
