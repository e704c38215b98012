"""Borel codes: well-founded labeled trees over clopen leaves.

Interior nodes are finite unions and intersections; complement nodes are a
transient surface form removed by normalize_demorgan.  Interior nodes may
place children at explicit sparse slots (trees live inside omega^<omega, and
the decoration transform needs gaps); a slot path is a node's address.

Evaluation at a point assigns every node a 0/1 value: leaves by membership,
unions by max over children, intersections by min.  An empty union denotes
the empty set, an empty intersection the whole space.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import reduce
from typing import Sequence, Union as TUnion

from .errors import ValidationError
from .ordinals import ONE_ORD, OrdinalNotation
from .space import (
    ClopenSet,
    Point,
    clopen_complement,
    clopen_intersection,
    clopen_union,
    point_in,
)
from .stepfn import StepFunction

Address = tuple[int, ...]


def _check_slots(children: tuple, slots: tuple[int, ...] | None) -> None:
    if slots is None:
        return
    if len(slots) != len(children):
        raise ValidationError("slots and children must align")
    if list(slots) != sorted(set(slots)) or any(s < 0 for s in slots):
        raise ValidationError(f"slots must be distinct, ascending, nonnegative: {slots}")


@dataclass(frozen=True)
class Leaf:
    label: ClopenSet
    rank: OrdinalNotation | None = None


@dataclass(frozen=True)
class UnionNode:
    children: tuple["BorelCode", ...]
    rank: OrdinalNotation | None = None
    slots: tuple[int, ...] | None = None

    def __post_init__(self):
        _check_slots(self.children, self.slots)


@dataclass(frozen=True)
class InterNode:
    children: tuple["BorelCode", ...]
    rank: OrdinalNotation | None = None
    slots: tuple[int, ...] | None = None

    def __post_init__(self):
        _check_slots(self.children, self.slots)


@dataclass(frozen=True)
class ComplNode:
    child: "BorelCode"
    rank: OrdinalNotation | None = None


BorelCode = TUnion[Leaf, UnionNode, InterNode, ComplNode]


def child_items(node: BorelCode) -> tuple[tuple[int, BorelCode], ...]:
    if isinstance(node, (UnionNode, InterNode)):
        slots = node.slots if node.slots is not None else tuple(range(len(node.children)))
        return tuple(zip(slots, node.children))
    if isinstance(node, ComplNode):
        return ((0, node.child),)
    return ()


def addresses(code: BorelCode) -> list[Address]:
    """All node addresses, depth-first preorder."""
    out: list[Address] = []

    def walk(node: BorelCode, addr: Address) -> None:
        out.append(addr)
        for slot, child in child_items(node):
            walk(child, addr + (slot,))

    walk(code, ())
    return out


def bfs_addresses(code: BorelCode) -> list[Address]:
    out: list[Address] = []
    queue: deque[tuple[BorelCode, Address]] = deque([(code, ())])
    while queue:
        node, addr = queue.popleft()
        out.append(addr)
        for slot, child in child_items(node):
            queue.append((child, addr + (slot,)))
    return out


def subtree(code: BorelCode, addr: Address) -> BorelCode:
    node = code
    for slot in addr:
        for s, child in child_items(node):
            if s == slot:
                node = child
                break
        else:
            raise ValidationError(f"no child at slot {slot} under address {addr}")
    return node


def is_complement_free(code: BorelCode) -> bool:
    if isinstance(code, ComplNode):
        return False
    return all(is_complement_free(c) for _, c in child_items(code))


def require_complement_free(code: BorelCode, op: str) -> None:
    if not is_complement_free(code):
        raise ValidationError(f"{op} requires a complement-free code")


def support_depth(code: BorelCode) -> int:
    """Membership depends only on the first support_depth(code) bits."""
    if isinstance(code, Leaf):
        return code.label.depth()
    return max((support_depth(c) for _, c in child_items(code)), default=0)


# ---------------------------------------------------------------------------
# normalization

def normalize_demorgan(code: BorelCode) -> BorelCode:
    """Push complements to the leaves and remove them.

    Complemented leaves become their clopen complements; complemented unions
    become intersections of complemented children and dually.  Ranks are left
    in place on uncomplemented structure (shape under a flipped polarity is
    preserved, so any annotation present stays positionally valid)."""

    def walk(node: BorelCode, flip: bool) -> BorelCode:
        if isinstance(node, ComplNode):
            return walk(node.child, not flip)
        if isinstance(node, Leaf):
            label = clopen_complement(node.label) if flip else node.label
            return Leaf(label, node.rank)
        kids = tuple(walk(c, flip) for _, c in child_items(node))
        slots = node.slots
        if isinstance(node, UnionNode):
            cls = InterNode if flip else UnionNode
        else:
            cls = UnionNode if flip else InterNode
        return cls(kids, node.rank, slots)

    return walk(code, False)


def is_alternating(code: BorelCode) -> bool:
    """Unions and intersections strictly interleave along every branch."""
    require_complement_free(code, "is_alternating")

    def walk(node: BorelCode) -> bool:
        for _, child in child_items(node):
            if type(child) is type(node):
                return False
            if not walk(child):
                return False
        return True

    return walk(code)


def make_alternating(code: BorelCode) -> BorelCode:
    """Fuse same-kind parent/child chains bottom-up.

    A fused node absorbs the children of any like-kind child.  Fused nodes
    are re-slotted densely (the splice has no canonical sparse layout) and,
    when the input was rank-annotated, get rank = max child rank + 1."""
    require_complement_free(code, "make_alternating")

    def walk(node: BorelCode) -> BorelCode:
        if isinstance(node, Leaf):
            return node
        kids = [walk(c) for _, c in child_items(node)]
        if not any(type(k) is type(node) for k in kids):
            return replace(node, children=tuple(kids))
        spliced: list[BorelCode] = []
        for k in kids:
            if type(k) is type(node):
                spliced.extend(c for _, c in child_items(k))
            else:
                spliced.append(k)
        rank = node.rank
        if rank is not None:
            ranks = [k.rank for k in spliced]
            if any(r is None for r in ranks):
                raise ValidationError("cannot recompute fused rank: child rank missing")
            rank = max(ranks).successor() if ranks else ONE_ORD
        return type(node)(tuple(spliced), rank, None)

    return walk(code)


# ---------------------------------------------------------------------------
# ranks

def check_rank(code: BorelCode) -> bool:
    """Rank laws: leaves rank 1, children strictly below their parent.

    Missing annotations are a structural error naming the offending address;
    law violations return False."""

    def walk(node: BorelCode, addr: Address) -> bool:
        if node.rank is None:
            raise ValidationError(f"missing rank annotation at address {addr}")
        if isinstance(node, Leaf):
            return node.rank == ONE_ORD
        for slot, child in child_items(node):
            if child.rank is None:
                raise ValidationError(f"missing rank annotation at address {addr + (slot,)}")
            if not child.rank < node.rank:
                return False
            if not walk(child, addr + (slot,)):
                return False
        return True

    return walk(code, ())


def annotate_min_ranks(code: BorelCode) -> BorelCode:
    """Minimal valid ranking: leaves 1, interior max child rank + 1."""
    require_complement_free(code, "annotate_min_ranks")
    if isinstance(code, Leaf):
        return Leaf(code.label, ONE_ORD)
    kids = tuple(annotate_min_ranks(c) for _, c in child_items(code))
    rank = max((k.rank for k in kids), default=OrdinalNotation.zero()).successor()
    if rank < OrdinalNotation.finite(2):
        rank = OrdinalNotation.finite(2)
    return type(code)(kids, rank, code.slots)


# ---------------------------------------------------------------------------
# evaluation

EvalMap = dict[Address, int]


def evaluate(code: BorelCode, x: Point) -> EvalMap:
    """The unique clause-respecting 0/1 assignment to all node addresses."""
    require_complement_free(code, "evaluate")
    out: EvalMap = {}

    def walk(node: BorelCode, addr: Address) -> int:
        if isinstance(node, Leaf):
            v = 1 if point_in(x, node.label) else 0
        else:
            vals = [walk(c, addr + (s,)) for s, c in child_items(node)]
            if isinstance(node, UnionNode):
                v = max(vals, default=0)
            else:
                v = min(vals, default=1)
        out[addr] = v
        return v

    walk(code, ())
    return out


def member(code: BorelCode, x: Point) -> bool:
    """Root value of the evaluation map, with short-circuiting."""
    require_complement_free(code, "member")

    def walk(node: BorelCode) -> bool:
        if isinstance(node, Leaf):
            return point_in(x, node.label)
        if isinstance(node, UnionNode):
            return any(walk(c) for _, c in child_items(node))
        return all(walk(c) for _, c in child_items(node))

    return walk(code)


def eval_map_violations(code: BorelCode, x: Point, emap: EvalMap) -> list[Address]:
    """Addresses whose clause is broken by emap; [] certifies emap is THE
    evaluation map (values are forced bottom-up, so clause-validity at every
    node is equivalent to uniqueness)."""
    bad = []
    for addr in addresses(code):
        node = subtree(code, addr)
        if addr not in emap:
            bad.append(addr)
            continue
        if isinstance(node, Leaf):
            want = 1 if point_in(x, node.label) else 0
        else:
            vals = [emap.get(addr + (s,)) for s, _ in child_items(node)]
            if any(v is None for v in vals):
                bad.append(addr)
                continue
            want = max(vals, default=0) if isinstance(node, UnionNode) else min(vals, default=1)
        if emap[addr] != want:
            bad.append(addr)
    return bad


def denotation(code: BorelCode) -> ClopenSet:
    """The denotation of a complement-free code as a clopen set: a leaf
    gives its label, a union node the union of its children, an
    intersection node the intersection of its children folded from the
    full space."""
    require_complement_free(code, "denotation")

    def fold(node: BorelCode) -> ClopenSet:
        if isinstance(node, Leaf):
            return node.label
        kids = [fold(c) for _, c in child_items(node)]
        if isinstance(node, UnionNode):
            return clopen_union(*kids)
        return reduce(clopen_intersection, kids, ClopenSet.full())

    return fold(code)


def membership_table(code: BorelCode, depth: int | None = None) -> tuple[int, list[int]]:
    """(d, table) with table[int(p, 2)] = membership of [p] for all p in 2^d.

    Valid because membership depends only on the first support_depth bits."""
    d = support_depth(code) if depth is None else depth
    if d < support_depth(code):
        raise ValidationError("table depth below support depth")
    return d, list(StepFunction.from_char(denotation(code)).at_depth(d))


# ---------------------------------------------------------------------------
# relocation and stacking

def relocate(n: int, code: BorelCode) -> BorelCode:
    """Rewrite every leaf generator p to 0^n 1 p; the denotation moves into
    the cylinder [0^n 1] and the measure scales by 2^-(n+1)."""
    require_complement_free(code, "relocate")
    if n < 0:
        raise ValidationError("relocation index must be nonnegative")
    prefix = "0" * n + "1"

    def walk(node: BorelCode) -> BorelCode:
        if isinstance(node, Leaf):
            return Leaf(ClopenSet(tuple(prefix + g for g in node.label.generators)), node.rank)
        kids = tuple(walk(c) for _, c in child_items(node))
        return type(node)(kids, node.rank, node.slots)

    return walk(code)


def tilde(code: BorelCode, h: Sequence[Address]) -> BorelCode:
    """Union over n of relocate(n, subtree at h[n]).

    h must enumerate (onto) every address of the code; each slice of the
    result recovers one subtree inside its private cylinder [0^n 1]."""
    require_complement_free(code, "tilde")
    want = set(addresses(code))
    got = set()
    for addr in h:
        if addr not in want:
            raise ValidationError(f"h lists {addr}, not an address of the code")
        got.add(addr)
    if got != want:
        raise ValidationError(f"h misses addresses {sorted(want - got)}")
    return UnionNode(tuple(relocate(n, subtree(code, addr)) for n, addr in enumerate(h)))


# ---------------------------------------------------------------------------
# propositional formulas

@dataclass(frozen=True)
class FLeaf:
    value: bool


@dataclass(frozen=True)
class FUnion:
    children: tuple["FormulaCode", ...]


@dataclass(frozen=True)
class FInter:
    children: tuple["FormulaCode", ...]


FormulaCode = TUnion[FLeaf, FUnion, FInter]


def eval_formula(phi: FormulaCode) -> dict[Address, bool]:
    """Unique determination map: empty disjunction false, empty conjunction
    true."""
    out: dict[Address, bool] = {}

    def walk(node: FormulaCode, addr: Address) -> bool:
        if isinstance(node, FLeaf):
            v = node.value
        else:
            vals = [walk(c, addr + (i,)) for i, c in enumerate(node.children)]
            v = any(vals) if isinstance(node, FUnion) else (all(vals) if vals else True)
        out[addr] = v
        return v

    walk(phi, ())
    return out


def formula_value(phi: FormulaCode) -> bool:
    return eval_formula(phi)[()]


def encode_formulas(phis: Sequence[FormulaCode]) -> BorelCode:
    """Union over n of phi_n with true leaves replaced by the cylinder
    [0^n 1] and false leaves by the empty set; the truth of phi_n is then
    readable from the measure of the result inside [0^n 1]."""

    def convert(node: FormulaCode, n: int) -> BorelCode:
        if isinstance(node, FLeaf):
            label = ClopenSet.cylinder("0" * n + "1") if node.value else ClopenSet.empty()
            return Leaf(label)
        kids = tuple(convert(c, n) for c in node.children)
        return (UnionNode if isinstance(node, FUnion) else InterNode)(kids)

    return UnionNode(tuple(convert(phi, n) for n, phi in enumerate(phis)))
