"""Borel codes: well-founded labeled trees over clopen leaves.

Interior nodes are finite unions and intersections; complement nodes are a
transient surface form removed by normalize_demorgan.  Interior nodes may
place children at explicit sparse slots (trees live inside omega^<omega, and
the decoration transform needs gaps); a slot path is a node's address.

Evaluation at a point assigns every node a 0/1 value: leaves by membership,
unions by max over children, intersections by min.  An empty union denotes
the empty set, an empty intersection the whole space.

Every node carries its facts from construction: `children` (empty for a
leaf, the one child of a complement) and `complement_free`, which an
interior node computes once from its children's flags.  Tree transforms are
callbacks to `fold`, one iterative postorder walk, and walks keyed by
address loop over `nodes`, so no walk recurses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial, reduce
from typing import Callable, Sequence, TypeVar, Union as TUnion

from .errors import ValidationError
from .ordinals import ONE_ORD, OrdinalNotation
from .space import (
    ClopenSet,
    Point,
    clopen_complement,
    clopen_intersection,
    clopen_union,
)
from .stepfn import StepFunction

Address = tuple[int, ...]
T = TypeVar("T")


@dataclass(frozen=True)
class Leaf:
    label: ClopenSet
    rank: OrdinalNotation | None = None

    children = ()
    complement_free = True


@dataclass(frozen=True)
class _Interior:
    """Fields shared by union and intersection nodes."""

    children: tuple["BorelCode", ...]
    rank: OrdinalNotation | None = None
    slots: tuple[int, ...] | None = None
    complement_free: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.slots is not None:
            if len(self.slots) != len(self.children):
                raise ValidationError("slots and children must align")
            if list(self.slots) != sorted(set(self.slots)) or any(s < 0 for s in self.slots):
                raise ValidationError(f"slots must be distinct, ascending, nonnegative: {self.slots}")
        object.__setattr__(self, "complement_free", all(c.complement_free for c in self.children))


class UnionNode(_Interior):
    pass


class InterNode(_Interior):
    pass


@dataclass(frozen=True)
class ComplNode:
    child: "BorelCode"
    rank: OrdinalNotation | None = None

    complement_free = False

    @property
    def children(self) -> tuple["BorelCode"]:
        return (self.child,)


BorelCode = TUnion[Leaf, UnionNode, InterNode, ComplNode]


def child_items(node: BorelCode) -> tuple[tuple[int, BorelCode], ...]:
    if isinstance(node, Leaf):
        return ()
    slots = node.slots if isinstance(node, _Interior) else None
    return tuple(zip(range(len(node.children)) if slots is None else slots, node.children))


def fold(code: BorelCode, f: Callable[[BorelCode, list, bool], T],
         memo: dict[tuple[int, bool], T] | None = None) -> T:
    """f(node, its children's values in order, polarity) at every node,
    children before parents, returning the root's value; the polarity is
    True under an odd number of complements.  An explicit stack, linear in
    the node count; f gets a fresh list it may keep.

    With a memo, each value is also kept under its node's id and polarity,
    and a node found there is not walked again, so a code that shares
    subtrees costs one call of f per distinct node and polarity.  The memo
    is only valid while its nodes live."""
    vals: list = []
    todo: list = [(code, False, False)]
    while todo:
        node, flip, ready = todo.pop()
        if memo is not None and (id(node), flip) in memo:
            vals.append(memo[id(node), flip])
            continue
        kids = node.children
        if kids and not ready:  # visit the children first, then come back
            todo.append((node, flip, True))
            flip ^= isinstance(node, ComplNode)
            todo += [(c, flip, False) for c in reversed(kids)]
            continue
        cut = len(vals) - len(kids)
        vals[cut:] = [f(node, vals[cut:], flip)]  # the node's value replaces its children's
        if memo is not None:
            memo[id(node), flip] = vals[-1]
    return vals[0]


def nodes(code: BorelCode) -> list[tuple[Address, BorelCode]]:
    """Every (address, node) pair, depth-first preorder: a node comes before
    its descendants, so the reversed list visits children before parents."""
    out: list[tuple[Address, BorelCode]] = []
    todo: list[tuple[Address, BorelCode]] = [((), code)]
    while todo:
        addr, node = todo.pop()
        out.append((addr, node))
        todo += [(addr + (slot,), child) for slot, child in reversed(child_items(node))]
    return out


def addresses(code: BorelCode) -> list[Address]:
    """All node addresses, depth-first preorder."""
    return [addr for addr, _ in nodes(code)]


def subtree(code: BorelCode, addr: Address) -> BorelCode:
    node = code
    for slot in addr:
        kids = dict(child_items(node))
        if slot not in kids:
            raise ValidationError(f"no child at slot {slot} under address {addr}")
        node = kids[slot]
    return node


def require_complement_free(code: BorelCode, op: str) -> None:
    if not code.complement_free:
        raise ValidationError(f"{op} requires a complement-free code")


def support_depth(code: BorelCode) -> int:
    """Membership depends only on the first support_depth(code) bits."""
    return fold(code, _support_depth)


def _support_depth(node: BorelCode, depths: list[int], flip: bool) -> int:
    return node.label.depth() if isinstance(node, Leaf) else max(depths, default=0)


# ---------------------------------------------------------------------------
# normalization

def normalize_demorgan(code: BorelCode) -> BorelCode:
    """Push complements to the leaves and remove them.

    Complemented leaves become their clopen complements; complemented unions
    become intersections of complemented children and dually.  Ranks are left
    in place on uncomplemented structure (shape under a flipped polarity is
    preserved, so any annotation present stays positionally valid)."""
    return fold(code, _demorgan)


def _demorgan(node: BorelCode, kids: list[BorelCode], flip: bool) -> BorelCode:
    if isinstance(node, ComplNode):
        return kids[0]  # already built under the flipped polarity
    if isinstance(node, Leaf):
        label = clopen_complement(node.label) if flip else node.label
        return Leaf(label, node.rank)
    cls = type(node)
    if flip:
        cls = InterNode if cls is UnionNode else UnionNode
    return cls(tuple(kids), node.rank, node.slots)


def is_alternating(code: BorelCode) -> bool:
    """Unions and intersections strictly interleave along every branch."""
    require_complement_free(code, "is_alternating")
    return fold(code, _alternates)


def _alternates(node: BorelCode, below: list[bool], flip: bool) -> bool:
    return all(below) and not any(type(c) is type(node) for c in node.children)


def make_alternating(code: BorelCode) -> BorelCode:
    """Fuse same-kind parent/child chains bottom-up.

    A fused node absorbs the children of any like-kind child.  Fused nodes
    are re-slotted densely (the splice has no canonical sparse layout) and,
    when the input was rank-annotated, get rank = max child rank + 1.

    The fold leaves each interior node unbuilt until its parent shows
    whether it is spliced, so the head of each maximal same-kind region
    gathers the region's frontier once and the walk stays linear."""
    require_complement_free(code, "make_alternating")
    return _built(fold(code, _fuse))


@dataclass
class _Unbuilt:
    """An interior node whose parent may still splice it: built children of
    the other kind, and unbuilt ones of its own kind."""

    node: _Interior
    kids: list


def _fuse(node: BorelCode, kids: list, flip: bool) -> BorelCode | _Unbuilt:
    if isinstance(node, Leaf):
        return node
    return _Unbuilt(node, [_built(k) if type(k) is _Unbuilt and type(k.node) is not type(node) else k
                           for k in kids])


def _built(top: BorelCode | _Unbuilt) -> BorelCode:
    if type(top) is not _Unbuilt:
        return top
    node = top.node
    if not any(type(k) is _Unbuilt for k in top.kids):
        return replace(node, children=tuple(top.kids))
    spliced: list[BorelCode] = []
    todo = top.kids[::-1]
    while todo:  # the region's frontier, left to right
        k = todo.pop()
        if type(k) is _Unbuilt:
            todo += k.kids[::-1]
        else:
            spliced.append(k)
    rank = node.rank
    if rank is not None:
        ranks = [k.rank for k in spliced]
        if any(r is None for r in ranks):
            raise ValidationError("cannot recompute fused rank: child rank missing")
        rank = max(ranks).successor() if ranks else ONE_ORD
    return type(node)(tuple(spliced), rank, None)


# ---------------------------------------------------------------------------
# ranks

def check_rank(code: BorelCode) -> bool:
    """Rank laws: leaves rank 1, children strictly below their parent.

    Missing annotations are a structural error naming the offending address;
    law violations return False.  Each entry holds its parent's entry and its
    slot, so the walk is linear and an address is built only to be named."""
    todo: list[tuple] = [(code, None, None)]
    while todo:  # preorder: each node is checked against its parent, then itself
        entry = node, up, _ = todo.pop()
        if node.rank is None:
            slots = []
            while entry[1] is not None:
                slots.append(entry[2])
                entry = entry[1]
            raise ValidationError(f"missing rank annotation at address {tuple(reversed(slots))}")
        if up is not None and not node.rank < up[0].rank:
            return False
        if isinstance(node, Leaf) and node.rank != ONE_ORD:
            return False
        todo += [(c, entry, s) for s, c in reversed(child_items(node))]
    return True


def annotate_min_ranks(code: BorelCode) -> BorelCode:
    """Minimal valid ranking: leaves 1, interior max child rank + 1."""
    require_complement_free(code, "annotate_min_ranks")
    return fold(code, _min_ranks)


def _min_ranks(node: BorelCode, kids: list[BorelCode], flip: bool) -> BorelCode:
    if isinstance(node, Leaf):
        return Leaf(node.label, ONE_ORD)
    rank = max((k.rank for k in kids), default=OrdinalNotation.zero()).successor()
    if rank < OrdinalNotation.finite(2):
        rank = OrdinalNotation.finite(2)
    return type(node)(tuple(kids), rank, node.slots)


# ---------------------------------------------------------------------------
# evaluation

EvalMap = dict[Address, int]


def evaluate(code: BorelCode, x: Point) -> EvalMap:
    """The unique clause-respecting 0/1 assignment to all node addresses."""
    require_complement_free(code, "evaluate")
    out: EvalMap = {}
    for addr, node in reversed(nodes(code)):
        if isinstance(node, Leaf):
            out[addr] = 0 if node.label.hit(x) is None else 1
        else:
            vals = [out[addr + (s,)] for s, _ in child_items(node)]
            out[addr] = max(vals, default=0) if isinstance(node, UnionNode) else min(vals, default=1)
    return out


def eval_map_violations(code: BorelCode, x: Point, emap: EvalMap) -> list[Address]:
    """Addresses whose clause is broken by emap; [] certifies emap is THE
    evaluation map (values are forced bottom-up, so clause-validity at every
    node is equivalent to uniqueness)."""
    bad = []
    for addr, node in nodes(code):
        if addr not in emap:
            bad.append(addr)
            continue
        if isinstance(node, Leaf):
            want = 0 if node.label.hit(x) is None else 1
        else:
            vals = [emap.get(addr + (s,)) for s, _ in child_items(node)]
            if any(v is None for v in vals):
                bad.append(addr)
                continue
            want = max(vals, default=0) if isinstance(node, UnionNode) else min(vals, default=1)
        if emap[addr] != want:
            bad.append(addr)
    return bad


def denotation(code: BorelCode, memo: dict[tuple[int, bool], ClopenSet] | None = None) -> ClopenSet:
    """The denotation of a complement-free code as a clopen set: a leaf
    gives its label, a union node the union of its children, an
    intersection node the intersection of its children, or the full space
    when it has none.  A memo (see fold) keeps every distinct node's."""
    require_complement_free(code, "denotation")
    return fold(code, _denotation, memo)


def _denotation(node: BorelCode, kids: list[ClopenSet], flip: bool) -> ClopenSet:
    if isinstance(node, Leaf):
        return node.label
    if isinstance(node, UnionNode):
        return clopen_union(*kids)
    return reduce(clopen_intersection, kids) if kids else ClopenSet.full()


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
    return fold(code, partial(_relocated, "0" * n + "1"))


def _relocated(prefix: str, node: BorelCode, kids: list[BorelCode], flip: bool) -> BorelCode:
    if isinstance(node, Leaf):
        return Leaf(ClopenSet(tuple(prefix + g for g in node.label.generators)), node.rank)
    return type(node)(tuple(kids), node.rank, node.slots)


def tilde(code: BorelCode, h: Sequence[Address]) -> BorelCode:
    """Union over n of relocate(n, subtree at h[n]).

    h must enumerate (onto) every address of the code; each slice of the
    result recovers one subtree inside its private cylinder [0^n 1]."""
    require_complement_free(code, "tilde")
    want = set(addresses(code))
    for addr in h:
        if addr not in want:
            raise ValidationError(f"h lists {addr}, not an address of the code")
    if set(h) != want:
        raise ValidationError(f"h misses addresses {sorted(want - set(h))}")
    return UnionNode(tuple(relocate(n, subtree(code, addr)) for n, addr in enumerate(h)))
