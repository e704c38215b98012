"""Seeded input corpora and independent answer oracles.

Codes are built here as plain tuples and handed to the program only as DSL
text, so the oracles below never touch the package: they count measure by
splitting prefixes until every leaf is decided, with Fraction arithmetic.

Tree nodes:
    ("cyl", bits) | ("empty",) | ("full",)
    ("union", kids) | ("inter", kids) | ("compl", kid) | ("reloc", n, kid)
"""

from __future__ import annotations

import random
from fractions import Fraction


def dsl(node) -> str:
    kind = node[0]
    if kind == "cyl":
        return f"cyl({node[1]})"
    if kind in ("empty", "full"):
        return kind
    if kind in ("union", "inter"):
        return f"{kind}(" + ",".join(dsl(k) for k in node[1]) + ")"
    if kind == "compl":
        return f"compl({dsl(node[1])})"
    if kind == "reloc":
        return f"reloc({node[1]},{dsl(node[2])})"
    raise ValueError(f"unknown node {kind!r}")


def _decided(node, p: str):
    """True / False when every point of [p] is in / out of the node's set,
    None when [p] is split."""
    kind = node[0]
    if kind == "cyl":
        g = node[1]
        if p.startswith(g):
            return True
        return None if g.startswith(p) else False
    if kind == "empty":
        return False
    if kind == "full":
        return True
    if kind == "compl":
        v = _decided(node[1], p)
        return None if v is None else not v
    if kind == "reloc":
        q = "0" * node[1] + "1"
        if p.startswith(q):
            return _decided(node[2], p[len(q):])
        return None if q.startswith(p) else False
    vals = [_decided(k, p) for k in node[1]]
    if kind == "union":
        if True in vals:
            return True
        return False if all(v is False for v in vals) else None
    if False in vals:
        return False
    return True if all(v is True for v in vals) else None


def true_cells(node, p: str = "") -> list[str]:
    """The prefixes, shallowest first per branch, whose cylinders make up the
    node's set (not merged: [p0] and [p1] may both appear)."""
    v = _decided(node, p)
    if v is True:
        return [p]
    if v is False:
        return []
    return true_cells(node, p + "0") + true_cells(node, p + "1")


def measure(node) -> Fraction:
    return sum((Fraction(1, 1 << len(p)) for p in true_cells(node)), Fraction(0))


def contains(node, bit) -> bool:
    """Membership of the point whose n-th bit is bit(n)."""
    kind = node[0]
    if kind == "cyl":
        return all(bit(i) == int(c) for i, c in enumerate(node[1]))
    if kind == "empty":
        return False
    if kind == "full":
        return True
    if kind == "compl":
        return not contains(node[1], bit)
    if kind == "reloc":
        n = node[1]
        if any(bit(i) for i in range(n)) or bit(n) != 1:
            return False
        return contains(node[2], lambda i: bit(i + n + 1))
    vals = (contains(k, bit) for k in node[1])
    return any(vals) if kind == "union" else all(vals)


def normalized_nodes(node, addr=(), ctx=()):
    """(address, denotation) for every node the parsed and De Morgan
    normalized code keeps.  Complement and reloc nodes vanish and their
    child takes their address; the denotation re-wraps the kept subtree in
    every complement and reloc met on the way down, outermost first."""
    kind = node[0]
    if kind == "compl":
        yield from normalized_nodes(node[1], addr, ctx + (("compl",),))
        return
    if kind == "reloc":
        yield from normalized_nodes(node[2], addr, ctx + (("reloc", node[1]),))
        return
    denot = node
    for wrap in reversed(ctx):
        denot = wrap + (denot,)
    yield addr, denot
    if kind in ("union", "inter"):
        for s, k in enumerate(node[1]):
            yield from normalized_nodes(k, addr + (s,), ctx)


def leaf_depth(node) -> int:
    """Longest leaf generator, counting reloc prefixes."""
    kind = node[0]
    if kind == "cyl":
        return len(node[1])
    if kind in ("empty", "full"):
        return 0
    if kind == "compl":
        return leaf_depth(node[1])
    if kind == "reloc":
        return node[1] + 1 + leaf_depth(node[2])
    return max(leaf_depth(k) for k in node[1])


def leaf_count(node) -> int:
    kind = node[0]
    if kind in ("cyl", "empty", "full"):
        return 1
    if kind == "compl":
        return leaf_count(node[1])
    if kind == "reloc":
        return leaf_count(node[2])
    return sum(leaf_count(k) for k in node[1])


def ep_bit(head: str, period: str):
    """Bit reader for the eventually periodic point head period^omega."""
    def bit(n: int) -> int:
        if n < len(head):
            return int(head[n])
        return int(period[(n - len(head)) % len(period)])
    return bit


def fraction_of(text: str) -> Fraction:
    """Parse a report value 'num/2^exp'."""
    num, exp = text.split("/2^")
    return Fraction(int(num), 1 << int(exp))


# ---------------------------------------------------------------------------
# generators: every code of a family has the same leaf count and leaf
# depths, so pool members cost about the same and run-to-run spread comes
# from the machine, not from which members a seed picks

def random_bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def ladder(d: int):
    """union(cyl(0^d),inter(cyl(1),cyl(1^d))): measure 2^(1-d)."""
    return ("union", (("cyl", "0" * d), ("inter", (("cyl", "1"), ("cyl", "1" * d)))))


def few_leaf(rng: random.Random, depth: int):
    """Four leaves, two of them depth long: a deep cylinder, a deep cylinder
    inside a shallow one, and a shallow decoy."""
    a = random_bits(rng, depth)
    b = random_bits(rng, rng.randint(1, 3))
    c = b + random_bits(rng, depth - len(b))
    e = random_bits(rng, 4)
    return ("union", (("cyl", a), ("inter", (("cyl", b), ("cyl", c))), ("compl", ("compl", ("cyl", e)))))


def wide_nested(rng: random.Random, leaves: int, max_bits: int = 10, levels: int = 4):
    """Alternating union/inter tree with exactly `leaves` leaves of 3 to
    max_bits bits; one child in five sits under a complement.

    The shape, the complements and the leaf lengths come from a template
    fixed by `leaves`; rng only draws the leaf bits."""
    shape = random.Random(f"wide-nested/{leaves}")

    def build(n: int, level: int, kind: str):
        if n == 1 or level == 0:
            kids = [("cyl", random_bits(rng, shape.randint(3, max_bits))) for _ in range(n)]
        else:
            k = min(n, shape.randint(2, 4))
            cuts = sorted(shape.sample(range(1, n), k - 1))
            sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
            other = "inter" if kind == "union" else "union"
            kids = [build(s, level - 1, other) for s in sizes]
        kids = [("compl", c) if shape.random() < 0.2 else c for c in kids]
        return kids[0] if len(kids) == 1 else (kind, tuple(kids))

    return build(leaves, levels, "union")


def shallow(rng: random.Random):
    """Criterion-7 style code, four bits deep: a union of a leaf and an
    intersection of a complemented leaf and a leaf; only the bits vary."""
    a, b, c = (random_bits(rng, n) for n in (3, 2, 4))
    return ("union", (("cyl", a), ("inter", (("compl", ("cyl", b)), ("cyl", c)))))


def small_code(rng: random.Random):
    """A union of two two-bit cylinders: a code small enough that its
    stacked union stays a few bits deep."""
    return ("union", (("cyl", random_bits(rng, 2)), ("cyl", random_bits(rng, 2))))


def subtree(node, addr):
    for s in addr:
        node = node[1][s]
    return node


def stacked(node, h):
    """union over n of reloc(n, subtree at h[n])."""
    return ("union", tuple(("reloc", n, subtree(node, a)) for n, a in enumerate(h)))
