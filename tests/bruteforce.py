"""Independent brute-force oracles.

Everything here recomputes results from first principles with Fraction
arithmetic and explicit prefix enumeration, reading only the data fields of
package objects, so agreement with the package is meaningful evidence.
"""

from __future__ import annotations

from fractions import Fraction

from cantor_measure.codes import ComplNode, InterNode, Leaf, UnionNode, child_items


def support_depth_bf(code) -> int:
    if isinstance(code, Leaf):
        return max((len(g) for g in code.label.generators), default=0)
    if isinstance(code, ComplNode):
        return support_depth_bf(code.child)
    return max((support_depth_bf(c) for _, c in child_items(code)), default=0)


def contains_prefix(code, p: str) -> bool:
    """Membership of any point extending p; p must be at least support deep."""
    if isinstance(code, Leaf):
        return any(p.startswith(g) for g in code.label.generators)
    if isinstance(code, ComplNode):
        return not contains_prefix(code.child, p)
    vals = [contains_prefix(c, p) for _, c in child_items(code)]
    if isinstance(code, UnionNode):
        return any(vals)
    return all(vals)


def all_prefixes(d: int):
    for i in range(1 << d):
        yield format(i, f"0{d}b") if d else ""


def counting_measure(code, d: int | None = None) -> Fraction:
    if d is None:
        d = support_depth_bf(code)
    hits = sum(1 for p in all_prefixes(d) if contains_prefix(code, p))
    return Fraction(hits, 1 << d)


def emap_bf(code, p: str) -> dict:
    """Evaluation map for the point class extending p, built independently."""
    out = {}

    def walk(node, addr):
        if isinstance(node, Leaf):
            v = 1 if any(p.startswith(g) for g in node.label.generators) else 0
        else:
            kids = [walk(c, addr + (s,)) for s, c in child_items(node)]
            if isinstance(node, UnionNode):
                v = max(kids, default=0)
            else:
                v = min(kids, default=1)
        out[addr] = v
        return v

    walk(code, ())
    return out


def union_measure(gens, d: int | None = None) -> Fraction:
    """Measure of a union of cylinders by prefix counting, ignoring any
    structure of the generator list."""
    if d is None:
        d = max((len(g) for g in gens), default=0)
    hits = sum(1 for p in all_prefixes(d) if any(p.startswith(g) for g in gens))
    return Fraction(hits, 1 << d)


def step_value(f, idx: int, d: int) -> Fraction:
    """Value of f on the idx-th depth-d cell, d >= f.depth."""
    return Fraction(f.values[idx >> (d - f.depth)], 1 << f.exp)


def integral_fraction(f) -> Fraction:
    return Fraction(sum(f.values), 1 << (f.exp + f.depth))


def l1_fraction(f, g) -> Fraction:
    d = max(f.depth, g.depth)
    total = Fraction(0)
    for i in range(1 << d):
        total += abs(step_value(f, i, d) - step_value(g, i, d))
    return total / (1 << d)


def dyadic_fraction(x) -> Fraction:
    return Fraction(x.num, 1 << x.exp)


# ---------------------------------------------------------------------------
# reference algorithms the package replaced with faster ones; they read only
# generator strings and table fields

def normalize_bf(gens) -> tuple[str, ...]:
    """Quadratic normalize: prefix absorption by scanning every kept
    generator, then sibling merges from the deepest generator up."""
    kept: set[str] = set()
    for p in sorted(set(gens), key=len):
        if not any(p.startswith(q) for q in kept if len(q) <= len(p)):
            kept.add(p)
    work = sorted(kept, key=len, reverse=True)
    while work:
        p = work.pop(0)
        if p not in kept or not p:
            continue
        sib = p[:-1] + ("1" if p[-1] == "0" else "0")
        if sib in kept:
            kept.discard(p)
            kept.discard(sib)
            kept.add(p[:-1])
            work.insert(0, p[:-1])
    return tuple(sorted(kept))


def intersection_bf(a, b) -> tuple[str, ...]:
    """Every pair of generators, the longer kept when one extends the other."""
    out = []
    for p in a.generators:
        for q in b.generators:
            if q.startswith(p):
                out.append(q)
            elif p.startswith(q):
                out.append(p)
    return normalize_bf(out)


def complement_bf(a) -> tuple[str, ...]:
    """Tree walk that scans all generators at every node."""
    out: list[str] = []

    def walk(prefix: str) -> None:
        if any(prefix.startswith(g) for g in a.generators):
            return
        if not any(g.startswith(prefix) for g in a.generators):
            out.append(prefix)
            return
        walk(prefix + "0")
        walk(prefix + "1")

    walk("")
    return normalize_bf(out)


def char_table_bf(s) -> tuple[int, ...]:
    """Depth-d 0/1 table of a clopen set, each cell tested against every
    generator."""
    d = max((len(g) for g in s.generators), default=0)
    return tuple(1 if any(p.startswith(g) for g in s.generators) else 0
                 for p in all_prefixes(d))


def at_depth_bf(f, d: int) -> tuple[int, ...]:
    """f's table repeated cell by cell down to depth d >= f.depth."""
    reps = 1 << (d - f.depth)
    return tuple(v for v in f.values for _ in range(reps))
