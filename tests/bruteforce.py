"""Independent brute-force oracles.

Everything here recomputes results from first principles with Fraction
arithmetic and explicit prefix enumeration, reading only the data fields of
package objects, so agreement with the package is meaningful evidence.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from cantor_measure.codes import (ComplNode, InterNode, Leaf, UnionNode, addresses,
                                  child_items, eval_map_violations, nodes, normalize_demorgan,
                                  relocate)
from cantor_measure.decoration import PreservationReport, decorate
from cantor_measure.dsl import _KEYWORDS
from cantor_measure.dyadic import Dyadic
from cantor_measure.errors import ParseError, StatisticalGateError, ValidationError
from cantor_measure.gdelta import RapidGDelta
from cantor_measure.names import (Captured, L1Name, bad_set, char_name, constant_name,
                                  exceedance_stages, inf_name, interleave_terms, sup_name,
                                  value_at)
from cantor_measure.ordinals import ONE_ORD
from cantor_measure.sampling import AVERAGE_BITS, CAPTURE_GATE_PERCENT, Estimate
from cantor_measure.space import (_GOLDEN, _MASK, ClopenSet, ColumnPoint, SeededPoint,
                                  StagedOpenSet, TailPoint, clopen_intersection, clopen_union)
from cantor_measure.stepfn import StepFunction


def support_depth_bf(code) -> int:
    if isinstance(code, Leaf):
        return max((len(g) for g in code.label.generators), default=0)
    if isinstance(code, ComplNode):
        return support_depth_bf(code.child)
    return max((support_depth_bf(c) for _, c in child_items(code)), default=0)


def is_complement_free_bf(code) -> bool:
    if isinstance(code, ComplNode):
        return False
    return all(is_complement_free_bf(c) for _, c in child_items(code))


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


def ordinal_cmp_bf(self, other) -> int:
    """Term-by-term CNF comparison of two ordinal notations, -1, 0 or 1, as
    the package compared them before notations compared as tuples."""
    for (e1, c1), (e2, c2) in zip(self.terms, other.terms):
        if e1 != e2:
            return 1 if e1 > e2 else -1
        if c1 != c2:
            return 1 if c1 > c2 else -1
    if len(self.terms) != len(other.terms):
        return 1 if len(self.terms) > len(other.terms) else -1
    return 0


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


def clopen_subset_bf(a, b) -> bool:
    """a inside b: intersecting with b leaves a unchanged."""
    return clopen_intersection(a, b) == a


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


def locate_bf(prefixes, x) -> int | None:
    """The first string all of whose characters match x's bits."""
    for i, p in enumerate(prefixes):
        if all(x.bit(j) == int(ch) for j, ch in enumerate(p)):
            return i
    return None


def make_alternating_bf(code):
    """make_alternating as a splice at every level: after fusing its
    children a node absorbs the children of each like-kind child, re-slots
    densely and takes rank max + 1 (1 with no children)."""
    if isinstance(code, Leaf):
        return code
    kids = [make_alternating_bf(c) for c in code.children]
    if not any(type(k) is type(code) for k in kids):
        return type(code)(tuple(kids), code.rank, code.slots)
    spliced = [g for k in kids for g in (k.children if type(k) is type(code) else (k,))]
    rank = code.rank
    if rank is not None:
        rank = max(k.rank for k in spliced).successor() if spliced else ONE_ORD
    return type(code)(tuple(spliced), rank, None)


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


def covers_bf(s, p: str) -> bool:
    """Every subcell of [p] at the set's depth or below has a generator as
    a prefix."""
    d = max(len(p), max((len(g) for g in s.generators), default=0))
    return all(any((p + q).startswith(g) for g in s.generators) for q in all_prefixes(d - len(p)))


# ---------------------------------------------------------------------------
# the dense step-function core the package replaced with canonical
# partitions: tables of numerators over all 2^depth cells, read through the
# package's dense adapter (values, depth, exp)

def reduce_bf(depth: int, exp: int, values) -> tuple[int, int, tuple[int, ...]]:
    """Canonical (depth, exp, table): halve the table while every sibling
    pair agrees, then halve the numerators while all are even."""
    values = tuple(values)
    while depth > 0 and values[::2] == values[1::2]:
        values, depth = values[::2], depth - 1
    while exp > 0 and all(v % 2 == 0 for v in values):
        values, exp = tuple(v // 2 for v in values), exp - 1
    return depth, exp, values


def aligned_bf(f, g):
    """(d, e, a, b): both tables at the deeper depth over the larger
    exponent."""
    d, e = max(f.depth, g.depth), max(f.exp, g.exp)
    a = [v << (e - f.exp) for v in at_depth_bf(f, d)]
    b = [v << (e - g.exp) for v in at_depth_bf(g, d)]
    return d, e, a, b


def level_bf(f, a: int, b: int, above: bool) -> tuple[str, ...]:
    """Depth-f.depth cells whose value is strictly above (or below) a/b."""
    thr = Fraction(a, b)
    return tuple(p for p, v in zip(all_prefixes(f.depth), f.values)
                 if (Fraction(v, 1 << f.exp) > thr if above else Fraction(v, 1 << f.exp) < thr))


def cell_average_bf(f, i: int) -> tuple[int, int, tuple[int, ...]]:
    """Block sums of f's table per depth-i cell, canonical; i <= f.depth."""
    block = 1 << (f.depth - i)
    sums = [sum(f.values[j:j + block]) for j in range(0, len(f.values), block)]
    return reduce_bf(i, f.exp + f.depth - i, sums)


# ---------------------------------------------------------------------------
# per-cell oracles for canonical partitions too deep for tables: quadratic
# scans over the cell prefixes, Fraction values

def refinement_bf(*fs) -> list[str]:
    """Cells of the common refinement: every cell prefix of the step
    functions that no other one extends."""
    ps = sorted({p for f in fs for p in f.prefixes})
    # in sorted order, a string's extensions come right after it
    return [p for i, p in enumerate(ps) if i + 1 == len(ps) or not ps[i + 1].startswith(p)]


def value_bf(f, r: str) -> Fraction:
    """f's value on [r], from the one cell of f whose prefix r extends."""
    (v,) = [Fraction(n, 1 << f.exp) for p, n in zip(f.prefixes, f.nums) if r.startswith(p)]
    return v


def average_bf(f, r: str) -> Fraction:
    """Average of f over [r]."""
    inside = [(p, n) for p, n in zip(f.prefixes, f.nums) if p.startswith(r) and p != r]
    if not inside:
        return value_bf(f, r)
    return sum(Fraction(n, 1 << (f.exp + len(p) - len(r))) for p, n in inside)


def canonical_bf(f) -> bool:
    """The cells are sorted, tile the space (an antichain whose measures sum
    to 1), no two siblings carry the same numerator, and the exponent is
    minimal."""
    ps = list(f.prefixes)
    by_prefix = dict(zip(ps, f.nums))
    return (ps == sorted(ps) and len(ps) == len(f.nums)
            and sum(Fraction(1, 1 << len(p)) for p in ps) == 1
            and not any(q.startswith(p) for p, q in zip(ps, ps[1:]))
            and not any(p.endswith("0") and by_prefix.get(p[:-1] + "1") == n
                        for p, n in by_prefix.items())
            and (f.exp == 0 or any(n % 2 for n in f.nums)))


# ---------------------------------------------------------------------------
# per-trial Monte Carlo loops the package replaced with the lazy
# seeded_leaves kernel; they read bits through the package's Point classes,
# whose bits the kernel must reproduce, and decide membership by the tree
# walk above.  seeded_cells and lookup are the fixed-depth kernel and its
# cell lookup that came between the two.

def membership_table_bf(code, d: int | None = None) -> list[int]:
    """Depth-d membership table, one tree walk per cell."""
    if d is None:
        d = support_depth_bf(code)
    return [1 if contains_prefix(code, p) else 0 for p in all_prefixes(d)]


def _bits(x, d: int) -> str:
    return "".join(str(x.bit(n)) for n in range(d))


def cell_index_bf(x, d: int) -> int:
    """Bits 0..d-1 of x read as a binary number."""
    return int(_bits(x, d) or "0", 2)


def column(x, k: int):
    if k < 0:
        raise ValidationError("column index must be nonnegative")
    return ColumnPoint(x, k)


def seeded_cells(seed: int, columns, d: int) -> list[int]:
    """For each column index k >= 0, the first d bits of
    column(SeededPoint(seed), k) read as a binary number, the index of the
    depth-d cylinder holding it, without building a Point: seeded_bit
    inlined at stream position cantor_pair(k, n) for bit n of column k."""
    mask, golden = _MASK, _GOLDEN
    out = []
    for k in columns:
        idx = 0
        z0 = seed + (k * (k + 1) // 2 + 1) * golden  # counter of position cantor_pair(k, 0)
        step = (k + 2) * golden  # cantor_pair(k, n + 1) - cantor_pair(k, n) = k + n + 2
        for _ in range(d):
            z = z0 & mask
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
            idx = (idx << 1) | ((z ^ (z >> 27)) * 0x94D049BB133111EB >> 63 & 1)
            z0 += step
            step += golden
        out.append(idx)
    return out


def lookup(f):
    """Maps depth-f.depth cell indices to f's numerators on them: an index
    lies in the last run of equal-valued cells starting at or before it."""
    d = f.depth
    starts: list[int] = []
    nums = [0]  # never read: bisect_right >= 1, since every index is >= starts[0] = 0
    for p, v in zip(f.prefixes, f.nums):
        if not starts or v != nums[-1]:
            starts.append(int(p or "0", 2) << (d - len(p)))
            nums.append(v)
    return lambda cells: map(nums.__getitem__, map(bisect_right, repeat(starts), cells))


def mc_integral_bf(target, trials: int, seed: int, precision: int = 20):
    """Per-trial Monte Carlo estimate of a step function's integral, a
    name's limit or a code's measure: trial j reads column j of
    SeededPoint(seed), and a name's trial calls value_at on it."""
    points = [column(SeededPoint(seed), j) for j in range(trials)]
    if isinstance(target, StepFunction):
        total = sum(target.values[cell_index_bf(x, target.depth)] for x in points)
        return Estimate(Dyadic(total, target.exp).div_floor(trials, AVERAGE_BITS),
                        trials, seed)
    if isinstance(target, L1Name):
        total = Dyadic(0, 0)
        captured = 0
        for x in points:
            v = value_at(target, x, precision)
            if isinstance(v, Captured):
                captured += 1
            else:
                total = total + v
        if captured * 100 > trials * CAPTURE_GATE_PERCENT:
            raise StatisticalGateError(
                f"{captured} of {trials} trials captured by the guard set"
            )
        value = total.div_floor(trials - captured, AVERAGE_BITS)
        return Estimate(value, trials, seed, captured)
    d = support_depth_bf(target)
    table = membership_table_bf(target, d)
    hits = sum(table[cell_index_bf(x, d)] for x in points)
    return Estimate(Dyadic(hits, 0).div_floor(trials, AVERAGE_BITS), trials, seed)


def capture_sets_bf(name, precision: int):
    """The staged path to value_at's capture sets: term m+1, then stage N of
    every level's bad set, each stage checked to extend the one before."""
    m = 2 * precision + 1
    name.term(m + 1)
    stage = max(m + 2, (name.tail if name.tail is not None else 0) + 1)
    return m, [bad_set(name, j).stage(stage) for j in range(precision + 1)]


def tail_mismatches_bf(name, extra: int = 8) -> list[int]:
    """The indices tail..tail+extra at which a rule name's raw rule, called
    past the clamp that term applies, differs from term(tail): none when the
    declared tail is where the terms stop changing."""
    want = name.term(name.tail)
    return [i for i in range(name.tail, name.tail + extra + 1) if name._rule(i) != want]


def sampled_average_bf(f, i: int, trials: int, seed: int):
    """Per-cell, per-trial average over the points p + column j."""
    tails = [column(SeededPoint(seed), j) for j in range(trials)]
    cells = []
    for p in all_prefixes(i):
        total = sum(f.values[cell_index_bf(TailPoint(p, t), f.depth)] for t in tails)
        cells.append(Dyadic(total, f.exp).div_floor(trials, AVERAGE_BITS))
    return StepFunction.from_dyadics(i, cells)


# ---------------------------------------------------------------------------
# G-delta staging with a level and stage closure per test, as the package
# built it before the one level union; every law target is labelled "law" as
# the package's is

def combine_bf(tests, label: str = "combined"):
    tests = list(tests)

    def level_rule(j: int) -> StagedOpenSet:
        def stage_rule(s: int) -> ClopenSet:
            parts = [tests[n].stage(n + j + 1, s) for n in range(min(len(tests), s + 1))]
            return clopen_union(*parts) if parts else ClopenSet.empty()

        return StagedOpenSet(stages=stage_rule)

    return RapidGDelta(level_rule, label=label)


def convergence_test_bf(name):
    def level_rule(k: int) -> StagedOpenSet:
        def stage_rule(s: int) -> ClopenSet:
            parts = [bad_set(name, n).stage(s) for n in range(k + 1, k + 2 + s)]
            return clopen_union(*parts)

        return StagedOpenSet(stages=stage_rule)

    return RapidGDelta(level_rule, label=f"conv[{name.label}]")


def agreement_test_bf(n1, n2):
    inter = interleave_terms(n1, n2)

    def inter_delta(j: int) -> StepFunction:
        return inter(j).abs_diff(inter(j + 1))

    def inter_level(k: int) -> StagedOpenSet:
        def stage_rule(s: int) -> ClopenSet:
            parts = [
                exceedance_stages(inter_delta, 2 * n + 1, Dyadic.pow2(-n)).stage(s)
                for n in range(k + 1, k + 2 + s)
            ]
            return clopen_union(*parts)

        return StagedOpenSet(stages=stage_rule)

    inter_test = RapidGDelta(inter_level, label=f"conv[{n1.label}~{n2.label}]")
    return combine_bf(
        [convergence_test_bf(n1), convergence_test_bf(n2), inter_test],
        label=f"agree[{n1.label},{n2.label}]",
    )


def fold_law_test_bf(children, parent, use_max: bool):
    if not children:
        base = Dyadic(0, 0) if use_max else Dyadic(1, 0)
        return agreement_test_bf(parent, constant_name(StepFunction.constant(base), label="law"))
    return agreement_test_bf(parent, (sup_name if use_max else inf_name)(list(children),
                                                                         label="law"))


def node_law_test_bf(node, children, parent):
    """The law test of one node: a leaf's agreement with its characteristic
    name, an interior node's fold-law test."""
    if isinstance(node, Leaf):
        return agreement_test_bf(parent, char_name(node.label, label="law"))
    return fold_law_test_bf(children, parent, isinstance(node, UnionNode))


def assemble_bad_gdelta_bf(code, d, label: str = "assembled"):
    parts = [convergence_test_bf(d[addr]) for addr in addresses(code)]
    for addr, node in nodes(code):
        parts.append(node_law_test_bf(node, [d[addr + (s,)] for s, _ in child_items(node)],
                                      d[addr]))
    return combine_bf(parts, label=label)


# ---------------------------------------------------------------------------
# pointwise reading of a decomposition, to compare with the evaluation map

def decomposition_eval_map_bf(code, d, x, precision: int = 8) -> dict:
    """Address-wise value_at readings, rounded to {0,1} when within
    tolerance; None where capture blocks a reading."""
    out = {}
    tol = Dyadic.pow2(-precision + 1)
    for addr in addresses(code):
        v = value_at(d[addr], x, precision)
        if isinstance(v, Captured):
            out[addr] = None
        elif abs(v - Dyadic(1, 0)) <= tol:
            out[addr] = 1
        elif abs(v) <= tol:
            out[addr] = 0
        else:
            out[addr] = None
    return out


# ---------------------------------------------------------------------------
# the per-point decoration audit the package replaced with a whole-space
# proof over memoized denotations

def check_preservation_bf(code, gen, points, decorated=None):
    """The decoration audit one sample point at a time, with the recursive
    walks above: each point's bits are read to the deepest support of the
    codes and inserts; the decorated tree's evaluation map, built here,
    must pass the package's clause check at every address; a point in an
    insert's denotation is captured, and any other must have the same
    membership in both codes.  It sees only its sample, so it leaves
    whole_space True."""
    if decorated is None:
        decorated = decorate(code, gen)
    inserts = [c for _, pos, neg in gen.entries for c in (pos, neg)]
    d = max(support_depth_bf(c) for c in (code, decorated, *inserts))
    preserved, captured, violations = 0, [], []
    for i, x in enumerate(points):
        p = _bits(x, d)
        emap = emap_bf(decorated, p)
        violations += [(i, addr) for addr in eval_map_violations(decorated, x, emap)]
        if any(contains_prefix(c, p) for c in inserts):
            captured.append(i)
        elif contains_prefix(code, p) == bool(emap[()]):
            preserved += 1
        else:
            violations.append((i, ()))
    return PreservationReport(len(points), preserved, tuple(captured), tuple(violations))


_DIGITS = "0123456789"


@dataclass(frozen=True)
class _Token:
    kind: str  # word | digits | punct | end
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch in "(),$":
            toks.append(_Token("punct", ch, line, col))
            col += 1
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(_Token("digits", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("word", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("end", "", line, col))
    return toks


class _ParserBF:
    """The recursive-descent reading of the DSL grammar, one method per
    form; the package's parser must agree with it on every text.  It reads
    tokens with the character loop above, which tracks line and column as
    it goes, and shares only the package's reloc rewriting, so agreement
    speaks for the package's scanner and its parse loop."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, expected: str):
        t = self.peek()
        where = "end-of-input" if t.kind == "end" else repr(t.text)
        raise ParseError(f"at {where}, expecting {expected}", t.line, t.col)

    def expect(self, text: str):
        t = self.peek()
        if (t.kind == "punct" or t.kind == "word") and t.text == text:
            return self.take()
        self.fail(repr(text))

    def parse(self):
        code = self.expr({})
        t = self.peek()
        if t.kind != "end":
            self.fail("end-of-input")
        return code

    def bits(self) -> str:
        t = self.peek()
        if t.kind == "digits":
            self.take()
            if any(c not in "01" for c in t.text):
                raise ParseError(f"bits must be 0/1, got {t.text!r}", t.line, t.col)
            return t.text
        if t.kind == "punct" and t.text == ")":
            return ""
        self.fail("bits or ')'")

    def nat(self, env: dict[str, int]) -> int:
        t = self.peek()
        if t.kind == "digits":
            self.take()
            return int(t.text, 10)
        if t.kind == "punct" and t.text == "$":
            self.take()
            name = self.peek()
            if name.kind != "word":
                self.fail("index name after '$'")
            self.take()
            if name.text not in env:
                raise ParseError(f"unbound index ${name.text}", name.line, name.col)
            return env[name.text]
        self.fail("number or '$'")

    def expr(self, env: dict[str, int]):
        t = self.peek()
        if t.kind != "word":
            self.fail("an expression keyword")
        if t.text not in _KEYWORDS:
            raise ParseError(f"unknown form {t.text!r}", t.line, t.col)
        self.take()
        if t.text == "empty":
            return Leaf(ClopenSet.empty())
        if t.text == "full":
            return Leaf(ClopenSet.full())
        self.expect("(")
        if t.text == "cyl":
            p = self.bits()
            self.expect(")")
            return Leaf(ClopenSet.cylinder(p))
        if t.text == "compl":
            inner = self.expr(env)
            self.expect(")")
            return ComplNode(inner)
        if t.text == "reloc":
            n = self.nat(env)
            self.expect(",")
            inner = self.expr(env)
            self.expect(")")
            # relocation rewrites leaf generators, so complements must be
            # pushed down first
            if not is_complement_free_bf(inner):
                inner = normalize_demorgan(inner)
            return relocate(n, inner)
        if t.text == "bigunion":
            name = self.peek()
            if name.kind != "word":
                self.fail("an index name")
            self.take()
            self.expect(",")
            lo = self.nat(env)
            self.expect(",")
            hi = self.nat(env)
            self.expect(",")
            mark = self.pos
            kids = []
            for v in range(lo, hi + 1):
                self.pos = mark
                inner = dict(env)
                inner[name.text] = v
                kids.append(self.expr(inner))
            if lo > hi:
                # body must still parse once to be rejected or accepted
                inner = dict(env)
                inner[name.text] = lo
                self.expr(inner)
            self.expect(")")
            return UnionNode(tuple(kids))
        # union | inter
        kids = [self.expr(env)]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.take()
            kids.append(self.expr(env))
        self.expect(")")
        cls = UnionNode if t.text == "union" else InterNode
        return cls(tuple(kids))


def parse_dsl_bf(text: str):
    return _ParserBF(text).parse()
