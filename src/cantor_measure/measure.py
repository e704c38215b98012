"""Measure decompositions of Borel codes and the regularity conversions.

A decomposition assigns every address an L1 name so that leaves name their
clopen characteristic functions, union nodes the pointwise sup of their
children, intersection nodes the pointwise inf.  For finite codes every
assembled name is eventually constant, so the laws are verified exactly and
the root integral is the code's measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .codes import (
    Address,
    BorelCode,
    Leaf,
    UnionNode,
    addresses,
    child_items,
    denotation,
    nodes,
    require_complement_free,
    tilde,
)
from .dyadic import Dyadic, ONE, ZERO
from .errors import CertificateError, ValidationError
from .gdelta import RapidGDelta, combine
from .names import (
    Captured,
    L1Name,
    agreement_test,
    char_name,
    constant_name,
    convergence_test,
    inf_name,
    names_equal,
    sup_name,
    value_at,
)
from .space import (ClopenSet, Point, StagedOpenSet, clopen_complement, clopen_intersection,
                    clopen_union, mu_I)
from .stepfn import StepFunction

MeasureDecomposition = dict[Address, L1Name]

# levels on which char_to_regularity checks the overlap bound exactly
REGULARITY_CHECK_LEVELS = 8


def law_name(node: BorelCode, kids: Sequence[L1Name], label: str) -> L1Name:
    """The name a node's law asks for, given its children's names: a leaf's
    characteristic name, the sup of a union's children, the inf of an
    intersection's, or the constant 0 (union) or 1 (intersection) when the
    node has no children.  One child's sup or inf is that child's name.
    Only law_names applies it; decompositions are built by clopen folds."""
    if isinstance(node, Leaf):
        return char_name(node.label, label=label)
    union = isinstance(node, UnionNode)
    if not kids:
        return constant_name(StepFunction.constant(ZERO if union else ONE), label=label)
    return (sup_name if union else inf_name)(kids, label=label)


def build_decomposition(code: BorelCode) -> MeasureDecomposition:
    """Each address gets the characteristic name of its node's denotation,
    labelled leaf@addr or node@addr, from one memoized clopen fold: a node
    shared by several addresses is folded once.  No law is applied here;
    verify_decomposition checks every name against its law."""
    require_complement_free(code, "build_decomposition")
    memo: dict[tuple[int, bool], ClopenSet] = {}
    denotation(code, memo)
    return {addr: char_name(memo[id(node), False],
                            label=f"{'leaf' if isinstance(node, Leaf) else 'node'}@{addr}")
            for addr, node in nodes(code)}


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    address: Address | None = None
    law: str | None = None
    mode: str = "exact"  # "bounded" when a tail bound decided some names_equal

    def __bool__(self) -> bool:
        return self.ok


def law_names(code: BorelCode, d: MeasureDecomposition) -> dict[Address, L1Name]:
    """law_name over d's names of each node's children, labelled "law", from
    one nodes walk; a KeyError holds the first address (preorder) d lacks."""
    require_complement_free(code, "law_names")
    walk = nodes(code)
    for addr, _ in walk:
        if addr not in d:
            raise KeyError(addr)
    return {addr: law_name(node, [d[addr + (s,)] for s, _ in child_items(node)], "law")
            for addr, node in walk}


def verify_decomposition(code: BorelCode, d: MeasureDecomposition, bound: int = 24,
                         laws: dict[Address, L1Name] | None = None) -> VerifyResult:
    """Check each address's name against its law from law_names (or laws,
    when the caller has them) via names_equal; reports the first failure."""
    require_complement_free(code, "verify_decomposition")
    try:
        laws = law_names(code, d) if laws is None else laws
    except KeyError as e:
        return VerifyResult(False, e.args[0], "missing")
    mode = "exact"
    for addr, node in nodes(code):
        res = names_equal(d[addr], laws[addr], bound=bound)
        if res.mode != "exact":
            mode = "bounded"
        if not res.equal:
            law = ("leaf" if isinstance(node, Leaf)
                   else "union" if isinstance(node, UnionNode) else "intersection")
            return VerifyResult(False, addr, law, mode)
    return VerifyResult(True, mode=mode)


def measure_of_code(code: BorelCode) -> Dyadic:
    """mu_I of the code's denotation, a clopen fold over the code; equals the
    integral of the root name of build_decomposition without building any
    decomposition or step-function table."""
    return mu_I(denotation(code))


def decomposition_from_membership(f: L1Name, code: BorelCode,
                                  h: Sequence[Address]) -> MeasureDecomposition:
    """Recover a decomposition of the code from a name for the stacked union:
    the address sigma listed first at position m in h gets the name
    X -> f(0^m 1 X), index-shifted by m+1 to keep the strict certificate
    (precomposition scales L1 norms by 2^(m+1)).  When f is constant from
    index c, that name is constant from max(c - m - 1, 0)."""
    require_complement_free(code, "decomposition_from_membership")
    stacked = tilde(code, h)
    if f.tail is not None and f.exact_limit() != StepFunction.from_char(denotation(stacked)):
        raise ValidationError("name limit is not the characteristic function of the stacked union")
    first: dict[Address, int] = {}
    for n, addr in enumerate(h):
        first.setdefault(addr, n)
    out: MeasureDecomposition = {}
    for addr in addresses(code):
        m = first[addr]
        prefix = "0" * m + "1"

        def rule(i: int, _p=prefix, _m=m) -> StepFunction:
            return f.term(i + _m + 1).precompose_prefix(_p)

        tail = None if f.tail is None else max(f.tail - m - 1, 0)
        out[addr] = L1Name([], rule=rule, label=f"recovered@{addr}", tail=tail)
    res = verify_decomposition(code, out)
    if not res:
        raise CertificateError(
            f"recovered names fail the {res.law} law at address {res.address}"
        )
    return out


def assemble_bad_gdelta(code: BorelCode, d: MeasureDecomposition, label: str = "assembled",
                        laws: dict[Address, L1Name] | None = None) -> RapidGDelta:
    """One rapidly null test outside which the decomposition's pointwise
    values realize the evaluation map of the code.

    Combines, in the preorder of law_names (or of laws, when the caller has
    them): each name's convergence test, then its agreement test with its
    law, off which it converges to its leaf's characteristic function or to
    the sup or inf of its children's limits."""
    require_complement_free(code, "assemble_bad_gdelta")
    laws = law_names(code, d) if laws is None else laws
    parts = [convergence_test(d[addr]) for addr in laws]
    parts += [agreement_test(d[addr], law) for addr, law in laws.items()]
    return combine(parts, label=label)


def decomposition_eval_map(code: BorelCode, d: MeasureDecomposition, x: Point,
                           precision: int = 8):
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
# regularity

@dataclass
class RegularityApprox:
    """Staged level sequences A_n, C_n intended to satisfy
    complement(A) <= B <= C with the overlap of A and C rapidly null.

    A and C are plain staged sequences (no per-level budget: A must cover
    nearly everything when B is small); the rapid-null budget belongs to the
    overlap, exposed by overlap_test with the level shift that makes
    3 * 2^-(n+4)+1 fit under 2^-n.  tail, set only by char_to_regularity,
    is the level from which A_n and C_n are one fixed pair of clopen sets."""

    a_levels: Callable[[int], StagedOpenSet]
    c_levels: Callable[[int], StagedOpenSet]
    tail: int | None = None

    OVERLAP_SHIFT = 4

    def overlap_stage(self, n: int, s: int) -> ClopenSet:
        return clopen_intersection(self.a_levels(n).stage(s), self.c_levels(n).stage(s))

    def overlap_test(self) -> RapidGDelta:
        shift = self.OVERLAP_SHIFT

        def level_rule(n: int) -> StagedOpenSet:
            return StagedOpenSet(stages=lambda s: self.overlap_stage(n + shift, s))

        return RapidGDelta(level_rule, label="overlap")


def char_to_regularity(name: L1Name, reference: ClopenSet | None = None) -> RegularityApprox:
    """Level n: A_n = {f_n < 2/3}, C_n = {f_n > 1/3} (constant stages).

    When a reference clopen set with characteristic limit is supplied, the
    overlap bound mu_I(A_n intersect C_n) <= 3 * 2^(-n+1) is asserted exactly on
    the first REGULARITY_CHECK_LEVELS levels."""
    memo: dict[tuple[str, int], StagedOpenSet] = {}

    def level(kind: str, n: int) -> StagedOpenSet:
        if (kind, n) not in memo:
            f = name.term(n)
            c = f.strictly_below(2, 3) if kind == "a" else f.strictly_above(1, 3)
            memo[(kind, n)] = StagedOpenSet.constant(c)
        return memo[(kind, n)]

    approx = RegularityApprox(
        a_levels=lambda n: level("a", n), c_levels=lambda n: level("c", n), tail=name.tail
    )
    if reference is not None:
        for n in range(REGULARITY_CHECK_LEVELS):
            overlap = approx.overlap_stage(n, 0)
            bound = Dyadic(3, 0) * Dyadic.pow2(-n + 1)
            got = mu_I(overlap)
            if got > bound:
                raise CertificateError(
                    f"overlap bound broken at level {n}: {got} > 3*2^-{n + 1}"
                )
    return approx


def regularity_to_char(approx: RegularityApprox,
                       stage_oracle: Callable[[int], int],
                       label: str = "regular") -> L1Name:
    """f_n = characteristic function of C_{n+1} at stage s(n), where the
    oracle promises the uncommitted region D_{n+1,s(n)} (outside both
    A and C at that stage) has measure < 2^-(n+1).

    The sequence satisfies |f_n - f_m|_1 <= 2^-n + 2^-m; the output
    resubsamples (term i = f_{i+2}) for a strict certificate.  A known
    approx.tail t fixes f_n once n + 1 >= t, so the output is constant from
    max(t - 3, 0), and those levels must leak exactly 0, for the promise
    tightens with n."""
    fs: dict[int, StepFunction] = {}

    def f(n: int) -> StepFunction:
        if n not in fs:
            s = stage_oracle(n)
            a = approx.a_levels(n + 1).stage(s)
            c = approx.c_levels(n + 1).stage(s)
            d = clopen_complement(clopen_union(a, c))
            leak = mu_I(d)
            fixed = approx.tail is not None and n + 1 >= approx.tail
            if not (leak == ZERO if fixed else leak < Dyadic.pow2(-(n + 1))):
                raise CertificateError(
                    f"stage oracle leaves measure {leak} uncommitted at level {n + 1}"
                )
            fs[n] = StepFunction.from_char(c)
        return fs[n]

    tail = None if approx.tail is None else max(approx.tail - 3, 0)
    return L1Name([], rule=lambda i: f(i + 2), label=label, tail=tail)


def sup_open_set(seq: Sequence[Dyadic] | Callable[[int], Dyadic]) -> StagedOpenSet:
    """Open set whose measure is the supremum of a nondecreasing dyadic
    sequence in [0, 1): stage n takes every cylinder [p0] with |p| <= n and
    .p1 < a_n (binary-expansion threshold)."""

    def a(n: int) -> Dyadic:
        v = seq(n) if callable(seq) else seq[min(n, len(seq) - 1)]
        if not (ZERO <= v and v < Dyadic(1, 0)):
            raise ValidationError("sequence values must sit in [0, 1)")
        return v

    def stage_rule(n: int) -> ClopenSet:
        an = a(n)
        gens = []
        for d in range(n + 1):
            for i in range(1 << d):
                p = format(i, f"0{d}b") if d else ""
                point_val = Dyadic((i << 1) | 1, d + 1)  # .p1
                if point_val < an:
                    gens.append(p + "0")
        return ClopenSet(tuple(gens))

    return StagedOpenSet(stages=stage_rule)
