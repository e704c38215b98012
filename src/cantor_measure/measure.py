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
)
from .dyadic import Dyadic, ZERO
from .errors import CertificateError, ValidationError
from .gdelta import RapidGDelta, combine
from .names import (
    L1Name,
    agreement_test,
    bad_set,
    char_name,
    constant_name,
    convergence_test,
    diagonal_name,
    inf_name,
    names_equal,
    sup_name,
    value_at,
)
from .space import (ClopenSet, Point, StagedOpenSet, clopen_complement, clopen_intersection,
                    clopen_union, mu_I)
from .stepfn import StepFunction, l1_norm

MeasureDecomposition = dict[Address, L1Name]

# levels on which char_to_regularity checks the overlap bound exactly
REGULARITY_CHECK_LEVELS = 8


def build_decomposition(code: BorelCode) -> MeasureDecomposition:
    """Bottom-up: leaf characteristic names, exact pointwise max at unions,
    exact pointwise min at intersections."""
    require_complement_free(code, "build_decomposition")
    out: MeasureDecomposition = {}
    for addr, node in reversed(nodes(code)):  # children before parents
        if isinstance(node, Leaf):
            out[addr] = char_name(node.label, label=f"leaf@{addr}")
            continue
        limits = [out[addr + (s,)].exact_limit() for s, _ in child_items(node)]
        fold = StepFunction.max_with if isinstance(node, UnionNode) else StepFunction.min_with
        if limits:
            acc = limits[0]
            for lim in limits[1:]:
                acc = fold(acc, lim)
        else:
            acc = StepFunction.constant(ZERO if isinstance(node, UnionNode) else Dyadic(1, 0))
        out[addr] = constant_name(acc, label=f"node@{addr}")
    return out


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    address: Address | None = None
    law: str | None = None
    mode: str = "exact"  # "bounded" when a tail bound decided some names_equal

    def __bool__(self) -> bool:
        return self.ok


def verify_decomposition(code: BorelCode, d: MeasureDecomposition,
                         bound: int = 24) -> VerifyResult:
    """Check each address's law via names_equal; reports the first failure."""
    require_complement_free(code, "verify_decomposition")
    for addr in addresses(code):
        if addr not in d:
            return VerifyResult(False, addr, "missing")
    mode = "exact"
    for addr, node in nodes(code):
        if isinstance(node, Leaf):
            want = char_name(node.label)
            law = "leaf"
        else:
            kids = [d[addr + (s,)] for s, _ in child_items(node)]
            if kids:
                want = (sup_name if isinstance(node, UnionNode) else inf_name)(kids)
            else:
                base = ZERO if isinstance(node, UnionNode) else Dyadic(1, 0)
                want = constant_name(StepFunction.constant(base))
            law = "union" if isinstance(node, UnionNode) else "intersection"
        res = names_equal(d[addr], want, bound=bound)
        if res.mode != "exact":
            mode = "bounded"
        if not res.equal:
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
    (precomposition scales L1 norms by 2^(m+1))."""
    require_complement_free(code, "decomposition_from_membership")
    from .codes import tilde

    stacked = tilde(code, h)
    lim = f.exact_limit()
    if lim is not None:
        want = StepFunction.from_char(denotation(stacked))
        if lim != want:
            raise ValidationError(
                "name limit is not the characteristic function of the stacked union"
            )
    first: dict[Address, int] = {}
    for n, addr in enumerate(h):
        first.setdefault(addr, n)
    out: MeasureDecomposition = {}
    for addr in addresses(code):
        m = first[addr]
        prefix = "0" * m + "1"

        def rule(i: int, _p=prefix, _m=m) -> StepFunction:
            return f.term(i + _m + 1).precompose_prefix(_p)

        out[addr] = L1Name([], rule=rule, label=f"recovered@{addr}")
    res = verify_decomposition(code, out)
    if not res:
        raise CertificateError(
            f"recovered names fail the {res.law} law at address {res.address}"
        )
    return out


def assemble_bad_gdelta(code: BorelCode, d: MeasureDecomposition,
                        label: str = "assembled") -> RapidGDelta:
    """One rapidly null test outside which the decomposition's pointwise
    values realize the evaluation map of the code.

    Combines, in deterministic address order: each name's convergence test;
    for each leaf, the agreement test against the leaf's characteristic
    name; for each interior node, the sup/inf-law test that diagonalizes the
    partial folds of the children against the node's own name."""
    require_complement_free(code, "assemble_bad_gdelta")
    parts: list[RapidGDelta] = []
    for addr in addresses(code):
        parts.append(convergence_test(d[addr]))
    for addr, node in nodes(code):
        if isinstance(node, Leaf):
            parts.append(agreement_test(d[addr], char_name(node.label)))
        else:
            kids = [d[addr + (s,)] for s, _ in child_items(node)]
            parts.append(fold_law_test(kids, d[addr], isinstance(node, UnionNode)))
    return combine(parts, label=label)


def fold_law_test(children: Sequence[L1Name], parent: L1Name,
                  use_max: bool) -> RapidGDelta:
    """Exclusion test for one sup/inf law.

    Rebuilds the partial folds of the children, subsamples them into a
    rapidly converging sequence by exact norm search, runs the diagonal
    construction, and combines: the diagonal's agreement test against the
    parent plus the doubly-indexed union over bad sets of the partials."""
    fold = StepFunction.max_with if use_max else StepFunction.min_with
    if not children:
        base = ZERO if use_max else Dyadic(1, 0)
        return agreement_test(parent, constant_name(StepFunction.constant(base)))

    limits = [c.exact_limit() for c in children]
    if any(lim is None for lim in limits):
        # fall back to the agreement test against the fold name; partial
        # staging needs exact limits
        return agreement_test(parent, (sup_name if use_max else inf_name)(list(children)))

    partials: list[StepFunction] = []
    acc = None
    for lim in limits:
        acc = lim if acc is None else fold(acc, lim)
        partials.append(acc)
    full = partials[-1]

    picks: list[int] = []
    for i in range(max(3, len(partials))):
        target = Dyadic.pow2(-i - 1)
        chosen = next(
            (j for j, p in enumerate(partials) if l1_norm(p, full) <= target),
            len(partials) - 1,
        )
        picks.append(chosen)
    hs = [constant_name(partials[j], label=f"partial{j}") for j in picks]
    diag = diagonal_name(hs, g=None, label="fold-diag")

    def ck_level(k: int) -> StagedOpenSet:
        def stage_rule(s: int) -> ClopenSet:
            parts = []
            for j in range(k + 1, k + 2 + s):
                if j >= len(hs):
                    break
                for n in range(j + 1, j + 2 + s):
                    parts.append(bad_set(hs[j], n).stage(s))
            return clopen_union(*parts) if parts else ClopenSet.empty()

        return StagedOpenSet(stages=stage_rule)

    ck_test = RapidGDelta(ck_level, label="fold-Ck")
    return combine([agreement_test(diag, parent), ck_test], label="fold-law")


def decomposition_eval_map(code: BorelCode, d: MeasureDecomposition, x: Point,
                           precision: int = 8):
    """Address-wise value_at readings, rounded to {0,1} when within
    tolerance; None where capture blocks a reading."""
    from .names import Captured

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
    3 * 2^-(n+4)+1 fit under 2^-n."""

    a_levels: Callable[[int], StagedOpenSet]
    c_levels: Callable[[int], StagedOpenSet]

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
        a_levels=lambda n: level("a", n), c_levels=lambda n: level("c", n)
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
    resubsamples (term i = f_{i+2}) for a strict certificate."""
    fs: dict[int, StepFunction] = {}

    def f(n: int) -> StepFunction:
        if n not in fs:
            s = stage_oracle(n)
            a = approx.a_levels(n + 1).stage(s)
            c = approx.c_levels(n + 1).stage(s)
            d = clopen_complement(clopen_union(a, c))
            leak = mu_I(d)
            if not leak < Dyadic.pow2(-(n + 1)):
                raise CertificateError(
                    f"stage oracle leaves measure {leak} uncommitted at level {n + 1}"
                )
            fs[n] = StepFunction.from_char(c)
        return fs[n]

    return L1Name([], rule=lambda i: f(i + 2), label=label)


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
