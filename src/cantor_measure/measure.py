"""Measure decompositions of Borel codes and the regularity conversions.

A decomposition assigns every address an L1 name so that leaves name their
clopen characteristic functions, union nodes the pointwise sup of their
children, intersection nodes the pointwise inf.  For finite codes every
assembled name is eventually constant, so the laws are verified exactly and
the root integral is the code's measure.  A Certificate checks every law in
one pass over the code; verification and the assembled test both read it,
and the test builds its parts only when a level below its height is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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
from .gdelta import RapidGDelta, combine, combined_height
from .names import (
    L1Name,
    agreement_height,
    agreement_test,
    char_name,
    constant_name,
    convergence_height,
    convergence_test,
    inf_name,
    names_equal,
    sup_name,
)
from .space import (ClopenSet, StagedOpenSet, clopen_complement, clopen_intersection,
                    clopen_union, mu_I)
from .stepfn import StepFunction

MeasureDecomposition = dict[Address, L1Name]

# levels on which char_to_regularity checks the overlap bound exactly
REGULARITY_CHECK_LEVELS = 8


def law_name(node: BorelCode, kids: Sequence[L1Name]) -> L1Name:
    """The name a node's law asks for, given its children's names: a leaf's
    characteristic name, the sup of a union's children, the inf of an
    intersection's, or the constant 0 (union) or 1 (intersection) when the
    node has no children, labelled "law".  One child's sup or inf is that
    child's name.  Only Certificate applies it; decompositions are built by
    clopen folds."""
    if isinstance(node, Leaf):
        return char_name(node.label, label="law")
    union = isinstance(node, UnionNode)
    if not kids:
        return constant_name(StepFunction.constant(ZERO if union else ONE), label="law")
    return (sup_name if union else inf_name)(kids, label="law")


def build_decomposition(code: BorelCode) -> MeasureDecomposition:
    """Each address gets the characteristic name of its node's denotation,
    from one memoized clopen fold: a node shared by several addresses is
    folded once.  No law is applied here; Certificate checks every name
    against its law."""
    require_complement_free(code, "build_decomposition")
    memo: dict[tuple[int, bool], ClopenSet] = {}
    denotation(code, memo)
    return {addr: char_name(memo[id(node), False]) for addr, node in nodes(code)}


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    address: Address | None = None
    law: str | None = None
    mode: str = "exact"  # "bounded" when a tail bound decided some names_equal

    def __bool__(self) -> bool:
        return self.ok


class Certificate:
    """The one law pass over nodes(code), in preorder: law_name once per
    address, and the exact limits of its name and law compared once when both
    tails are known.  checks holds (address, node, name, law, agreed), agreed
    None where a tail is unknown; a KeyError holds the first address d lacks."""

    def __init__(self, code: BorelCode, d: MeasureDecomposition):
        require_complement_free(code, "Certificate")
        walk = nodes(code)
        names = [d[addr] for addr, _ in walk]
        self.checks = []
        for (addr, node), name in zip(walk, names):
            law = law_name(node, [d[addr + (s,)] for s, _ in child_items(node)])
            self.checks.append((addr, node, name, law, None if name.tail is None or law.tail is None
                                else name.exact_limit() == law.exact_limit()))

    def verdict(self) -> VerifyResult:
        """The first address whose name fails its law; names_equal's tail bound
        decides only where a tail is unknown."""
        mode = "exact"
        for addr, node, name, law, agreed in self.checks:
            if agreed is None:
                mode, agreed = "bounded", names_equal(name, law).equal
            if not agreed:
                return VerifyResult(False, addr, "leaf" if isinstance(node, Leaf) else
                                    "union" if isinstance(node, UnionNode) else "intersection", mode)
        return VerifyResult(True, mode=mode)

    def test(self) -> RapidGDelta:
        """One rapidly null test outside which each name converges and agrees
        with its law, so the decomposition's pointwise values realize the
        evaluation map of the code: each name's convergence test, then its
        agreement test with its law, combined in preorder.  The height comes
        from the recorded tails, and the parts are built only when a level
        below it is first read."""
        pairs = [(name, law, agreed) for _, _, name, law, agreed in self.checks]
        height = combined_height([convergence_height(name.tail) for name, _, _ in pairs] + [
            agreement_height(name.tail, law.tail) if agreed else None for name, law, agreed in pairs])
        whole = cache(lambda: combine([convergence_test(name) for name, _, _ in pairs] + [
            agreement_test(name, law) for name, law, _ in pairs], label="assembled"))
        return RapidGDelta(lambda n: whole().level(n), label="assembled", height=height)


def verify_decomposition(code: BorelCode, d: MeasureDecomposition) -> VerifyResult:
    """The verdict of the one law pass, a Certificate: the first address whose
    name fails its law, or the first address d lacks, as "missing"."""
    try:
        return Certificate(code, d).verdict()
    except KeyError as e:
        return VerifyResult(False, e.args[0], "missing")


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


# ---------------------------------------------------------------------------
# regularity

@dataclass
class RegularityApprox:
    """Staged level sequences A_n, C_n intended to satisfy
    complement(A) <= B <= C with the overlap of A and C rapidly null.

    A and C are plain staged sequences (no per-level budget: A must cover
    nearly everything when B is small); the rapid-null budget belongs to the
    overlap (overlap_stage), which char_to_regularity bounds exactly on its
    first levels.  tail, set only by char_to_regularity, is the level from
    which A_n and C_n are one fixed pair of clopen sets."""

    a_levels: Callable[[int], StagedOpenSet]
    c_levels: Callable[[int], StagedOpenSet]
    tail: int | None = None

    def overlap_stage(self, n: int, s: int) -> ClopenSet:
        return clopen_intersection(self.a_levels(n).stage(s), self.c_levels(n).stage(s))


def char_to_regularity(name: L1Name, reference: ClopenSet | None = None) -> RegularityApprox:
    """Level n: A_n = {f_n < 2/3}, C_n = {f_n > 1/3} (constant stages).

    When a reference clopen set with characteristic limit is supplied, the
    overlap bound mu_I(A_n intersect C_n) <= 3 * 2^(-n+1) is asserted exactly on
    the first REGULARITY_CHECK_LEVELS levels."""
    approx = RegularityApprox(
        a_levels=cache(lambda n: StagedOpenSet.constant(name.term(n).strictly_below(2, 3))),
        c_levels=cache(lambda n: StagedOpenSet.constant(name.term(n).strictly_above(1, 3))),
        tail=name.tail,
    )
    if reference is not None:
        for n in range(REGULARITY_CHECK_LEVELS):
            overlap = approx.overlap_stage(n, 0)
            bound = Dyadic(3, 0) * Dyadic.pow2(-n + 1)
            got = mu_I(overlap)
            if got > bound:
                raise CertificateError(
                    f"overlap bound broken at level {n}: {got} > 3*2^{1 - n}"
                )
    return approx


def regularity_to_char(approx: RegularityApprox,
                       stage_oracle: Callable[[int], int]) -> L1Name:
    """f_n = characteristic function of C_{n+1} at stage s(n), where the
    oracle promises the uncommitted region D_{n+1,s(n)} (outside both
    A and C at that stage) has measure < 2^-(n+1).

    The sequence satisfies |f_n - f_m|_1 <= 2^-n + 2^-m; the output
    resubsamples (term i = f_{i+2}) for a strict certificate.  A known
    approx.tail t fixes f_n once n + 1 >= t, so the output is constant from
    max(t - 3, 0), and those levels must leak exactly 0, for the promise
    tightens with n."""
    def f(n: int) -> StepFunction:
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
        return StepFunction.from_char(c)

    tail = None if approx.tail is None else max(approx.tail - 3, 0)
    return L1Name([], rule=lambda i: f(i + 2), label="regular", tail=tail)
