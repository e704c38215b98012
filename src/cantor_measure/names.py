"""L1 names: rapidly Cauchy sequences of step functions, their certificates,
bad sets, pointwise evaluation, equality, and closure under diagonal limits
and pointwise sup/inf.

A name's certificate is the strict bound |f_i - f_{i+1}|_1 < 2^-i for every
adjacent pair ever materialized; ties reject.  Bad sets follow the partial
sum construction: level n collects the cylinders where
sum_{i=2n+1}^{N} |f_i - f_{i+1}| exceeds 2^-n, which Markov keeps below
measure 2^-n for certified names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .dyadic import Dyadic, DyadicInterval, ZERO
from .errors import CertificateError, ValidationError
from .gdelta import RapidGDelta, combine
from .space import ClopenSet, Point, StagedOpenSet, clopen_union
from .stepfn import StepFunction, l1_norm


class L1Name:
    """Lazy certified sequence of step functions.

    Terms come from an explicit list, optionally extended by a rule; with no
    rule the tail is constant (the common case here: names of finite codes
    are eventually constant, making their limits exactly available)."""

    def __init__(self, terms: Sequence[StepFunction],
                 rule: Callable[[int], StepFunction] | None = None,
                 label: str = "name"):
        if not terms and rule is None:
            raise ValidationError("a name needs at least one term or a rule")
        self._terms: list[StepFunction] = list(terms)
        self._rule = rule
        self.label = label
        self._bad_sets: dict[int, list[ClopenSet]] = {}
        for i in range(len(self._terms) - 1):
            self._check_pair(i)
        if rule is not None and not self._terms:
            self._terms.append(rule(0))

    def _check_pair(self, i: int) -> None:
        norm = l1_norm(self._terms[i], self._terms[i + 1])
        if not norm < Dyadic.pow2(-i):
            raise CertificateError(
                f"{self.label}: |f_{i} - f_{i + 1}|_1 = {norm} not < 2^-{i}"
            )

    def term(self, i: int) -> StepFunction:
        if i < 0:
            raise ValidationError("term index must be nonnegative")
        while len(self._terms) <= i and self._rule is not None:
            self._terms.append(self._rule(len(self._terms)))
            self._check_pair(len(self._terms) - 2)
        if i < len(self._terms):
            return self._terms[i]
        return self._terms[-1]

    @property
    def materialized(self) -> int:
        return len(self._terms)

    def exact_limit(self) -> StepFunction | None:
        """The limit when the tail is known constant, else None."""
        return self._terms[-1] if self._rule is None else None

    def constant_tail_from(self) -> int | None:
        return len(self._terms) - 1 if self._rule is None else None

    def integral(self) -> DyadicInterval:
        """[int f_i - 2^-i+1, int f_i + 2^-i+1] at the deepest materialized
        index; always contains the limit's integral."""
        i = len(self._terms) - 1
        mid = self._terms[i].integral()
        pad = Dyadic.pow2(-i + 1)
        return DyadicInterval(mid - pad, mid + pad)


def constant_name(f: StepFunction, label: str = "const") -> L1Name:
    return L1Name([f], label=label)


def char_name(s: ClopenSet, label: str = "char") -> L1Name:
    return constant_name(StepFunction.from_char(s), label=label)


# ---------------------------------------------------------------------------
# bad sets

def exceedance_stages(term_fn: Callable[[int], StepFunction], start: int,
                      threshold: Dyadic) -> StagedOpenSet:
    """Stage N: the clopen set where sum_{i=start}^{N} |t_i - t_{i+1}|
    strictly exceeds the threshold.  Monotone because the sums only grow;
    cylinders enter at the first depth where the bound holds on all of them
    (canonical normalization merges as deep sums coarsen)."""

    sums: list[StepFunction] = []

    def stage_rule(s: int) -> ClopenSet:
        while len(sums) <= s:
            n = len(sums)
            if n < start:
                sums.append(StepFunction.constant(ZERO))
            else:
                prev = sums[-1] if sums else StepFunction.constant(ZERO)
                delta = term_fn(n).abs_diff(term_fn(n + 1))
                sums.append(prev + delta)
        f = sums[s]
        return f.strictly_above(threshold.num, 1 << threshold.exp)

    return StagedOpenSet(stages=stage_rule)


def bad_set(name: L1Name, level: int) -> StagedOpenSet:
    """Level-level bad set of the name: partial sums start at index
    2*level+1 against the threshold 2^-level.  Certified names keep every
    stage at measure <= 2^-level (checked via the RapidGDelta wrapper).

    The stages built so far are kept on the name as plain clopen sets, so
    no reference leads from the name back to itself and a dropped name is
    freed at once, big tables included.  A view that must build a new
    stage recomputes its partial sums from the start."""
    if level < 0:
        raise ValidationError("level must be nonnegative")
    staged = exceedance_stages(name.term, 2 * level + 1, Dyadic.pow2(-level))
    staged._memo = name._bad_sets.setdefault(level, [])
    return staged


def bad_set_family(name: L1Name) -> RapidGDelta:
    """The name's bad sets as one budgeted test: level n is bad_set(name, n)."""
    return RapidGDelta(lambda n: bad_set(name, n), label=f"bad[{name.label}]")


def convergence_test(name: L1Name) -> RapidGDelta:
    """The rapidly null set off which the name's terms converge pointwise:
    level k stages through union over n in (k, k+1+s] of bad_set(name, n),
    with budget 2^-k from the geometric tail."""

    def level_rule(k: int) -> StagedOpenSet:
        def stage_rule(s: int) -> ClopenSet:
            parts = [bad_set(name, n).stage(s) for n in range(k + 1, k + 2 + s)]
            return clopen_union(*parts)

        return StagedOpenSet(stages=stage_rule)

    return RapidGDelta(level_rule, label=f"conv[{name.label}]")


# ---------------------------------------------------------------------------
# pointwise evaluation

@dataclass(frozen=True)
class Captured:
    level: int
    cylinder: str


def value_at(name: L1Name, x: Point, precision: int) -> Dyadic | Captured:
    """f_m(x) with m = 2*precision+1, good to 2^-precision whenever x avoids
    the inspected bad sets.

    Capture is checked at levels 0..precision (the range the correctness
    bound uses) and at a stage that is exhaustive for constant-tail names."""
    m = 2 * precision + 1
    name.term(m + 1)
    const = name.constant_tail_from()
    stage = max(m + 2, (const if const is not None else 0) + 1)
    for j in range(precision + 1):
        hit = bad_set(name, j).stage(stage).hit(x)
        if hit is not None:
            return Captured(j, hit)
    return name.term(m).value_at(x)


# ---------------------------------------------------------------------------
# equality

@dataclass(frozen=True)
class NamesEqualResult:
    """mode is "exact" when both limits were compared exactly, "bounded"
    when the tail bound at index bound decided."""

    equal: bool
    residual: Dyadic
    bound: int
    mode: str

    def __bool__(self) -> bool:
        return self.equal


def interleave_terms(n1: L1Name, n2: L1Name) -> Callable[[int], StepFunction]:
    """<f_2, g_3, f_4, g_5, ...>: term j is f_{j+2} for even j, g_{j+2} for
    odd j.  Exposed raw (pair norms not pre-certified) so disagreement shows
    up in bad-set stages rather than as an early error."""

    def term(j: int) -> StepFunction:
        return n1.term(j + 2) if j % 2 == 0 else n2.term(j + 2)

    return term


def names_equal(n1: L1Name, n2: L1Name, bound: int = 24) -> NamesEqualResult:
    """When both names have exact limits: equal iff the limits coincide,
    with residual their exact L1 distance.  Otherwise the combined tail
    bound |f_i - g_i|_1 <= 2^-i+2 at i = bound decides; it holds whenever
    the limits agree, but also accepts limits closer than about 2^-bound+3."""
    if bound < 1:
        raise ValidationError("bound must be positive")
    a, b = n1.exact_limit(), n2.exact_limit()
    if a is not None and b is not None:
        same = a == b
        return NamesEqualResult(same, ZERO if same else l1_norm(a, b), bound, "exact")
    r = l1_norm(n1.term(bound), n2.term(bound))
    return NamesEqualResult(r <= Dyadic.pow2(-bound + 2), r, bound, "bounded")


def agreement_test(n1: L1Name, n2: L1Name) -> RapidGDelta:
    """Points avoiding this test see both names converge, to the same value:
    the convergence tests of each name combined with the convergence-style
    test of the interleaved sequence."""
    inter = interleave_terms(n1, n2)

    def inter_level(k: int) -> StagedOpenSet:
        def stage_rule(s: int) -> ClopenSet:
            parts = [
                exceedance_stages(inter, 2 * n + 1, Dyadic.pow2(-n)).stage(s)
                for n in range(k + 1, k + 2 + s)
            ]
            return clopen_union(*parts)

        return StagedOpenSet(stages=stage_rule)

    inter_test = RapidGDelta(inter_level, label=f"conv[{n1.label}~{n2.label}]")
    return combine(
        [convergence_test(n1), convergence_test(n2), inter_test],
        label=f"agree[{n1.label},{n2.label}]",
    )


# ---------------------------------------------------------------------------
# diagonal limits

def limit_distance_refuted(h1: L1Name, h2: L1Name, bound: Dyadic) -> Dyadic | None:
    """Exact refutation check of the claim |lim h1 - lim h2|_1 <= bound:
    returns the offending lower bound if the claim is impossible, else None."""
    a, b = h1.materialized - 1, h2.materialized - 1
    norm = l1_norm(h1.term(a), h2.term(b))
    slack = ZERO
    if h1.exact_limit() is None:
        slack = slack + Dyadic.pow2(-a + 1)
    if h2.exact_limit() is None:
        slack = slack + Dyadic.pow2(-b + 1)
    lower = norm - slack
    return lower if lower > bound else None


def diagonal_name(hs: Sequence[L1Name], g: L1Name | None = None,
                  label: str = "diag") -> L1Name:
    """From names h_i of a sequence rapidly converging in L1, the name of the
    limit: f^i is h_i's term at index 2i+1, and the output sequence is
    <f^{i+2}> so its certificate is strict.

    Verifies exactly, for every adjacent pair, that
    |f^i - f^{i+1}|_1 <= 2^-2i + 2^-i + 2^-2i, and against g (when given)
    that |f^i - lim g|_1 <= 2^-2i + 2^-i+1; violations mean the claimed
    input convergence certificate was false and raise with exact values."""
    hs = list(hs)
    if len(hs) < 3:
        raise ValidationError("diagonal needs at least three input names")
    diag = [h.term(2 * i + 1) for i, h in enumerate(hs)]
    for j in range(len(hs) - 1):
        bad = limit_distance_refuted(hs[j], hs[j + 1], Dyadic.pow2(-j))
        if bad is not None:
            raise CertificateError(
                f"{label}: |lim h_{j} - lim h_{j + 1}|_1 >= {bad} > 2^-{j}"
            )
    for i in range(len(diag) - 1):
        allowed = Dyadic.pow2(-2 * i) + Dyadic.pow2(-i) + Dyadic.pow2(-2 * i)
        got = l1_norm(diag[i], diag[i + 1])
        if got > allowed:
            raise CertificateError(
                f"{label}: |f^{i} - f^{i + 1}|_1 = {got} > 2^-{2 * i} + 2^-{i} + 2^-{2 * i}"
            )
    if g is not None:
        glim = g.exact_limit()
        for i, f in enumerate(diag):
            allowed = Dyadic.pow2(-2 * i) + Dyadic.pow2(-i + 1)
            if glim is not None:
                got = l1_norm(f, glim)
                if got > allowed:
                    raise CertificateError(
                        f"{label}: |f^{i} - g|_1 = {got} > 2^-{2 * i} + 2^-{i + 1}"
                    )
            else:
                bad = limit_distance_refuted(constant_name(f), g, allowed)
                if bad is not None:
                    raise CertificateError(
                        f"{label}: |f^{i} - lim g|_1 >= {bad} > 2^-{2 * i} + 2^-{i + 1}"
                    )
    return L1Name(diag[2:], label=label)


# ---------------------------------------------------------------------------
# sup and inf

def _pointwise_fold(members: Sequence[L1Name], use_max: bool, label: str) -> L1Name:
    if not members:
        raise ValidationError("sup/inf of an empty family is undefined")
    members = list(members)
    if len(members) == 1:
        return members[0]

    fold = StepFunction.max_with if use_max else StepFunction.min_with
    limits = [m.exact_limit() for m in members]
    if all(lim is not None for lim in limits):
        exact = limits[0]
        for lim in limits[1:]:
            exact = fold(exact, lim)
        return constant_name(exact, label=label)
    # no exact limits: fold term-by-term with the index shift that restores
    # a strict certificate
    shift = max(1, (len(members) - 1).bit_length())

    def term_rule(i: int) -> StepFunction:
        acc = members[0].term(i + shift)
        for m in members[1:]:
            acc = fold(acc, m.term(i + shift))
        return acc

    return L1Name([], rule=term_rule, label=label)


def sup_name(members: Sequence[L1Name], label: str = "sup") -> L1Name:
    """Pointwise maximum: exact for finite families of eventually constant
    names; otherwise folded term by term."""
    return _pointwise_fold(members, True, label)


def inf_name(members: Sequence[L1Name], label: str = "inf") -> L1Name:
    """Pointwise minimum, dual to sup_name."""
    return _pointwise_fold(members, False, label)
