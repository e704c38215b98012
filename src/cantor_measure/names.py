"""L1 names: rapidly Cauchy sequences of step functions, their certificates,
bad sets, pointwise evaluation, equality, and closure under diagonal limits
and pointwise sup/inf.

A name's certificate is the strict bound |f_i - f_{i+1}|_1 < 2^-i for every
adjacent pair ever materialized; ties reject.  Bad sets follow the partial
sum construction: level n collects the cylinders where
sum_{i=2n+1}^{N} |f_i - f_{i+1}| exceeds 2^-n, which Markov keeps below
measure 2^-n for certified names.  The certificate and the bad sets share
each |f_i - f_{i+1}|, built once; value_at's capture sets come from one
suffix-sum pass over them, whose nonnegativity makes the stages monotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .dyadic import Dyadic
from .errors import CertificateError, ValidationError
from .gdelta import RapidGDelta, combine, combined_height
from .space import ClopenSet, Point, StagedOpenSet, clopen_union
from .stepfn import StepFunction, l1_norm


class L1Name:
    """Lazy certified sequence of step functions.

    Terms come from an explicit list, optionally extended by a rule called as
    terms are read.  From index tail on, when known, the terms are constant
    and term(tail) is the exact limit: with no rule the tail is constant (names
    of finite codes are eventually constant); a rule name's tail= comes only
    from the library's own constructors, and no term past it is computed."""

    def __init__(self, terms: Sequence[StepFunction],
                 rule: Callable[[int], StepFunction] | None = None,
                 label: str = "name", tail: int | None = None):
        if not terms and rule is None:
            raise ValidationError("a name needs at least one term or a rule")
        if tail is not None and tail < 0:
            raise ValidationError("tail must be nonnegative")
        self._terms: list[StepFunction] = list(terms)
        self._rule = rule
        self.label = label
        self.tail = len(self._terms) - 1 if rule is None else tail
        self._bad_sets: dict[int, list[ClopenSet]] = {}
        self._deltas: dict[int, StepFunction] = {}
        self._captures: dict[int, tuple[int, tuple[ClopenSet, ...]]] = {}
        for i in range(len(self._terms) - 1):
            self._check_pair(i)

    def _check_pair(self, i: int) -> None:
        norm = l1_norm(self.delta(i))
        if not norm < Dyadic.pow2(-i):
            raise CertificateError(
                f"{self.label}: |f_{i} - f_{i + 1}|_1 = {norm} not < 2^-{i}"
            )

    def term(self, i: int) -> StepFunction:
        if i < 0:
            raise ValidationError("term index must be nonnegative")
        if self.tail is not None:
            i = min(i, self.tail)
        while len(self._terms) <= i:
            self._terms.append(self._rule(len(self._terms)))
            try:
                if len(self._terms) > 1:  # a first term has no pair to check
                    self._check_pair(len(self._terms) - 2)
            except CertificateError:  # keep no term, or delta, that failed
                self._terms.pop()
                self._deltas.pop(len(self._terms) - 1, None)
                raise
        return self._terms[i]

    def delta(self, i: int) -> StepFunction:
        """|f_i - f_{i+1}|, built once: term i+1's certificate check keeps it."""
        g = self.term(i + 1)
        d = self._deltas.get(i)
        if d is None:
            d = self._deltas[i] = self.term(i).abs_diff(g)
        return d

    def exact_limit(self) -> StepFunction | None:
        """The limit, term(tail), when the tail is known, else None."""
        return None if self.tail is None else self.term(self.tail)


def constant_name(f: StepFunction, label: str = "const") -> L1Name:
    return L1Name([f], label=label)


def char_name(s: ClopenSet, label: str = "char") -> L1Name:
    return constant_name(StepFunction.from_char(s), label=label)


# ---------------------------------------------------------------------------
# bad sets

def exceedance_stages(delta: Callable[[int], StepFunction], start: int,
                      threshold: Dyadic) -> StagedOpenSet:
    """Stage N: the clopen set where sum_{i=start}^{N} delta(i) strictly
    exceeds the threshold, delta(i) being |t_i - t_{i+1}| for a sequence t;
    empty below start.  Monotone because the sums only grow; cylinders
    enter at the first depth where the bound holds on all of them (canonical
    normalization merges as deep sums coarsen)."""

    sums: list[StepFunction] = []

    def stage_rule(s: int) -> ClopenSet:
        if s < start:
            return ClopenSet.empty()
        while len(sums) <= s - start:
            d = delta(start + len(sums))
            sums.append(sums[-1] + d if sums else d)
        return sums[s - start].strictly_above(threshold.num, 1 << threshold.exp)

    return StagedOpenSet(stages=stage_rule)


def bad_set(name: L1Name, level: int) -> StagedOpenSet:
    """Level-level bad set of the name: partial sums start at index
    2*level+1 against the threshold 2^-level.  Certified names keep every
    stage at measure <= 2^-level (checked via the RapidGDelta wrapper);
    capture_sets builds the one stage value_at reads without these views.

    The stages built so far are kept on the name as plain clopen sets, so
    no reference leads from the name back to itself and a dropped name is
    freed at once, big tables included.  A view that must build a new
    stage recomputes its partial sums from the start."""
    if level < 0:
        raise ValidationError("level must be nonnegative")
    staged = exceedance_stages(name.delta, 2 * level + 1, Dyadic.pow2(-level))
    staged._memo = name._bad_sets.setdefault(level, [])
    return staged


def convergence_test(name: L1Name) -> RapidGDelta:
    """The rapidly null set off which the name's terms converge pointwise:
    level k at stage s unions bad_set(name, n).stage(s) over n > k, within
    2^-k by the geometric tail.  Bad set n is empty before stage 2n+1 and,
    when the name is constant from index c (its deltas from c on are zero),
    at every stage once 2n+1 >= c; so stage s reads only n <= (s-1)/2 with
    n < c//2, and the height is max(c//2 - 1, 0), or None with no tail."""
    tail = name.tail

    def level_rule(k: int) -> StagedOpenSet:
        def stage_rule(s: int) -> ClopenSet:
            end = (s + 1) // 2 if tail is None else min((s + 1) // 2, tail // 2)
            return clopen_union(*[bad_set(name, n).stage(s) for n in range(k + 1, end)])

        return StagedOpenSet(stages=stage_rule)

    return RapidGDelta(level_rule, label=f"conv[{name.label}]", height=convergence_height(tail))


def convergence_height(tail: int | None) -> int | None:
    return None if tail is None else max(tail // 2 - 1, 0)


# ---------------------------------------------------------------------------
# pointwise evaluation

@dataclass(frozen=True)
class Captured:
    level: int
    cylinder: str


def capture_sets(name: L1Name, precision: int) -> tuple[int, tuple[ClopenSet, ...]]:
    """What value_at reads off the name for a precision, whatever the point:
    the term index m = 2*precision+1 and, for levels 0..precision (the range
    the correctness bound uses), the bad set's stage that is exhaustive for
    constant-tail names, bad_set(name, j).stage(N).  One pass down from N
    sums the deltas, taking level j's set at index 2j+1; the skipped stages
    nest because every delta is nonnegative, which the pass checks.
    Memoized on the name per precision."""
    m = 2 * precision + 1
    name.term(m + 1)
    got = name._captures.get(precision)
    if got is None:
        stage = max(m + 2, (name.tail or 0) + 1)
        guards: list[ClopenSet] = []
        total = None
        for i in range(stage if precision >= 0 else 0, 0, -1):
            d = name.delta(i)
            if min(d.nums) < 0:
                raise CertificateError(f"{name.label}: delta {i} is negative")
            total = d if total is None else total + d
            if i % 2 and i <= m:
                guards.append(total.strictly_above(1, 1 << (i // 2)))
        got = name._captures[precision] = (m, tuple(reversed(guards)))
    return got


def value_at(name: L1Name, x: Point, precision: int) -> Dyadic | Captured:
    """f_m(x) with m = 2*precision+1, good to 2^-precision whenever x avoids
    the inspected bad sets; Captured at the first level whose capture set
    holds x."""
    m, guards = capture_sets(name, precision)
    for j, guard in enumerate(guards):
        hit = guard.hit(x)
        if hit is not None:
            return Captured(j, hit)
    return name.term(m).value_at(x)


# ---------------------------------------------------------------------------
# equality

# the index at which names_equal's tail bound decides when a tail is unknown
EQUAL_BOUND = 24


@dataclass(frozen=True)
class NamesEqualResult:
    """mode is "exact" when both limits were compared exactly, "bounded"
    when the tail bound at index EQUAL_BOUND decided."""

    equal: bool
    mode: str


def names_equal(n1: L1Name, n2: L1Name) -> NamesEqualResult:
    """When both names know their tails: equal iff the limits term(tail)
    coincide; a rule name's terms are evaluated up to its declared tail.
    Otherwise the combined tail bound |f_i - g_i|_1 <= 2^-i+2 at
    i = EQUAL_BOUND decides; it holds whenever the limits agree, but also
    accepts limits closer than about 2^-i+3."""
    a, b = n1.exact_limit(), n2.exact_limit()
    if a is not None and b is not None:
        return NamesEqualResult(a == b, "exact")
    r = l1_norm(n1.term(EQUAL_BOUND), n2.term(EQUAL_BOUND))
    return NamesEqualResult(r <= Dyadic.pow2(-EQUAL_BOUND + 2), "bounded")


class _Interleaved(L1Name):
    """<f_2, g_3, f_4, g_5, ...>: term j is f_{j+2} for even j, g_{j+2} for
    odd j, with a name's memoized terms, deltas and bad-set stages.  Its pair
    norms are not certified, so disagreement shows up in bad-set stages
    rather than as an early error; exact equal limits give it the later tail,
    less 2."""

    def __init__(self, n1: L1Name, n2: L1Name):
        known = n1.tail is not None and n2.tail is not None
        tail = max(n1.tail, n2.tail, 2) - 2 if known and n1.exact_limit() == n2.exact_limit() else None
        super().__init__([], rule=lambda j: (n2 if j % 2 else n1).term(j + 2),
                         label=f"{n1.label}~{n2.label}", tail=tail)

    def _check_pair(self, i: int) -> None:
        pass


def agreement_test(n1: L1Name, n2: L1Name) -> RapidGDelta:
    """Points avoiding this test see both names converge, to the same value:
    the convergence tests of each name and of their interleave, combined.
    Building it evaluates terms only up to declared tails, to compare the
    limits; only equal limits bound the staging."""
    return combine([convergence_test(n) for n in (n1, n2, _Interleaved(n1, n2))],
                   label=f"agree[{n1.label},{n2.label}]")


def agreement_height(t1: int, t2: int) -> int:
    """agreement_test's height for names of tails t1, t2 and equal exact
    limits: combine's over its parts, the interleave's tail max(t1, t2, 2) - 2."""
    return combined_height([convergence_height(t) for t in (t1, t2, max(t1, t2, 2) - 2)])


# ---------------------------------------------------------------------------
# diagonal limits

def limit_distance_refuted(h1: L1Name, h2: L1Name, bound: Dyadic) -> Dyadic | None:
    """Exact refutation check of the claim |lim h1 - lim h2|_1 <= bound:
    returns the offending lower bound if the claim is impossible, else None.
    A name is read at its limit term(tail) when the tail is known, else at
    its deepest materialized index i, whose term is within 2^-i+1 of it."""
    a, b = (max(len(h._terms), 1) - 1 if h.tail is None else h.tail for h in (h1, h2))
    lower = l1_norm(h1.term(a), h2.term(b))
    if h1.tail is None:
        lower = lower - Dyadic.pow2(-a + 1)
    if h2.tail is None:
        lower = lower - Dyadic.pow2(-b + 1)
    return lower if lower > bound else None


def diagonal_name(hs: Sequence[L1Name], g: L1Name | None = None) -> L1Name:
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
                f"diag: |lim h_{j} - lim h_{j + 1}|_1 >= {bad} > 2^-{j}"
            )
    for i in range(len(diag) - 1):
        allowed = Dyadic.pow2(-2 * i) + Dyadic.pow2(-i) + Dyadic.pow2(-2 * i)
        got = l1_norm(diag[i], diag[i + 1])
        if got > allowed:
            raise CertificateError(
                f"diag: |f^{i} - f^{i + 1}|_1 = {got} > 2^-{2 * i} + 2^-{i} + 2^-{2 * i}"
            )
    if g is not None:
        for i, f in enumerate(diag):
            bad = limit_distance_refuted(constant_name(f), g,
                                         Dyadic.pow2(-2 * i) + Dyadic.pow2(-i + 1))
            if bad is not None:
                raise CertificateError(
                    f"diag: |f^{i} - lim g|_1 >= {bad} > 2^-{2 * i} + 2^{1 - i}"
                )
    return L1Name(diag[2:], label="diag")


# ---------------------------------------------------------------------------
# sup and inf

def _pointwise_fold(members: Sequence[L1Name], use_max: bool, label: str) -> L1Name:
    if not members:
        raise ValidationError("sup/inf of an empty family is undefined")
    members = list(members)
    if len(members) == 1:
        return members[0]

    fold = StepFunction.max_with if use_max else StepFunction.min_with
    if all(m.tail is not None for m in members):
        exact = members[0].exact_limit()
        for m in members[1:]:
            exact = fold(exact, m.exact_limit())
        return constant_name(exact, label=label)
    # some tail unknown: fold term-by-term with the index shift that restores
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
