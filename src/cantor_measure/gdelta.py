"""Rapidly null G-delta tests: level sequences of staged open sets with the
budget mu_I(level n, any stage) <= 2^-n, enforced at materialization.

Combining countably many tests into one uses the level shift n + j + 1: the
output's level j unions input n's level n+j+1, so the budget telescopes to
2^-j.  The countable union is kept finite per stage by the diagonal schedule
(inputs n <= stage index enter)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .dyadic import Dyadic
from .errors import BudgetError, ValidationError
from .space import ClopenSet, Point, StagedOpenSet, clopen_union, mu_I


@dataclass(frozen=True)
class AvoidsSoFar:
    """No inspected stage captured the point; says nothing beyond them."""

    level: int
    stage: int


@dataclass(frozen=True)
class CapturedAt:
    level: int
    stage: int
    cylinder: str


class RapidGDelta:
    """levels(n) yields the staged open set U_n; every stage access is
    budget-checked, so no materialization path can observe a stage whose
    measure exceeds 2^-n without raising BudgetError."""

    def __init__(self, levels: Callable[[int], StagedOpenSet], label: str = "test"):
        self._rule = levels
        self._memo: dict[int, StagedOpenSet] = {}
        self.label = label

    def level(self, n: int) -> StagedOpenSet:
        if n < 0:
            raise ValidationError("level must be nonnegative")
        if n not in self._memo:
            self._memo[n] = self._rule(n)
        return self._memo[n]

    def stage(self, n: int, s: int) -> ClopenSet:
        c = self.level(n).stage(s)
        m = mu_I(c)
        if m > Dyadic.pow2(-n):
            raise BudgetError(
                f"{self.label}: level {n} stage {s} has measure {m} > 2^-{n}"
            )
        return c


def combine(tests: Sequence[RapidGDelta], label: str = "combined") -> RapidGDelta:
    """One test whose G-delta contains every input's.

    Output level j at stage s unions input n's level n+j+1 at stage s over
    all n <= s present in the input list."""
    tests = list(tests)

    def level_rule(j: int) -> StagedOpenSet:
        def stage_rule(s: int) -> ClopenSet:
            parts = [tests[n].stage(n + j + 1, s) for n in range(min(len(tests), s + 1))]
            return clopen_union(*parts) if parts else ClopenSet.empty()

        return StagedOpenSet(stages=stage_rule)

    return RapidGDelta(level_rule, label=label)


def avoids(x: Point, t: RapidGDelta, level: int, stage: int) -> AvoidsSoFar | CapturedAt:
    """Three-valued by stage: capture is final, avoidance only provisional."""
    g = t.stage(level, stage).hit(x)
    return AvoidsSoFar(level, stage) if g is None else CapturedAt(level, stage, g)


def budget_report(t: RapidGDelta, level: int, stage: int) -> Dyadic:
    """Exact stage measure; raises BudgetError if above 2^-level."""
    return mu_I(t.stage(level, stage))


def covered_cell_count(stage_set: ClopenSet, k: int) -> int:
    """How many of the 2^k depth-k cells lie entirely inside the stage.

    mu-bounded stages cover at most mu * 2^k of them, which is the finite
    echo of 'a rapidly null set is not everything'.  A depth-k cell lies
    inside the canonical antichain exactly when some generator is a prefix
    of it, so generator g covers 2^(k - |g|) cells when |g| <= k."""
    return sum(1 << (k - len(g)) for g in stage_set.generators if len(g) <= k)


def eventually_periodic_avoider(stage_set: ClopenSet):
    """An explicit eventually periodic point outside a non-full clopen stage."""
    from .space import EventuallyPeriodicPoint, clopen_complement

    comp = clopen_complement(stage_set)
    if comp.is_empty():
        raise ValidationError("stage covers the whole space; no avoider exists")
    g = comp.generators[0]
    return EventuallyPeriodicPoint(g, "0")
