"""Rapidly null G-delta tests: level sequences of staged open sets with the
budget mu_I(level n, any stage) <= 2^-n, enforced at materialization.

Combining countably many tests into one uses the level shift n + j + 1: the
output's level j unions input n's level n+j+1, so the budget telescopes to
2^-j.  The countable union is kept finite per stage by the diagonal schedule
(inputs n <= stage index enter); levels from a known height on are empty."""

from __future__ import annotations

from typing import Callable, Sequence

from .dyadic import Dyadic
from .errors import BudgetError, ValidationError
from .space import ClopenSet, StagedOpenSet, clopen_union, mu_I


class RapidGDelta:
    """levels(n) yields the staged open set U_n; every stage access is
    budget-checked, so no materialization path can observe a stage whose
    measure exceeds 2^-n without raising BudgetError.  From level height on
    (None: not known) every stage is the empty set, and no level is built."""

    def __init__(self, levels: Callable[[int], StagedOpenSet], label: str = "test",
                 height: int | None = None):
        self._rule = levels
        self._memo: dict[int, StagedOpenSet] = {}
        self.label = label
        self.height = height

    def level(self, n: int) -> StagedOpenSet:
        if n < 0:
            raise ValidationError("level must be nonnegative")
        if n not in self._memo:
            self._memo[n] = self._rule(n)
        return self._memo[n]

    def stage(self, n: int, s: int) -> ClopenSet:
        if self.height is not None and n >= self.height:
            return ClopenSet.empty()
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
    all n <= s in the input list.  Input n of height h_n is empty from output
    level h_n - n - 1 on: the height is the largest, or 0 (None if any is)."""
    tests = list(tests)

    def level_rule(j: int) -> StagedOpenSet:
        def stage_rule(s: int) -> ClopenSet:
            return clopen_union(*[tests[n].stage(n + j + 1, s)
                                  for n in range(min(len(tests), s + 1))])

        return StagedOpenSet(stages=stage_rule)

    return RapidGDelta(level_rule, label=label, height=combined_height([t.height for t in tests]))


def combined_height(heights: Sequence[int | None]) -> int | None:
    return None if None in heights else max([0] + [h - n - 1 for n, h in enumerate(heights)])
