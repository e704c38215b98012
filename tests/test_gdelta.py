import random

import pytest
from hypothesis import given, strategies as st

from cantor_measure.dyadic import Dyadic
from cantor_measure.errors import BudgetError
from cantor_measure.gdelta import RapidGDelta, combine
from cantor_measure.space import ClopenSet, StagedOpenSet, clopen_subset, mu_I
from bruteforce import all_prefixes, covers_bf
from gen import rapid_family_member, random_clopen


def test_budget_enforced_on_stage_access():
    fat = RapidGDelta(
        lambda n: StagedOpenSet.constant(ClopenSet(("0",))), label="fat"
    )
    assert mu_I(fat.stage(0, 0)) == Dyadic(1, 1)
    with pytest.raises(BudgetError) as e:
        fat.stage(2, 0)
    assert "fat" in str(e.value)
    assert "2^-2" in str(e.value)


def test_stage_measures_stay_within_budget():
    t = rapid_family_member(random.Random(31))
    for n in range(4):
        for s in range(4):
            assert mu_I(t.stage(n, s)) <= Dyadic.pow2(-n)


def test_combine_respects_budgets_and_schedule():
    rng = random.Random(32)
    for _ in range(20):
        fam = [rapid_family_member(rng, label=f"t{k}") for k in range(rng.randint(1, 4))]
        c = combine(fam, label="combined")
        for j in range(3):
            for s in range(3):
                out = c.stage(j, s)
                assert mu_I(out) <= Dyadic.pow2(-j)
                cap = min(len(fam) - 1, s)
                for n in range(cap + 1):
                    assert clopen_subset(fam[n].stage(n + j + 1, s), out)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=6))
def test_covers_prefix_matches_cell_loop(seed, k):
    s = random_clopen(random.Random(seed), max_gens=6, max_len=7)
    for p in all_prefixes(k):
        assert s.covers_prefix(p) == covers_bf(s, p)


def test_memoized_levels_are_stable():
    t = rapid_family_member(random.Random(37))
    assert t.level(1) is t.level(1)
    assert t.stage(1, 2) == t.stage(1, 2)
