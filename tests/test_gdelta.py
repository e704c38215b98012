import random

import pytest
from hypothesis import given, strategies as st

from cantor_measure.dyadic import Dyadic
from cantor_measure.errors import BudgetError
from cantor_measure.gdelta import (
    AvoidsSoFar,
    CapturedAt,
    RapidGDelta,
    avoids,
    budget_report,
    combine,
    covered_cell_count,
    eventually_periodic_avoider,
)
from cantor_measure.space import (
    ClopenSet,
    EventuallyPeriodicPoint,
    StagedOpenSet,
    clopen_subset,
    mu_I,
    point_in,
)
from bruteforce import all_prefixes, covered_cell_count_bf, covers_bf
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


def test_budget_report_passes_through():
    t = rapid_family_member(random.Random(31))
    for n in range(4):
        for s in range(4):
            assert budget_report(t, n, s) <= Dyadic.pow2(-n)


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


def test_avoids_is_three_valued():
    t = rapid_family_member(random.Random(34))
    s0 = t.stage(1, 2)
    if not s0.is_empty():
        g = s0.generators[0]
        inside = EventuallyPeriodicPoint(g, "0")
        r = avoids(inside, t, 1, 2)
        assert isinstance(r, CapturedAt)
        assert r.cylinder in s0.generators
    outside = eventually_periodic_avoider(s0)
    r2 = avoids(outside, t, 1, 2)
    assert isinstance(r2, AvoidsSoFar)


def test_covered_cell_count_bounds():
    s = ClopenSet(("00", "01"))     # measure 1/2
    assert covered_cell_count(s, 2) == 2
    assert covered_cell_count(s, 3) == 4
    t = rapid_family_member(random.Random(35))
    for n in range(3):
        stage = t.stage(n, 2)
        k = 6
        # a budgeted stage can cover at most mu * 2^k of the depth-k cells
        assert covered_cell_count(stage, k) <= int(mu_I(stage).num * (1 << (k - mu_I(stage).exp)))


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=6))
def test_covered_cell_count_matches_cell_loop(seed, k):
    s = random_clopen(random.Random(seed), max_gens=6, max_len=7)
    assert covered_cell_count(s, k) == covered_cell_count_bf(s, k)
    for p in all_prefixes(k):
        assert s.covers_prefix(p) == covers_bf(s, p)


def test_eventually_periodic_avoider_lies_outside():
    rng = random.Random(36)
    for _ in range(20):
        t = rapid_family_member(rng)
        for n in range(3):
            stage = t.stage(n, 2)
            if stage.is_full():
                continue
            x = eventually_periodic_avoider(stage)
            assert not point_in(x, stage)


def test_memoized_levels_are_stable():
    t = rapid_family_member(random.Random(37))
    assert t.level(1) is t.level(1)
    assert t.stage(1, 2) == t.stage(1, 2)
