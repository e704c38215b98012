from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantor_measure.dyadic import Dyadic
from cantor_measure.errors import ValidationError
from cantor_measure.space import (
    ClopenSet,
    ColumnPoint,
    EventuallyPeriodicPoint,
    SeededPoint,
    StagedOpenSet,
    cantor_pair,
    clopen_complement,
    clopen_intersection,
    clopen_subset,
    clopen_union,
    column,
    enumerate_eventually_periodic,
    mu_I,
    point_in,
    prefix_free_normalize,
    tail_append,
)
from bruteforce import (
    all_prefixes,
    complement_bf,
    dyadic_fraction,
    intersection_bf,
    normalize_bf,
    union_measure,
)

bits = st.text(alphabet="01", max_size=6)
gen_lists = st.lists(bits, max_size=5)


@st.composite
def near_full_cells(draw):
    """All depth-d cells (d <= 8), a few split into both children, a few
    dropped, plus a few extra strings: inputs with long sibling-merge
    chains, which gen_lists rarely produces."""
    d = draw(st.integers(min_value=0, max_value=8))
    cells = list(all_prefixes(d))
    index = st.integers(min_value=0, max_value=len(cells) - 1)
    split = draw(st.sets(index, max_size=3))
    drop = draw(st.sets(index, max_size=3))
    out = []
    for i, c in enumerate(cells):
        if i in split:
            out += [c + "0", c + "1"]
        elif i not in drop:
            out.append(c)
    return out + draw(st.lists(st.text(alphabet="01", max_size=8), max_size=3))


def covered(gens, p):
    return any(p.startswith(g) for g in gens)


@given(gen_lists)
def test_normalize_is_antichain_with_same_denotation(gens):
    out = prefix_free_normalize(tuple(gens))
    # no generator is a prefix of another
    for i, a in enumerate(out):
        for j, b in enumerate(out):
            if i != j:
                assert not b.startswith(a)
    d = max((len(g) for g in list(gens) + list(out)), default=0)
    for p in all_prefixes(d):
        assert covered(gens, p) == covered(out, p)


@given(gen_lists)
def test_normalize_idempotent_and_sorted(gens):
    out = prefix_free_normalize(tuple(gens))
    assert prefix_free_normalize(out) == out
    assert tuple(sorted(out)) == out


@given(near_full_cells())
def test_normalize_matches_quadratic_reference_on_near_full_sets(gens):
    assert prefix_free_normalize(gens) == normalize_bf(gens)


@given(st.one_of(gen_lists, near_full_cells()), st.one_of(gen_lists, near_full_cells()))
def test_intersection_and_complement_match_references(g1, g2):
    a, b = ClopenSet(tuple(g1)), ClopenSet(tuple(g2))
    assert clopen_intersection(a, b).generators == intersection_bf(a, b)
    assert clopen_complement(a).generators == complement_bf(a)


def test_normalize_examples():
    assert prefix_free_normalize(("0", "01")) == ("0",)
    assert prefix_free_normalize(("00", "01", "1")) == ("",)
    assert prefix_free_normalize(()) == ()


@given(gen_lists)
def test_mu_matches_prefix_counting(gens):
    s = ClopenSet(tuple(gens))
    assert dyadic_fraction(s.mu) == union_measure(gens)


@given(gen_lists)
def test_kraft_bound(gens):
    s = ClopenSet(tuple(gens))
    total = sum(Fraction(1, 1 << len(g)) for g in s.generators)
    assert total <= 1
    assert dyadic_fraction(s.mu) == total


@given(gen_lists, gen_lists)
def test_algebra_matches_set_operations(g1, g2):
    a, b = ClopenSet(tuple(g1)), ClopenSet(tuple(g2))
    u = clopen_union(a, b)
    i = clopen_intersection(a, b)
    c = clopen_complement(a)
    d = max((len(g) for g in list(g1) + list(g2)), default=0) + 1
    for p in all_prefixes(d):
        ina, inb = covered(g1, p), covered(g2, p)
        assert a.covers_prefix(p) == ina
        assert u.covers_prefix(p) == (ina or inb)
        assert i.covers_prefix(p) == (ina and inb)
        assert c.covers_prefix(p) == (not ina)


@given(gen_lists, gen_lists)
def test_subset_via_intersection(g1, g2):
    a, b = ClopenSet(tuple(g1)), ClopenSet(tuple(g2))
    assert clopen_subset(a, b) == (clopen_intersection(a, b) == a)


def test_additivity_on_disjoint():
    a = ClopenSet(("00",))
    b = ClopenSet(("1",))
    assert mu_I(clopen_union(a, b)) == a.mu + b.mu


def test_eventually_periodic_point_bits():
    x = EventuallyPeriodicPoint("01", "10")
    got = "".join(str(x.bit(i)) for i in range(8))
    assert got == "01101010"
    assert x.describe() == "u=01:v=10"


def test_eventually_periodic_rejects_empty_period():
    with pytest.raises(ValidationError):
        EventuallyPeriodicPoint("0", "")


def test_seeded_point_deterministic():
    x, y = SeededPoint(99), SeededPoint(99)
    assert [x.bit(i) for i in range(64)] == [y.bit(i) for i in range(64)]
    z = SeededPoint(100)
    assert [x.bit(i) for i in range(64)] != [z.bit(i) for i in range(64)]


def test_cantor_pair_injective_on_grid():
    seen = {}
    for k in range(40):
        for n in range(40):
            v = cantor_pair(k, n)
            assert v not in seen
            seen[v] = (k, n)


def test_columns_are_disjoint_streams():
    base = SeededPoint(5)
    c0, c1 = column(base, 0), column(base, 1)
    assert isinstance(c0, ColumnPoint)
    assert [c0.bit(i) for i in range(32)] != [c1.bit(i) for i in range(32)]


def test_tail_append_reads_head_then_base():
    x = tail_append("110", EventuallyPeriodicPoint("", "0"))
    assert [x.bit(i) for i in range(5)] == [1, 1, 0, 0, 0]


def test_point_in_reads_finitely_many_bits():
    s = ClopenSet(("01",))
    assert point_in(EventuallyPeriodicPoint("01", "1"), s)
    assert not point_in(EventuallyPeriodicPoint("", "0"), s)
    # hit returns the generator brute-force prefix checking finds, or None
    points = list(enumerate_eventually_periodic(3, 2))
    for gens in [(), ("",), ("01",), ("0", "10"), ("001", "01", "110", "1111")]:
        c = ClopenSet(gens)
        for x in points:
            bits = "".join(str(x.bit(i)) for i in range(c.depth()))
            want = [g for g in c.generators if bits.startswith(g)]
            assert c.hit(x) == (want[0] if want else None)
            assert point_in(x, c) == bool(want)


def test_enumerate_eventually_periodic_counts():
    pts = list(enumerate_eventually_periodic(1, 1))
    # heads: "", "0", "1"; periods: "0", "1"
    assert len(pts) == 6


def test_staged_open_set_monotone_enforced():
    shrink = StagedOpenSet(stages=[ClopenSet(("0",)), ClopenSet(("00",))])
    with pytest.raises(ValidationError):
        shrink.stage(1)


def test_staged_open_set_constant():
    s = StagedOpenSet.constant(ClopenSet(("1",)))
    assert s.stage(0) == s.stage(5) == ClopenSet(("1",))


def test_staged_measure_bounds():
    s = StagedOpenSet(
        stages=lambda n: ClopenSet(tuple("0" * k + "1" for k in range(n + 1))),
        tail_budget=lambda n: Dyadic.pow2(-n),
    )
    iv = s.measure_bounds(4)
    assert iv.lo == mu_I(s.stage(4))
    assert iv.hi == iv.lo + Dyadic.pow2(-4)
