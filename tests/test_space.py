from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cantor_measure.errors import ValidationError
from cantor_measure.space import (
    ClopenSet,
    ColumnPoint,
    EventuallyPeriodicPoint,
    Point,
    SeededPoint,
    StagedOpenSet,
    TailPoint,
    cantor_pair,
    clopen_complement,
    clopen_intersection,
    clopen_subset,
    clopen_union,
    enumerate_eventually_periodic,
    locate,
    mu_I,
    prefix_free_normalize,
    seeded_bit,
    validate_bits,
)
from bruteforce import (
    all_prefixes,
    clopen_subset_bf,
    column,
    complement_bf,
    dyadic_fraction,
    intersection_bf,
    locate_bf,
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
    assert dyadic_fraction(mu_I(s)) == union_measure(gens)


@given(gen_lists)
def test_kraft_bound(gens):
    s = ClopenSet(tuple(gens))
    total = sum(Fraction(1, 1 << len(g)) for g in s.generators)
    assert total <= 1
    assert dyadic_fraction(mu_I(s)) == total


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


@st.composite
def subset_pairs(draw):
    """(a, b) where a often lies just inside b or just misses it: a mixes
    b's generators, their extensions and their siblings with random
    strings; the empty and the full set come up on either side."""
    sets = st.one_of(st.just([]), st.just([""]), gen_lists, near_full_cells())
    b = draw(sets)
    a = draw(st.sampled_from([[], [""]])) if not b else []
    for g in draw(st.lists(st.sampled_from(b), max_size=4)) if b else []:
        kind = draw(st.sampled_from(("same", "extension", "sibling")))
        if kind == "extension":
            g += draw(bits)
        elif kind == "sibling" and g:
            g = g[:-1] + "10"[int(g[-1])]
        a.append(g)
    a += draw(st.lists(bits, max_size=2))
    return (a, b) if draw(st.booleans()) else (b, a)


@given(subset_pairs())
@example(([], []))
@example(([""], []))
@example(([], [""]))
@example(([""], ["0", "1"]))
@example((["0"], ["1"]))
@example((["00", "01"], ["0"]))
@example((["0"], ["00", "01"]))
@example((["0"], ["00"]))
def test_subset_via_intersection(pair):
    a, b = ClopenSet(tuple(pair[0])), ClopenSet(tuple(pair[1]))
    assert clopen_subset(a, b) == clopen_subset_bf(a, b)


def test_additivity_on_disjoint():
    a = ClopenSet(("00",))
    b = ClopenSet(("1",))
    assert mu_I(clopen_union(a, b)) == mu_I(a) + mu_I(b)


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


@given(st.integers(min_value=-(1 << 70), max_value=1 << 70),
       st.integers(min_value=0, max_value=300), st.integers(min_value=-5, max_value=80))
@example(0, 0, 0)
@example(7, 10, -3)
def test_seeded_slices_are_seeded_bits(seed, lo, width):
    """A slice is seeded_bit at each position; empty and reversed ranges
    are empty."""
    want = "".join(str(seeded_bit(seed, n)) for n in range(lo, lo + width))
    assert SeededPoint(seed).bits(lo, lo + width) == want


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
    x = TailPoint("110", EventuallyPeriodicPoint("", "0"))
    assert [x.bit(i) for i in range(5)] == [1, 1, 0, 0, 0]


def test_hit_reads_finitely_many_bits():
    s = ClopenSet(("01",))
    assert s.hit(EventuallyPeriodicPoint("01", "1")) is not None
    assert s.hit(EventuallyPeriodicPoint("", "0")) is None
    # hit returns the generator brute-force prefix checking finds, or None
    points = list(enumerate_eventually_periodic(3, 2))
    for gens in [(), ("",), ("01",), ("0", "10"), ("001", "01", "110", "1111")]:
        c = ClopenSet(gens)
        for x in points:
            bits = "".join(str(x.bit(i)) for i in range(c.depth()))
            want = [g for g in c.generators if bits.startswith(g)]
            assert c.hit(x) == (want[0] if want else None)


@st.composite
def walks(draw):
    """An eventually periodic point and strings up to 300 bits, some of them
    prefixes of the point, so that walks run long."""
    head, period = draw(bits), draw(st.text(alphabet="01", min_size=1, max_size=4))
    x = EventuallyPeriodicPoint(head, period)
    on_x = draw(st.lists(st.integers(min_value=0, max_value=300), max_size=3))
    strings = [_bits_of(x, n) for n in on_x] + draw(st.lists(st.text(alphabet="01", max_size=12), max_size=6))
    return x, strings


def _bits_of(x, n):
    return "".join(str(x.bit(i)) for i in range(n))


@settings(max_examples=300)
@given(walks())
def test_locate_matches_prefix_oracle(walk):
    x, strings = walk
    prefixes = ClopenSet(tuple(strings)).generators
    assert locate(prefixes, x) == locate_bf(prefixes, x)


def _longest_prefix(strings, x):
    on_x = [i for i, s in enumerate(strings) if _bits_of(x, len(s)) == s]
    return max(on_x, key=lambda i: len(strings[i]), default=None)


@settings(max_examples=300)
@given(walks())
def test_locate_finds_the_longest_prefix_in_any_sorted_list(walk):
    x, strings = walk
    strings = sorted(set(strings))
    assert locate(strings, x) == _longest_prefix(strings, x)


def test_read_prefix_reads_one_slice_along_a_long_string():
    """locate reads the prefix of x that the last candidate needs in
    Point.bits slices: through bit, only the bit that splits the list."""
    n = 1_000_000
    reads = []

    class Counted(EventuallyPeriodicPoint):
        def bit(self, i):
            reads.append(i)
            return super().bit(i)

    gens = ["0" * n + "1", "1"]
    assert locate(gens, Counted("", "0")) is None
    assert locate(gens, Counted("0" * n, "1")) == 0
    assert locate(gens, Counted("001", "0")) is None
    assert locate(["0" * n, "1"], Counted("", "0")) == 0
    assert reads == [0, 0, 0, 0]  # the first bit splits the list; one string is left


def test_locate_reads_each_bit_once_along_a_long_generator():
    """Through the default Point.bits, which reads bit by bit, locate still
    reads each bit of the last candidate once and none twice."""
    n = 100_000
    reads = []

    class Counted(EventuallyPeriodicPoint):
        bits = Point.bits

        def bit(self, i):
            reads.append(i)
            return super().bit(i)

    assert locate(ClopenSet(("0" * n + "1", "1")).generators, Counted("", "0")) is None
    assert reads == list(range(n + 1))
    assert locate(ClopenSet(("0" * n, "1")).generators, Counted("", "0")) == 0


def test_locate_stops_at_the_first_slice_that_differs():
    """The last candidate is compared in slices of 64, 128, ... bits, so a
    point that differs from it at bit 0 reads one 64-bit slice, not the
    whole candidate, and one that differs at bit 1000 reads the slices up
    to the one holding it."""
    n = 100_000
    reads = []

    class Counted(EventuallyPeriodicPoint):
        bits = Point.bits

        def bit(self, i):
            reads.append(i)
            return super().bit(i)

    long = ("0" * n + "1",)
    assert locate(long, Counted("1", "0")) is None
    assert reads == list(range(64))
    reads.clear()
    assert locate(long, Counted("0" * 1000 + "1", "0")) is None
    assert reads == list(range(64 + 128 + 256 + 512 + 1024))


def test_enumerate_eventually_periodic_counts():
    pts = list(enumerate_eventually_periodic(1, 1))
    # heads: "", "0", "1"; periods: "0", "1"
    assert len(pts) == 6


def test_staged_open_set_monotone_enforced():
    shrink = StagedOpenSet(stages=lambda s: ClopenSet(("0" * (s + 1),)))
    with pytest.raises(ValidationError):
        shrink.stage(1)


def test_staged_open_set_constant():
    s = StagedOpenSet.constant(ClopenSet(("1",)))
    assert s.stage(0) == s.stage(5) == ClopenSet(("1",))


def _validate_bits_by_chars(p: str) -> str:
    """validate_bits as a generator over characters."""
    if any(ch not in "01" for ch in p):
        raise ValidationError(f"not a binary string: {p!r}")
    return p


@settings(max_examples=200)
@given(st.text() | st.text(alphabet="01 \t\n٠١𝟎𝟏", max_size=8))
@example("")
@example("0101")
@example(" 01")
@example("01\n")
@example("٠")
@example("0١")
def test_validate_bits_matches_the_character_scan(p):
    def outcome(fn):
        try:
            return fn(p)
        except ValidationError as e:
            return str(e)

    assert outcome(validate_bits) == outcome(_validate_bits_by_chars)


@settings(max_examples=300)
@given(bits, st.text(alphabet="01", min_size=1, max_size=5),
       st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_eventually_periodic_bits_match_bit_by_bit(head, period, lo, n):
    x = EventuallyPeriodicPoint(head, period)
    assert x.bits(lo, lo + n) == Point.bits(x, lo, lo + n) == _bits_of(x, lo + n)[lo:]


@settings(max_examples=100)
@given(st.integers(min_value=-(1 << 70), max_value=1 << 70),
       st.lists(st.text(alphabet="01", max_size=12), max_size=6))
def test_locate_on_points_read_bit_by_bit(seed, strings):
    x = TailPoint("01", SeededPoint(seed))
    strings = sorted(set(strings))
    assert locate(strings, x) == _longest_prefix(strings, x)
