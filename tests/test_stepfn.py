import random
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import given, settings, strategies as st

from cantor_measure.dyadic import Dyadic
from cantor_measure.errors import ValidationError
from cantor_measure.space import ClopenSet, EventuallyPeriodicPoint, clopen_complement
from cantor_measure.stepfn import StepFunction, l1_norm

from bruteforce import (
    aligned_bf,
    all_prefixes,
    at_depth_bf,
    average_bf,
    canonical_bf,
    cell_average_bf,
    cell_index_bf,
    char_table_bf,
    dyadic_fraction,
    integral_fraction,
    l1_fraction,
    level_bf,
    reduce_bf,
    refinement_bf,
    step_value,
    value_bf,
)
from gen import random_bits, random_clopen, random_deep_stepfn, random_stepfn

fns = st.builds(
    lambda d, e, seed: StepFunction(
        d, e, tuple(random.Random(seed).randint(-9, 9) for _ in range(1 << d))
    ),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)


@given(fns)
def test_canonical_form_minimal(f):
    # minimal depth: some sibling pair differs, unless depth 0
    if f.depth > 0:
        assert any(f.values[i] != f.values[i + 1] for i in range(0, len(f.values), 2))
    # minimal exponent: some value odd, unless exponent 0
    if f.exp > 0:
        assert any(v % 2 for v in f.values)
    # canonicalization is idempotent
    again = StepFunction(f.depth, f.exp, f.values)
    assert (again.depth, again.exp, again.values) == (f.depth, f.exp, f.values)


@given(fns, fns)
def test_arithmetic_matches_fractions(f, g):
    d = max(f.depth, g.depth)
    for i in range(1 << d):
        a, b = step_value(f, i, d), step_value(g, i, d)
        assert step_value(f + g, i, d) == a + b
        assert step_value(f - g, i, d) == a - b
        assert step_value(f.abs_diff(g), i, d) == abs(a - b)
        assert step_value(f.max_with(g), i, d) == max(a, b)
        assert step_value(f.min_with(g), i, d) == min(a, b)


@given(st.integers(min_value=0, max_value=10**6))
def test_from_char_matches_per_cell_reference(seed):
    s = random_clopen(random.Random(seed), max_gens=6, max_len=7)
    assert StepFunction.from_char(s) == StepFunction(s.depth(), 0, char_table_bf(s))


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=4))
def test_at_depth_matches_per_element_reference(seed, extra):
    f = random_stepfn(random.Random(seed))
    d = f.depth + extra
    assert f.at_depth(d) == at_depth_bf(f, d)


@given(fns)
def test_integral_matches_fraction_sum(f):
    assert dyadic_fraction(f.integral()) == integral_fraction(f)


@given(fns, fns)
def test_l1_norm_matches_fraction(f, g):
    assert dyadic_fraction(l1_norm(f, g)) == l1_fraction(f, g)
    assert dyadic_fraction(l1_norm(f)) == l1_fraction(f, StepFunction.constant(Dyadic.from_int(0)))


def test_value_on_and_at():
    f = StepFunction(2, 1, (1, 2, 3, 4))
    assert f.value_on("00") == Dyadic(1, 1)
    assert f.value_on("110") == Dyadic(4, 1)   # deeper prefixes refine
    assert f.value_at(EventuallyPeriodicPoint("10", "0")) == Dyadic(3, 1)
    x = EventuallyPeriodicPoint("1", "01")
    assert [cell_index_bf(x, d) for d in range(5)] == [0, 1, 2, 5, 10]
    assert f.value_at(x) == f.value_on("10") == Dyadic(3, 1)


def test_value_on_short_prefix_rejected():
    f = StepFunction(2, 0, (1, 2, 3, 4))
    with pytest.raises(ValidationError):
        f.value_on("0")


@given(fns, st.text(alphabet="01", max_size=3))
def test_precompose_matches_slice(f, p):
    # g(y) = f(p y): compare over prefixes deep enough for both tables
    g = f.precompose_prefix(p)
    dd = max(g.depth, f.depth - len(p), 0)
    for q in all_prefixes(dd):
        assert g.value_on(q) == f.value_on(p + q)


def test_precompose_integral_is_cylinder_average():
    # the precomposed integral is 2^|p| times the integral of f over [p]
    rng = random.Random(77)
    for _ in range(40):
        f = random_stepfn(rng)
        p = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        g = f.precompose_prefix(p)
        d = max(f.depth, len(p))
        over_cell = sum(
            step_value(f, i, d)
            for i in range(1 << d)
            if format(i, f"0{d}b").startswith(p)
        ) / Fraction(1 << d)
        assert integral_fraction(g) == over_cell * (1 << len(p))


def test_cell_average_identity_at_depth():
    rng = random.Random(78)
    for _ in range(40):
        f = random_stepfn(rng)
        assert f.cell_average(f.depth) == f
        assert f.cell_average(f.depth + 2) == f


def test_cell_average_oracle():
    rng = random.Random(79)
    for _ in range(60):
        f = random_stepfn(rng)
        for i in range(f.depth + 1):
            h = f.cell_average(i)
            block = 1 << (f.depth - i)
            for c in range(1 << i):
                want = sum(
                    step_value(f, c * block + k, f.depth) for k in range(block)
                ) / block
                p = format(c, f"0{i}b") if i else ""
                assert dyadic_fraction(h.value_on(p)) == want


def test_threshold_sets_exact_for_thirds():
    f = StepFunction(2, 2, (0, 1, 2, 4))   # values 0, 1/4, 1/2, 1
    above = f.strictly_above(1, 3)          # value > 1/3
    below = f.strictly_below(2, 3)          # value < 2/3
    assert above == ClopenSet(("1",))
    assert below == ClopenSet(("0", "10"))


def test_threshold_boundary_is_strict():
    f = StepFunction.constant(Dyadic(1, 1))   # exactly 1/2
    assert f.strictly_above(1, 2).is_empty()
    assert f.strictly_below(1, 2).is_empty()
    assert f.strictly_above(1, 3).is_full()


def test_char_detection():
    s = random_clopen(random.Random(80))
    f = StepFunction.from_char(s)
    assert f.is_char()
    assert f.char_support() == s
    g = StepFunction.constant(Dyadic(1, 1))
    assert not g.is_char()


def test_from_dyadics():
    f = StepFunction.from_dyadics(1, [Dyadic(1, 1), Dyadic(3, 2)])
    assert f.value_on("0") == Dyadic(1, 1)
    assert f.value_on("1") == Dyadic(3, 2)


# ---------------------------------------------------------------------------
# the canonical partition against the dense tables it replaced

BINARY_OPS = (
    (StepFunction.__add__, add),
    (StepFunction.__sub__, sub),
    (StepFunction.abs_diff, lambda a, b: abs(a - b)),
    (StepFunction.max_with, max),
    (StepFunction.min_with, min),
)

tables = st.builds(
    lambda d, e, seed: (d, e, tuple(random.Random(seed).randint(-3, 3) for _ in range(1 << d))),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)


@given(tables)
def test_dense_adapter_matches_table_reduction(table):
    f = StepFunction(*table)
    assert (f.depth, f.exp, f.values) == reduce_bf(*table)
    assert canonical_bf(f)


@given(fns, fns)
def test_binary_ops_match_aligned_tables(f, g):
    d, e, a, b = aligned_bf(f, g)
    for method, op in BINARY_OPS:
        h = method(f, g)
        assert (h.depth, h.exp, h.values) == reduce_bf(d, e, map(op, a, b))


@given(fns, st.integers(min_value=0, max_value=4))
def test_cell_average_matches_block_sums(f, i):
    h = f.cell_average(i)
    assert (h.depth, h.exp, h.values) == cell_average_bf(f, min(i, f.depth))


@given(fns, st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=7))
def test_level_sets_match_table_filter(f, a, b):
    assert f.strictly_above(a, b) == ClopenSet(level_bf(f, a, b, True))
    assert f.strictly_below(a, b) == ClopenSet(level_bf(f, a, b, False))


deep_seeds = st.integers(min_value=0, max_value=10**6)


@settings(deadline=None, max_examples=50)
@given(deep_seeds)
def test_deep_binary_ops_match_refinement_oracle(seed):
    rng = random.Random(seed)
    f, g = random_deep_stepfn(rng), random_deep_stepfn(rng)
    assert canonical_bf(f) and canonical_bf(g)
    cells = refinement_bf(f, g)
    for method, op in BINARY_OPS:
        h = method(f, g)
        assert canonical_bf(h)
        for r in refinement_bf(f, g, h):
            assert value_bf(h, r) == op(value_bf(f, r), value_bf(g, r))
    assert dyadic_fraction(f.integral()) == sum(
        value_bf(f, r) / (1 << len(r)) for r in refinement_bf(f))
    assert dyadic_fraction(l1_norm(f, g)) == sum(
        abs(value_bf(f, r) - value_bf(g, r)) / (1 << len(r)) for r in cells)
    assert (f - g + g) == f and f.abs_diff(f) == StepFunction.constant(Dyadic(0, 0))


@settings(deadline=None, max_examples=50)
@given(deep_seeds)
def test_deep_restrictions_match_refinement_oracle(seed):
    rng = random.Random(seed)
    f = random_deep_stepfn(rng)
    p = random_bits(rng, 6)
    h = f.precompose_prefix(p)
    assert canonical_bf(h)
    for q in refinement_bf(f, StepFunction.from_char(ClopenSet.cylinder(p))):
        if q.startswith(p):
            assert value_bf(h, q[len(p):]) == value_bf(f, q)
    i = rng.randint(0, 8)
    avg = f.cell_average(i)
    assert canonical_bf(avg) and avg.depth <= i
    blocks = StepFunction.from_char(ClopenSet(tuple({q[:i] for q in f.prefixes})))
    for r in refinement_bf(avg, blocks):
        assert value_bf(avg, r) == average_bf(f, r)


@settings(deadline=None, max_examples=50)
@given(deep_seeds, st.integers(min_value=-8, max_value=8), st.integers(min_value=1, max_value=5))
def test_deep_level_sets_and_points_match_refinement_oracle(seed, a, b):
    rng = random.Random(seed)
    f = random_deep_stepfn(rng)
    above, below = f.strictly_above(a, b), f.strictly_below(a, b)
    for r in refinement_bf(f):
        v = value_bf(f, r)
        assert any(r.startswith(q) for q in above.generators) == (v > Fraction(a, b))
        assert any(r.startswith(q) for q in below.generators) == (v < Fraction(a, b))
    # a clopen set's generators are the value-1 cells of its characteristic
    # function, and its 0-cells are its complement's generators
    char = StepFunction.from_char(above)
    assert canonical_bf(char) and char.char_support() == above
    assert tuple(p for p, n in zip(char.prefixes, char.nums) if n) == above.generators
    assert tuple(p for p, n in zip(char.prefixes, char.nums) if not n) == (
        clopen_complement(above).generators)
    for _ in range(10):
        x = EventuallyPeriodicPoint(random_bits(rng, 64), random_bits(rng, 3, min_len=1))
        bits = "".join(str(x.bit(n)) for n in range(f.depth))
        assert dyadic_fraction(f.value_at(x)) == value_bf(f, bits)
