import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cantor_measure.dyadic import Dyadic
from cantor_measure.errors import ValidationError
from cantor_measure.space import ClopenSet, EventuallyPeriodicPoint
from cantor_measure.stepfn import StepFunction, l1_norm

from bruteforce import (
    all_prefixes,
    at_depth_bf,
    char_table_bf,
    dyadic_fraction,
    integral_fraction,
    l1_fraction,
    step_value,
)
from gen import random_clopen, random_stepfn

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
    assert [x.cell_index(d) for d in range(5)] == [0, 1, 2, 5, 10]
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
