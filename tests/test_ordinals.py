import pytest
from hypothesis import given, strategies as st

from cantor_measure.errors import ValidationError
from cantor_measure.ordinals import (
    ONE_ORD,
    OrdinalNotation,
    descending_chain,
    notations_up_to,
)

from bruteforce import ordinal_cmp_bf

# CNF below w^w: strictly descending exponents, positive coefficients
cnfs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=5)),
    max_size=4,
).map(lambda ts: OrdinalNotation(tuple(sorted({e: c for e, c in ts}.items(), reverse=True))))


@given(cnfs)
def test_parse_print_round_trip(o):
    assert OrdinalNotation.parse(str(o)) == o


@pytest.mark.parametrize("text", ["٣", "w^٢", "w*²", "w^1*٣+1"])
def test_parse_reads_ascii_digits_only(text):
    with pytest.raises(ValidationError, match="bad ordinal notation term"):
        OrdinalNotation.parse(text)


def test_print_examples():
    o = OrdinalNotation(((2, 3), (1, 1), (0, 1)))
    assert str(o) == "w^2*3+w+1"
    assert OrdinalNotation.parse("w^2*3+w+1") == o
    assert str(OrdinalNotation.zero()) == "0"
    assert str(OrdinalNotation.parse("w")) == "w"
    assert str(OrdinalNotation.finite(7)) == "7"


def test_rejects_bad_cnf():
    with pytest.raises(ValidationError):
        OrdinalNotation(((1, 1), (2, 1)))   # exponents must descend
    with pytest.raises(ValidationError):
        OrdinalNotation(((1, 0),))          # coefficients positive


@given(cnfs, cnfs, cnfs)
def test_order_is_total_and_transitive(a, b, c):
    assert (a < b) or (b < a) or (a == b)
    if a < b and b < c:
        assert a < c
    assert not (a < a)


@given(cnfs, cnfs)
def test_order_is_term_by_term_cnf_order(a, b):
    c = ordinal_cmp_bf(a, b)
    assert (a < b, a <= b, a > b, a >= b, a == b) == (c < 0, c <= 0, c > 0, c >= 0, c == 0)


@given(cnfs)
def test_successor_predecessor(o):
    s = o.successor()
    assert o < s
    assert s.predecessor() == o


def test_predecessor_undefined_off_successors():
    assert OrdinalNotation.parse("w").predecessor() is None
    assert OrdinalNotation.zero().predecessor() is None


def test_finite_ordering_embeds_integers():
    fives = [OrdinalNotation.finite(i) for i in range(6)]
    for i in range(5):
        assert fives[i] < fives[i + 1]
    assert fives[5] < OrdinalNotation.parse("w")


@given(cnfs)
def test_descending_chain_strictly_descends_to_one(o):
    if o.is_zero():
        return
    chain = list(descending_chain(o))
    assert chain[0] == o
    assert chain[-1] == ONE_ORD
    for a, b in zip(chain, chain[1:]):
        assert b < a


def test_descending_chain_through_a_limit():
    chain = list(descending_chain(OrdinalNotation.parse("w")))
    assert chain == [OrdinalNotation.parse("w"), ONE_ORD]
    big = OrdinalNotation.parse("w*2")
    chain = list(descending_chain(big))
    assert chain[0] == big and chain[-1] == ONE_ORD


def test_notations_up_to_sorted_within_bound():
    w = OrdinalNotation.parse("w")
    out = notations_up_to(w)
    assert out == sorted(out)
    assert all(o <= w for o in out)
    assert OrdinalNotation.finite(3) in out
    assert w in out


def test_notations_up_to_finite_default_budget():
    out = notations_up_to(OrdinalNotation.finite(5))
    assert [str(o) for o in out] == ["1", "2", "3"]
