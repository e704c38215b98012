import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cantor_measure import codes, decoration
from cantor_measure.codes import (
    InterNode,
    Leaf,
    UnionNode,
    addresses,
    annotate_min_ranks,
    check_rank,
    child_items,
    denotation,
    is_alternating,
    make_alternating,
    membership_table,
    nodes,
    subtree,
)
from cantor_measure.decoration import (
    DecorationGenerator,
    check_preservation,
    decorate,
    empty_generator,
    split_generator,
)
from cantor_measure.dsl import parse_dsl
from cantor_measure.errors import CertificateError, ValidationError
from cantor_measure.ordinals import OrdinalNotation, ONE_ORD
from cantor_measure.space import ClopenSet, EventuallyPeriodicPoint, enumerate_eventually_periodic

from bruteforce import check_preservation_bf, contains_prefix
from gen import random_ranked_alternating


def _fin(n):
    return OrdinalNotation.finite(n)


def _empty_chain(b):
    """The empty generator's chain of root rank b, denoting the empty set."""
    return DecorationGenerator.empty([b]).entries[0][1]


def test_generator_rejects_zero_budget():
    e = _empty_chain(ONE_ORD)
    with pytest.raises(ValidationError):
        DecorationGenerator(((OrdinalNotation.zero(), e, e),))


def test_generator_rejects_non_ascending():
    a = _empty_chain(_fin(2))
    b = _empty_chain(ONE_ORD)
    with pytest.raises(ValidationError):
        DecorationGenerator(((_fin(2), a, a), (ONE_ORD, b, b)))


def test_generator_rejects_wrong_root_rank():
    with pytest.raises(ValidationError):
        DecorationGenerator(((_fin(2), _empty_chain(ONE_ORD), _empty_chain(_fin(2))),))


def test_generator_rejects_union_root():
    bad = UnionNode((Leaf(ClopenSet.empty(), rank=ONE_ORD),), rank=_fin(2))
    with pytest.raises(ValidationError):
        DecorationGenerator(((_fin(2), bad, bad),))


def test_generator_rejects_non_alternating():
    inner = InterNode((Leaf(ClopenSet.empty(), rank=ONE_ORD),), rank=_fin(2))
    bad = InterNode((inner,), rank=_fin(3))
    with pytest.raises(ValidationError):
        DecorationGenerator(((_fin(3), bad, bad),))


def test_empty_set_code_properties():
    for b in [ONE_ORD, _fin(3), OrdinalNotation.parse("w"),
              OrdinalNotation.parse("w*2+1"), OrdinalNotation.parse("w^2")]:
        c = _empty_chain(b)
        assert check_rank(c)
        assert is_alternating(c)
        assert c.rank == b
        assert isinstance(c, (InterNode, Leaf)) or b.is_zero() is False
        d, table = membership_table(c)
        assert not any(table)


def test_empty_set_code_rejects_zero():
    with pytest.raises(ValidationError):
        _empty_chain(OrdinalNotation.zero())


def test_split_generator_default_targets():
    gen = split_generator([ONE_ORD, _fin(2), _fin(3)])
    assert gen.budgets() == (ONE_ORD, _fin(2), _fin(3))
    for k, (b, pos, neg) in enumerate(gen.entries):
        assert denotation(pos).generators == ("0" * k + "10",)
        assert denotation(neg).generators == ("0" * k + "11",)


def test_split_generator_target_allowance():
    with pytest.raises(ValidationError):
        split_generator([ONE_ORD, _fin(2)],
                        targets=[ClopenSet.cylinder("0"), ClopenSet.full()])


def test_split_generator_target_disjointness():
    with pytest.raises(ValidationError):
        split_generator([ONE_ORD, _fin(2)],
                        targets=[ClopenSet.cylinder("0"), ClopenSet.cylinder("00")])


def test_split_generator_target_count():
    with pytest.raises(ValidationError):
        split_generator([ONE_ORD], targets=[])


def test_decorate_slot_layout():
    gen = empty_generator(_fin(3))
    code = UnionNode(
        (Leaf(ClopenSet.cylinder("0"), rank=ONE_ORD),
         Leaf(ClopenSet.cylinder("11"), rank=ONE_ORD)),
        rank=_fin(3),
    )
    dec = decorate(code, gen)
    items = dict(child_items(dec))
    # originals at even slots, one odd slot per budget below rank 3
    assert 0 in items and 2 in items
    odd = sorted(s for s in items if s % 2 == 1)
    assert odd == [2 * k + 1 for k, b in enumerate(gen.budgets()) if b < _fin(3)]
    assert dec.rank == code.rank
    assert check_rank(dec) and is_alternating(dec)


def test_decorate_builds_only_the_inserts_its_nodes_take(monkeypatch):
    """A leaf takes no insert, so decorating one builds none; a union of
    rank 3 takes the positive inserts of budgets 1 and 2, and the rank-2
    insert's intersection takes the negative one of budget 1, each built
    once, and budget 3's inserts are never built."""
    gen = empty_generator(_fin(3))
    asked = []
    insert_for = DecorationGenerator.insert_for
    monkeypatch.setattr(DecorationGenerator, "insert_for", lambda self, b, under_union: (
        asked.append((b, under_union)) or insert_for(self, b, under_union)))
    leaf = Leaf(ClopenSet.cylinder("0"), rank=ONE_ORD)
    assert decorate(leaf, gen) is leaf
    assert asked == []
    decorate(UnionNode((leaf, Leaf(ClopenSet.cylinder("11"), rank=ONE_ORD)), rank=_fin(3)), gen)
    assert asked == [(ONE_ORD, True), (_fin(2), True), (ONE_ORD, False)]


def test_shared_chains_are_checked_and_folded_once(monkeypatch):
    """An empty generator's entry uses one chain as both halves: it is
    validated once, and footprint folds each of its nodes once; a split
    generator's two chains are validated one each."""
    checked, folded = [], []
    insert_ok, den = decoration._insert_ok, codes._denotation
    monkeypatch.setattr(decoration, "_insert_ok", lambda code, b, side: (
        checked.append(side) or insert_ok(code, b, side)))
    monkeypatch.setattr(codes, "_denotation", lambda node, kids, flip: (
        folded.append(node) or den(node, kids, flip)))
    gen = DecorationGenerator.empty([ONE_ORD, _fin(2), OrdinalNotation.parse("w+1")])
    assert checked == ["positive"] * 3
    assert gen.footprint().is_empty()
    assert len(folded) == sum(len(nodes(pos)) for _, pos, _ in gen.entries)
    checked.clear()
    split_generator([ONE_ORD, _fin(2)])
    assert checked == ["positive", "negative"] * 2


def test_decorate_requires_rank_and_alternation():
    gen = empty_generator(_fin(2))
    with pytest.raises(ValidationError):
        decorate(UnionNode((Leaf(ClopenSet.full()),)), gen)


def test_empty_generator_preserves_denotation():
    rng = random.Random(80)
    gen = empty_generator(_fin(4))
    for _ in range(25):
        code = random_ranked_alternating(rng)
        dec = decorate(code, gen)
        assert check_rank(dec) and is_alternating(dec)
        assert dec.rank == code.rank
        d = max(membership_table(code)[0], membership_table(dec)[0])
        _, t2 = membership_table(dec, d)
        for i in range(1 << d):
            p = format(i, f"0{d}b") if d else ""
            assert contains_prefix(code, p) == bool(t2[i])


def test_decorate_leaves_untouched():
    gen = empty_generator(_fin(2))
    rng = random.Random(81)
    for _ in range(10):
        code = random_ranked_alternating(rng)
        dec = decorate(code, gen)
        for addr in addresses(code):
            node = subtree(code, addr)
            if isinstance(node, Leaf):
                mapped = tuple(2 * a for a in addr)
                twin = subtree(dec, mapped)
                assert isinstance(twin, Leaf)
                assert twin.label.generators == node.label.generators


def test_split_decoration_footprint_semantics():
    gen = split_generator([ONE_ORD, _fin(2)])
    fp = gen.footprint()
    # halves of [1] and [01]
    assert fp.covers_prefix("10") and fp.covers_prefix("11")
    assert fp.covers_prefix("010") and fp.covers_prefix("011")
    assert not fp.covers_prefix("00")


def test_check_preservation_report():
    rng = random.Random(82)
    gen = split_generator([ONE_ORD, _fin(2)])
    pts = list(enumerate_eventually_periodic(2, 2))
    for _ in range(10):
        code = random_ranked_alternating(rng)
        rep = check_preservation(code, gen, pts)
        assert rep.checked == len(pts)
        assert rep.violations == ()
        assert rep.preserved == rep.checked - len(rep.captured)
        assert rep.ok
        before, after = denotation(code), denotation(decorate(code, gen))
        fp = gen.footprint()
        for i, x in enumerate(pts):
            if i in rep.captured:
                assert fp.hit(x) is not None
            else:
                assert (before.hit(x) is None) == (after.hit(x) is None)


def test_empty_generator_never_captures():
    gen = empty_generator(_fin(3))
    pts = list(enumerate_eventually_periodic(1, 2))
    code = random_ranked_alternating(random.Random(83))
    rep = check_preservation(code, gen, pts)
    assert rep.captured == ()
    assert rep.preserved == rep.checked


POINTS = list(enumerate_eventually_periodic(2, 2))
GENERATORS = {
    "empty": empty_generator(_fin(4)),
    "split": split_generator([ONE_ORD, _fin(2), _fin(3)]),
}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       gen=st.sampled_from(sorted(GENERATORS)))
def test_check_preservation_matches_per_point_oracle(seed, gen):
    code = random_ranked_alternating(random.Random(seed))
    g = GENERATORS[gen]
    decorated = decorate(code, g)
    points = POINTS + _leaving_points(decorated)
    want = check_preservation_bf(code, g, points)
    assert check_preservation(code, g, points) == want
    assert check_preservation(code, g, points, decorated) == want
    assert want.ok


def _leaving_points(code):
    """Points that follow a leaf generator for j bits and leave it at bit j,
    for every j: they leave the generator trie at different depths below
    the string they locate to, and share its cell."""
    heads = {s[:j] + "10"[int(s[j])] for _, node in codes.nodes(code) if isinstance(node, Leaf)
             for s in node.label.generators for j in range(len(s))}
    return [EventuallyPeriodicPoint(h, v) for h in sorted(heads) for v in "01"]


def _shaped(text):
    return make_alternating(annotate_min_ranks(parse_dsl(text)))


DEEP = "0011010011"  # outside the split footprint [1] | [01], entered by no sample point


def _with_leaf_label(code, slot, label):
    """code with its leaf child at the given slot relabelled."""
    kids = list(code.children)
    i = code.slots.index(slot)
    kids[i] = Leaf(label, rank=kids[i].rank)
    return replace(code, children=tuple(kids))


@pytest.mark.parametrize("text,label", [
    # the tampered tree gains [DEEP]
    ("union(cyl(11),inter(cyl(0),cyl(01)))", ClopenSet(("11", DEEP))),
    # the tampered tree loses [DEEP]
    (f"union(cyl({DEEP}),inter(cyl(0),cyl(01)))", ClopenSet.empty()),
])
def test_exact_check_rejects_change_the_sample_misses(text, label):
    gen = split_generator([ONE_ORD, _fin(2)])
    assert all(ClopenSet.cylinder(DEEP).hit(x) is None for x in POINTS)
    assert not gen.footprint().covers_prefix(DEEP)
    code = _shaped(text)
    tampered = _with_leaf_label(decorate(code, gen), 0, label)
    sampled = check_preservation_bf(code, gen, POINTS, tampered)
    exact = check_preservation(code, gen, POINTS, tampered)
    assert sampled.ok
    assert not exact.ok and not exact.whole_space
    assert replace(exact, whole_space=True) == sampled


@pytest.mark.parametrize("cyl", ["000", "0010"])  # [000] holds the first sample point, [0010] later ones
def test_exact_check_names_sample_failures_like_the_oracle(cyl):
    gen = split_generator([ONE_ORD, _fin(2)])
    code = _shaped("union(cyl(11),inter(cyl(0),cyl(01)))")
    tampered = _with_leaf_label(decorate(code, gen), 0, ClopenSet(("11", cyl)))
    want = check_preservation_bf(code, gen, POINTS, tampered)
    got = check_preservation(code, gen, POINTS, tampered)
    assert want.violations and all(addr == () for _, addr in want.violations)
    assert replace(got, whole_space=True) == want
    assert not got.ok and not got.whole_space


def test_clause_clash_is_an_internal_error(monkeypatch):
    """A union denotation that drops children disagrees with its clause at
    some sample cell; the audit reports the node's address, not a sample
    violation."""
    code = _shaped("union(cyl(11),inter(cyl(0),cyl(01)))")
    gen = split_generator([ONE_ORD, _fin(2)])
    decorated = decorate(code, gen)
    monkeypatch.setattr(codes, "clopen_union", lambda first, *rest: first)
    with pytest.raises(CertificateError, match=r"clause at \(\)"):
        check_preservation(code, gen, POINTS, decorated)
