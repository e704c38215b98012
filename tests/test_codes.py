import random

import pytest

from cantor_measure.codes import (
    ComplNode,
    InterNode,
    Leaf,
    UnionNode,
    addresses,
    annotate_min_ranks,
    check_rank,
    child_items,
    eval_map_violations,
    evaluate,
    fold,
    is_alternating,
    make_alternating,
    membership_table,
    nodes,
    normalize_demorgan,
    relocate,
    subtree,
    support_depth,
    tilde,
)
from cantor_measure.errors import ValidationError
from cantor_measure.ordinals import OrdinalNotation
from cantor_measure.space import ClopenSet, EventuallyPeriodicPoint

from bruteforce import (
    all_prefixes,
    contains_prefix,
    counting_measure,
    emap_bf,
    is_complement_free_bf,
    make_alternating_bf,
    membership_table_bf,
    support_depth_bf,
)
from gen import random_code


def tail_point(p):
    return EventuallyPeriodicPoint(p, "0")


def test_structure_helpers():
    c = UnionNode((Leaf(ClopenSet.cylinder("0")), InterNode((Leaf(ClopenSet.cylinder("1")),))))
    assert addresses(c) == [(), (0,), (1,), (1, 0)]
    assert isinstance(subtree(c, (1, 0)), Leaf)
    assert support_depth(c) == 1


def test_sparse_slots_validated():
    kids = (Leaf(ClopenSet.cylinder("0")), Leaf(ClopenSet.cylinder("1")))
    c = UnionNode(kids, slots=(0, 3))
    assert [s for s, _ in child_items(c)] == [0, 3]
    assert addresses(c) == [(), (0,), (3,)]
    with pytest.raises(ValidationError):
        UnionNode(kids, slots=(3, 0))
    with pytest.raises(ValidationError):
        UnionNode(kids, slots=(1,))


def test_evaluate_matches_bruteforce_on_random_codes():
    rng = random.Random(401)
    for _ in range(150):
        c = random_code(rng, max_depth=3, max_gen_len=4)
        d = support_depth(c)
        for p in all_prefixes(d):
            emap = evaluate(c, tail_point(p))
            assert emap == emap_bf(c, p)
            assert emap[()] == contains_prefix(c, p)
            assert eval_map_violations(c, tail_point(p), emap) == []


def test_eval_map_perturbation_is_caught():
    rng = random.Random(402)
    for _ in range(40):
        c = random_code(rng, max_depth=3, max_gen_len=4)
        x = tail_point("0" * support_depth(c))
        emap = evaluate(c, x)
        addr = random.Random(rng.random()).choice(list(emap))
        bad = dict(emap)
        bad[addr] = 1 - bad[addr]
        assert eval_map_violations(c, x, bad) != []


def test_childless_nodes_evaluate_to_their_empty_clauses():
    """An empty union is 0 at every point and an empty intersection 1."""
    x = tail_point("")
    for node, want in ((UnionNode(()), 0), (InterNode(()), 1)):
        assert evaluate(node, x) == {(): want}
        assert eval_map_violations(node, x, {(): want}) == []
        assert eval_map_violations(node, x, {(): 1 - want}) == [()]


def test_eval_map_violations_flags_missing_addresses():
    """An address the map lacks is a violation, and so is its parent, whose
    clause has a child value missing."""
    c = InterNode((Leaf(ClopenSet.cylinder("0")), UnionNode((Leaf(ClopenSet.cylinder("00")),
                                                              Leaf(ClopenSet.cylinder("1"))))))
    x = tail_point("0")
    emap = evaluate(c, x)
    assert eval_map_violations(c, x, emap) == []
    del emap[1, 1]
    assert eval_map_violations(c, x, emap) == [(1,), (1, 1)]
    del emap[()]
    assert eval_map_violations(c, x, emap) == [(), (1,), (1, 1)]


def test_membership_table_agrees_with_member():
    rng = random.Random(403)
    for _ in range(60):
        c = random_code(rng, max_depth=3, max_gen_len=4)
        d, table = membership_table(c)
        assert d == support_depth(c)
        assert table == membership_table_bf(c, d)
        assert membership_table(c, d + 2) == (d + 2, membership_table_bf(c, d + 2))
    with pytest.raises(ValidationError):
        membership_table(Leaf(ClopenSet.cylinder("01")), 1)


def test_normalize_demorgan_preserves_denotation():
    rng = random.Random(404)
    for _ in range(120):
        c = random_code(rng, max_depth=3, max_gen_len=4, allow_compl=True)
        n = normalize_demorgan(c)
        assert n.complement_free
        for code in (c, n):
            for _, node in nodes(code):
                assert node.complement_free == is_complement_free_bf(node)
        d = max(support_depth_bf(c), support_depth_bf(n))
        for p in all_prefixes(d):
            assert contains_prefix(c, p) == contains_prefix(n, p)


def test_member_requires_complement_free():
    c = ComplNode(Leaf(ClopenSet.cylinder("0")))
    with pytest.raises(ValidationError):
        evaluate(c, tail_point("0"))


def test_make_alternating_fuses_and_preserves():
    rng = random.Random(405)
    for _ in range(100):
        c = annotate_min_ranks(random_code(rng, max_depth=4, max_gen_len=4))
        a = make_alternating(c)
        assert is_alternating(a)
        assert check_rank(a)
        d = max(support_depth_bf(c), support_depth_bf(a))
        for p in all_prefixes(d):
            assert contains_prefix(c, p) == contains_prefix(a, p)


def test_fold_memo_walks_each_node_once_per_polarity():
    x = Leaf(ClopenSet.cylinder("0"))
    code = UnionNode((x, ComplNode(x), InterNode((x, x))))
    calls = []

    def f(node, kids, flip):
        calls.append((node, flip))
        return tuple(kids) if kids else flip

    want = fold(code, f)
    calls.clear()
    memo = {}
    assert fold(code, f, memo) == want == (False, (True,), (False, False))
    assert sorted(flip for node, flip in calls if node is x) == [False, True]
    assert memo[id(x), False] is False and memo[id(x), True] is True


def test_make_alternating_matches_level_by_level_splice():
    rng = random.Random(406)
    for _ in range(150):
        c = random_code(rng, max_depth=5, max_gen_len=3)
        for code in (c, annotate_min_ranks(c)):
            assert make_alternating(code) == make_alternating_bf(code)
    # like-kind chains with kinds switching every few levels, sparse slots kept
    # where nothing fuses
    for levels in (1, 2, 50, 300):
        code = Leaf(ClopenSet.cylinder("0"))
        for i in range(levels):
            cls = UnionNode if i // 3 % 2 == 0 else InterNode
            leaf = Leaf(ClopenSet.cylinder(format(i % 5, "b")))
            code = cls((leaf, code), slots=(1, 4)) if i % 4 else cls((code, leaf))
        for c in (code, annotate_min_ranks(code)):
            assert make_alternating(c) == make_alternating_bf(c)


def test_check_rank_requires_annotations():
    c = UnionNode((Leaf(ClopenSet.cylinder("0")),))
    with pytest.raises(ValidationError):
        check_rank(c)


def test_check_rank_names_a_deep_missing_rank_by_its_full_address():
    """The walk keeps no address per node; the one it names is rebuilt from
    the chain of parents, slots included, 300 levels down."""
    node = Leaf(ClopenSet.cylinder("0"))
    want = tuple(3 * (i % 4) + 1 for i in range(300))
    for i, slot in reversed(list(enumerate(want))):
        kids = (Leaf(ClopenSet.cylinder("1"), rank=OrdinalNotation.finite(1)), node)
        node = (UnionNode if i % 2 else InterNode)(kids, rank=OrdinalNotation.finite(301 - i),
                                                   slots=(0, slot))
    with pytest.raises(ValidationError, match="^missing rank annotation at address ") as e:
        check_rank(node)
    assert str(e.value) == f"missing rank annotation at address {want}"


def test_check_rank_laws():
    leaf = Leaf(ClopenSet.cylinder("0"), rank=OrdinalNotation.finite(1))
    good = UnionNode((leaf,), rank=OrdinalNotation.finite(2))
    assert check_rank(good)
    flat = UnionNode((leaf,), rank=OrdinalNotation.finite(1))
    assert not check_rank(flat)
    wrong_leaf = Leaf(ClopenSet.cylinder("0"), rank=OrdinalNotation.finite(2))
    assert not check_rank(UnionNode((wrong_leaf,), rank=OrdinalNotation.finite(3)))


def test_annotate_min_ranks():
    c = UnionNode((Leaf(ClopenSet.cylinder("0")),
                   InterNode((Leaf(ClopenSet.cylinder("1")),))))
    r = annotate_min_ranks(c)
    assert check_rank(r)
    assert str(r.rank) == "3"
    assert str(subtree(r, (1,)).rank) == "2"
    assert str(subtree(r, (0,)).rank) == "1"


def test_relocate_direct_substitution():
    out = relocate(0, Leaf(ClopenSet.cylinder("0")))
    assert out == Leaf(ClopenSet.cylinder("10"))


def test_relocate_scales_measure():
    rng = random.Random(406)
    for _ in range(60):
        c = random_code(rng, max_depth=3, max_gen_len=4)
        n = rng.randint(0, 4)
        r = relocate(n, c)
        d = support_depth_bf(r)
        assert counting_measure(r, d) == counting_measure(c, d) / (1 << (n + 1))


def test_tilde_single_leaf():
    c = Leaf(ClopenSet.cylinder("0"))
    t = tilde(c, [()])
    assert isinstance(t, UnionNode)
    assert [s for s, _ in child_items(t)] == [0]
    assert child_items(t)[0][1] == Leaf(ClopenSet.cylinder("10"))


def test_tilde_requires_onto_listing():
    c = UnionNode((Leaf(ClopenSet.cylinder("0")), Leaf(ClopenSet.cylinder("1"))))
    with pytest.raises(ValidationError):
        tilde(c, [(), (0,)])    # (1,) never listed
    t = tilde(c, [(), (1,), (0,)])
    assert len(child_items(t)) == 3


def test_tilde_membership_decodes_addresses():
    c = UnionNode((Leaf(ClopenSet.cylinder("0")), Leaf(ClopenSet.cylinder("1"))))
    h = [(), (0,), (1,)]
    t = tilde(c, h)
    # x in slice n iff x = 0^n 1 y with y in the n-th listed subtree
    for n, addr in enumerate(h):
        sub = subtree(c, addr)
        prefix = "0" * n + "1"
        for q in all_prefixes(support_depth_bf(sub) or 1):
            assert contains_prefix(t, prefix + q) == contains_prefix(sub, q)
