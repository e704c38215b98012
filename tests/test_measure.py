import gc
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from cantor_measure import measure
from cantor_measure.codes import (InterNode, Leaf, UnionNode, addresses, annotate_min_ranks,
                                  child_items, denotation, make_alternating, nodes, subtree, tilde)
from cantor_measure.decoration import decorate, split_generator
from cantor_measure.dsl import parse_dsl
from cantor_measure.dyadic import Dyadic
from cantor_measure.errors import BudgetError, CertificateError, ValidationError
from cantor_measure.gdelta import budget_report
from cantor_measure.measure import (
    assemble_bad_gdelta,
    build_decomposition,
    char_to_regularity,
    decomposition_eval_map,
    decomposition_from_membership,
    law_names,
    measure_of_code,
    regularity_to_char,
    sup_open_set,
    verify_decomposition,
    VerifyResult,
)
from cantor_measure.names import (L1Name, agreement_test, char_name, constant_name, convergence_test,
                                  names_equal)
from cantor_measure.ordinals import ONE_ORD, OrdinalNotation
from cantor_measure.space import (
    ClopenSet,
    EventuallyPeriodicPoint,
    clopen_complement,
    clopen_intersection,
    mu_I,
)
from cantor_measure.stepfn import StepFunction

from bruteforce import (agreement_test_bf, assemble_bad_gdelta_bf, convergence_test_bf,
                        counting_measure, dyadic_fraction, node_law_test_bf, tail_mismatches_bf)
from gen import (broken_name, char_noise_name, constant_family, path_name, perturbed_name,
                 random_bits, random_code, shrinking_name)


def test_measure_matches_counting_oracle():
    rng = random.Random(51)
    for _ in range(120):
        c = random_code(rng, max_depth=3, max_gen_len=5)
        assert dyadic_fraction(measure_of_code(c)) == counting_measure(c)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_clopen_fold_matches_decomposition_root(seed):
    """The decomposition is built by a clopen fold; the root law that the
    step-function sup and inf give over its names must agree with it."""
    c = random_code(random.Random(seed), max_depth=3, max_gen_len=5)
    d = build_decomposition(c)
    root = law_names(c, d)[()].exact_limit()
    assert measure_of_code(c) == root.integral()
    assert denotation(c) == root.char_support()
    assert verify_decomposition(c, d)


def test_decorated_codes_name_each_address_by_its_subtree():
    """decorate reuses one insert object under many nodes, so the build's
    memoized fold meets shared nodes; every address still gets the
    characteristic name of its own subtree, and the laws verify."""
    gen = split_generator([ONE_ORD, OrdinalNotation.finite(2)])
    for text in ["union(cyl(0),inter(cyl(1),cyl(10)))",
                 "inter(union(cyl(0),cyl(11)),union(cyl(1),cyl(00)))",
                 "union(inter(cyl(0),union(cyl(01),inter(cyl(001),cyl(0011)))),cyl(11))"]:
        code = decorate(make_alternating(annotate_min_ranks(parse_dsl(text))), gen)
        walk = nodes(code)
        assert len({id(node) for _, node in walk}) < len(walk)
        d = build_decomposition(code)
        assert sorted(d) == sorted(addr for addr, _ in walk)
        for addr, _ in walk:
            want = char_name(denotation(subtree(code, addr))).exact_limit()
            assert d[addr].exact_limit() == want
        assert verify_decomposition(code, d)


ROOT_01_11 = UnionNode((Leaf(ClopenSet.cylinder("0")), Leaf(ClopenSet.cylinder("11"))))


@pytest.mark.parametrize("k", [8, 16])
def test_verify_rejects_root_off_by_one_deep_cell(k):
    # the root named by its support minus [0^k]: a wrong measure that the
    # tail bound at index k used to accept, since 2^-k <= 2^-(k-2)
    d = build_decomposition(ROOT_01_11)
    support = d[()].exact_limit().char_support()
    tampered = clopen_intersection(support, clopen_complement(ClopenSet.cylinder("0" * k)))
    assert mu_I(tampered) == Dyadic(3 << (k - 2), k) - Dyadic.pow2(-k)
    d[()] = char_name(tampered)
    res = verify_decomposition(ROOT_01_11, d, bound=k)
    assert not res and (res.address, res.law) == ((), "union")
    r = names_equal(d[()], build_decomposition(ROOT_01_11)[()], bound=k)
    assert (r.equal, r.residual, r.mode) == (False, Dyadic.pow2(-k), "exact")


def test_verify_rejects_root_minus_depth_24_cell_at_default_bound():
    # the depth-24 tamper the tail bound at index 24 accepted; exact limits
    # on canonical partitions compare it without any 2^24-cell table
    d = build_decomposition(ROOT_01_11)
    support = d[()].exact_limit().char_support()
    tampered = clopen_intersection(support, clopen_complement(ClopenSet.cylinder("0" * 24)))
    assert mu_I(tampered) == Dyadic(12582911, 24)
    d[()] = char_name(tampered)
    res = verify_decomposition(ROOT_01_11, d)
    assert (res.ok, res.address, res.law, res.mode) == (False, (), "union", "exact")


def test_membership_recovery_leaves_no_cyclic_garbage():
    # relocation and every other tree walk is a loop or a module-level
    # function, so recovery frees its garbage without the cycle collector
    h = addresses(ROOT_01_11)
    f = char_name(denotation(tilde(ROOT_01_11, h)))
    decomposition_from_membership(f, ROOT_01_11, h)
    gc.collect()
    gc.disable()
    try:
        decomposition_from_membership(f, ROOT_01_11, h)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_verify_rejects_root_nudged_below_default_bound():
    d = build_decomposition(ROOT_01_11)
    d[()] = constant_name(d[()].exact_limit() + StepFunction.constant(Dyadic.pow2(-24)))
    assert not verify_decomposition(ROOT_01_11, d)


def test_decomposition_laws_verify_and_detect_tampering():
    rng = random.Random(52)
    for _ in range(40):
        c = random_code(rng, max_depth=3, max_gen_len=4)
        d = build_decomposition(c)
        assert verify_decomposition(c, d)
        addr = random.Random(rng.random()).choice(addresses(c))
        bad = dict(d)
        bad[addr] = char_name(ClopenSet.full() if not denotation(subtree(c, addr)).is_full() else ClopenSet.empty())
        res = verify_decomposition(c, bad)
        assert not res.ok
        assert res.law in ("leaf", "union", "intersection")


def test_verify_mode_exact_iff_every_comparison_exact():
    d = build_decomposition(ROOT_01_11)
    assert verify_decomposition(ROOT_01_11, d).mode == "exact"
    # a leaf named by a rule with a declared tail has its limit at the tail
    leaf = StepFunction.from_char(ClopenSet.cylinder("0"))
    d[(0,)] = L1Name([], rule=lambda i: leaf, label="tailed", tail=2)
    res = verify_decomposition(ROOT_01_11, d)
    assert res.ok and res.mode == "exact"
    # a leaf named by a rule with no tail has no exact limit, so its law is
    # decided by the tail bound, and so is the union law that reads it
    d[(0,)] = L1Name([], rule=lambda i: leaf, label="ruled")
    res = verify_decomposition(ROOT_01_11, d)
    assert res.ok and res.mode == "bounded"
    d[(1,)] = char_name(ClopenSet.cylinder("10"))
    res = verify_decomposition(ROOT_01_11, d)
    assert (res.ok, res.address, res.law, res.mode) == (False, (), "union", "bounded")


def test_decomposition_missing_address_reported():
    c = UnionNode((Leaf(ClopenSet.cylinder("0")),))
    d = build_decomposition(c)
    del d[(0,)]
    res = verify_decomposition(c, d)
    assert not res.ok and res.law == "missing"
    # a missing address is reported before any law, and the first in preorder
    c = parse_dsl("union(cyl(0),inter(cyl(1),cyl(10)),cyl(11))")
    d = build_decomposition(c)
    d[()] = char_name(ClopenSet.empty())
    del d[(1, 1)], d[(2,)]
    assert verify_decomposition(c, d) == VerifyResult(False, (1, 1), "missing")
    with pytest.raises(KeyError):
        law_names(c, d)


def test_root_name_integral_is_measure():
    rng = random.Random(53)
    for _ in range(30):
        c = random_code(rng, max_depth=3, max_gen_len=4)
        d = build_decomposition(c)
        root = d[()].exact_limit()
        assert root.integral() == measure_of_code(c)
        assert root.is_char()


def test_assembled_test_budgets():
    rng = random.Random(54)
    for _ in range(15):
        c = random_code(rng, max_depth=2, max_gen_len=3)
        d = build_decomposition(c)
        t = assemble_bad_gdelta(c, d)
        for n in range(3):
            for s in range(3):
                assert budget_report(t, n, s) <= Dyadic.pow2(-n)


@pytest.mark.parametrize("expr", ["union(cyl(0),cyl(10))", "inter(cyl(0),cyl(01),cyl(011))",
                                  "union(cyl(0),cyl(10),cyl(110),cyl(1110))"])
def test_wrong_exact_root_breaks_its_assembled_test(expr):
    """A root named by the empty set's characteristic function has an exact
    limit other than its law's: the root's law test has no height, and the
    assembled test overruns its budget at a low level within 30 stages."""
    code = parse_dsl(expr)
    d = build_decomposition(code)
    d[()] = char_name(ClopenSet.empty(), label="wrong")
    assert not verify_decomposition(code, d)
    t = assemble_bad_gdelta(code, d)
    assert t.height is None
    with pytest.raises(BudgetError):
        for n in range(4):
            for s in range(30):
                t.stage(n, s)


def _stage_table(t) -> list:
    """Stages 0..25 of levels 0..12, read level by level, each the set or
    the type and message of what the read raised.  Level m's bad sets start
    at stage 2m+1, and a combined test reads its parts some levels up, so
    stages past 6 are where most of them first hold anything."""
    out = []
    for n in range(13):
        for s in range(26):
            try:
                out.append(t.stage(n, s))
            except Exception as e:  # every error must match, type and message
                out.append((type(e), str(e)))
    return out


def _drawn_decomposition(kind: str, rng: random.Random):
    """The code and decomposition of an "assembled" or "laws" case: a random
    code's decomposition, one address's name replaced by a wrong one when
    "wrong" is drawn; an assembled test reads its late parts many levels
    up, so its codes are small."""
    code = random_code(rng, max_depth=rng.randint(0, 1 if kind == "assembled" else 2),
                       max_children=3, max_gen_len=4)
    d = build_decomposition(code)
    if rng.random() < 0.5:
        addr = rng.choice(sorted(d))
        d[addr] = constant_name(d[addr].exact_limit() + StepFunction.constant(Dyadic(1, 2)),
                                label="wrong")
    return code, d


def _law_test(node, kids, parent):
    """The package's law test of one node: the parent's agreement test with
    the name its law asks for over the children."""
    return agreement_test(parent, measure.law_name(node, kids, "law"))


def _staging_case(kind: str, seed: int, oracle: bool) -> list:
    """The stage tables of one case, built through the package or through
    the closure oracle; each side builds its own names from the seed."""
    rng = random.Random(seed)
    conv = convergence_test_bf if oracle else convergence_test
    agree = agreement_test_bf if oracle else agreement_test
    if kind == "perturbed":
        return [_stage_table(conv(perturbed_name(rng, terms=rng.randint(1, 8))))]
    if kind == "constant":
        return [_stage_table(conv(nm)) for nm in constant_family(rng, 2)]
    if kind == "path":
        base = StepFunction.constant(Dyadic(rng.randint(0, 3), 2))
        return [_stage_table(conv(path_name(random_bits(rng, 3, min_len=1), base)))]
    if kind == "broken":
        return [_stage_table(conv(broken_name(rng.randint(2, 9))))]
    if kind == "agree-equal":  # tails up to 14, so the tail bound acts by stage 25
        a = perturbed_name(rng, terms=rng.randint(1, 14))
        b = perturbed_name(rng, base=a.exact_limit(), terms=rng.randint(1, 14))
        return [_stage_table(agree(a, b))]
    if kind == "agree-unequal":
        a = perturbed_name(rng, terms=rng.randint(1, 6))
        return [_stage_table(agree(a, perturbed_name(rng)))]
    if kind == "agree-shrinking":  # exact, equal limits, bad sets up to the tail
        a, b = shrinking_name(rng.randint(0, 14)), shrinking_name(rng.randint(0, 14))
        return [_stage_table(conv(a)), _stage_table(agree(a, b))]
    if kind == "agree-broken":  # building the test is part of the outcome
        pair = [broken_name(rng.randint(2, 9)), perturbed_name(rng, terms=rng.randint(1, 6))]
        rng.shuffle(pair)
        try:
            return [_stage_table(agree(*pair))]
        except Exception as e:
            return [(type(e), str(e))]
    if kind == "fold-inexact":
        kids = [path_name(random_bits(rng, 3, min_len=1), StepFunction.constant(Dyadic(0, 0))),
                char_noise_name(rng)]
        node = rng.choice((UnionNode, InterNode))((Leaf(ClopenSet.empty()),) * 2)
        law = node_law_test_bf if oracle else _law_test
        return [_stage_table(law(node, kids, char_noise_name(rng)))]
    code, d = _drawn_decomposition(kind, rng)
    if kind == "assembled":
        return [_stage_table((assemble_bad_gdelta_bf if oracle else assemble_bad_gdelta)(code, d))]
    law = node_law_test_bf if oracle else _law_test
    return [_stage_table(law(node, [d[addr + (s,)] for s, _ in child_items(node)], d[addr]))
            for addr, node in nodes(code)]


@settings(deadline=None, max_examples=45)
@given(st.sampled_from(["perturbed", "constant", "path", "broken", "agree-equal",
                        "agree-unequal", "agree-shrinking", "agree-broken", "fold-inexact",
                        "assembled", "laws"]),
       st.integers(min_value=0, max_value=10**6))
@example("broken", 3)
@example("agree-unequal", 0)
@example("agree-shrinking", 0)
@example("agree-broken", 2)
@example("agree-broken", 37)
@example("laws", 1)
def test_level_unions_stage_as_the_closure_oracle(kind, seed):
    """Whole stage tables of the convergence, agreement, fold-law and
    assembled tests equal the per-test closures they replaced: the same
    set at every level and stage, or the same error."""
    assert _staging_case(kind, seed, False) == _staging_case(kind, seed, True)


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(["assembled", "laws"]), st.integers(min_value=0, max_value=10**6))
@example("assembled", 1)
@example("laws", 1)
def test_shared_law_names_verify_and_assemble_the_same(kind, seed):
    """Law names computed once and handed to verify_decomposition and
    assemble_bad_gdelta give the same verdict and the same stage tables,
    errors included, as each computing its own; each side draws its own
    names from the seed."""
    code, d = _drawn_decomposition(kind, random.Random(seed))
    laws = law_names(code, d)
    own_code, own = _drawn_decomposition(kind, random.Random(seed))
    assert verify_decomposition(code, d, laws=laws) == verify_decomposition(own_code, own)
    assert (_stage_table(assemble_bad_gdelta(code, d, laws=laws))
            == _stage_table(assemble_bad_gdelta(own_code, own)))


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=10**6))
def test_finite_codes_assemble_tests_of_known_height(seed):
    """Every name of a finite code's decomposition is constant from some
    index, so its assembled test has a height, and the oracle's test is
    empty from there on.  Every built name is constant from index 0, so
    the height is 0: tests-combine and report print all-zero tables.  Exact
    names with unequal limits have no tail."""
    code = random_code(random.Random(seed), max_depth=1, max_children=4, max_gen_len=4)
    height = assemble_bad_gdelta(code, build_decomposition(code)).height
    assert height == 0
    oracle = assemble_bad_gdelta_bf(code, build_decomposition(code))
    assert all(oracle.stage(n, s).is_empty()
               for n in range(height, height + 4) for s in range(31))
    a = constant_name(StepFunction.constant(Dyadic(seed % 4, 2)))
    b = constant_name(StepFunction.constant(Dyadic(seed % 4 + 1, 2)))
    assert agreement_test(a, b).height is None


def test_decomposition_eval_map_reads_membership():
    rng = random.Random(55)
    for _ in range(20):
        c = random_code(rng, max_depth=2, max_gen_len=3)
        d = build_decomposition(c)
        for x in [EventuallyPeriodicPoint("", "01"), EventuallyPeriodicPoint("1", "0")]:
            em = decomposition_eval_map(c, d, x)
            from cantor_measure.codes import evaluate

            want = evaluate(c, x)
            for addr, v in em.items():
                if v is not None:
                    assert v == want[addr]


def test_membership_recovery_round_trip():
    rng = random.Random(56)
    for _ in range(12):
        c = random_code(rng, max_depth=2, max_gen_len=2, max_children=2)
        h = list(addresses(c))
        rng.shuffle(h)
        h = h + [h[0]]
        f = char_name(denotation(tilde(c, h)), label="stack")
        d = decomposition_from_membership(f, c, h)
        res = verify_decomposition(c, d)
        assert res and res.mode == "exact"
        ref = build_decomposition(c)
        for addr in addresses(c):
            assert names_equal(d[addr], ref[addr]).equal


def test_membership_recovery_rejects_wrong_limit():
    c = UnionNode((Leaf(ClopenSet.cylinder("0")),))
    h = [(), (0,)]
    wrong = char_name(ClopenSet.cylinder("1"))
    with pytest.raises(ValidationError):
        decomposition_from_membership(wrong, c, h)


def test_regularity_round_trip_char_names():
    rng = random.Random(57)
    for _ in range(25):
        nm = char_noise_name(rng)
        approx = char_to_regularity(nm, reference=nm.exact_limit().char_support())
        back = regularity_to_char(approx, stage_oracle=lambda n: 0)
        assert names_equal(nm, back).equal


def test_regularity_reverse_round_trip():
    rng = random.Random(58)
    for _ in range(15):
        nm = char_noise_name(rng)
        a1 = char_to_regularity(nm)
        n1 = regularity_to_char(a1, stage_oracle=lambda n: 0)
        a2 = char_to_regularity(n1)
        n2 = regularity_to_char(a2, stage_oracle=lambda n: 0)
        assert names_equal(n1, n2).equal


def test_regularity_overlap_bound_exact():
    rng = random.Random(59)
    for _ in range(25):
        nm = char_noise_name(rng)
        approx = char_to_regularity(nm)
        for n in range(6):
            got = mu_I(approx.overlap_stage(n, 0))
            assert got <= Dyadic(3, 0) * Dyadic.pow2(-n + 1)


def test_regularity_sandwich():
    # complement(A_n) <= B <= C_n for the exact char levels
    rng = random.Random(60)
    for _ in range(15):
        nm = char_noise_name(rng)
        b = nm.exact_limit().char_support()
        approx = char_to_regularity(nm)
        for n in range(5):
            a_n = approx.a_levels(n).stage(0)
            c_n = approx.c_levels(n).stage(0)
            assert clopen_intersection(clopen_complement(a_n), clopen_complement(b)).is_empty()
            assert clopen_intersection(b, clopen_complement(c_n)).is_empty()


def test_regularity_overlap_test_budgets():
    nm = char_noise_name(random.Random(61))
    t = char_to_regularity(nm).overlap_test()
    for n in range(4):
        for s in range(3):
            assert mu_I(t.stage(n, s)) <= Dyadic.pow2(-n)


def test_regularity_stage_oracle_leak_checked():
    nm = char_noise_name(random.Random(62))
    approx = char_to_regularity(nm)

    # an approximation whose stages commit nothing: the oracle's promise fails
    from cantor_measure.measure import RegularityApprox
    from cantor_measure.space import StagedOpenSet

    lazy = RegularityApprox(
        a_levels=lambda n: StagedOpenSet.constant(ClopenSet.empty()),
        c_levels=lambda n: StagedOpenSet.constant(ClopenSet.empty()),
    )
    with pytest.raises(CertificateError):
        regularity_to_char(lazy, stage_oracle=lambda n: 0).term(0)
    # a leak of 2^-12 keeps every promise up to level 11, but a declared
    # tail asks for no leak at all from it on
    leaky = RegularityApprox(
        a_levels=lambda n: StagedOpenSet.constant(clopen_complement(ClopenSet.cylinder("0" * 12))),
        c_levels=lambda n: StagedOpenSet.constant(ClopenSet.empty()),
    )
    regularity_to_char(leaky, stage_oracle=lambda n: 0).term(8)
    with pytest.raises(CertificateError):
        regularity_to_char(replace(leaky, tail=4), stage_oracle=lambda n: 0).exact_limit()


def test_declared_tails_are_where_rule_terms_stop_changing():
    """The rule names of decomposition_from_membership and
    regularity_to_char declare their tails; the oracle reads each raw rule
    past its tail.  Every input changes its terms at index tail - 1, so a
    tail declared one index early would fail."""
    rng = random.Random(63)
    for _ in range(8):
        c = random_code(rng, max_depth=2, max_gen_len=2, max_children=2)
        h = list(addresses(c))
        rng.shuffle(h)
        k = len(h) + 2
        # bump f on [0^n 1 0^k] for every position n until index k
        base = StepFunction.from_char(denotation(tilde(c, h)))
        bumps = StepFunction.from_char(ClopenSet(tuple("0" * n + "1" + "0" * k
                                                       for n in range(len(h)))))
        f = L1Name([base + bumps] * (k + 1) + [base], label="bumped")
        d = decomposition_from_membership(f, c, h)
        for addr, nm in d.items():
            assert nm.tail == k - h.index(addr)
            assert tail_mismatches_bf(nm) == []
            assert nm._rule(nm.tail - 1) != nm.term(nm.tail)
    for c in range(4, 10):
        back = regularity_to_char(char_to_regularity(shrinking_name(c)), stage_oracle=lambda n: 0)
        again = regularity_to_char(char_to_regularity(back), stage_oracle=lambda n: 0)
        assert (back.tail, again.tail) == (c - 3, max(c - 6, 0))
        for nm in (back, again) if c >= 7 else (back,):
            assert tail_mismatches_bf(nm) == []
            assert nm._rule(nm.tail - 1) != nm.term(nm.tail)


def test_sup_open_set_measures_approach_sup():
    half = Dyadic(1, 1)
    seq = lambda n: half - Dyadic.pow2(-n - 1)
    s = sup_open_set(seq)
    prev = None
    for n in range(6):
        m = mu_I(s.stage(n))
        assert m < half
        if prev is not None:
            assert prev <= m
        prev = m
    assert mu_I(s.stage(6)) == half - Dyadic.pow2(-6)


def test_sup_open_set_rejects_out_of_range():
    with pytest.raises(ValidationError):
        sup_open_set(lambda n: Dyadic.from_int(1)).stage(0)


def test_sup_open_set_finite_list_extends_last():
    # past the end of the list the threshold stays at the final entry
    s = sup_open_set([Dyadic(1, 2)])
    c = sup_open_set(lambda n: Dyadic(1, 2))
    for n in range(8):
        m = mu_I(s.stage(n))
        assert m == mu_I(c.stage(n))
        assert m < Dyadic(1, 2)
