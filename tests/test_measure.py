import random

import pytest
from hypothesis import given, settings, strategies as st

from cantor_measure.codes import Leaf, UnionNode, addresses, denotation, subtree, tilde
from cantor_measure.dyadic import Dyadic
from cantor_measure.errors import CertificateError, ValidationError
from cantor_measure.gdelta import budget_report
from cantor_measure.measure import (
    assemble_bad_gdelta,
    build_decomposition,
    char_to_regularity,
    decomposition_eval_map,
    decomposition_from_membership,
    measure_of_code,
    regularity_to_char,
    sup_open_set,
    verify_decomposition,
)
from cantor_measure.names import L1Name, char_name, constant_name, names_equal
from cantor_measure.space import (
    ClopenSet,
    EventuallyPeriodicPoint,
    clopen_complement,
    clopen_intersection,
    mu_I,
)
from cantor_measure.stepfn import StepFunction

from bruteforce import counting_measure, dyadic_fraction
from gen import char_noise_name, random_code


def test_measure_matches_counting_oracle():
    rng = random.Random(51)
    for _ in range(120):
        c = random_code(rng, max_depth=3, max_gen_len=5)
        assert dyadic_fraction(measure_of_code(c)) == counting_measure(c)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_clopen_fold_matches_decomposition_root(seed):
    c = random_code(random.Random(seed), max_depth=3, max_gen_len=5)
    root = build_decomposition(c)[()].exact_limit()
    assert measure_of_code(c) == root.integral()
    assert denotation(c) == root.char_support()


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
    # a leaf named by a rule has no exact limit, so its law is decided by
    # the tail bound, and so is the union law that reads it
    leaf = StepFunction.from_char(ClopenSet.cylinder("0"))
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
        assert verify_decomposition(c, d)
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
