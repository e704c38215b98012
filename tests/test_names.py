import gc
import random
import weakref
from fractions import Fraction

import pytest

from cantor_measure.dyadic import Dyadic
from cantor_measure.errors import CertificateError
from cantor_measure.names import (
    Captured,
    L1Name,
    bad_set,
    bad_set_family,
    char_name,
    constant_name,
    convergence_test,
    diagonal_name,
    inf_name,
    interleave_terms,
    names_equal,
    sup_name,
    value_at,
)
from cantor_measure.space import ClopenSet, EventuallyPeriodicPoint, mu_I
from cantor_measure.stepfn import StepFunction, l1_norm

from bruteforce import dyadic_fraction, l1_fraction
from gen import constant_family, perturbed_name, random_stepfn


def chi_tail_name(terms=12):
    """f_i = characteristic function of [0^i]; quickly vanishing name."""
    seq = [StepFunction.from_char(ClopenSet.cylinder("0" * i)) for i in range(terms)]
    return L1Name(seq, label="chi-tail")


def test_certificate_accepts_strict_and_rejects_tie():
    base = StepFunction.constant(Dyadic.from_int(0))
    # gap exactly 2^-0 at index 0: the strict inequality fails
    tie = [base + StepFunction.constant(Dyadic.from_int(1)), base, base]
    with pytest.raises(CertificateError):
        L1Name(tie, label="tie")
    # gap strictly below every 2^-i: accepted
    ok = [base + StepFunction.constant(Dyadic(1, i + 1)) for i in range(3)] + [base]
    L1Name(ok, label="ok")


def test_rule_terms_checked_on_materialization():
    def rule(i):
        if i < 3:
            return StepFunction.constant(Dyadic(1, i + 2))
        return StepFunction.constant(Dyadic.from_int(1))    # jump breaks the bound

    nm = L1Name([], rule=rule, label="lazy")
    nm.term(1)
    with pytest.raises(CertificateError):
        nm.term(4)


def test_constant_tail_gives_exact_limit():
    f = random_stepfn(random.Random(21))
    nm = constant_name(f)
    assert nm.exact_limit() == f
    assert nm.term(40) == f


def test_integral_interval_contains_limit():
    rng = random.Random(22)
    for _ in range(30):
        full = perturbed_name(rng)
        lim = full.exact_limit()
        seq = [full.term(i) for i in range(full.materialized)]
        for k in range(2, len(seq) + 1):
            nm = L1Name(seq[:k])
            iv = nm.integral()
            assert iv.contains(lim.integral())
            assert iv.width() == Dyadic.pow2(-(k - 1) + 2)


def test_bad_set_budgets_and_monotone_stages():
    rng = random.Random(23)
    for _ in range(25):
        nm = perturbed_name(rng)
        for level in range(5):
            b = bad_set(nm, level)
            prev = None
            for s in range(5):
                cur = b.stage(s)
                assert mu_I(cur) <= Dyadic.pow2(-level)
                if prev is not None:
                    inter = [g for g in prev.generators if not cur.covers_prefix(g)]
                    assert inter == []
                prev = cur


def test_bad_set_level_zero_always_empty():
    # partial tail sums stay strictly below 1, so threshold 2^0 never trips
    nm = chi_tail_name()
    b = bad_set(nm, 0)
    for s in range(8):
        assert b.stage(s).is_empty()


def test_bad_set_frozen_value_for_chi_tail():
    # level 1 collects the cylinders [0^k 1] for 3 <= k <= 8 by stage 8
    nm = chi_tail_name()
    b = bad_set(nm, 1)
    got = b.stage(8)
    assert got == ClopenSet(tuple("0" * k + "1" for k in range(3, 9)))
    assert mu_I(got) == Dyadic(63, 9)


def test_bad_set_stages_shared_and_name_freed_without_cycle_collector():
    nm = chi_tail_name()
    assert bad_set(nm, 1).stage(8) is bad_set(nm, 1).stage(8)
    value_at(nm, EventuallyPeriodicPoint("0", "1"), precision=3)
    ref = weakref.ref(nm)
    gc.disable()
    try:
        del nm
        assert ref() is None
    finally:
        gc.enable()


def test_value_at_reads_limit_or_captures():
    nm = chi_tail_name()
    one = EventuallyPeriodicPoint("", "1")
    v = value_at(nm, one, precision=4)
    assert v == Dyadic.from_int(0)
    # 0^5 1 1 1 ... sits in the level-1 bad set cylinder [0^5 1]
    flip = EventuallyPeriodicPoint("00000", "1")
    got = value_at(nm, flip, precision=4)
    assert isinstance(got, Captured)
    assert got.level == 1
    assert got.cylinder == "000001"
    # 0^w avoids every (open) bad set, so the stage value is read off even
    # though the point is in the measure-zero tail intersection
    zero = EventuallyPeriodicPoint("", "0")
    assert value_at(nm, zero, precision=4) == Dyadic.from_int(1)


def test_value_at_on_constant_name_is_exact():
    f = StepFunction(1, 1, (1, 2))
    nm = constant_name(f)
    x = EventuallyPeriodicPoint("0", "1")
    assert value_at(nm, x, precision=6) == Dyadic(1, 1)


def test_names_equal_reflexive_and_separating():
    rng = random.Random(24)
    for _ in range(20):
        nm = perturbed_name(rng)
        r = names_equal(nm, nm)
        assert r.equal and r.residual == Dyadic.from_int(0)
    a = constant_name(StepFunction.constant(Dyadic.from_int(0)))
    b = constant_name(StepFunction.constant(Dyadic.from_int(1)))
    r = names_equal(a, b)
    assert not r.equal
    assert not r
    assert dyadic_fraction(r.residual) == 1


def test_names_equal_tolerates_residual_within_bound():
    base = random_stepfn(random.Random(25))
    a = constant_name(base)
    rng = random.Random(26)
    b = perturbed_name(rng, base=base)
    assert names_equal(a, b).equal


def test_names_equal_mode_exact_iff_both_limits_known():
    base = random_stepfn(random.Random(27))
    a = constant_name(base)
    ruled = L1Name([], rule=lambda i: base, label="ruled")
    assert names_equal(a, a).mode == "exact"
    r = names_equal(a, ruled)
    assert r.equal and r.mode == "bounded"


def test_interleave_terms_exposes_raw_sequence():
    a = constant_name(StepFunction.constant(Dyadic.from_int(0)), label="a")
    b = constant_name(StepFunction.constant(Dyadic(1, 4)), label="b")
    seq = interleave_terms(a, b)
    assert seq(0) == a.term(2)
    assert seq(1) == b.term(3)
    assert seq(2) == a.term(4)
    assert seq(3) == b.term(5)


def test_sup_inf_exact_on_constant_families():
    rng = random.Random(27)
    for _ in range(25):
        fam = constant_family(rng, count=rng.randint(1, 5))
        limits = [n.exact_limit() for n in fam]
        acc_max, acc_min = limits[0], limits[0]
        for f in limits[1:]:
            acc_max = acc_max.max_with(f)
            acc_min = acc_min.min_with(f)
        s = sup_name(fam)
        i = inf_name(fam)
        assert s.exact_limit() == acc_max
        assert i.exact_limit() == acc_min


def test_sup_single_member_is_member():
    fam = constant_family(random.Random(28), count=1)
    assert sup_name(fam) is fam[0]
    assert inf_name(fam) is fam[0]


def test_convergence_test_budgets():
    rng = random.Random(29)
    for _ in range(10):
        nm = perturbed_name(rng)
        t = convergence_test(nm)
        for k in range(4):
            for s in range(4):
                assert mu_I(t.stage(k, s)) <= Dyadic.pow2(-k)


def test_diagonal_name_bounds_exact():
    # h_j: names drifting toward chi_[0], certified by construction
    base = StepFunction.from_char(ClopenSet.cylinder("0"))
    hs = []
    for j in range(6):
        bump = StepFunction(2, j + 2, (1, 0, 0, 0))
        hs.append(constant_name(base + bump, label=f"h{j}"))
    g = constant_name(base, label="g")
    diag = diagonal_name(hs, g=g, label="diag")
    for i in range(3):
        fi, fi1 = diag.term(i), diag.term(i + 1)
        bound = Dyadic.pow2(-2 * i) + Dyadic.pow2(-i) + Dyadic.pow2(-2 * i)
        assert l1_norm(fi, fi1) <= bound
        vs_g = Dyadic.pow2(-2 * i) + Dyadic.pow2(-i + 1)
        assert l1_norm(fi, base) <= vs_g


def test_diagonal_name_refutes_distant_premise():
    far = [
        constant_name(StepFunction.constant(Dyadic.from_int(k)), label=f"f{k}")
        for k in (0, 3, 6)
    ]
    with pytest.raises(CertificateError):
        diagonal_name(far, label="refuted")


def test_bad_set_family_is_budgeted_test():
    nm = perturbed_name(random.Random(30))
    fam = bad_set_family(nm)
    for level in range(4):
        for s in range(4):
            assert mu_I(fam.stage(level, s)) <= Dyadic.pow2(-level)


def test_char_name_is_characteristic():
    s = ClopenSet(("01", "1"))
    nm = char_name(s)
    lim = nm.exact_limit()
    assert lim.is_char()
    assert lim.char_support() == s
