import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cantor_measure import measure, names, stepfn
from cantor_measure.codes import Leaf, UnionNode
from cantor_measure.dyadic import Dyadic
from cantor_measure.errors import CertificateError, ValidationError
from cantor_measure.gdelta import RapidGDelta
from cantor_measure.names import (
    Captured,
    L1Name,
    bad_set,
    capture_sets,
    char_name,
    constant_name,
    convergence_test,
    diagonal_name,
    exceedance_stages,
    inf_name,
    interleave_terms,
    names_equal,
    sup_name,
    value_at,
)
from cantor_measure.space import ClopenSet, EventuallyPeriodicPoint, StagedOpenSet, mu_I
from cantor_measure.stepfn import StepFunction, l1_norm

from bruteforce import capture_sets_bf, l1_fraction, tail_mismatches_bf
from gen import (broken_name, char_noise_name, constant_family, path_name, perturbed_name,
                 random_stepfn, shrinking_name)


def chi_tail_name(terms=12):
    """f_i = characteristic function of [0^i]; quickly vanishing name."""
    seq = [StepFunction.from_char(ClopenSet.cylinder("0" * i)) for i in range(terms)]
    return L1Name(seq, label="chi-tail")


def test_certificate_accepts_strict_and_rejects_tie():
    base = StepFunction.constant(Dyadic(0, 0))
    # gap exactly 2^-0 at index 0: the strict inequality fails
    tie = [base + StepFunction.constant(Dyadic(1, 0)), base, base]
    with pytest.raises(CertificateError):
        L1Name(tie, label="tie")
    # gap strictly below every 2^-i: accepted
    ok = [base + StepFunction.constant(Dyadic(1, i + 1)) for i in range(3)] + [base]
    L1Name(ok, label="ok")


def test_rule_terms_checked_on_materialization():
    def rule(i):
        if i < 3:
            return StepFunction.constant(Dyadic(1, i + 2))
        return StepFunction.constant(Dyadic(1, 0))    # jump breaks the bound

    nm = L1Name([], rule=rule, label="lazy")
    nm.term(1)
    with pytest.raises(CertificateError):
        nm.term(4)


def test_constant_tail_gives_exact_limit():
    f = random_stepfn(random.Random(21))
    nm = constant_name(f)
    assert nm.exact_limit() == f
    assert nm.term(40) == f


def test_negative_tail_is_rejected():
    zero = StepFunction.constant(Dyadic(0, 0))
    with pytest.raises(ValidationError):
        L1Name([], rule=lambda i: zero, label="negative", tail=-1)


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


def test_capture_sets_build_each_delta_once(monkeypatch):
    built = []
    abs_diff = StepFunction.abs_diff

    def counted(f, g):
        built.append(None)
        return abs_diff(f, g)

    monkeypatch.setattr(StepFunction, "abs_diff", counted)
    nm = chi_tail_name()
    m, guards = capture_sets(nm, 5)
    # the certificate checks build the 11 pair differences 0..10 and keep
    # them; stage 13 at levels 0..5 sums the deltas 2j+1..13, of which only
    # 11..13 are new
    assert (m, len(guards), len(built)) == (11, 6, 14)
    assert list(guards) == [bad_set(nm, j).stage(13) for j in range(6)]
    value_at(nm, EventuallyPeriodicPoint("", "1"), precision=5)
    assert len(built) == 14
    # a rule name materializes term 14 for delta 13, and the certificate
    # check of that pair builds the delta: again pairs 0..13, 14 differences
    built.clear()
    shrink = L1Name([], rule=lambda i: StepFunction.from_char(ClopenSet.cylinder("0" * (i + 1))))
    capture_sets(shrink, 5)
    assert len(built) == 14


def _outcome(fn, *args):
    """(m, guards) as a list, or the type and message of what the call
    raised."""
    try:
        m, guards = fn(*args)
    except Exception as e:  # every error must match, type and message
        return type(e), str(e)
    return m, list(guards)


def _capture_name(kind: str, seed: int, precision: int) -> L1Name:
    rng = random.Random(seed)
    m = 2 * precision + 1
    if kind == "perturbed":
        return perturbed_name(rng, terms=rng.randint(1, 8))
    if kind == "char-noise":
        return char_noise_name(rng, terms=rng.randint(1, 8))
    if kind == "shrink":
        return path_name("0", StepFunction.constant(Dyadic(0, 0)))
    if kind == "long-tail":  # the constant tail starts after m + 2
        return chi_tail_name(max(m, 0) + rng.randint(4, 8))
    return broken_name(m + int(kind[-1]))  # "broken+k": the pair (m+k-1, m+k) fails


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(["perturbed", "char-noise", "shrink", "long-tail",
                        "broken+1", "broken+2", "broken+3", "broken+4"]),
       st.integers(min_value=0, max_value=10**6), st.integers(min_value=-2, max_value=7))
@example("shrink", 0, 5)
@example("long-tail", 0, 7)
@example("broken+1", 0, 0)
@example("broken+3", 0, 7)
@example("perturbed", 1, -1)
@example("char-noise", 2, -2)
def test_capture_sets_match_staged_bad_sets(kind, seed, precision):
    # each side gets its own copy of the name: names materialize lazily
    got = _outcome(capture_sets, _capture_name(kind, seed, precision), precision)
    assert got == _outcome(capture_sets_bf, _capture_name(kind, seed, precision), precision)
    if kind in ("broken+1", "broken+2", "broken+3") and precision >= 0:
        assert got[0] is CertificateError


def test_a_failed_certificate_keeps_no_term():
    """The pair (3, 4) breaks the certificate: every read past term 3
    raises, the same error each time, and no term or delta of it stays."""
    nm = broken_name(4)
    errors = []
    for read in (lambda: capture_sets(nm, 1), lambda: capture_sets(nm, 1), lambda: nm.term(4)):
        with pytest.raises(CertificateError) as exc:
            read()
        errors.append(str(exc.value))
    assert errors == ["broken: |f_3 - f_4|_1 = 15/2^4 not < 2^-3"] * 3
    assert nm.materialized == 4 and 3 not in nm._deltas


def test_exceedance_stages_read_no_delta_below_start():
    asked = []

    def delta(i):
        asked.append(i)
        return StepFunction.from_char(ClopenSet.cylinder("0" * i))

    staged = exceedance_stages(delta, 5, Dyadic.pow2(-1))
    assert all(staged.stage(s).is_empty() for s in range(5))
    assert asked == []
    assert staged.stage(8) == ClopenSet.cylinder("00000")
    assert asked == [5, 6, 7, 8]


def test_capture_sets_reject_a_negative_delta(monkeypatch):
    nm = chi_tail_name()
    delta = nm.delta
    minus = StepFunction.constant(Dyadic(-1, 3))
    monkeypatch.setattr(nm, "delta", lambda i: minus if i == 7 else delta(i))
    with pytest.raises(CertificateError, match="chi-tail: delta 7 is negative"):
        capture_sets(nm, 5)


def test_value_at_names_a_signed_delta_as_a_certificate_error(monkeypatch):
    """A name whose term 2 exceeds its term 1 on [000] is read at 1^omega.
    With signed subtraction for |f_i - f_{i+1}|, it still passes its
    certificate, whose norm takes absolute values, but delta 1 is negative
    there: the capture pass raises a certificate error naming it, not an
    internal assertion."""
    zero, bump = StepFunction.constant(Dyadic(0, 0)), StepFunction.from_char(
        ClopenSet.cylinder("000"))
    terms, x = [zero, zero, bump, bump], EventuallyPeriodicPoint("", "1")
    assert value_at(L1Name(terms, label="signed"), x, precision=1) == Dyadic(0, 0)
    monkeypatch.setattr(stepfn, "_abs_sub", lambda a, b: a - b)
    with pytest.raises(CertificateError, match="signed: delta 1 is negative"):
        value_at(L1Name(terms, label="signed"), x, precision=1)


def test_capture_sets_memoized_per_precision():
    nm = chi_tail_name()
    first = capture_sets(nm, 4)
    again = capture_sets(nm, 4)
    assert again is first
    assert all(a is b for a, b in zip(again[1], first[1]))
    assert capture_sets(nm, 3) == (7, first[1][:4])


def test_value_at_reads_limit_or_captures():
    nm = chi_tail_name()
    one = EventuallyPeriodicPoint("", "1")
    v = value_at(nm, one, precision=4)
    assert v == Dyadic(0, 0)
    # 0^5 1 1 1 ... sits in the level-1 bad set cylinder [0^5 1]
    flip = EventuallyPeriodicPoint("00000", "1")
    got = value_at(nm, flip, precision=4)
    assert isinstance(got, Captured)
    assert got.level == 1
    assert got.cylinder == "000001"
    # 0^w avoids every (open) bad set, so the stage value is read off even
    # though the point is in the measure-zero tail intersection
    zero = EventuallyPeriodicPoint("", "0")
    assert value_at(nm, zero, precision=4) == Dyadic(1, 0)


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
        assert r.equal
    a = constant_name(StepFunction.constant(Dyadic(0, 0)))
    b = constant_name(StepFunction.constant(Dyadic(1, 0)))
    r = names_equal(a, b)
    assert not r.equal
    assert not r


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
    tailed = L1Name([], rule=lambda i: base, label="tailed", tail=3)
    assert names_equal(a, a).mode == "exact"
    r = names_equal(a, ruled)
    assert r.equal and r.mode == "bounded"
    r = names_equal(tailed, a)
    assert r.equal and r.mode == "exact"
    assert names_equal(tailed, ruled).mode == "bounded"


def test_interleave_terms_exposes_raw_sequence():
    a = constant_name(StepFunction.constant(Dyadic(0, 0)), label="a")
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


def test_level_union_reads_only_bad_sets_past_their_start(monkeypatch):
    """A convergence test's level k at stage s reads bad set n exactly for
    k < n <= (s-1)/2, since a level-n bad set is empty before stage 2n+1;
    for a name constant from index c also only n < c//2, since bad set n
    is empty once 2n+1 >= c, so nothing at levels >= max(c//2 - 1, 0)."""
    calls = []

    def bad(name, n):
        calls.append(n)
        return StagedOpenSet.constant(ClopenSet.empty())

    monkeypatch.setattr(names, "bad_set", bad)
    zero = StepFunction.constant(Dyadic(0, 0))
    ruled = L1Name([], rule=lambda i: zero, label="ruled")
    tailed = L1Name([], rule=lambda i: zero, label="tailed", tail=7)
    cases = [(ruled, None), (tailed, 7)] + [(L1Name([zero] * (c + 1)), c) for c in range(10)]
    for nm, c in cases:
        t = convergence_test(nm)
        assert t.height == (None if c is None else max(c // 2 - 1, 0))
        for k in range(6):
            for s in range(16):
                calls.clear()
                t.stage(k, s)
                end = (s + 1) // 2 if c is None else min((s + 1) // 2, c // 2)
                assert calls == list(range(k + 1, end)), (c, k, s)
        assert sorted(t._memo) == list(range(6 if c is None else min(6, t.height)))


def test_interleave_tail_is_where_its_rule_stops_changing():
    """Interleaving two names with equal limits, constant from c1 and c2,
    declares the tail max(c1, c2) - 2.  The oracle reads the raw rule past
    it; each pair has the later tail at the parity that index tail - 1
    reads, so one index earlier the rule still changes."""
    for c1, c2 in [(3, 3), (2, 4), (5, 5), (7, 3), (3, 6), (8, 8)]:
        inter = names._Interleaved(shrinking_name(c1), shrinking_name(c2))
        assert inter.tail == max(c1, c2) - 2
        assert tail_mismatches_bf(inter) == []
        assert inter._rule(inter.tail - 1) != inter.term(inter.tail)


def test_fold_law_test_builds_no_bad_set_of_its_picks(monkeypatch):
    """The law test of children with exact limits compares the parent with
    the constant name of their fold: both names, and their interleave, are
    constant from index 0, so every bad set the test could read is known
    empty and none is built."""
    labels = []
    real = names.bad_set

    def recording(name, level):
        labels.append(name.label)
        return real(name, level)

    monkeypatch.setattr(names, "bad_set", recording)
    code = UnionNode(tuple(Leaf(ClopenSet.cylinder(p)) for p in ("0", "10", "110", "1110")))
    d = measure.build_decomposition(code)
    t = names.agreement_test(d[()], measure.law_name(code, [d[(k,)] for k in range(4)]))
    for k in range(4):
        for s in range(12):
            t.stage(k, s)
    assert labels == []


def test_agreement_height_is_the_height_of_the_agreement_test():
    """Certificate.test takes its height from agreement_height without
    building the agreement test, so the two must agree on every pair of
    names with exact, equal limits."""
    for c1 in (0, 1, 2, 3, 5, 9, 12, 14):
        for c2 in (0, 1, 2, 4, 7, 10, 14):
            a, b = shrinking_name(c1), shrinking_name(c2)
            assert names.agreement_test(a, b).height == names.agreement_height(a.tail, b.tail)


def test_diagonal_name_bounds_exact():
    # h_j: names drifting toward chi_[0], certified by construction
    base = StepFunction.from_char(ClopenSet.cylinder("0"))
    hs = []
    for j in range(6):
        bump = StepFunction(2, j + 2, (1, 0, 0, 0))
        hs.append(constant_name(base + bump, label=f"h{j}"))
    g = constant_name(base, label="g")
    diag = diagonal_name(hs, g=g)
    for i in range(3):
        fi, fi1 = diag.term(i), diag.term(i + 1)
        bound = Dyadic.pow2(-2 * i) + Dyadic.pow2(-i) + Dyadic.pow2(-2 * i)
        assert l1_norm(fi, fi1) <= bound
        vs_g = Dyadic.pow2(-2 * i) + Dyadic.pow2(-i + 1)
        assert l1_norm(fi, base) <= vs_g


def test_diagonal_name_refutes_distant_premise():
    far = [
        constant_name(StepFunction.constant(Dyadic(k, 0)), label=f"f{k}")
        for k in (0, 3, 6)
    ]
    with pytest.raises(CertificateError):
        diagonal_name(far)


def test_bad_set_family_is_budgeted_test():
    nm = perturbed_name(random.Random(30))
    fam = RapidGDelta(lambda n: bad_set(nm, n))
    for level in range(4):
        for s in range(4):
            assert mu_I(fam.stage(level, s)) <= Dyadic.pow2(-level)


def test_char_name_is_characteristic():
    s = ClopenSet(("01", "1"))
    nm = char_name(s)
    lim = nm.exact_limit()
    assert lim.is_char()
    assert lim.char_support() == s
