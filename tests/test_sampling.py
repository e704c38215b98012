import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cantor_measure.dyadic import Dyadic
from cantor_measure.errors import CertificateError, StatisticalGateError, ValidationError
from cantor_measure.measure import measure_of_code
from cantor_measure.names import L1Name, char_name, constant_name
from cantor_measure.sampling import (
    AVERAGE_BITS,
    Estimate,
    conditional_average,
    mc_integral,
    sampled_average,
)
from cantor_measure.space import ClopenSet, SeededPoint, partition_trie, seeded_leaves
from cantor_measure.stepfn import StepFunction, l1_norm

from bruteforce import (
    cell_index_bf,
    column,
    integral_fraction,
    lookup,
    mc_integral_bf,
    sampled_average_bf,
    seeded_cells,
)
from gen import (broken_name, path_name, perturbed_name, random_bits, random_code, random_deep_stepfn,
                 random_stepfn)

# stream seeds: negative ones and ones at or past 2^64 wrap like any other
SEEDS = st.integers(min_value=-(1 << 80), max_value=1 << 80)


def test_determinism_same_seed():
    rng = random.Random(70)
    c = random_code(rng, max_depth=3, max_gen_len=4)
    a = mc_integral(c, trials=500, seed=9)
    b = mc_integral(c, trials=500, seed=9)
    assert a == b
    assert mc_integral(c, trials=500, seed=10) != a or True  # seeds usually differ


def test_code_estimate_near_exact():
    rng = random.Random(71)
    for _ in range(6):
        c = random_code(rng, max_depth=3, max_gen_len=4)
        est = mc_integral(c, trials=4000, seed=3)
        assert abs(float(est) - float(measure_of_code(c))) < 0.05
        assert est.trials == 4000 and est.captured == 0


def test_stepfn_estimate_near_exact():
    rng = random.Random(72)
    for _ in range(6):
        f = random_stepfn(rng)
        est = mc_integral(f, trials=4000, seed=4)
        assert abs(float(est) - float(integral_fraction(f))) < 0.07 * max(1, f.values and 1)


def test_name_estimate_near_exact():
    nm = constant_name(StepFunction.from_char(ClopenSet.cylinder("01")))
    est = mc_integral(nm, trials=2000, seed=5)
    assert abs(float(est) - 0.25) < 0.05


def test_capture_gate_fires():
    # chi over [0^i]: value_at captures every sampled point that ever hits 1
    def chi_tail(i):
        return StepFunction.from_char(ClopenSet.cylinder("0" * (i + 1)))

    nm = L1Name([], rule=chi_tail, label="shrink")
    with pytest.raises(StatisticalGateError):
        mc_integral(nm, trials=400, seed=0, precision=6)


def test_estimate_float_and_fields():
    est = Estimate(value=Dyadic(1, 1), trials=10, seed=0)
    assert float(est) == 0.5


def test_conditional_average_delegates():
    rng = random.Random(73)
    f = random_stepfn(rng)
    for i in range(f.depth + 2):
        assert conditional_average(f, i) == f.cell_average(i)


def test_sampled_average_close_to_exact():
    rng = random.Random(74)
    for _ in range(5):
        f = random_stepfn(rng, max_depth=3, max_exp=3)
        for i in range(f.depth + 1):
            h = sampled_average(f, i, trials=3000, seed=11)
            exact = f.cell_average(i)
            assert float(l1_norm(h, exact)) < 0.08


def test_sampled_average_exact_when_cells_resolve():
    f = StepFunction.from_char(ClopenSet.cylinder("1"))
    h = sampled_average(f, 3, trials=50, seed=2)
    # depth-3 cells are constant for f, so every sample agrees exactly and
    # the canonical result collapses back to f itself
    assert h == f


def test_validation_errors():
    from cantor_measure.codes import ComplNode, Leaf

    code = Leaf(ClopenSet.full())
    with pytest.raises(ValidationError):
        mc_integral(code, trials=0, seed=0)
    with pytest.raises(ValidationError):
        mc_integral(ComplNode(code), trials=10, seed=0)


def test_name_estimate_excludes_captured():
    # one point in 16 is captured at shallow stages but the gate tolerates
    # nothing at 1%, so keep captures at zero here and check exactness path
    nm = char_name(ClopenSet.cylinder("1"))
    est = mc_integral(nm, trials=1000, seed=8)
    assert est.captured == 0
    assert abs(float(est) - 0.5) < 0.05


# ---------------------------------------------------------------------------
# the batched kernel against the per-trial Point loops it replaced

@settings(deadline=None, max_examples=60)
@given(SEEDS, st.lists(st.integers(min_value=0, max_value=10**4), max_size=6),
       st.integers(min_value=0, max_value=64))
@example(-1, [0, 1, 7], 64)
@example(1 << 64, [0, 3], 0)
@example((1 << 64) + 5, [2], 33)
def test_seeded_cells_match_column_points(seed, ks, d):
    assert seeded_cells(seed, ks, d) == [cell_index_bf(column(SeededPoint(seed), k), d) for k in ks]


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=300), SEEDS)
@example(0, 1, -3)
@example(1, 200, 1 << 64)
def test_mc_integral_matches_per_trial_loop(gen_seed, trials, seed):
    rng = random.Random(gen_seed)
    f = random_stepfn(rng, max_depth=6)
    c = random_code(rng, max_depth=3, max_gen_len=7)
    assert mc_integral(f, trials, seed) == mc_integral_bf(f, trials, seed)
    assert mc_integral(c, trials, seed) == mc_integral_bf(c, trials, seed)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=4),
       st.sampled_from([-3, -1, 0, 1, 3]), st.integers(min_value=1, max_value=150), SEEDS)
@example(0, 3, -2, 20, 5)  # f.depth < i
@example(0, 2, 0, 20, -5)  # f.depth = i
@example(0, 1, 3, 20, 1 << 64)  # f.depth > i
def test_sampled_average_matches_per_trial_loop(gen_seed, i, gap, trials, seed):
    rng = random.Random(gen_seed)
    d = max(i + gap, 0)
    f = StepFunction(d, rng.randint(0, 4), tuple(rng.randint(0, 12) for _ in range(1 << d)))
    assert sampled_average(f, i, trials, seed) == sampled_average_bf(f, i, trials, seed)


# ---------------------------------------------------------------------------
# L1 names: one walk down the capture sets' union and the term, against the
# per-trial value_at loop

def _outcome(fn, *args):
    """An estimate, or the type and message of what the call raised."""
    try:
        return fn(*args)
    except Exception as e:  # every error must match, type and message
        return type(e), str(e)


def _name(kind: str, rng: random.Random, precision: int) -> L1Name:
    if kind == "shrink":
        return path_name("0", StepFunction.constant(Dyadic(0, 0)))
    if kind == "path":
        return path_name(random_bits(rng, 3, min_len=1), random_stepfn(rng, max_depth=3),
                         random_bits(rng, 8))
    if kind == "negative":  # deep cells, numerators down to -6
        return perturbed_name(rng, base=random_deep_stepfn(rng, min_depth=5, max_depth=40))
    if kind == "negative-path":
        return path_name(random_bits(rng, 2, min_len=1),
                         StepFunction.constant(Dyadic(-rng.randint(1, 3), rng.randint(0, 2))),
                         random_bits(rng, 8))
    return broken_name(2 * precision + 2)  # breaks at m + 1


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(["shrink", "path", "negative", "negative-path", "broken"]),
       st.integers(min_value=0, max_value=10**6), st.integers(min_value=-2, max_value=6),
       st.integers(min_value=1, max_value=300), SEEDS)
@example("shrink", 0, 5, 200, 0)  # the benchmark's capture gate
@example("shrink", 0, 3, 1, -5)
@example("negative-path", 1, 2, 7, (1 << 64) + 3)
@example("path", 2, 4, 1, 1 << 64)
@example("broken", 0, 2, 9, 3)
@example("negative", 3, -1, 5, 0)
@example("shrink", 0, -2, 5, 0)
def test_name_estimate_matches_per_trial_value_at(kind, gen_seed, precision, trials, seed):
    # both sides get their own copy of the name: names materialize lazily
    batched = _name(kind, random.Random(gen_seed), precision)
    per_trial = _name(kind, random.Random(gen_seed), precision)
    got = _outcome(mc_integral, batched, trials, seed, precision)
    assert got == _outcome(mc_integral_bf, per_trial, trials, seed, precision)
    if kind == "broken" and precision >= 0:
        assert got[0] is CertificateError
    if precision < 0:
        assert got[0] is ValidationError


def test_name_estimate_counts_captures_and_keeps_negative_values():
    # -1 is a real numerator here, next to captured cells
    def name():
        return path_name("0", StepFunction.constant(Dyadic(-1, 0)), "10101")

    est = mc_integral(name(), trials=2000, seed=1, precision=3)
    assert 0 < est.captured <= 20 and est.value == Dyadic(-1, 0)
    assert est == mc_integral_bf(name(), 2000, 1, 3)


# ---------------------------------------------------------------------------
# the lazy kernel

@st.composite
def partitions(draw, max_depth: int = 64):
    """A canonical partition: cells split along random paths down to at most
    max_depth bits."""
    cells = {""}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        p = draw(st.sampled_from(sorted(cells)))
        path = draw(st.text(alphabet="01", max_size=max_depth - len(p)))
        cells.remove(p)
        for b in path:
            cells.add(p + ("1" if b == "0" else "0"))
            p += b
        cells.add(p)
    return sorted(cells)


class _CountedTrie(list):
    """A trie that counts its lookups: the kernel looks up one child per
    bit it draws."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@settings(deadline=None, max_examples=150)
@given(partitions(), SEEDS, st.lists(st.integers(min_value=0, max_value=10**4), max_size=8))
@example(["0", "1"], -1, [0, 1, 7])
@example(sorted(["0" * 64] + ["0" * k + "1" for k in range(64)]), 1 << 64, [0, 5])
def test_kernel_leaf_is_the_cell_of_the_column(cells, seed, ks):
    d = max(map(len, cells))
    trie = _CountedTrie(partition_trie(cells))
    leaves = seeded_leaves(seed, ks, trie)
    for k, leaf in zip(ks, leaves, strict=True):
        bits = format(cell_index_bf(column(SeededPoint(seed), k), d), f"0{d}b") if d else ""
        assert bits.startswith(cells[leaf])
    # no bit drawn past a leaf: one lookup per bit of the leaf's prefix
    assert trie.reads == sum(len(cells[leaf]) for leaf in leaves)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=400), SEEDS)
def test_deep_estimates_match_fixed_depth_kernel(gen_seed, trials, seed):
    # too deep for a per-trial table: the fixed-depth kernel is the oracle
    f = random_deep_stepfn(random.Random(gen_seed))
    total = sum(lookup(f)(seeded_cells(seed, range(trials), f.depth)))
    assert mc_integral(f, trials, seed) == Estimate(
        Dyadic(total, f.exp).div_floor(trials, AVERAGE_BITS), trials, seed)
