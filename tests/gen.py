"""Seeded random builders shared by the test modules.

Every function takes a random.Random so corpora are reproducible from the
seed written in the test that uses them.
"""

from __future__ import annotations

import random

from cantor_measure.codes import (
    ComplNode,
    InterNode,
    Leaf,
    UnionNode,
    annotate_min_ranks,
    make_alternating,
    normalize_demorgan,
)
from cantor_measure.dyadic import Dyadic
from cantor_measure.names import L1Name, char_name, constant_name
from cantor_measure.space import ClopenSet, StagedOpenSet
from cantor_measure.gdelta import RapidGDelta
from cantor_measure.stepfn import StepFunction, _cells


def random_bits(rng: random.Random, max_len: int, min_len: int = 0) -> str:
    n = rng.randint(min_len, max_len)
    return "".join(rng.choice("01") for _ in range(n))


def random_clopen(rng: random.Random, max_gens: int = 4, max_len: int = 6) -> ClopenSet:
    gens = tuple(random_bits(rng, max_len) for _ in range(rng.randint(0, max_gens)))
    return ClopenSet(gens)


def random_code(rng: random.Random, max_depth: int = 4, max_children: int = 3,
                max_gen_len: int = 6, allow_compl: bool = False,
                node_cap: int = 50):
    """Random code; complement-free unless allow_compl."""
    budget = [node_cap]

    def build(depth: int):
        budget[0] -= 1
        if depth == 0 or budget[0] <= 1 or rng.random() < 0.35:
            return Leaf(random_clopen(rng, max_len=max_gen_len))
        r = rng.random()
        if allow_compl and r < 0.15:
            return ComplNode(build(depth - 1))
        k = rng.randint(1, max_children)
        kids = tuple(build(depth - 1) for _ in range(k))
        cls = UnionNode if r < 0.575 else InterNode
        return cls(kids)

    return build(max_depth)


def random_ranked_alternating(rng: random.Random, **kw):
    c = random_code(rng, **kw)
    return make_alternating(annotate_min_ranks(normalize_demorgan(c)))


def random_stepfn(rng: random.Random, max_depth: int = 4, max_exp: int = 4,
                  max_num: int = 12) -> StepFunction:
    d = rng.randint(0, max_depth)
    e = rng.randint(0, max_exp)
    vals = tuple(rng.randint(0, max_num) for _ in range(1 << d))
    return StepFunction(d, e, vals)


def random_deep_stepfn(rng: random.Random, min_depth: int = 30, max_depth: int = 60,
                       max_exp: int = 4, max_num: int = 6) -> StepFunction:
    """Step function on a sparse partition: one to three cells split along
    random paths down to min_depth..max_depth bits, a random numerator per
    cell.  Built from its cells directly, since no table this deep fits in
    memory."""
    cells = {""}
    for _ in range(rng.randint(1, 3)):
        p = rng.choice(sorted(cells))
        cells.remove(p)
        for _ in range(rng.randint(min_depth, max_depth) - len(p)):
            b = rng.choice("01")
            cells.add(p + ("1" if b == "0" else "0"))
            p += b
        cells.add(p)
    prefixes = tuple(sorted(cells))
    nums = tuple(rng.randint(-max_num, max_num) for _ in prefixes)
    return _cells(prefixes, nums, rng.randint(0, max_exp))


def perturbed_name(rng: random.Random, base: StepFunction | None = None,
                   terms: int = 6, label: str = "gen") -> L1Name:
    """Certified name converging to base: term i adds a constant of size
    at most 2^-(i+3), so successive gaps stay strictly under 2^-i and the
    name ends in a constant tail equal to base."""
    if base is None:
        base = random_stepfn(rng)
    seq = []
    for i in range(terms):
        c = Dyadic(rng.choice((-1, 0, 1)), i + 3)
        seq.append(base + StepFunction.constant(c))
    seq.append(base)
    return L1Name(seq, label=label)


def char_noise_name(rng: random.Random, support: ClopenSet | None = None,
                    terms: int = 6, label: str = "char-gen") -> L1Name:
    """Name converging to a characteristic function, with early terms nudged
    off 0/1 by less than the 1/3 threshold margin."""
    if support is None:
        support = random_clopen(rng)
    base = StepFunction.from_char(support)
    seq = []
    for i in range(terms):
        c = Dyadic(rng.choice((-1, 0, 1)), i + 3)
        seq.append(base + StepFunction.constant(c))
    seq.append(base)
    return L1Name(seq, label=label)


def path_name(path: str, base: StepFunction, head: str = "") -> L1Name:
    """base + chi of the cylinder [head + the first i+1 bits of path^omega]
    at index i: converges to base, and points near head + path^omega are
    captured."""
    def rule(i):
        return base + StepFunction.from_char(ClopenSet.cylinder(head + (path * (i + 1))[:i + 1]))
    return L1Name([], rule=rule, label="path")


def broken_name(k: int) -> L1Name:
    """Shrinking until index k, then the constant 1: for k >= 2 the
    certificate breaks at the pair (k - 1, k); broken_name(1) is certified,
    since |chi[0] - 1|_1 = 1/2 < 2^0."""
    def rule(i):
        return StepFunction.from_char(ClopenSet.full() if i >= k else ClopenSet.cylinder("0" * (i + 1)))
    return L1Name([], rule=rule, label="broken")


def shrinking_name(c: int) -> L1Name:
    """chi of [0^(i+1)] at index i < c, then 0 from index c: exact, and its
    level-n bad set holds points from stage 2n+1 on exactly when
    0 < n < c//2."""
    seq = [StepFunction.from_char(ClopenSet.cylinder("0" * (i + 1))) for i in range(c)]
    return L1Name(seq + [StepFunction.constant(Dyadic(0, 0))], label="shrinking")


def rapid_family_member(rng: random.Random, levels: int = 5,
                        label: str = "gen-test") -> RapidGDelta:
    """Random rapidly null test: level n reveals, one per stage, cylinders
    chosen inside a fixed budget antichain of total measure <= 2^-n."""
    plans: list[list[str]] = []
    for n in range(levels):
        # disjoint cylinders under the 0^n prefix, total mass <= 2^-n
        pool = ["0" * n + "1" + random_bits(rng, 2, min_len=1)]
        if rng.random() < 0.5:
            pool.append("0" * (n + 1) + "1" + random_bits(rng, 2, min_len=1))
        rng.shuffle(pool)
        plans.append(pool)

    def level_rule(n: int) -> StagedOpenSet:
        plan = plans[n] if n < len(plans) else []

        def stage_rule(s: int) -> ClopenSet:
            return ClopenSet(tuple(plan[: min(s + 1, len(plan))]))

        return StagedOpenSet(stages=stage_rule)

    return RapidGDelta(level_rule, label=label)


def char_converging_name(rng: random.Random, terms: int = 6) -> L1Name:
    return char_noise_name(rng, terms=terms)


def constant_family(rng: random.Random, count: int = 4) -> list[L1Name]:
    return [constant_name(random_stepfn(rng), label=f"m{k}") for k in range(count)]
