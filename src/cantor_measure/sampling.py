"""Monte Carlo estimation against deterministic seeded bit streams.

Randomness comes from one splitmix stream per estimate; trial j reads the
j-th column of that stream, so runs are reproducible from (seed, trials)
alone.

Every estimate draws all its trials in one call to space.seeded_leaves,
which walks each column down the binary trie of the target's canonical
partition and draws a bit only while the walk stands on an internal node,
so a trial reads only the bits that decide its cell.  They are the bits
ColumnPoint(SeededPoint(seed), j) reads, and every estimate is bit for bit
the one a loop over per-trial Points gives.  An L1 name's capture sets and
term do not depend on the point, so its trials are walked down the
refinement of the capture sets' union and the term, whose cells carry
whether they are captured and the term's value.  A depth-0 target reads
no bits at all.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from itertools import product
from typing import Sequence

from .codes import denotation
from .dyadic import Dyadic
from .errors import StatisticalGateError, ValidationError
from .names import L1Name, capture_sets
from .space import char_partition, clopen_union, partition_trie, seeded_leaves
from .stepfn import StepFunction

# fraction of captured trials tolerated before the estimate is refused
CAPTURE_GATE_PERCENT = 1
AVERAGE_BITS = 60


def _refinement(*partitions: Sequence[str]) -> list[str]:
    """The cells of the common refinement of canonical partitions, sorted:
    every prefix that no other one extends.  Extensions of a string follow
    it at once in sorted order."""
    ps = sorted(set().union(*partitions))
    return [p for p, q in zip(ps, ps[1:]) if not q.startswith(p)] + ps[-1:]


def _sum_at(f: StepFunction, seed: int, trials: int) -> int:
    """Sum of f's numerators over the cells of the trials."""
    if len(f.nums) == 1:
        return trials * f.nums[0]
    return sum(map(f.nums.__getitem__, seeded_leaves(seed, range(trials), partition_trie(f.prefixes))))


def _name_sum(name: L1Name, trials: int, seed: int, precision: int) -> tuple[int, Dyadic]:
    """(captured trials, sum of value_at over the others): a trial is
    captured when it lands in the union of value_at's capture sets, and
    otherwise reads the term f_m, both constant on each cell of the union's
    partition refined by the term's."""
    m, guards = capture_sets(name, precision)
    f = name.term(m)
    guard = clopen_union(*guards)
    cells = _refinement(char_partition(guard)[0], f.prefixes)
    captured = [guard.covers_prefix(c) for c in cells]
    nums = [f.nums[bisect_right(f.prefixes, c) - 1] for c in cells]
    hits = seeded_leaves(seed, range(trials), partition_trie(cells))
    caught = sum(map(captured.__getitem__, hits))
    total = sum(nums[c] for c in hits if not captured[c])
    return caught, Dyadic(total, f.exp)


def mc_integral(target, trials: int, seed: int, precision: int = 20) -> Dyadic:
    """Estimate the integral of a step function, an L1 name, or the measure
    of a complement-free code by averaging over seeded sample points: the
    average floor-rounded at AVERAGE_BITS bits.

    Name targets read values as value_at does; trials landing in the bad-set
    guard are dropped, and more than CAPTURE_GATE_PERCENT of them aborts the
    run rather than returning a silently biased average.  A code is counted
    as the characteristic function of its denotation."""
    if trials <= 0:
        raise ValidationError("trial count must be positive")
    if isinstance(target, L1Name):
        captured, total = _name_sum(target, trials, seed, precision)
        if captured * 100 > trials * CAPTURE_GATE_PERCENT:
            raise StatisticalGateError(
                f"{captured} of {trials} trials captured by the guard set"
            )
        return total.div_floor(trials - captured, AVERAGE_BITS)
    f = target if isinstance(target, StepFunction) else StepFunction.from_char(denotation(target))
    return Dyadic(_sum_at(f, seed, trials), f.exp).div_floor(trials, AVERAGE_BITS)


def conditional_average(f: StepFunction, i: int) -> StepFunction:
    """Exact: value on each depth-i cell is the average of f over that cell."""
    return f.cell_average(i)


def sampled_average(f: StepFunction, i: int, trials: int, seed: int) -> StepFunction:
    """Monte Carlo version of conditional_average.

    All 2^i cells share the same column tails: trial j contributes the point
    p + R[j] to every cell p, so cell estimates differ only through f.  The
    tails are walked once, down the refinement of f's partitions of the
    cells, and tallied per cell of it."""
    if i < 0:
        raise ValidationError("cell depth must be nonnegative")
    if trials <= 0:
        raise ValidationError("trial count must be positive")
    ps, nums = f.prefixes, f.nums
    tails = _refinement([""], [q[i:] for q in ps if len(q) > i])
    counts = Counter(seeded_leaves(seed, range(trials), partition_trie(tails))).items()
    cells = []
    for c in map("".join, product("01", repeat=i)):
        total = sum(n * nums[bisect_right(ps, c + tails[t]) - 1] for t, n in counts)
        cells.append(Dyadic(total, f.exp).div_floor(trials, AVERAGE_BITS))
    return StepFunction.from_dyadics(i, cells)
