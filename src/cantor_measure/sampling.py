"""Monte Carlo estimation against deterministic seeded bit streams.

Randomness comes from one splitmix stream per estimate; trial j reads the
j-th column of that stream, so runs are reproducible from (seed, trials)
alone and nested estimates can share a stream without overlap by taking
disjoint column indices.

Step-function and code targets, sampled_average and membership_frequency
draw all their trials in one call to space.seeded_cells, which gives each
column's depth-d cell index without building a Point, from the same bits
column(SeededPoint(seed), k) reads; every estimate is bit for bit the one a
loop over per-trial Points gives.  Only L1-name targets walk a Point per
trial, since value_at reads as many bits as the name's bad sets ask for.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .codes import BorelCode, bfs_addresses, denotation, subtree
from .dyadic import Dyadic
from .errors import StatisticalGateError, ValidationError
from .names import Captured, L1Name, value_at
from .space import ClopenSet, SeededPoint, cantor_pair, column, seeded_cells, validate_bits
from .stepfn import StepFunction

# fraction of captured trials tolerated before the estimate is refused
CAPTURE_GATE_PERCENT = 1
AVERAGE_BITS = 60


@dataclass(frozen=True)
class Estimate:
    """A floor-rounded average at AVERAGE_BITS bits with its provenance."""

    value: Dyadic
    trials: int
    seed: int
    target: str
    captured: int = 0

    def __float__(self) -> float:
        return float(self.value)


def _hits(s: ClopenSet, cells: Iterable[int]) -> int:
    """How many of the depth-s.depth() cell indices lie in s.  The sorted
    antichain is a sorted run of disjoint cell intervals [a, b); listed in
    order, their ends put exactly the cells inside at an odd bisection."""
    d = s.depth()
    ends: list[int] = []
    for g in s.generators:
        a = int(g or "0", 2) << (d - len(g))
        ends += (a, a + (1 << (d - len(g))))
    return sum(bisect_right(ends, c) & 1 for c in cells)


def mc_integral(target, trials: int, seed: int, precision: int = 20) -> Estimate:
    """Estimate the integral of a step function, an L1 name, or the measure
    of a complement-free code by averaging over seeded sample points.

    Name targets read values through value_at; trials landing in the bad-set
    guard are dropped, and more than CAPTURE_GATE_PERCENT of them aborts the
    run rather than returning a silently biased average.  A code counts the
    trials whose cell lies in its denotation, at the denotation's depth."""
    if trials <= 0:
        raise ValidationError("trial count must be positive")
    if isinstance(target, StepFunction):
        cells = seeded_cells(seed, range(trials), target.depth)
        total = sum(map(target.values.__getitem__, cells))
        value = Dyadic(total, target.exp).div_floor(trials, AVERAGE_BITS)
        return Estimate(value, trials, seed, "stepfn")
    if isinstance(target, L1Name):
        total = Dyadic.from_int(0)
        captured = 0
        for j in range(trials):
            v = value_at(target, column(SeededPoint(seed), j), precision)
            if isinstance(v, Captured):
                captured += 1
            else:
                total = total + v
        if captured * 100 > trials * CAPTURE_GATE_PERCENT:
            raise StatisticalGateError(
                f"{captured} of {trials} trials captured by the guard set"
            )
        value = total.div_floor(trials - captured, AVERAGE_BITS)
        return Estimate(value, trials, seed, "name", captured)
    s = denotation(target)
    hits = _hits(s, seeded_cells(seed, range(trials), s.depth()))
    value = Dyadic.from_int(hits).div_floor(trials, AVERAGE_BITS)
    return Estimate(value, trials, seed, "code")


def conditional_average(f: StepFunction, i: int) -> StepFunction:
    """Exact: value on each depth-i cell is the average of f over that cell."""
    return f.cell_average(i)


def sampled_average(f: StepFunction, i: int, trials: int, seed: int) -> StepFunction:
    """Monte Carlo version of conditional_average.

    All 2^i cells share the same column tails: trial j contributes the point
    p + R[j] to every cell p, so cell estimates differ only through f.  The
    tails' cells below depth i are drawn and tallied once."""
    if i < 0:
        raise ValidationError("cell depth must be nonnegative")
    if trials <= 0:
        raise ValidationError("trial count must be positive")
    rest = max(f.depth - i, 0)  # bits of a tail that f reads
    tails = Counter(seeded_cells(seed, range(trials), rest)).items()
    cells = []
    for c in range(1 << i):
        base = (c >> (i + rest - f.depth)) << rest
        total = sum(n * f.values[base + t] for t, n in tails)
        cells.append(Dyadic(total, f.exp).div_floor(trials, AVERAGE_BITS))
    return StepFunction.from_dyadics(i, cells)


def membership_frequency(code: BorelCode, addr: tuple[int, ...], p: str,
                         trials: int, seed: int) -> Estimate:
    """Frequency of membership in the subtree at addr among seeded points of
    the cylinder [p].

    The column index pairs the address's breadth-first position with the
    trial number, so frequencies for different addresses of the same code
    draw from disjoint columns of one stream."""
    if trials <= 0:
        raise ValidationError("trial count must be positive")
    order = bfs_addresses(code)
    if addr not in order:
        raise ValidationError(f"no node at address {addr}")
    pos = order.index(addr)
    s = denotation(subtree(code, addr))
    d, i = s.depth(), len(validate_bits(p))
    rest = max(d - i, 0)  # bits of a column the denotation reads
    base = (int(p or "0", 2) >> (i + rest - d)) << rest
    tails = seeded_cells(seed, (cantor_pair(pos, j) for j in range(trials)), rest)
    hits = _hits(s, (base + t for t in tails))
    value = Dyadic.from_int(hits).div_floor(trials, AVERAGE_BITS)
    return Estimate(value, trials, seed, f"freq@{addr}")
