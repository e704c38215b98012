"""Monte Carlo estimation against deterministic seeded bit streams.

Randomness comes from one splitmix-backed point per estimate; trial j reads
the j-th column of that point, so runs are reproducible from (seed, trials)
alone and nested estimates can share a stream without overlap by taking
disjoint column indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import BorelCode, bfs_addresses, member, membership_table, subtree
from .dyadic import Dyadic
from .errors import StatisticalGateError, ValidationError
from .names import Captured, L1Name, value_at
from .space import SeededPoint, cantor_pair, column, tail_append
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


def _trial_point(seed: int, j: int):
    return column(SeededPoint(seed), j)


def mc_integral(target, trials: int, seed: int, precision: int = 20) -> Estimate:
    """Estimate the integral of a step function, an L1 name, or the measure
    of a complement-free code by averaging over seeded sample points.

    Name targets read values through value_at; trials landing in the bad-set
    guard are dropped, and more than CAPTURE_GATE_PERCENT of them aborts the
    run rather than returning a silently biased average."""
    if trials <= 0:
        raise ValidationError("trial count must be positive")
    if isinstance(target, StepFunction):
        total = 0
        for j in range(trials):
            total += target.values[_trial_point(seed, j).cell_index(target.depth)]
        value = Dyadic(total, target.exp).div_floor(trials, AVERAGE_BITS)
        return Estimate(value, trials, seed, "stepfn")
    if isinstance(target, L1Name):
        total = Dyadic.from_int(0)
        captured = 0
        for j in range(trials):
            v = value_at(target, _trial_point(seed, j), precision)
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
    # code target: one table lookup per trial
    d, table = membership_table(target)
    hits = 0
    for j in range(trials):
        hits += table[_trial_point(seed, j).cell_index(d)]
    value = Dyadic.from_int(hits).div_floor(trials, AVERAGE_BITS)
    return Estimate(value, trials, seed, "code")


def conditional_average(f: StepFunction, i: int) -> StepFunction:
    """Exact: value on each depth-i cell is the average of f over that cell."""
    return f.cell_average(i)


def sampled_average(f: StepFunction, i: int, trials: int, seed: int) -> StepFunction:
    """Monte Carlo version of conditional_average.

    All 2^i cells share the same column tails: trial j contributes the point
    p + R[j] to every cell p, so cell estimates differ only through f."""
    if i < 0:
        raise ValidationError("cell depth must be nonnegative")
    if trials <= 0:
        raise ValidationError("trial count must be positive")
    tails = [_trial_point(seed, j) for j in range(trials)]
    cells = []
    for c in range(1 << i):
        p = format(c, f"0{i}b") if i else ""
        total = 0
        for t in tails:
            total += f.values[tail_append(p, t).cell_index(f.depth)]
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
    node = subtree(code, addr)
    base = SeededPoint(seed)
    hits = 0
    for j in range(trials):
        x = tail_append(p, column(base, cantor_pair(pos, j)))
        if member(node, x):
            hits += 1
    value = Dyadic.from_int(hits).div_floor(trials, AVERAGE_BITS)
    return Estimate(value, trials, seed, f"freq@{addr}")
