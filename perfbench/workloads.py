"""The benchmark's workloads: operation lists built from a seed, each
operation carrying its own check.

A workload is a fixed list of operations plus PICKS items that the seed
draws from a pool of POOL items.  Pool items are numbered, so every CLI
report any seed can produce is in the recorded digest table.  Pool members
of one workload share their shape and sizes and differ only in bits, which
keeps the cost of a run nearly independent of the seed.

Checks never use the package's own arithmetic for the expected answer:
measures, evaluation maps and membership come from corpus.py's prefix
oracles, and sampled estimates from Fraction arithmetic on the inputs.
"""

from __future__ import annotations

import io
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import cantor_measure as cm
import cantor_measure.cli

import corpus
from corpus import fraction_of

# CLI verbs that have an end-to-end time metric of their own
VERB_METRICS = {
    "measure": "measure_s",
    "decompose": "decompose_s",
    "tests-combine": "tests_combine_s",
    "decorate": "decorate_s",
    "report": "report_s",
}


@dataclass
class Op:
    """One closed-loop operation.  call() runs it and returns its raw
    output; check(output) returns None when the output is right, else the
    reason.  CLI operations keep their argv, which keys the digest table."""

    verb: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    argv: tuple[str, ...] | None = None


# ---------------------------------------------------------------------------
# CLI operations

def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cm.cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def cli_op(argv, check_report) -> Op:
    argv = tuple(argv)

    def check(result) -> str | None:
        rc, out, err = result
        if rc != 0 or err:
            return f"exit {rc}: {err.strip()[:200]}"
        return check_report(json.loads(out))

    return Op(argv[0], lambda: run_cli(argv), check, argv)


def _first(*problems) -> str | None:
    return next((p for p in problems if p), None)


def _assertions_pass(rep, count: int) -> str | None:
    got = rep.get("assertions", [])
    if len(got) != count or not all(a["pass"] for a in got):
        return f"assertions {got}"
    return None


def _estimate_error(rep, exact: Fraction, trials: int, seed: int) -> str | None:
    if rep["trials"] != trials or rep["seed"] != seed:
        return f"trials/seed {rep['trials']}/{rep['seed']}"
    est = fraction_of(rep["estimate"])
    if exact in (0, 1):
        return None if est == exact else f"estimate {rep['estimate']} of exact {exact}"
    sigma = math.sqrt(exact * (1 - exact) / trials)
    if abs(est - exact) > 5 * sigma + 2.0 ** -50:
        return f"estimate {float(est)} is over 5 sigma from {exact}"
    return None


def _addr(a) -> str:
    return ".".join(str(s) for s in a)


def measure_op(tree, mc: tuple[int, int] | None = None) -> Op:
    text = corpus.dsl(tree)
    exact = corpus.measure(tree)
    argv = ["measure", text] + (["--mc", str(mc[0]), "--seed", str(mc[1])] if mc else [])

    def check(rep):
        if fraction_of(rep["measure"]) != exact:
            return f"measure {rep['measure']} != {exact}"
        if mc is None:
            return None
        est = fraction_of(rep["estimate"])
        return _first(_estimate_error(rep, exact, *mc),
                      None if fraction_of(rep["abs_delta"]) == abs(exact - est)
                      else f"abs_delta {rep['abs_delta']}")

    return cli_op(argv, check)


def report_op(tree, mc: tuple[int, int] | None = None) -> Op:
    text = corpus.dsl(tree)
    exact = corpus.measure(tree)
    depth = corpus.leaf_depth(tree)
    argv = ["report", text] + (["--mc", str(mc[0]), "--seed", str(mc[1])] if mc else [])

    def check(rep):
        return _first(
            None if fraction_of(rep["measure"]) == exact else f"measure {rep['measure']} != {exact}",
            None if rep["support_depth"] == depth else f"support_depth {rep['support_depth']}",
            _assertions_pass(rep, 2),
            _estimate_error(rep, exact, *mc) if mc else None,
        )

    return cli_op(argv, check)


def decompose_op(tree) -> Op:
    want = {_addr(a): corpus.measure(d) for a, d in corpus.normalized_nodes(tree)}

    def check(rep):
        got = {row["address"]: fraction_of(row["integral"]) for row in rep["addresses"]}
        return _first(
            None if got == want else "address integrals differ from the oracle",
            None if fraction_of(rep["measure"]) == want[""] else f"measure {rep['measure']}",
            _assertions_pass(rep, 1),
        )

    return cli_op(["decompose", corpus.dsl(tree)], check)


def tests_combine_op(tree) -> Op:
    def check(rep):
        table = rep["stage_measures"]
        if rep["levels"] != 4 or rep["stages"] != 4 or len(table) != 4:
            return f"table shape {rep['levels']}x{rep['stages']}"
        for n, row in enumerate(table):
            if len(row) != 4 or any(fraction_of(v) > Fraction(1, 1 << n) for v in row):
                return f"level {n} stages {row} over budget 2^-{n}"
        return _assertions_pass(rep, 1)

    return cli_op(["tests-combine", corpus.dsl(tree)], check)


DECORATE_POINTS = 42  # eventually periodic points with head and period up to 2 bits


def decorate_op(tree) -> Op:
    def check(rep):
        return _first(
            None if rep["budgets"] == ["1", "2"] else f"budgets {rep['budgets']}",
            None if rep["checked_points"] == DECORATE_POINTS else f"checked {rep['checked_points']}",
            None if rep["preserved"] + len(rep["captured"]) == DECORATE_POINTS
            else f"preserved {rep['preserved']} + captured {len(rep['captured'])}",
            _assertions_pass(rep, 2),
        )

    return cli_op(["decorate", corpus.dsl(tree), "--generator", "split", "--budget", "1,2"], check)


def parse_op(tree) -> Op:
    depth, leaves = corpus.leaf_depth(tree), corpus.leaf_count(tree)

    def shape(node, parent_kind=None):
        """(leaf count, alternating) of a code_to_json tree."""
        if node["kind"] == "leaf":
            return 1, True
        kids = [shape(k, node["kind"]) for k in node["children"]]
        return sum(k[0] for k in kids), node["kind"] != parent_kind and all(k[1] for k in kids)

    def check(rep):
        n, alternating = shape(rep["code"])
        return _first(
            None if rep["complement_free"] is True else "not complement free",
            None if rep["support_depth"] == depth else f"support_depth {rep['support_depth']}",
            None if n == leaves else f"{n} leaves, want {leaves}",
            None if alternating else "not alternating",
        )

    return cli_op(["parse", corpus.dsl(tree), "--alternating"], check)


def eval_op(tree, head: str, period: str) -> Op:
    bit = corpus.ep_bit(head, period)
    want = {_addr(a): int(corpus.contains(d, bit)) for a, d in corpus.normalized_nodes(tree)}

    def check(rep):
        return _first(
            None if rep["point"] == f"u={head}:v={period}" else f"point {rep['point']}",
            None if rep["member"] == bool(want[""]) else f"member {rep['member']}",
            None if rep["eval_map"] == want else "evaluation map differs from the oracle",
        )

    return cli_op(["eval", corpus.dsl(tree), "--point", f"u={head}:v={period}"], check)


# ---------------------------------------------------------------------------
# library operations

def sampled_average_op(values: tuple[int, ...], trials: int, seed: int) -> Op:
    """sampled_average of a depth-3 step function with values/2^3 onto
    depth-2 cells; each cell mixes two values, so its estimate's standard
    deviation is at most half their gap over sqrt(trials)."""

    def call():
        return cm.sampled_average(cm.StepFunction(3, 3, values), 2, trials, seed)

    def check(h):
        if h.depth > 2:
            return f"depth {h.depth}"
        for c in range(4):
            got = Fraction(h.values[c >> (2 - h.depth)], 1 << h.exp)
            a, b = Fraction(values[2 * c], 8), Fraction(values[2 * c + 1], 8)
            if abs(got - (a + b) / 2) > 5 * abs(a - b) / 2 / math.sqrt(trials) + 2.0 ** -50:
                return f"cell {c}: {got} vs {(a + b) / 2}"
        return None

    return Op("sampled_average", call, check)


def _shrinking_name():
    """chi of [0^(i+1)] at index i: converges in L1 to 0, and every point
    near 0^omega is captured by its bad sets."""
    return cm.L1Name([], rule=lambda i: cm.StepFunction.from_char(
        cm.ClopenSet.cylinder("0" * (i + 1))), label="shrink")


GATE = re.compile(r"(\d+) of (\d+) trials captured by the guard set")


def capture_gate_op(trials: int, seed: int, precision: int) -> Op:
    """The expected outcome is the capture gate, in its documented form."""

    def call():
        try:
            return cm.mc_integral(_shrinking_name(), trials=trials, seed=seed, precision=precision)
        except cm.StatisticalGateError as e:
            return e

    def check(out):
        if not isinstance(out, cm.StatisticalGateError):
            return f"expected StatisticalGateError, got {out!r}"
        m = GATE.fullmatch(str(out))
        if not m or int(m[2]) != trials or int(m[1]) * 100 <= trials:
            return f"gate message {str(out)!r}"
        return None

    return Op("mc_integral", call, check)


def value_at_op(points: list[tuple[str, str]], precision: int) -> Op:
    m = 2 * precision + 1

    def call():
        name = _shrinking_name()
        return [cm.value_at(name, cm.EventuallyPeriodicPoint(u, v), precision) for u, v in points]

    def check(outs):
        for (u, v), out in zip(points, outs):
            bit = corpus.ep_bit(u, v)
            if isinstance(out, cm.Captured):
                g = out.cylinder
                if not 0 <= out.level <= precision or any(bit(i) != int(c) for i, c in enumerate(g)):
                    return f"capture {out} does not hold u={u}:v={v}"
            elif fraction_of(str(out)) != int(all(bit(i) == 0 for i in range(m + 1))):
                return f"value {out} at u={u}:v={v}"
        return None

    return Op("value_at", call, check)


def membership_recovery_op(tree, h: list[tuple[int, ...]]) -> Op:
    """decomposition_from_membership from the characteristic name of the
    stacked union; the stacked set comes from the oracle."""
    text = corpus.dsl(tree)
    cells = tuple(corpus.true_cells(corpus.stacked(tree, h)))
    want = {a: corpus.measure(d) for a, d in corpus.normalized_nodes(tree)}

    def call():
        f = cm.char_name(cm.ClopenSet(cells), label="stack")
        return cm.decomposition_from_membership(f, cm.parse_dsl(text), h)

    def check(d):
        if set(d) != set(want):
            return f"addresses {sorted(d)}"
        for a, mu in want.items():
            t = d[a].term(0)
            if Fraction(sum(t.values), 1 << (t.exp + t.depth)) != mu:
                return f"recovered name at {a} integrates to {t}, want {mu}"
        return None

    return Op("decomposition_from_membership", call, check)


def regularity_op(gens: tuple[str, ...], noise: tuple[int, ...]) -> Op:
    """Characteristic name with early terms nudged by at most 1/8, to
    regularity approximations and back, twice; both round trips must give
    an equal name whose terms are the support's characteristic function."""
    mu = corpus.measure(("union", tuple(("cyl", g) for g in gens)))

    def call():
        support = cm.ClopenSet(gens)
        base = cm.StepFunction.from_char(support)
        terms = [base + cm.StepFunction.constant(cm.Dyadic(c, i + 3)) for i, c in enumerate(noise)]
        name = cm.L1Name(terms + [base], label="noisy")
        back = cm.regularity_to_char(cm.char_to_regularity(name, reference=support),
                                     stage_oracle=lambda n: 0)
        again = cm.regularity_to_char(cm.char_to_regularity(back), stage_oracle=lambda n: 0)
        return cm.names_equal(name, back), cm.names_equal(back, again), back

    def check(out):
        first, second, back = out
        t = back.term(3)
        return _first(
            None if first.equal and second.equal else "round trip changed the name",
            None if Fraction(sum(t.values), 1 << (t.exp + t.depth)) == mu else f"term 3 {t}",
        )

    return Op("regularity_round_trip", call, check)


# ---------------------------------------------------------------------------
# workloads

def _ep_points(rng: random.Random, n: int) -> list[tuple[str, str]]:
    """n eventually periodic points with heads of 0-4 and periods of 1-4 bits."""
    return [(corpus.random_bits(rng, rng.randint(0, 4)), corpus.random_bits(rng, rng.randint(1, 4)))
            for _ in range(n)]


class Workload:
    name = ""
    POOL = 1
    PICKS = 1

    def fixed(self, smoke: bool) -> list[Op]:
        return []

    def item(self, i: int, smoke: bool) -> list[Op]:
        raise NotImplementedError

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}/{i}")

    def picks(self, seed: int, smoke: bool) -> list[int]:
        picked = random.Random(f"{self.name}:{seed}").sample(range(self.POOL), self.PICKS)
        return picked[:1] if smoke else picked

    def ops(self, seed: int, smoke: bool = False) -> list[Op]:
        ops = self.fixed(smoke)
        for i in self.picks(seed, smoke):
            ops.extend(self.item(i, smoke))
        return ops


class DeepLeaf(Workload):
    name = "deep-leaf"
    POOL, PICKS = 48, 2
    LADDER = range(6, 13)

    def fixed(self, smoke):
        ops = []
        for d in (self.LADDER[:2] if smoke else self.LADDER):
            code = corpus.ladder(d)
            ops += [measure_op(code), decompose_op(code), tests_combine_op(code),
                    report_op(code), decorate_op(code)]
        return ops

    def item(self, i, smoke):
        rng = self.rng(i)
        code = corpus.few_leaf(rng, 11)
        return [measure_op(code), decompose_op(code), tests_combine_op(code), report_op(code),
                measure_op(code, mc=(1000, rng.randrange(1 << 16)))]


class WideNested(Workload):
    name = "wide-nested"
    POOL, PICKS = 48, 3
    LEAVES, BIG = 24, 96

    def fixed(self, smoke):
        if smoke:
            return []
        rng = self.rng("fixed")
        code = corpus.wide_nested(rng, self.BIG)
        return ([parse_op(code)] + [eval_op(code, u, v) for u, v in _ep_points(rng, 2)]
                + [decompose_op(code)])

    def item(self, i, smoke):
        rng = self.rng(i)
        code = corpus.wide_nested(rng, self.LEAVES)
        return ([parse_op(code)] + [eval_op(code, u, v) for u, v in _ep_points(rng, 2)]
                + [measure_op(code), decompose_op(code), tests_combine_op(code),
                   decorate_op(code), report_op(code, mc=(500, rng.randrange(1 << 16)))])


class Sampler(Workload):
    name = "sampler"
    POOL, PICKS = 64, 4
    TRIALS, AVERAGE_TRIALS = 6000, 1500

    def item(self, i, smoke):
        rng = self.rng(i)
        code = corpus.shallow(rng)
        mc = (self.TRIALS, rng.randrange(1 << 16))
        values = tuple(rng.randint(0, 12) for _ in range(8))
        return [measure_op(code, mc=mc), report_op(code, mc=mc), decompose_op(code),
                tests_combine_op(code), decorate_op(code),
                sampled_average_op(values, self.AVERAGE_TRIALS, rng.randrange(1 << 16))]


class NamesStaging(Workload):
    name = "names-staging"
    POOL, PICKS = 48, 2
    GATE_TRIALS, GATE_PRECISION, VALUE_PRECISION = 200, 5, 3

    def item(self, i, smoke):
        rng = self.rng(i)
        ops = [capture_gate_op(self.GATE_TRIALS, rng.randrange(1 << 16),
                               3 if smoke else self.GATE_PRECISION)]
        points = [("0" * rng.randint(0, 9) + "1", corpus.random_bits(rng, 3)) for _ in range(6)]
        ops.append(value_at_op(points, self.VALUE_PRECISION))
        for _ in range(3):
            code = corpus.small_code(rng)
            h = [a for a, _ in corpus.normalized_nodes(code)] + [()]
            gens = tuple(corpus.random_bits(rng, rng.randint(1, 5)) for _ in range(3))
            noise = tuple(rng.choice((-1, 0, 1)) for _ in range(6))
            stacked = corpus.stacked(code, h)
            ops += [membership_recovery_op(code, h), regularity_op(gens, noise),
                    measure_op(stacked), decompose_op(stacked), tests_combine_op(stacked),
                    decorate_op(stacked), report_op(stacked)]
        return ops


WORKLOADS = {w.name: w for w in (DeepLeaf(), WideNested(), Sampler(), NamesStaging())}
