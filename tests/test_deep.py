"""Codes nested 2000 levels deep, through every walk and every CLI verb.

The oracle is a chain's set of depth-D cells, tracked as a bitmask level by
level while the chain grows: bit i is set when the cylinder of the D-bit
prefix with index i lies in the level's denotation.  The recursive oracles
in bruteforce.py cannot judge trees this deep.  Everything here runs under
the default recursion limit.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from cantor_measure.cli import MAX_REPORT_TREE_DEPTH, main as cli_main
from cantor_measure.codes import (
    ComplNode,
    InterNode,
    Leaf,
    UnionNode,
    annotate_min_ranks,
    check_rank,
    denotation,
    evaluate,
    is_alternating,
    make_alternating,
    nodes,
    normalize_demorgan,
    relocate,
)
from cantor_measure.dsl import code_from_json, code_to_json, parse_dsl, print_dsl
from cantor_measure.measure import build_decomposition, verify_decomposition
from cantor_measure.space import ClopenSet, EventuallyPeriodicPoint, mu_I

from bruteforce import dyadic_fraction

LEVELS = 2000
D = 5  # leaf generators have 1..D bits
FULL = (1 << (1 << D)) - 1


def mask(label: ClopenSet) -> int:
    out = 0
    for g in label.generators:
        width = 1 << (D - len(g))
        out |= ((1 << width) - 1) << (int(g or "0", 2) * width)
    return out


def fraction(m: int) -> Fraction:
    return Fraction(bin(m).count("1"), 1 << D)


def report_fraction(text: str) -> Fraction:
    num, exp = text.split("/2^")
    return Fraction(int(num), 1 << int(exp))


class Chain:
    """union/inter levels alternating upward from a base leaf, each
    combining a fresh leaf with the level below; every seventh level takes
    the complement of the level below.  levels[k] is the k-th level from the
    top: (its leaf, its cell mask, whether the level below is complemented)."""

    def __init__(self, levels: int, seed: int, compl_every: int = 7):
        rng = random.Random(seed)
        base = Leaf(ClopenSet.cylinder("01"))
        code, m = base, mask(base.label)
        prefixes, closes = [], 0
        rows = []
        for i in range(levels):
            gens = tuple("".join(rng.choice("01") for _ in range(rng.randint(1, D)))
                         for _ in range(rng.randint(1, 2)))
            leaf = Leaf(ClopenSet(gens))
            flip = i % compl_every == compl_every - 1
            below = ComplNode(code) if flip else code
            below_m = FULL ^ m if flip else m
            union = i % 2 == 0
            code = (UnionNode if union else InterNode)((leaf, below))
            m = mask(leaf.label) | below_m if union else mask(leaf.label) & below_m
            prefixes.append(f"{'union' if union else 'inter'}({print_dsl(leaf)},"
                            + ("compl(" if flip else ""))
            closes += 2 if flip else 1
            rows.append((leaf, m, flip))
        self.code, self.mask = code, m
        self.text = "".join(reversed(prefixes)) + print_dsl(base) + ")" * closes
        self.levels = rows[::-1]


@pytest.fixture(scope="module")
def chain():
    return Chain(LEVELS, seed=2000)


@pytest.fixture(scope="module")
def normal(chain):
    return normalize_demorgan(chain.code)


def test_denotation_and_measure_match_cell_oracle(chain, normal):
    assert mask(denotation(normal)) == chain.mask
    assert dyadic_fraction(mu_I(denotation(normal))) == fraction(chain.mask)
    assert normal.complement_free and not chain.code.complement_free


def test_evaluation_map_matches_oracle_at_every_level(chain, normal):
    """Level k from the top sits at address (1,)*k of the normalized code,
    its leaf at (1,)*k + (0,); under an odd number of complements above it
    the normalized node denotes the complement of the level."""
    rng = random.Random(7)
    for _ in range(6):
        head = "".join(rng.choice("01") for _ in range(D))
        x = EventuallyPeriodicPoint(head, rng.choice(["0", "1", "10"]))
        cell = int(head, 2)
        emap = evaluate(normal, x)
        assert emap[()] == chain.mask >> cell & 1
        flip = 0
        for k, (leaf, m, below_flipped) in enumerate(chain.levels):
            addr = (1,) * k
            assert emap[addr] == (m >> cell & 1) ^ flip
            assert emap[addr + (0,)] == (mask(leaf.label) >> cell & 1) ^ flip
            flip ^= below_flipped


def test_shaping_walks_hold(chain, normal):
    ranked = annotate_min_ranks(normal)
    assert check_rank(ranked)
    alt = make_alternating(ranked)
    assert is_alternating(alt) and check_rank(alt)
    assert not is_alternating(normalize_demorgan(UnionNode((normal,))))
    assert mask(denotation(alt)) == chain.mask
    for n in (0, 5):
        moved = denotation(relocate(n, normal))
        assert dyadic_fraction(mu_I(moved)) == fraction(chain.mask) / (1 << (n + 1))


def shape(code) -> list:
    return [(addr, type(node).__name__, str(node.rank)) for addr, node in nodes(code)]


def test_print_parse_and_json_round_trips(chain, normal):
    assert print_dsl(chain.code) == chain.text
    assert print_dsl(parse_dsl(chain.text)) == chain.text
    for code in (chain.code, make_alternating(annotate_min_ranks(normal))):
        back = code_from_json(code_to_json(code))
        assert print_dsl(back) == print_dsl(code)
        assert shape(back) == shape(code)


def test_decomposition_root_is_the_measure(chain, normal):
    d = build_decomposition(normal)
    assert dyadic_fraction(d[()].exact_limit().integral()) == fraction(chain.mask)
    assert verify_decomposition(normal, d).ok


def run(capsys, *argv):
    rc = cli_main(list(argv))
    out, err = capsys.readouterr()
    return rc, (json.loads(out) if rc == 0 else None), err


def test_cli_verbs_on_the_chain(chain, capsys):
    want = fraction(chain.mask)
    rc, rep, _ = run(capsys, "eval", chain.text, "--point", "u=10110:v=01")
    cell = int(("10110" + "01" * D)[:D], 2)
    assert rc == 0 and rep["member"] == bool(chain.mask >> cell & 1)
    for argv in (["measure"], ["decompose"], ["report", "--mc", "100"]):
        rc, rep, _ = run(capsys, argv[0], chain.text, *argv[1:])
        assert rc == 0 and report_fraction(rep["measure"]) == want
    rc, rep, _ = run(capsys, "tests-combine", chain.text)
    assert rc == 0 and rep["assertions"][0]["pass"]
    rc, _, err = run(capsys, "parse", chain.text)
    assert rc == 3 and f"MAX_REPORT_TREE_DEPTH = {MAX_REPORT_TREE_DEPTH}" in err


def tower(levels: int) -> str:
    return "compl(" * levels + "cyl(01)" + ")" * levels


def nested_unions(levels: int) -> tuple[str, Fraction]:
    rng = random.Random(levels)
    bits = ["".join(rng.choice("01") for _ in range(rng.randint(1, D))) for _ in range(levels)]
    text = "".join(f"union(cyl({b})," for b in bits) + "cyl(01)" + ")" * levels
    return text, fraction(mask(ClopenSet(tuple(bits) + ("01",))))


@pytest.mark.parametrize("case", ["tower", "unions"])
def test_cli_verbs_on_towers_and_union_chains(case, capsys):
    if case == "tower":
        text, want = tower(LEVELS), Fraction(1, 4)
    else:
        text, want = nested_unions(LEVELS)
    rc, rep, _ = run(capsys, "parse", text, "--alternating")
    assert rc == 0 and rep["complement_free"]
    rc, rep, _ = run(capsys, "decorate", text)
    assert rc == 0 and all(a["pass"] for a in rep["assertions"])
    for verb in ("measure", "report"):
        rc, rep, _ = run(capsys, verb, text)
        assert rc == 0 and report_fraction(rep["measure"]) == want


def test_parse_report_embeds_trees_up_to_the_named_depth(capsys):
    deepest = "union(cyl(0)," * MAX_REPORT_TREE_DEPTH + "cyl(1)" + ")" * MAX_REPORT_TREE_DEPTH
    rc, rep, _ = run(capsys, "parse", deepest)
    assert rc == 0 and rep["code"]["kind"] == "union"
    rc, _, err = run(capsys, "parse", f"compl({deepest})")
    assert rc == 3
    assert f"code depth {MAX_REPORT_TREE_DEPTH + 1} exceeds MAX_REPORT_TREE_DEPTH" in err
    rc, _, _ = run(capsys, "parse", f"compl({deepest})", "--normalize")
    assert rc == 0
