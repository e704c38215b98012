import contextlib
import io
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cantor_measure import cli, dsl
from cantor_measure.codes import (
    ComplNode,
    InterNode,
    Leaf,
    UnionNode,
    annotate_min_ranks,
    membership_table,
)
from cantor_measure.dsl import code_from_json, code_to_json, parse_dsl, print_dsl
from cantor_measure.errors import ParseError, ValidationError
from cantor_measure.space import ClopenSet

from bruteforce import counting_measure, parse_dsl_bf
from gen import random_code


def test_basic_forms():
    assert parse_dsl("empty") == Leaf(ClopenSet.empty())
    assert parse_dsl("full") == Leaf(ClopenSet.full())
    assert parse_dsl("cyl(01)") == Leaf(ClopenSet.cylinder("01"))
    assert parse_dsl("cyl()") == Leaf(ClopenSet.cylinder(""))
    u = parse_dsl("union(cyl(0),cyl(1))")
    assert isinstance(u, UnionNode) and len(u.children) == 2
    i = parse_dsl("inter(cyl(0))")
    assert isinstance(i, InterNode)
    c = parse_dsl("compl(cyl(0))")
    assert isinstance(c, ComplNode)


def test_whitespace_insensitive():
    a = parse_dsl("union( cyl(0) ,\n  cyl(1) )")
    b = parse_dsl("union(cyl(0),cyl(1))")
    assert a == b


def test_error_positions():
    with pytest.raises(ParseError) as e:
        parse_dsl("union(cyl(0)")
    assert "expecting" in str(e.value)
    assert e.value.line == 1

    with pytest.raises(ParseError) as e:
        parse_dsl("union(cyl(0),\n  qqq(1))")
    assert e.value.line == 2
    assert "unknown form" in str(e.value)

    with pytest.raises(ParseError) as e:
        parse_dsl("cyl(0);")
    assert "unexpected character" in str(e.value)


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_dsl("cyl(0) cyl(1)")


def test_digit_context_typing():
    # bits after cyl, decimal in nat positions
    with pytest.raises(ParseError):
        parse_dsl("cyl(02)")
    c = parse_dsl("reloc(10, cyl())")
    d, table = membership_table(c)
    assert d == 11
    assert sum(table) == 1


@pytest.mark.parametrize("text,ch,line,col", [
    ("reloc(²,cyl(0))", "²", 1, 7),
    ("reloc(٣,cyl(0))", "٣", 1, 7),
    ("reloc(1٠١,cyl(0))", "٠", 1, 8),
    ("bigunion(i,²,3,cyl(0))", "²", 1, 12),
    ("bigunion(i,0,\n٣,cyl(0))", "٣", 2, 1),
    ("bigunion(i,٠١,1,cyl(0))", "٠", 1, 12),
    ("cyl(²)", "²", 1, 5),
    ("cyl(0٣)", "٣", 1, 6),
    ("union(cyl(0),\n  cyl(٠١))", "٠", 2, 7),
])
def test_only_ascii_digits_are_digits(text, ch, line, col):
    """Other Unicode digits are neither nats nor bits: each is an
    unexpected character where it stands."""
    with pytest.raises(ParseError) as e:
        parse_dsl(text)
    assert str(e.value) == f"unexpected character {ch!r} (line {line}, col {col})"
    assert (e.value.line, e.value.col) == (line, col)


@pytest.mark.parametrize("text,bits", [
    ("cyl(0101)", 4),
    ("reloc(3,union(cyl(01),full))", 2 + 4 * 2),
    ("reloc(2,compl(cyl(01)))", 2 + 3 * 2),  # the child is cyl(1) | cyl(00)
    ("reloc(1,reloc(2,cyl(0)))", 1 + 3 + 2),
    ("reloc(1,bigunion(i,2,0,cyl(111)))", 3),  # an empty range relocates nothing
])
def test_code_bits_counted_as_built(text, bits, monkeypatch):
    """Leaf bits, plus a reloc's index + 1 for each generator of its child:
    exactly the limit parses, one bit less is a validation error."""
    monkeypatch.setattr(dsl, "MAX_CODE_BITS", bits)
    parse_dsl(text)
    monkeypatch.setattr(dsl, "MAX_CODE_BITS", bits - 1)
    with pytest.raises(ValidationError, match=f"MAX_CODE_BITS = {bits - 1} generator bits"):
        parse_dsl(text)


def _relocs(levels: int, leaves: int) -> str:
    return "reloc(0," * levels + "union(" + "empty," * leaves + "cyl(0))" + ")" * levels


def test_reloc_copy_counted_against_the_node_limit():
    """A reloc is one form and builds a copy of its child, so the child's
    nodes count twice: k empty leaves and cyl(0) under one reloc build
    2 * (k + 2) + 1 nodes.  The largest k that fits parses, one more leaf
    is refused, and so is a deep nest of relocs around a wide child, before
    it copies the child once per level."""
    k = (dsl.MAX_CODE_NODES - 5) // 2
    assert len(parse_dsl(_relocs(1, k)).children) == k + 1
    for text in (_relocs(1, k + 1), _relocs(800, 30000)):
        with pytest.raises(ValidationError, match=f"MAX_CODE_NODES = {dsl.MAX_CODE_NODES} nodes"):
            parse_dsl(text)


def test_bigunion_inclusive_bounds():
    c = parse_dsl("bigunion(n,0,3,reloc($n,cyl()))")
    assert counting_measure(c) == counting_measure(
        parse_dsl("union(reloc(0,cyl()),reloc(1,cyl()),reloc(2,cyl()),reloc(3,cyl()))")
    )


def test_bigunion_empty_range():
    c = parse_dsl("bigunion(n,3,2,cyl(0))")
    assert isinstance(c, UnionNode) and c.children == ()
    assert print_dsl(c) == "empty"


def test_bigunion_nested_shadowing():
    outer = parse_dsl("bigunion(i,0,1,bigunion(i,$i,2,reloc($i,cyl(1))))")
    # inner i shadows outer; lower bound reads the outer binding
    manual = parse_dsl(
        "union(bigunion(i,0,2,reloc($i,cyl(1))),bigunion(i,1,2,reloc($i,cyl(1))))"
    )
    assert counting_measure(outer) == counting_measure(manual)


def test_unbound_index_rejected():
    with pytest.raises(ParseError) as e:
        parse_dsl("reloc($k, cyl(0))")
    assert "unbound index $k" in str(e.value)


def test_reloc_normalizes_complement_first():
    # inside [01] the complement of [0] relocates to [011]; outside nothing
    c = parse_dsl("reloc(1, compl(cyl(0)))")
    assert counting_measure(c) == counting_measure(parse_dsl("cyl(011)"))


def test_print_parse_identity_on_canonical_spellings():
    rng = random.Random(90)
    for _ in range(150):
        c = random_code(rng, max_depth=3, max_gen_len=4, allow_compl=True)
        s = print_dsl(c)
        s2 = print_dsl(parse_dsl(s))
        assert s == s2


def test_print_special_cases():
    assert print_dsl(UnionNode(())) == "empty"
    assert print_dsl(InterNode(())) == "full"
    assert print_dsl(Leaf(ClopenSet.empty())) == "empty"
    assert print_dsl(Leaf(ClopenSet.full())) == "full"
    assert print_dsl(Leaf(ClopenSet.cylinder("01"))) == "cyl(01)"
    two = Leaf(ClopenSet(("0", "10")))
    assert print_dsl(two) == "union(cyl(0),cyl(10))"


def test_json_round_trip_plain():
    rng = random.Random(91)
    for _ in range(100):
        c = random_code(rng, max_depth=3, max_gen_len=4, allow_compl=True)
        assert code_from_json(code_to_json(c)) == c


def test_json_round_trip_ranked_with_slots():
    from gen import random_ranked_alternating

    rng = random.Random(92)
    for _ in range(40):
        c = annotate_min_ranks(random_code(rng, max_depth=3, max_gen_len=3))
        assert code_from_json(code_to_json(c)) == c
        r = random_ranked_alternating(rng)
        assert code_from_json(code_to_json(r)) == r


def test_json_rejects_malformed():
    with pytest.raises(ValidationError):
        code_from_json({"rank": None})
    with pytest.raises(ValidationError):
        code_from_json({"kind": "pentagon"})
    with pytest.raises(ValidationError):
        code_from_json("cyl(0)")


@pytest.mark.parametrize("obj, message", [
    ({"kind": "leaf", "label": "01"}, "leaf label must be a list of bit strings"),
    ({"kind": "leaf", "label": [0, 1]}, "leaf label must be a list of bit strings"),
    ({"kind": "leaf", "label": ["0"], "rank": 1}, "rank must be an ordinal notation string"),
    ({"kind": "union", "children": {"kind": "leaf"}}, "children must be a list"),
    ({"kind": "compl", "children": 3}, "children must be a list"),
    ({"kind": "inter", "children": [{"kind": "leaf"}], "slots": 2}, "slots must be a list"),
    ({"kind": "inter", "children": [{"kind": "leaf"}], "slots": ["0"]}, "slots must be a list"),
    ({"kind": "leaf", "label": ["2"]}, "not a binary string"),
    ({"kind": "leaf", "rank": "w^" + "9" * 5000}, "exceeds the int/str conversion limit"),
])
def test_json_rejects_malformed_fields(obj, message):
    """A string label is not read as its characters (a leaf labelled "01"
    was the whole space), and wrong types are validation errors, not
    AttributeError or TypeError."""
    with pytest.raises(ValidationError, match=message):
        code_from_json(obj)


def test_json_tree_over_the_node_limit():
    """A union of MAX_CODE_NODES - 1 leaves is exactly at the limit; one
    more leaf is one node over it, and is refused before any node is built."""
    leaf = {"kind": "leaf", "label": ["0"]}
    at = {"kind": "union", "children": [leaf] * (dsl.MAX_CODE_NODES - 1)}
    assert len(code_from_json(at).children) == dsl.MAX_CODE_NODES - 1
    over = {"kind": "union", "children": [leaf] * dsl.MAX_CODE_NODES}
    with pytest.raises(ValidationError, match=f"code exceeds MAX_CODE_NODES = {dsl.MAX_CODE_NODES} nodes"):
        code_from_json(over)


_KEYS = ["kind", "rank", "label", "children", "slots"]
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.floats(allow_nan=False),
                  st.text("01a٣ ", max_size=3), st.lists(st.integers(-1, 2), max_size=2),
                  st.just({"kind": "leaf"}), st.sampled_from(_KEYS + ["pentagon", "Kind", ""]))
_HUGE = "9" * 5000  # more digits than the interpreter converts by default


def _json_nodes(tree) -> list[dict]:
    out, todo = [], [tree]
    while todo:
        node = todo.pop()
        out.append(node)
        kids = node.get("children")
        todo += [c for c in kids if isinstance(c, dict)] if isinstance(kids, list) else []
    return out


@st.composite
def _json_mutant(draw):
    """A code's JSON tree, ranked or not, with up to three edits at nodes
    picked at random, and then perhaps nested inside many one-child nodes."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    code = random_code(rng, max_depth=3, max_gen_len=4, allow_compl=draw(st.booleans()))
    if draw(st.booleans()):
        code = annotate_min_ranks(code) if code.complement_free else code
    tree = code_to_json(code)
    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.sampled_from(_json_nodes(tree)))
        key = draw(st.sampled_from(sorted(node) or _KEYS))
        edit = draw(st.integers(0, 5))
        if edit == 0:  # drop a key
            node.pop(key, None)
        elif edit == 1:  # rename it
            node[draw(st.sampled_from(_KEYS + ["Kind", "labels"]))] = node.pop(key, None)
        elif edit == 2:  # a value of the wrong type
            node[key] = draw(_JUNK)
        elif edit == 3:  # strings that are not bits
            node["label"] = draw(st.lists(st.text("012 x", max_size=3), max_size=3))
        elif edit == 4:  # numbers that are huge
            node["rank"] = draw(st.sampled_from([_HUGE, "w^" + _HUGE, "w^2*" + "9" * 99 + "+1",
                                                  "9" * 99]))
        else:  # slots that are huge, negative, misaligned or not a list
            kids = node.get("children")
            n = len(kids) if isinstance(kids, list) else 0
            node["slots"] = draw(st.one_of(
                st.lists(st.sampled_from([0, 1, -1, 10**40, 10**4000]),
                         min_size=max(n - 1, 0), max_size=n + 1), _JUNK))
    for _ in range(draw(st.sampled_from([0, 0, 1, 300]))):
        tree = {"kind": draw(st.sampled_from(["compl", "union", "inter"])), "rank": None,
                "children": [tree]}
    return tree


@settings(deadline=None, max_examples=300)
@given(_json_mutant())
@example({"kind": "union", "children": [{"kind": "leaf", "label": ["0"]}], "slots": [10**4000]})
def test_code_from_json_reads_any_tree_or_refuses_it(tree):
    """Mutated code_to_json trees (dropped and renamed keys, wrong types,
    labels that are not bits, huge numbers, deep nesting): code_from_json
    gives a code whose JSON round trip is stable, or a ValidationError, and
    no other exception."""
    try:
        code = code_from_json(tree)
    except ValidationError:
        return
    again = code_to_json(code)
    assert code_to_json(code_from_json(again)) == again


_INDEX = st.sampled_from(["i", "j"])
_NAT = st.one_of(st.integers(0, 3).map(str), _INDEX.map(lambda n: "$" + n))
_LEAF = st.one_of(st.sampled_from(["empty", "full"]),
                  st.text("01", max_size=3).map(lambda b: f"cyl({b})"))


def _forms(inner):
    kids = st.lists(inner, min_size=1, max_size=3).map(",".join)
    return st.one_of(
        kids.map(lambda k: f"union({k})"),
        kids.map(lambda k: f"inter({k})"),
        inner.map(lambda e: f"compl({e})"),
        st.tuples(_NAT, inner).map(lambda t: f"reloc({t[0]},{t[1]})"),
        st.tuples(_INDEX, _NAT, _NAT, inner).map(lambda t: "bigunion(%s,%s,%s,%s)" % t),
        st.tuples(_INDEX, _NAT, _NAT, inner).map(
            lambda t: "bigunion(%s,%s,%s,reloc($%s,%s))" % (t[0], t[1], t[2], t[0], t[3])),
    )


_TEXTS = st.recursive(_LEAF, _forms, max_leaves=8)
_MUTATION = st.tuples(st.integers(0, 10**6), st.integers(0, 2),
                      st.sampled_from(list("(),$01 \nxiunoc") + ["union(", "bigunion(", "$i"]
                                      + ["²", "½", "٣", "\xa0", "\x0c", "é", "_", "\u2028", "\t",
                                         "\r\n"]))


def _mutated(text: str, edits) -> str:
    for pos, op, piece in edits:
        pos %= len(text) + 1
        if op == 0:
            text = text[:pos] + piece + text[pos:]
        elif op == 1:
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + piece + text[pos + 1:]
    return text


def _outcome(parse, text):
    try:
        code = parse(text)
    except ParseError as e:
        return ("error", str(e), e.line, e.col)
    return ("code", print_dsl(code), repr(code_to_json(code)))


@settings(deadline=None, max_examples=400)
@given(_TEXTS, st.lists(_MUTATION, max_size=3))
@example("union(bigunion(i,0,1,cyl(1)),reloc($i,cyl()))", [])  # an index's scope ends
@example("bigunion(i,0,1,union(cyl(),reloc($i,cyl())))", [])  # and reaches every sibling
@example("bigunion(i,2,0,reloc($i,cyl()))", [])
@example("bigunion(i,0,2,bigunion(j,$i,2,reloc($j,cyl(1))))", [])
@example("bigunion(_i,0,1,reloc($_i,cyl()))", [])  # a word may start with _
def test_parser_agrees_with_recursive_descent(text, edits):
    """Valid texts with nested bigunion/reloc/$index (lo > hi and unbound
    indices included), and the same texts mutated: the stack parser gives
    the recursive parser's code, or its ParseError message and position."""
    for t in (text, _mutated(text, edits)):
        assert _outcome(parse_dsl, t) == _outcome(parse_dsl_bf, t)


_NINES = "9" * 5000  # more digits than the interpreter converts by default
_VERBS = [["parse"], ["eval", "--point", "u=0:v=1"], ["measure", "--mc", "16"], ["decompose"],
          ["tests-combine", "--depth", "1"], ["decorate", "--depth", "1"], ["report", "--mc", "16"]]


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse's usage errors
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=100)
@given(_TEXTS, st.lists(st.one_of(_MUTATION, st.tuples(st.integers(0, 10**6), st.integers(0, 2),
                                                       st.just(_NINES))), max_size=3))
@example("union(cyl(1),reloc(14300,cyl(0)))", [])  # a 4305-digit numerator
@example("reloc(14300,cyl(1))", [])
@example(f"reloc({_NINES},cyl(0))", [])
@example(f"bigunion(i,0,{_NINES},cyl(0))", [])
def test_cli_keeps_its_exit_codes_on_any_dsl_text(text, edits):
    """Every verb, on valid and mutated texts and on numbers past the
    interpreter's int/str limit: a documented exit code, no traceback, and
    the same stdout on a rerun.  14300 enters only in whole examples: next
    to another digit it makes reloc indices whose decomposition costs time
    and space quadratic in the index."""
    text = _mutated(text, edits)
    for verb, *flags in _VERBS:
        argv = [verb, text, *flags]
        rc, out, err = _run_cli(argv)
        assert rc in (0, 2, 3, 4, 5), (argv, err)
        assert "Traceback" not in err
        assert _run_cli(argv)[:2] == (rc, out)


_FLAG_EXPRS = ["cyl(0)", "union(cyl(0),inter(cyl(1),cyl(10)))", "compl(cyl(01))", "empty"]
# (verb, flags it needs besides, flag, values to mutate); every flag also
# takes a number past the interpreter's int/str limit
_FLAG_CASES = [
    ("parse", [], "--rank", ["0", "2", "w", "w^2*3+w+1"]),
    ("decorate", [], "--budget", ["1", "2,3", "w", "w,w^2*3"]),
    ("decorate", ["--generator", "split"], "--budget", ["1,2", "w"]),
    ("decorate", [], "--depth", ["0", "1"]),
    ("tests-combine", [], "--depth", ["0", "2"]),
    ("measure", [], "--mc", ["1", "16"]),
    ("report", [], "--mc", ["16"]),
    ("measure", ["--mc", "8"], "--seed", ["0", "-3"]),
    ("report", ["--mc", "8"], "--seed", ["7"]),
    ("eval", [], "--point", ["u=0:v=1", "u=:v=01", "seed=5"]),
]
_FLAG_MUTATION = st.tuples(st.integers(0, 10**6), st.integers(0, 2),
                           st.sampled_from(list("0123456789w^*+,-=:uv x") + ["٣", "\xa0"]))


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(_FLAG_CASES), st.integers(0, 4), st.lists(_FLAG_MUTATION, max_size=2),
       st.sampled_from(_FLAG_EXPRS))
@example(_FLAG_CASES[0], 4, [], "cyl(0)")  # --rank <5000 nines>
@example(_FLAG_CASES[0], 3, [(4, 2, _NINES)], "cyl(0)")  # --rank w^2*<5000 nines>+w+1
@example(_FLAG_CASES[1], 4, [], "cyl(0)")  # --budget <5000 nines>
@example(_FLAG_CASES[1], 2, [(1, 0, "^" + _NINES)], "cyl(0)")  # --budget w^<5000 nines>
def test_cli_keeps_its_exit_codes_on_any_flag_value(case, pick, edits, expr):
    """--rank, --budget, --depth, --mc, --seed and --point values, valid and
    mutated, on small expressions: a documented exit code, no traceback, and
    the same stdout on a rerun.  Mutations change at most two characters of
    a value of a few, so numbers stay small unless they are past the
    int/str limit: decorate's rank chains are as long as a finite --budget,
    and the --mc and --depth limits have tests of their own."""
    verb, needs, flag, values = case
    values = values + [_NINES]
    argv = [verb, expr, *needs, flag, _mutated(values[pick % len(values)], edits)]
    rc, out, err = _run_cli(argv)
    assert rc in (0, 2, 3, 4, 5), (argv, err)
    assert "Traceback" not in err
    assert _run_cli(argv)[:2] == (rc, out)
