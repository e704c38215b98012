"""Expression language for Borel codes and the JSON tree form.

Grammar (LL(1), one token of lookahead):

    expr := cyl ( bits ) | empty | full
          | union ( expr {, expr} ) | inter ( expr {, expr} )
          | compl ( expr )
          | reloc ( nat , expr )
          | bigunion ( ident , nat , nat , expr )

reloc and bigunion are surface syntax only: both expand while parsing, so
the resulting code contains just leaves, unions, intersections, and
complements.  Inside a bigunion body, $ident substitutes the running index
wherever a nat is expected; the bounds are inclusive.  A reloc index above
MAX_RELOC_INDEX is a validation error, raised before its prefix is built,
and so is an expression that builds more than MAX_CODE_NODES nodes or
MAX_CODE_BITS generator bits, and a nat longer than the interpreter's
int/str conversion limit.

One regular expression scans the text into (text, offset) tokens: (),$
punctuation, ASCII digit runs (0-9), read as bits after cyl and as decimal
numbers in nat positions, and words, which start with a letter or _.
Space, tab, CR and LF separate tokens; any other character, other digits
included, is unexpected.  Line and column are worked out from the offset
only when an error names them.

The printer emits one canonical spelling per code: empty and full labels by
name, one cyl per cylinder, multi-cylinder leaves as unions of cyls, and
childless interior nodes by their denotation.  print(parse(t)) == t exactly
when t is such a spelling.
"""

from __future__ import annotations

import re
import sys

from .codes import (
    BorelCode,
    ComplNode,
    InterNode,
    Leaf,
    UnionNode,
    fold,
    normalize_demorgan,
    relocate,
)
from .errors import ParseError, ValidationError
from .ordinals import OrdinalNotation
from .space import ClopenSet

_KEYWORDS = {"cyl", "empty", "full", "union", "inter", "compl", "reloc", "bigunion"}
# reloc(n, ...) prefixes every generator with n + 1 bits
MAX_RELOC_INDEX = 1 << 24
# the most code nodes one expression may build, bigunion expansions and the
# copy each reloc builds of its child included
MAX_CODE_NODES = 1 << 16
# the most generator bits one expression may build: its leaves' bits, and
# reloc(n, ...)'s n + 1 for each generator of its child
MAX_CODE_BITS = 1 << 26

# punctuation, an ASCII digit run, a word, or any other non-blank character
_TOKEN = re.compile(r"[(),$]|[0-9]+|\w+|[^ \t\r\n]")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """(text, offset) pairs, ending with ("", len(text)).  A token starts
    with punctuation, an ASCII digit, a letter or _; anything else is an
    unexpected character."""
    toks = []
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if not (tok[0] in "(),$" or "0" <= tok[0] <= "9" or _is_word(tok)):
            raise ParseError(f"unexpected character {tok[0]!r}", *_line_col(text, m.start()))
        toks.append((tok, m.start()))
    toks.append(("", len(text)))
    return toks


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of an offset; lines end at \\n."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _is_word(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.built = 0  # code nodes built so far
        self.gen_bits = 0  # generator bits built so far

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def where(self, pos: int | None = None) -> tuple[int, int]:
        """Line and column of a token, by default the next one."""
        return _line_col(self.text, self.toks[self.pos if pos is None else pos][1])

    def fail(self, expected: str):
        tok = self.peek()
        where = repr(tok) if tok else "end-of-input"
        raise ParseError(f"at {where}, expecting {expected}", *self.where())

    def expect(self, text: str):
        if self.peek() != text:
            self.fail(repr(text))
        self.pos += 1

    def bits(self) -> str:
        tok = self.peek()
        if "0" <= tok[:1] <= "9":
            if tok.strip("01"):
                raise ParseError(f"bits must be 0/1, got {tok!r}", *self.where())
            self.pos += 1
            return tok
        if tok != ")":
            self.fail("bits or ')'")
        return ""

    def nat(self, env: dict[str, int]) -> int:
        tok = self.peek()
        if "0" <= tok[:1] <= "9":
            try:
                n = int(tok, 10)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise ValidationError(
                    f"{len(tok)}-digit number exceeds the int/str conversion limit of"
                    f" {sys.get_int_max_str_digits()} digits" " (line %d, col %d)" % self.where()
                ) from None
            self.pos += 1
            return n
        if tok != "$":
            self.fail("number or '$'")
        self.pos += 1
        name = self.peek()
        if not _is_word(name):
            self.fail("index name after '$'")
        if name not in env:
            raise ParseError(f"unbound index ${name}", *self.where())
        self.pos += 1
        return env[name]

    def count_nodes(self, n: int) -> None:
        self.built += n
        if self.built > MAX_CODE_NODES:
            raise ValidationError(f"code exceeds MAX_CODE_NODES = {MAX_CODE_NODES} nodes"
                                  " (line %d, col %d)" % self.where())

    def count_bits(self, bits: int) -> None:
        self.gen_bits += bits
        if self.gen_bits > MAX_CODE_BITS:
            raise ValidationError(f"code exceeds MAX_CODE_BITS = {MAX_CODE_BITS} generator bits"
                                  " (line %d, col %d)" % self.where())

    def leaf(self, label: ClopenSet) -> Leaf:
        self.count_bits(sum(map(len, label.generators)))
        return Leaf(label)

    def parse(self) -> BorelCode:
        """One loop over a stack of open forms (keyword, env, argument,
        children): each finished expression goes to the innermost open
        form, which reads its next child or closes and passes its code out."""
        stack: list[tuple[str, dict[str, int], object, list[BorelCode]]] = []
        env: dict[str, int] = {}
        while True:
            kw = self.peek()
            if kw not in _KEYWORDS:
                if not _is_word(kw):
                    self.fail("an expression keyword")
                raise ParseError(f"unknown form {kw!r}", *self.where())
            self.pos += 1
            if kw == "empty":
                code = self.leaf(ClopenSet.empty())
            elif kw == "full":
                code = self.leaf(ClopenSet.full())
            else:
                self.expect("(")
                if kw != "cyl":
                    arg, inner = self.header(kw, env)
                    stack.append((kw, env, arg, []))
                    env = inner
                    continue
                code = self.leaf(ClopenSet.cylinder(self.bits()))
                self.expect(")")
            self.count_nodes(1)
            while stack:
                kw, env, arg, kids = stack[-1]  # a closed child's bindings end with it
                kids.append(code)
                if kw == "bigunion":
                    # rewind to the body once per index; an empty range
                    # still parses it once, at lo, to accept or reject it
                    name, lo, hi, mark = arg
                    if lo + len(kids) <= hi:
                        self.pos = mark
                        env = {**env, name: lo + len(kids)}
                        break
                elif kw in ("union", "inter") and self.peek() == ",":
                    self.pos += 1
                    break
                self.expect(")")
                stack.pop()
                code = self.closed(kw, arg, kids)
                self.count_nodes(1)
            else:
                if self.peek():
                    self.fail("end-of-input")
                return code

    def header(self, kw: str, env: dict[str, int]) -> tuple[object, dict[str, int]]:
        """What a form reads before its first child, and that child's env:
        reloc's index; bigunion's index name, bounds and body position."""
        if kw == "reloc":
            at = self.pos
            n = self.nat(env)
            if n > MAX_RELOC_INDEX:
                raise ValidationError(f"reloc index {n} exceeds MAX_RELOC_INDEX = {MAX_RELOC_INDEX}"
                                      " (line %d, col %d)" % self.where(at))
            self.expect(",")
            return n, env
        if kw == "bigunion":
            name = self.peek()
            if not _is_word(name):
                self.fail("an index name")
            self.pos += 1
            self.expect(",")
            lo = self.nat(env)
            self.expect(",")
            hi = self.nat(env)
            self.expect(",")
            return (name, lo, hi, self.pos), {**env, name: lo}
        return None, env

    def closed(self, kw: str, arg, kids: list[BorelCode]) -> BorelCode:
        """The code of a form whose closing parenthesis has been read.  A
        reloc's child is measured by one fold, so the bits and the nodes of
        its copy are charged before relocate builds them."""
        if kw == "compl":
            return ComplNode(kids[0])
        if kw == "reloc":
            inner = kids[0]
            if not inner.complement_free:
                # relocation rewrites leaf generators, so complements must
                # be pushed down first
                inner = normalize_demorgan(inner)
            gens, nodes = fold(inner, _size)
            self.count_bits((arg + 1) * gens)
            self.count_nodes(nodes)
            return relocate(arg, inner)
        if kw == "bigunion":
            _, lo, hi, _ = arg
            # an empty range parsed its body only to check it
            return UnionNode(tuple(kids) if lo <= hi else ())
        return (UnionNode if kw == "union" else InterNode)(tuple(kids))


def _size(node: BorelCode, kids: list[tuple[int, int]], flip: bool) -> tuple[int, int]:
    """(generators, nodes) of a code."""
    if isinstance(node, Leaf):
        return len(node.label.generators), 1
    return sum(g for g, _ in kids), 1 + sum(n for _, n in kids)


def parse_dsl(text: str) -> BorelCode:
    return _Parser(text).parse()


_KINDS = {Leaf: "leaf", UnionNode: "union", InterNode: "inter", ComplNode: "compl"}


def print_dsl(code: BorelCode) -> str:
    """Canonical spelling; total on all codes, injective on rank-free ones."""
    return fold(code, _spelling)


def _spelling(node: BorelCode, kids: list[str], flip: bool) -> str:
    if isinstance(node, Leaf):
        if node.label.is_empty():
            return "empty"
        if node.label.is_full():
            return "full"
        gens = node.label.generators
        if len(gens) == 1:
            return f"cyl({gens[0]})"
        return "union(" + ",".join(f"cyl({g})" for g in gens) + ")"
    if isinstance(node, ComplNode):
        return f"compl({kids[0]})"
    if not kids:
        return "empty" if isinstance(node, UnionNode) else "full"
    return _KINDS[type(node)] + "(" + ",".join(kids) + ")"


def code_to_json(code: BorelCode) -> dict:
    """Tree form: kind, label (leaves), rank, children, slots."""
    return fold(code, _tree_form)


def _tree_form(node: BorelCode, kids: list[dict], flip: bool) -> dict:
    out: dict = {"kind": _KINDS[type(node)]}
    out["rank"] = str(node.rank) if node.rank is not None else None
    if isinstance(node, Leaf):
        out["label"] = list(node.label.generators)
    else:
        out["children"] = kids
    if isinstance(node, (UnionNode, InterNode)):
        out["slots"] = list(node.slots) if node.slots is not None else None
    return out


def code_from_json(obj: dict) -> BorelCode:
    """Inverse of code_to_json, and the reader of a parse report's code
    field.  Walked with an explicit stack: a node's kind and rank are read
    before its children, the node is built after them.
    A malformed tree, or one of more than MAX_CODE_NODES nodes, is a
    ValidationError."""
    done: list[BorelCode] = []
    todo: list[tuple[object, OrdinalNotation | None, int | None]] = [(obj, None, None)]
    seen = 0
    while todo:
        obj, rank, n = todo.pop()
        if n is not None:  # the node replaces its children's codes
            cut = len(done) - n
            done[cut:] = [_from_json(obj, rank, tuple(done[cut:]))]
            continue
        seen += 1
        if seen > MAX_CODE_NODES:
            raise ValidationError(f"code exceeds MAX_CODE_NODES = {MAX_CODE_NODES} nodes")
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValidationError("code object needs a kind")
        rank_s = obj.get("rank")
        if rank_s is not None and not isinstance(rank_s, str):
            raise ValidationError("rank must be an ordinal notation string or null")
        rank = OrdinalNotation.parse(rank_s) if rank_s is not None else None
        kids = [] if obj["kind"] == "leaf" else obj.get("children", [])
        if not isinstance(kids, list):
            raise ValidationError("children must be a list of code objects")
        todo.append((obj, rank, len(kids)))
        todo += [(c, None, None) for c in reversed(kids)]
    return done[0]


def _from_json(obj: dict, rank: OrdinalNotation | None, kids: tuple) -> BorelCode:
    kind = obj["kind"]
    if kind == "leaf":
        label = obj.get("label", [])
        if not isinstance(label, list) or not all(isinstance(g, str) for g in label):
            raise ValidationError("leaf label must be a list of bit strings")
        return Leaf(ClopenSet(tuple(label)), rank=rank)
    if kind == "compl":
        if len(kids) != 1:
            raise ValidationError("complement takes exactly one child")
        return ComplNode(kids[0], rank=rank)
    slots = obj.get("slots")
    if slots is not None and not (isinstance(slots, list) and all(type(k) is int for k in slots)):
        raise ValidationError("slots must be a list of integers or null")
    slots = tuple(slots) if slots is not None else None
    if kind == "union":
        return UnionNode(kids, rank=rank, slots=slots)
    if kind == "inter":
        return InterNode(kids, rank=rank, slots=slots)
    raise ValidationError(f"unknown node kind {kind!r}")
