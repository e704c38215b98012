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
and so is an expression that builds more than MAX_CODE_NODES nodes.
ASCII digit runs (0-9) are read as bits after cyl and as decimal numbers in
nat positions; any other digit is an unexpected character.

The printer emits one canonical spelling per code: empty and full labels by
name, one cyl per cylinder, multi-cylinder leaves as unions of cyls, and
childless interior nodes by their denotation.  print(parse(t)) == t exactly
when t is such a spelling.
"""

from __future__ import annotations

from dataclasses import dataclass

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
_DIGITS = "0123456789"
# reloc(n, ...) prefixes every generator with n + 1 bits
MAX_RELOC_INDEX = 1 << 24
# the most code nodes one expression may build, bigunion expansions included
MAX_CODE_NODES = 1 << 16


@dataclass(frozen=True)
class _Token:
    kind: str  # word | digits | punct | end
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch in "(),$":
            toks.append(_Token("punct", ch, line, col))
            col += 1
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(_Token("digits", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("word", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("end", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.built = 0  # code nodes built so far

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, expected: str):
        t = self.peek()
        where = "end-of-input" if t.kind == "end" else repr(t.text)
        raise ParseError(f"at {where}, expecting {expected}", t.line, t.col)

    def expect(self, text: str):
        t = self.peek()
        if (t.kind == "punct" or t.kind == "word") and t.text == text:
            return self.take()
        self.fail(repr(text))

    def bits(self) -> str:
        t = self.peek()
        if t.kind == "digits":
            self.take()
            if any(c not in "01" for c in t.text):
                raise ParseError(f"bits must be 0/1, got {t.text!r}", t.line, t.col)
            return t.text
        if t.kind == "punct" and t.text == ")":
            return ""
        self.fail("bits or ')'")

    def nat(self, env: dict[str, int]) -> int:
        t = self.peek()
        if t.kind == "digits":
            self.take()
            return int(t.text, 10)
        if t.kind == "punct" and t.text == "$":
            self.take()
            name = self.peek()
            if name.kind != "word":
                self.fail("index name after '$'")
            self.take()
            if name.text not in env:
                raise ParseError(f"unbound index ${name.text}", name.line, name.col)
            return env[name.text]
        self.fail("number or '$'")

    def count_node(self) -> None:
        self.built += 1
        if self.built > MAX_CODE_NODES:
            t = self.peek()
            raise ValidationError(f"code exceeds MAX_CODE_NODES = {MAX_CODE_NODES} nodes"
                                  f" (line {t.line}, col {t.col})")

    def parse(self) -> BorelCode:
        """One loop over a stack of open forms (keyword, env, argument,
        children): each finished expression goes to the innermost open
        form, which reads its next child or closes and passes its code out."""
        stack: list[tuple[str, dict[str, int], object, list[BorelCode]]] = []
        env: dict[str, int] = {}
        while True:
            t = self.peek()
            if t.kind != "word":
                self.fail("an expression keyword")
            if t.text not in _KEYWORDS:
                raise ParseError(f"unknown form {t.text!r}", t.line, t.col)
            self.take()
            kw = t.text
            if kw == "empty":
                code = Leaf(ClopenSet.empty())
            elif kw == "full":
                code = Leaf(ClopenSet.full())
            else:
                self.expect("(")
                if kw != "cyl":
                    arg, inner = self.header(kw, env)
                    stack.append((kw, env, arg, []))
                    env = inner
                    continue
                code = Leaf(ClopenSet.cylinder(self.bits()))
                self.expect(")")
            self.count_node()
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
                elif kw in ("union", "inter") and self.peek().kind == "punct" and self.peek().text == ",":
                    self.take()
                    break
                self.expect(")")
                stack.pop()
                code = _closed(kw, arg, kids)
                self.count_node()
            else:
                if self.peek().kind != "end":
                    self.fail("end-of-input")
                return code

    def header(self, kw: str, env: dict[str, int]) -> tuple[object, dict[str, int]]:
        """What a form reads before its first child, and that child's env:
        reloc's index; bigunion's index name, bounds and body position."""
        if kw == "reloc":
            t = self.peek()
            n = self.nat(env)
            if n > MAX_RELOC_INDEX:
                raise ValidationError(f"reloc index {n} exceeds MAX_RELOC_INDEX = {MAX_RELOC_INDEX}"
                                      f" (line {t.line}, col {t.col})")
            self.expect(",")
            return n, env
        if kw == "bigunion":
            name = self.peek()
            if name.kind != "word":
                self.fail("an index name")
            self.take()
            self.expect(",")
            lo = self.nat(env)
            self.expect(",")
            hi = self.nat(env)
            self.expect(",")
            return (name.text, lo, hi, self.pos), {**env, name.text: lo}
        return None, env


def _closed(kw: str, arg, kids: list[BorelCode]) -> BorelCode:
    """The code of a form whose closing parenthesis has been read."""
    if kw == "compl":
        return ComplNode(kids[0])
    if kw == "reloc":
        # relocation rewrites leaf generators, so complements must be
        # pushed down first
        inner = kids[0] if kids[0].complement_free else normalize_demorgan(kids[0])
        return relocate(arg, inner)
    if kw == "bigunion":
        _, lo, hi, _ = arg
        return UnionNode(tuple(kids) if lo <= hi else ())
    return (UnionNode if kw == "union" else InterNode)(tuple(kids))


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
    """Inverse of code_to_json, walked with an explicit stack: a node's kind
    and rank are read before its children, the node is built after them."""
    done: list[BorelCode] = []
    todo: list[tuple[object, OrdinalNotation | None, int | None]] = [(obj, None, None)]
    while todo:
        obj, rank, n = todo.pop()
        if n is not None:  # the node replaces its children's codes
            cut = len(done) - n
            done[cut:] = [_from_json(obj, rank, tuple(done[cut:]))]
            continue
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValidationError("code object needs a kind")
        rank_s = obj.get("rank")
        rank = OrdinalNotation.parse(rank_s) if rank_s is not None else None
        kids = [] if obj["kind"] == "leaf" else list(obj.get("children", []))
        todo.append((obj, rank, len(kids)))
        todo += [(c, None, None) for c in reversed(kids)]
    return done[0]


def _from_json(obj: dict, rank: OrdinalNotation | None, kids: tuple) -> BorelCode:
    kind = obj["kind"]
    if kind == "leaf":
        return Leaf(ClopenSet(tuple(obj.get("label", []))), rank=rank)
    if kind == "compl":
        if len(kids) != 1:
            raise ValidationError("complement takes exactly one child")
        return ComplNode(kids[0], rank=rank)
    slots = obj.get("slots")
    slots = tuple(slots) if slots is not None else None
    if kind == "union":
        return UnionNode(kids, rank=rank, slots=slots)
    if kind == "inter":
        return InterNode(kids, rank=rank, slots=slots)
    raise ValidationError(f"unknown node kind {kind!r}")
