"""Group-word expressions over a chosen instance.

Grammar (whitespace free between tokens, * left-associative, ^ binds
tighter):

    expr := term { "*" term }
    term := atom [ "^" signed-int ]
    atom := generator | literal | "(" expr ")"
          | "inv" "(" expr ")" | "embed" "(" expr ")"
          | "psi" "(" target "," expr ")"

Brackets nest at most MAX_NESTING deep.  Literals use the instance text
formats (decimal integers, "(3/4; -2)", "[[1,0],[1,1]]", "(1 2)(3 4)",
"#5").  Evaluation distinguishes exact group words from truncated
completion values: a plain word multiplies out exactly in G and only the
final result is embedded at the requested depth, while inv(...) and
embed(...) force completion-level arithmetic immediately.  An exact word
on the left of a truncated value translates its coset exactly,
g·(rep·N_d) = (g·rep)·N_d, and costs no depth; on the right it is
embedded at the truncated side's depth and conjugates the chain.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from .core import CommensuratedPair, CompletionElement

__all__ = [
    "ExprError",
    "PsiValue",
    "parse_expression",
    "render",
    "evaluate",
]


class ExprError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


# Every token kind but LIT, in the order tokenize tries them after the
# instance's literal pattern.
_TOKENS = (
    r"(?P<NAME>[A-Za-z_][A-Za-z0-9_]*(?::[A-Za-z0-9_]+)*)|(?P<INT>-?\d+)"
    r"|(?P<STAR>\*)|(?P<CARET>\^)|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<COMMA>,)"
    r"|(?P<SPACE>\s+)|(?P<BAD>(?s:.))"
)


class Token(NamedTuple):
    kind: str
    text: str
    pos: int


@functools.cache  # keyed by the few module-level literal patterns
def _scanner(literal_pattern: Optional[re.Pattern]) -> re.Pattern:
    if literal_pattern is None:
        return re.compile(_TOKENS)
    return re.compile(f"(?P<LIT>{literal_pattern.pattern})|{_TOKENS}")


def tokenize(src: str, pair: CommensuratedPair) -> list[Token]:
    out = []
    for m in _scanner(pair.literal_pattern).finditer(src):
        kind = m.lastgroup
        if kind == "SPACE":
            continue
        if kind == "BAD":
            raise ExprError(f"unexpected character {m.group()!r}", m.start())
        out.append(Token(kind, m.group(), m.start()))
    out.append(Token("END", "", len(src)))
    return out


# AST ------------------------------------------------------------------------

@dataclass(frozen=True)
class Gen:
    name: str
    pos: int

@dataclass(frozen=True)
class Lit:
    text: str
    pos: int

@dataclass(frozen=True)
class IntLit:
    value: int
    pos: int

@dataclass(frozen=True)
class Pow:
    base: Any
    exp: int
    pos: int

@dataclass(frozen=True)
class Prod:
    factors: tuple
    pos: int

@dataclass(frozen=True)
class Call:
    func: str
    target: Optional[str]
    arg: Any
    pos: int


#: Deepest bracket nesting the parser accepts.  Parsing and evaluation
#: recurse a few frames per level, so this stays far below Python's
#: recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token], pair: CommensuratedPair):
        self.tokens = tokens
        self.pair = pair
        self.i = 0
        self.nesting = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self, kind: str, what: str) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            raise ExprError(f"expected {what}", tok.pos)
        self.i += 1
        return tok

    def bracketed(self, pos: int):
        """The expr up to the next ')', after a '(' opened at pos."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ExprError(f"expression nests deeper than {MAX_NESTING} brackets", pos)
        node = self.expr()
        self.take("RPAREN", "')'")
        self.nesting -= 1
        return node

    def parse(self):
        node = self.expr()
        tail = self.peek()
        if tail.kind != "END":
            raise ExprError(f"unexpected {tail.text!r}", tail.pos)
        return node

    def expr(self):
        first = self.term()
        factors = [first]
        while self.peek().kind == "STAR":
            self.i += 1
            factors.append(self.term())
        if len(factors) == 1:
            return first
        return Prod(tuple(factors), factors[0].pos)

    def term(self):
        base = self.atom()
        if self.peek().kind == "CARET":
            self.i += 1
            exp = self.take("INT", "an integer exponent")
            return Pow(base, int(exp.text), base.pos)
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "LIT":
            self.i += 1
            return Lit(tok.text, tok.pos)
        if tok.kind == "INT":
            self.i += 1
            return IntLit(int(tok.text), tok.pos)
        if tok.kind == "LPAREN":
            self.i += 1
            return self.bracketed(tok.pos)
        if tok.kind == "NAME":
            self.i += 1
            if tok.text in ("inv", "embed"):
                paren = self.take("LPAREN", "'(' after " + tok.text)
                return Call(tok.text, None, self.bracketed(paren.pos), tok.pos)
            if tok.text == "psi":
                paren = self.take("LPAREN", "'(' after psi")
                target = self.take("NAME", "a target name")
                self.take("COMMA", "','")
                return Call("psi", target.text, self.bracketed(paren.pos), tok.pos)
            if tok.text in self.pair.generators:
                return Gen(tok.text, tok.pos)
            raise ExprError(f"unknown generator {tok.text!r}", tok.pos)
        raise ExprError("expected a generator, literal or '('", tok.pos)


def parse_expression(src: str, pair: CommensuratedPair):
    """AST for src against the instance's generators and literal format."""
    return _Parser(tokenize(src, pair), pair).parse()


def render(node) -> str:
    """Canonical text for an AST; parsing it back yields the same render."""
    if isinstance(node, Gen):
        return node.name
    if isinstance(node, Lit):
        return node.text
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, Pow):
        base = render(node.base)
        if isinstance(node.base, Prod):
            base = f"({base})"
        return f"{base}^{node.exp}"
    if isinstance(node, Prod):
        parts = []
        for factor in node.factors:
            text = render(factor)
            parts.append(f"({text})" if isinstance(factor, Prod) else text)
        return "*".join(parts)
    if isinstance(node, Call):
        if node.func == "psi":
            return f"psi({node.target}, {render(node.arg)})"
        return f"{node.func}({render(node.arg)})"
    raise TypeError(f"unknown node {node!r}")


# evaluation -------------------------------------------------------------------

@dataclass(frozen=True)
class PsiValue:
    """Result of a psi(...) expression: a target-group value."""

    target: str
    value: Any


def evaluate(src: str, pair: CommensuratedPair, depth: int):
    """Parse and evaluate src at the requested depth.

    A sub-expression's value is a group element (an exact word), a
    CompletionElement or a PsiValue; its type says which.  The result is
    a CompletionElement, or a PsiValue for a top-level psi.
    """
    pair.check_depth(depth)

    def truncated(value):
        """value as a completion value: exact words embed at the requested depth."""
        if isinstance(value, (CompletionElement, PsiValue)):
            return value
        return pair.embed(value, depth)

    def value_of(node):
        if isinstance(node, Gen):
            return pair.generators[node.name]
        try:
            if isinstance(node, Lit):
                return pair.parse_literal(node.text)
            if isinstance(node, IntLit):
                return pair.int_literal(node.value)
        except ValueError as err:
            raise ExprError(str(err), node.pos) from None
        if isinstance(node, Pow):
            value = value_of(node.base)
            if isinstance(value, PsiValue):
                raise ExprError("psi(...) cannot be raised to a power", node.pos)
            if isinstance(value, CompletionElement):
                return value ** node.exp
            return pair.power(value, node.exp)
        if isinstance(node, Prod):
            value = value_of(node.factors[0])
            for factor in node.factors[1:]:
                value = times(value, value_of(factor), node.pos)
            return value
        # a Call: inv, embed or psi
        value = value_of(node.arg)
        if isinstance(value, PsiValue):
            raise ExprError(f"psi(...) cannot be passed to {node.func}", node.pos)
        if node.func == "inv":
            return truncated(value).inverse()
        if node.func == "embed":
            return truncated(value)  # a truncated value has nothing to refine
        try:
            target = pair.target(node.target)
        except KeyError as err:
            detail = err.args[0] if err.args else f"unknown target {node.target!r}"
            raise ExprError(str(detail), node.pos) from None
        return PsiValue(node.target, target.evaluate(truncated(value)))

    def times(left, right, pos):
        if isinstance(left, PsiValue) or isinstance(right, PsiValue):
            raise ExprError("psi(...) cannot appear inside a product", pos)
        if isinstance(left, CompletionElement):
            if isinstance(right, CompletionElement):
                return left * right
            return left * pair.embed(right, left.depth)
        if isinstance(right, CompletionElement):
            return right.left_mul(left)
        return pair.mul(left, right)

    return truncated(value_of(parse_expression(src, pair)))
