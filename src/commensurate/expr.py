"""Group-word expressions over a chosen instance.

Grammar (whitespace free between tokens, * left-associative, ^ binds
tighter):

    expr := term { "*" term }
    term := atom [ "^" signed-int ]
    atom := generator | literal | "(" expr ")"
          | "inv" "(" expr ")" | "embed" "(" expr ")"
          | "psi" "(" target "," expr ")"

Literals use the instance text formats (decimal integers, "(3/4; -2)",
"[[1,0],[1,1]]", "(1 2)(3 4)", "#5").  Evaluation distinguishes exact
group words from truncated completion values: a plain word multiplies
out exactly in G and only the final result is embedded at the requested
depth, while inv(...) and embed(...) force completion-level arithmetic
immediately.  Mixing an exact word into a truncated product embeds the
word at whatever depth keeps the truncated side's precision intact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Optional

from .core import CommensuratedPair

__all__ = [
    "ExprError",
    "PsiValue",
    "parse_expression",
    "render",
    "evaluate",
    "Evaluator",
]


class ExprError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?::[A-Za-z0-9_]+)*")
_INT = re.compile(r"-?\d+")
_PUNCT = {"*": "STAR", "^": "CARET", "(": "LPAREN", ")": "RPAREN", ",": "COMMA"}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(src: str, pair: CommensuratedPair) -> list[Token]:
    out = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if pair.literal_pattern is not None:
            m = pair.literal_pattern.match(src, i)
            if m is not None:
                out.append(Token("LIT", m.group(0), i))
                i = m.end()
                continue
        m = _NAME.match(src, i)
        if m is not None:
            out.append(Token("NAME", m.group(0), i))
            i = m.end()
            continue
        m = _INT.match(src, i)
        if m is not None:
            out.append(Token("INT", m.group(0), i))
            i = m.end()
            continue
        if ch in _PUNCT:
            out.append(Token(_PUNCT[ch], ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    out.append(Token("END", "", n))
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


class _Parser:
    def __init__(self, tokens: list[Token], pair: CommensuratedPair):
        self.tokens = tokens
        self.pair = pair
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self, kind: str, what: str) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            raise ExprError(f"expected {what}", tok.pos)
        self.i += 1
        return tok

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
            tok = self.peek()
            if tok.kind != "INT":
                raise ExprError("expected an integer exponent", tok.pos)
            self.i += 1
            return Pow(base, int(tok.text), base.pos)
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
            node = self.expr()
            self.take("RPAREN", "')'")
            return node
        if tok.kind == "NAME":
            self.i += 1
            if tok.text in ("inv", "embed"):
                self.take("LPAREN", "'(' after " + tok.text)
                node = self.expr()
                self.take("RPAREN", "')'")
                return Call(tok.text, None, node, tok.pos)
            if tok.text == "psi":
                self.take("LPAREN", "'(' after psi")
                target = self.take("NAME", "a target name")
                self.take("COMMA", "','")
                node = self.expr()
                self.take("RPAREN", "')'")
                return Call("psi", target.text, node, tok.pos)
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


_EXACT, _TRUNC = "exact", "trunc"


class Evaluator:
    def __init__(self, pair: CommensuratedPair, depth: int, target_resolver):
        pair.check_depth(depth)
        self.pair = pair
        self.depth = depth
        self.target_resolver = target_resolver

    def run(self, node):
        """Evaluate to a CompletionElement (or PsiValue for top-level psi)."""
        tag, value = self._eval(node)
        if tag == _EXACT:
            return self.pair.embed(value, self.depth)
        return value  # CompletionElement or PsiValue

    def _eval(self, node):
        pair = self.pair
        if isinstance(node, Gen):
            return _EXACT, pair.generators[node.name]
        if isinstance(node, Lit):
            try:
                return _EXACT, pair.parse_literal(node.text)
            except ValueError as err:
                raise ExprError(str(err), node.pos) from None
        if isinstance(node, IntLit):
            try:
                return _EXACT, pair.int_literal(node.value)
            except ValueError as err:
                raise ExprError(str(err), node.pos) from None
        if isinstance(node, Pow):
            return self._pow(node)
        if isinstance(node, Prod):
            tag, value = self._eval(node.factors[0])
            for factor in node.factors[1:]:
                tag, value = self._mul((tag, value), self._eval(factor), node.pos)
            return tag, value
        if isinstance(node, Call):
            return self._call(node)
        raise TypeError(f"unknown node {node!r}")

    def _pow(self, node: Pow):
        pair = self.pair
        tag, value = self._eval(node.base)
        k = node.exp
        if tag == _EXACT:
            # square-and-multiply: exact arithmetic is associative, so this
            # equals the k-fold product
            out = pair.identity
            base = value if k >= 0 else pair.inv(value)
            k = abs(k)
            while k:
                if k & 1:
                    out = pair.mul(out, base)
                k >>= 1
                if k:
                    base = pair.mul(base, base)
            return _EXACT, out
        if tag != _TRUNC:
            raise ExprError("psi(...) cannot be raised to a power", node.pos)
        if k == 0:
            return _TRUNC, pair.embed(pair.identity, value.depth)
        base = value if k > 0 else value.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return _TRUNC, out

    def _mul(self, left, right, pos):
        pair = self.pair
        ltag, lval = left
        rtag, rval = right
        if ltag == "psi" or rtag == "psi":
            raise ExprError("psi(...) cannot appear inside a product", pos)
        if ltag == _EXACT and rtag == _EXACT:
            return _EXACT, pair.mul(lval, rval)
        if ltag == _EXACT:
            # embed the exact word just deep enough not to cost the
            # truncated side any depth
            lifted = pair.embed(lval, pair.conj_depth(rval.rep, rval.depth))
            return _TRUNC, lifted * rval
        if rtag == _EXACT:
            return _TRUNC, lval * pair.embed(rval, lval.depth)
        return _TRUNC, lval * rval

    def _call(self, node: Call):
        pair = self.pair
        tag, value = self._eval(node.arg)
        if tag == "psi":
            raise ExprError(f"psi(...) cannot be passed to {node.func}", node.pos)
        if node.func == "inv":
            if tag == _EXACT:
                value = pair.embed(value, self.depth)
            return _TRUNC, value.inverse()
        if node.func == "embed":
            if tag == _EXACT:
                return _TRUNC, pair.embed(value, self.depth)
            return _TRUNC, value  # already truncated: nothing to refine
        if node.func == "psi":
            try:
                target = self.target_resolver(pair, node.target)
            except KeyError as err:
                detail = err.args[0] if err.args else f"unknown target {node.target!r}"
                raise ExprError(str(detail), node.pos) from None
            if tag == _EXACT:
                value = pair.embed(value, self.depth)
            return "psi", PsiValue(node.target, target.evaluate(value))
        raise TypeError(f"unknown call {node.func!r}")


def evaluate(src: str, pair: CommensuratedPair, depth: int, target_resolver):
    """Parse and evaluate src at the requested depth."""
    return Evaluator(pair, depth, target_resolver).run(parse_expression(src, pair))
