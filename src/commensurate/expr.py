"""Group-word expressions over a chosen instance.

Grammar (whitespace free between tokens, * left-associative, ^ binds
tighter):

    expr := term { "*" term }
    term := atom [ "^" signed-int ]
    atom := generator | literal | "(" expr ")"
          | "inv" "(" expr ")" | "embed" "(" expr ")"
          | "psi" "(" target "," expr ")"

Brackets nest at most MAX_NESTING deep.  The instance's parse_literal
reads every literal, a decimal integer included, in its own text format
("5", "(3/4; -2)", "[[1,0],[1,1]]", "(1 2)(3 4)", "#5"), each distinct
text once per evaluation.  Evaluation distinguishes exact group words
from truncated completion values: a plain word multiplies out exactly in
G and only the final result is embedded at the requested depth, while
inv(...) and embed(...) force completion-level arithmetic immediately.
An exact word on the left of a truncated value translates its coset
exactly, g·(rep·N_d) = (g·rep)·N_d, and costs no depth; on the right it
is embedded at the truncated side's depth and conjugates the chain.
"""

from __future__ import annotations

import functools
import re
from typing import Any, NamedTuple, Optional

from .core import CommensuratedPair, CompletionElement, quoted, read_int

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

#: A token: (kind, text, position in the source).
Token = tuple[str, str, int]


@functools.cache  # keyed by the few module-level literal patterns
def _scanner(literal_pattern: Optional[re.Pattern]) -> re.Pattern:
    if literal_pattern is None:
        return re.compile(_TOKENS)
    return re.compile(f"(?P<LIT>{literal_pattern.pattern})|{_TOKENS}")


def tokenize(src: str, pair: CommensuratedPair) -> list[Token]:
    """The tokens of src without whitespace, ending in an END token."""
    tokens = []
    for m in _scanner(pair.literal_pattern).finditer(src):
        kind = m.lastgroup
        if kind == "SPACE":
            continue
        if kind == "BAD":
            raise ExprError(f"unexpected character {m[0]!r}", m.start())
        tokens.append((kind, m[0], m.start()))
    tokens.append(("END", "", len(src)))
    return tokens


# AST ------------------------------------------------------------------------
# Nodes are built once per parse and never hashed or mutated.  They are plain
# slotted classes, equal when their class and every field match, so that
# Gen("a", 0) != Lit("a", 0).

class _Node:
    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Gen(_Node):
    __slots__ = ("name", "pos")

    def __init__(self, name: str, pos: int):
        self.name, self.pos = name, pos


class Lit(_Node):
    __slots__ = ("text", "pos")

    def __init__(self, text: str, pos: int):
        self.text, self.pos = text, pos


class Pow(_Node):
    __slots__ = ("base", "exp", "pos")

    def __init__(self, base: _Node, exp: int, pos: int):
        self.base, self.exp, self.pos = base, exp, pos


class Prod(_Node):
    __slots__ = ("factors", "pos")

    def __init__(self, factors: tuple, pos: int):
        self.factors, self.pos = factors, pos


class Call(_Node):
    __slots__ = ("func", "target", "arg", "pos")

    def __init__(self, func: str, target: Optional[str], arg: _Node, pos: int):
        self.func, self.target, self.arg, self.pos = func, target, arg, pos


#: Deepest bracket nesting the parser accepts.  Parsing and evaluation
#: recurse a few frames per level, so this stays far below Python's
#: recursion limit.
MAX_NESTING = 100

# names that open a call rather than name a generator
_FUNCTIONS = frozenset(("inv", "embed", "psi"))


class _Parser:
    """Recursive descent over the token list and its parallel list of kinds."""

    def __init__(self, tokens: list[Token], pair: CommensuratedPair):
        self.tokens = tokens
        self.kinds = [tok[0] for tok in tokens]
        self.generators = pair.generators
        self.i = 0
        self.nesting = 0

    def take(self, kind: str, what: str) -> Token:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ExprError(f"expected {what}", tok[2])
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
        kind, text, pos = self.tokens[self.i]
        if kind != "END":
            raise ExprError(f"unexpected {quoted(text)}", pos)
        return node

    def expr(self):
        node = self.term()
        kinds = self.kinds
        if kinds[self.i] != "STAR":
            return node
        factors = [node]
        while kinds[self.i] == "STAR":
            self.i += 1
            factors.append(self.term())
        return Prod(tuple(factors), node.pos)

    def term(self):
        base = self.atom()
        if self.kinds[self.i] != "CARET":
            return base
        self.i += 1
        _, text, pos = self.take("INT", "an integer exponent")
        try:
            return Pow(base, read_int(text), base.pos)
        except ValueError as err:
            raise ExprError(str(err), pos) from None

    def atom(self):
        kind, text, pos = self.tokens[self.i]
        self.i += 1
        if kind == "NAME":
            if text not in _FUNCTIONS:
                if text in self.generators:
                    return Gen(text, pos)
                raise ExprError(f"unknown generator {quoted(text)}", pos)
            paren = self.take("LPAREN", "'(' after " + text)
            if text != "psi":
                return Call(text, None, self.bracketed(paren[2]), pos)
            target = self.take("NAME", "a target name")
            self.take("COMMA", "','")
            return Call("psi", target[1], self.bracketed(paren[2]), pos)
        if kind == "LIT" or kind == "INT":  # an integer is read by the instance too
            return Lit(text, pos)
        if kind == "LPAREN":
            return self.bracketed(pos)
        raise ExprError("expected a generator, literal or '('", pos)


def parse_expression(src: str, pair: CommensuratedPair):
    """AST for src against the instance's generators and literal format."""
    return _Parser(tokenize(src, pair), pair).parse()


def render(node) -> str:
    """Canonical text for an AST; parsing it back yields the same render."""
    if isinstance(node, Gen):
        return node.name
    if isinstance(node, Lit):
        return node.text
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

_UNREAD = object()  # marks a literal text that evaluate has not read yet


class PsiValue(NamedTuple):
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
    # the value of each literal text read so far; a failed read is not kept,
    # so a bad literal fails at its first occurrence
    literals = {}

    def truncated(value):
        """value as a completion value: exact words embed at the requested depth."""
        if isinstance(value, (CompletionElement, PsiValue)):
            return value
        return pair.embed(value, depth)

    def value_of(node):
        if isinstance(node, Gen):
            return pair.generators[node.name]
        if isinstance(node, Lit):
            value = literals.get(node.text, _UNREAD)
            if value is _UNREAD:
                try:
                    value = literals[node.text] = pair.parse_literal(node.text)
                except ValueError as err:
                    raise ExprError(str(err), node.pos) from None
            return value
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
        except ValueError as err:
            raise ExprError(str(err), node.pos) from None
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
