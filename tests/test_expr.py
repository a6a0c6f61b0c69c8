"""Parsing and evaluation of group-word expressions."""

import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from commensurate import (
    BS12Pair,
    CompletionElement,
    ContractViolation,
    DyadicAffine,
    FactorialChainPair,
    IntegerChainPair,
    PrecisionExhausted,
    SL2Pair,
)
from commensurate.expr import (
    MAX_NESTING,
    Call,
    ExprError,
    Gen,
    Lit,
    Pow,
    Prod,
    PsiValue,
    evaluate,
    parse_expression,
    render,
    tokenize,
)
from commensurate.registry import resolve_target
from contract import pair_named

BS = BS12Pair()
Z2 = IntegerChainPair(2)
SL2 = SL2Pair(2)


def ev(src, pair, depth=8):
    return evaluate(src, pair, depth)


# --- parsing ------------------------------------------------------------------

def test_parse_product_of_three():
    node = parse_expression("t*a*t^-1", BS)
    assert render(node) == "t*a^1*t^-1".replace("^1", "")  # sanity on shape


def test_parse_error_position():
    with pytest.raises(ExprError) as err:
        parse_expression("t**a", BS)
    assert err.value.pos == 2


def test_parse_unknown_generator():
    with pytest.raises(ExprError, match="unknown generator"):
        parse_expression("t*b", BS)


def test_parse_unbalanced():
    with pytest.raises(ExprError):
        parse_expression("inv(a", BS)
    with pytest.raises(ExprError):
        parse_expression("(a*t", BS)
    with pytest.raises(ExprError):
        parse_expression("a^t", BS)
    with pytest.raises(ExprError):
        parse_expression("", BS)


def test_nesting_limit():
    deepest = "inv(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert render(parse_expression(deepest, BS)) == deepest
    with pytest.raises(ExprError, match="nests deeper") as err:
        parse_expression("(" + deepest + ")", BS)
    assert err.value.pos == len("inv(" * (MAX_NESTING - 1)) + 4
    assert ev("embed(" * MAX_NESTING + "a" + ")" * MAX_NESTING, BS).depth == 8


def test_parse_trailing_junk():
    with pytest.raises(ExprError):
        parse_expression("a a", BS)


def test_literals_per_instance(s4_pair, z8_pair):
    assert ev("(3/4; -2)", BS).rep == DyadicAffine(Fraction(3, 4), -2)
    assert ev("13", Z2).rep == 13
    assert ev("[[1,0],[1,1]]", SL2).rep == SL2.generators["l"]
    assert s4_pair.format_element(ev("(1 2)(3 4)", s4_pair, 2).rep) == "(1 2)(3 4)"
    assert ev("#5", z8_pair, 3).rep == 5
    with pytest.raises(ExprError):
        ev("3", BS)  # bare integers are not bs12 elements


def test_grouping_parens_vs_perm_literals(s4_pair):
    f = ev("((1 2)*(1 3))^2", s4_pair, 2)
    # (1 2)(1 3) = (1 3 2) composing right to left; squared gives (1 2 3)
    assert s4_pair.format_element(f.rep) == "(1 2 3)"


def test_render_round_trip(s4_pair):
    cases = [
        ("t*a*t^-1*a^-2", BS),
        ("inv(a^3*t^2)", BS),
        ("embed(5)*embed(6)", Z2),
        ("psi(mod:8, embed(13))", Z2),
        ("(a*t)^3*inv(t)", BS),
        ("[[1,1],[0,1]]*h^-2", SL2),
        ("(1 2)*(1 2 3)^2", s4_pair),
    ]
    for src, pair in cases:
        once = render(parse_expression(src, pair))
        again = render(parse_expression(once, pair))
        assert once == again


# The three-regex scan that tokenize's single alternation replaced, kept as
# the reference for its token streams and errors.
_REF_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?::[A-Za-z0-9_]+)*")
_REF_INT = re.compile(r"-?\d+")
_REF_PUNCT = {"*": "STAR", "^": "CARET", "(": "LPAREN", ")": "RPAREN", ",": "COMMA"}


def reference_tokenize(src, pair):
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
                out.append(("LIT", m.group(0), i))
                i = m.end()
                continue
        m = _REF_NAME.match(src, i)
        if m is not None:
            out.append(("NAME", m.group(0), i))
            i = m.end()
            continue
        m = _REF_INT.match(src, i)
        if m is not None:
            out.append(("INT", m.group(0), i))
            i = m.end()
            continue
        if ch in _REF_PUNCT:
            out.append((_REF_PUNCT[ch], ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    out.append(("END", "", n))
    return out


def _token_stream(scan, src, pair):
    try:
        return [tuple(tok) for tok in scan(src, pair)]
    except ExprError as err:
        return str(err)


_LITERAL_STYLES = {
    "bs12": BS,
    "sl2:3": SL2Pair(3),
    "z2": Z2,
    "s4": pair_named("s4"),
    "z8": pair_named("z8"),
}
_FRAGMENTS = [
    *"*^(),:_-/;[]#.0123456789 atuhlinvembdpsxz",
    "\t", "\x1c", "\u3000", "\u00e9", "\u0663",
    "inv(", "embed(", "psi(", "mod:8", "texp", "(3/4; -2)", "(1 / 2;3)", "(1;",
    "[[1,0],[1,1]]", "[[1/2, 0], [0, 2]]", "[[1,0]", "(1 2)(3 4)", "( )", "(1 2", "#5", "#",
]


@pytest.mark.parametrize("instance", list(_LITERAL_STYLES))
@given(src=st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join))
@example(src="a  \t\n*\u3000\u3000t ^ -2   ")  # whitespace runs, inside and at the end
@example(src="a * \t $t")  # a bad character after whitespace
@example(src="a*t^2\u00e9")  # a bad character at the end
@example(src="  \x1c\t")  # whitespace alone
def test_tokenize_matches_reference_scan(instance, src):
    pair = _LITERAL_STYLES[instance]
    assert _token_stream(tokenize, src, pair) == _token_stream(reference_tokenize, src, pair)


def test_tokenize_skips_whitespace_and_names_the_first_bad_character():
    assert tokenize(" a \t*\u3000 t ", BS) == [
        ("NAME", "a", 1), ("STAR", "*", 4), ("NAME", "t", 7), ("END", "", 9)]
    for src, message in [
        ("a *  $t", "unexpected character '$' at position 5"),
        ("a*t$", "unexpected character '$' at position 3"),
        ("a $ t \u00e9", "unexpected character '$' at position 2"),
    ]:
        with pytest.raises(ExprError) as err:
            tokenize(src, BS)
        assert str(err.value) == message


class _ReferenceParser:
    """The recursive-descent parser that peeked one token at a time, kept as
    the reference for parse_expression's trees and errors."""

    def __init__(self, tokens, pair):
        self.tokens = tokens
        self.pair = pair
        self.i = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind, what):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ExprError(f"expected {what}", tok[2])
        self.i += 1
        return tok

    def bracketed(self, pos):
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ExprError(f"expression nests deeper than {MAX_NESTING} brackets", pos)
        node = self.expr()
        self.take("RPAREN", "')'")
        self.nesting -= 1
        return node

    def parse(self):
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "END":
            raise ExprError(f"unexpected {text!r}", pos)
        return node

    def expr(self):
        first = self.term()
        factors = [first]
        while self.peek()[0] == "STAR":
            self.i += 1
            factors.append(self.term())
        if len(factors) == 1:
            return first
        return Prod(tuple(factors), factors[0].pos)

    def term(self):
        base = self.atom()
        if self.peek()[0] == "CARET":
            self.i += 1
            exp = self.take("INT", "an integer exponent")
            return Pow(base, int(exp[1]), base.pos)
        return base

    def atom(self):
        kind, text, pos = self.peek()
        if kind in ("LIT", "INT"):
            self.i += 1
            return Lit(text, pos)
        if kind == "LPAREN":
            self.i += 1
            return self.bracketed(pos)
        if kind == "NAME":
            self.i += 1
            if text in ("inv", "embed"):
                paren = self.take("LPAREN", "'(' after " + text)
                return Call(text, None, self.bracketed(paren[2]), pos)
            if text == "psi":
                paren = self.take("LPAREN", "'(' after psi")
                target = self.take("NAME", "a target name")
                self.take("COMMA", "','")
                return Call("psi", target[1], self.bracketed(paren[2]), pos)
            if text in self.pair.generators:
                return Gen(text, pos)
            raise ExprError(f"unknown generator {text!r}", pos)
        raise ExprError("expected a generator, literal or '('", pos)


def reference_parse(src, pair):
    return _ReferenceParser(reference_tokenize(src, pair), pair).parse()


def _tree(parse, src, pair):
    try:
        return parse(src, pair)
    except ExprError as err:
        return str(err)


_PARSE_FRAGMENTS = [*_FRAGMENTS, "^-3", "^", "inv(", "psi(texp,"]


@pytest.mark.parametrize("instance", list(_LITERAL_STYLES))
@given(src=st.lists(st.sampled_from(_PARSE_FRAGMENTS), max_size=12).map("".join))
def test_parse_matches_reference_parser(instance, src):
    pair = _LITERAL_STYLES[instance]
    assert _tree(parse_expression, src, pair) == _tree(reference_parse, src, pair)


_ATOMS = {
    "bs12": ["a", "t", "(3/4; -2)"],
    "sl2:3": ["u", "h", "[[1,0],[1,1]]"],
    "z2": ["5", "-2"],
    "s4": ["(1 2)(3 4)", "(1 3)"],
    "z8": ["#5", "#1"],
}


def _words(atoms):
    """Well-formed words, so that parses mostly succeed and build deep trees."""
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=4).map("*".join),
            st.tuples(inner, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(["(", "inv(", "embed(", "psi(texp, "]), inner).map(
                lambda t: f"{t[0]}{t[1]})"
            ),
        ),
        max_leaves=12,
    )


@pytest.mark.parametrize("instance", list(_LITERAL_STYLES))
@given(data=st.data())
def test_parse_matches_reference_parser_on_words(instance, data):
    pair = _LITERAL_STYLES[instance]
    src = data.draw(_words(_ATOMS[instance]))
    # one spliced fragment turns most words into a syntax error somewhere inside
    if data.draw(st.booleans()):
        cut = data.draw(st.integers(0, len(src)))
        src = src[:cut] + data.draw(st.sampled_from(_PARSE_FRAGMENTS)) + src[cut:]
    assert _tree(parse_expression, src, pair) == _tree(reference_parse, src, pair)


def test_ast_nodes_compare_by_class_and_fields():
    assert Gen("a", 0) != Lit("a", 0) and parse_expression("5", Z2) == Lit("5", 0)
    assert Gen("a", 0) == Gen("a", 0) and Gen("a", 0) != Gen("a", 1)
    src = "psi(texp, inv(a*(3/4; -2))^-2)*t"
    tree = parse_expression(src, BS)
    assert tree == parse_expression(src, BS)
    assert tree == Prod((
        Call("psi", "texp", Pow(Call("inv", None, Prod((Gen("a", 14), Lit("(3/4; -2)", 16)), 14), 10),
                                -2, 10), 0),
        Gen("t", 31),
    ), 0)
    assert tree != parse_expression(src.replace("*t", "*a"), BS)
    assert repr(Pow(Gen("t", 0), 3, 0)) == "Pow(base=Gen(name='t', pos=0), exp=3, pos=0)"


def test_reference_parser_agrees_on_nesting_and_exponents():
    deepest = "inv(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    for src in (deepest, "(" + deepest + ")", "(a*t)^-3*inv(t)^2", "psi(texp, a^5*t^3)", "a^"):
        assert _tree(parse_expression, src, BS) == _tree(reference_parse, src, BS)


# --- evaluation semantics -------------------------------------------------------

def test_exact_word_keeps_requested_depth():
    f = ev("t*a*t^-1*a^-2", BS, 6)
    assert f.rep == BS.identity and f.depth == 6


def test_inv_forces_completion_arithmetic():
    f = ev("inv(a^3*t^2)", BS, 2)
    assert f.rep == DyadicAffine(Fraction(-3, 4), -2)
    assert f.depth == 0


def test_embed_products():
    f = ev("embed(5)*embed(6)", Z2, 4)
    assert f.rep == 11 and f.depth == 4


def test_power_of_truncated():
    f = ev("embed(3)^4", Z2, 5)
    assert f.rep == 12 and f.depth == 5
    zero = ev("embed(3)^0", Z2, 5)
    assert zero.rep == 0 and zero.depth == 5
    neg = ev("embed(t)^-2", BS, 6)
    assert neg.rep == DyadicAffine(Fraction(0), -2)
    assert neg.depth == 4  # each inverse-step costs one level here


def test_mixed_exact_and_truncated_products():
    # exact left factor: translates the coset exactly, no depth loss
    f = ev("t*embed(a)", BS, 8)
    assert f.depth == 8
    assert f.rep == DyadicAffine(Fraction(2), 1)
    # truncated left factor: the exact side embeds at the attained depth
    g = ev("embed(a)*t", BS, 8)
    assert g.depth == 7
    assert g.rep == DyadicAffine(Fraction(1), 1)


def test_embed_of_truncated_is_noop():
    f = ev("embed(embed(5))", Z2, 4)
    assert f.depth == 4 and f.rep == 5


def test_precision_exhausted_propagates():
    with pytest.raises(PrecisionExhausted):
        ev("embed(a)*t^5", BS, 3)


def test_contract_violation_propagates():
    with pytest.raises(ContractViolation):
        ev("(1/3; 0)", BS)
    with pytest.raises(ContractViolation):
        ev("[[1,2],[3,4]]", SL2)


def test_psi_expression():
    value = ev("psi(mod:8, embed(13))", Z2, 5)
    assert value == PsiValue("mod:8", 5)


def test_psi_values_compare_by_value():
    assert PsiValue("mod:8", 5) == PsiValue(target="mod:8", value=5)
    assert PsiValue("mod:8", 5) != PsiValue("mod:4", 5)
    assert repr(PsiValue("texp", 3)) == "PsiValue(target='texp', value=3)"


def test_psi_exact_operand_uses_requested_depth():
    assert ev("psi(texp, a^5*t^3)", BS, 8).value == 3
    with pytest.raises(PrecisionExhausted):
        ev("psi(mod:8, 13)", Z2, 2)


def test_psi_cannot_be_multiplied():
    with pytest.raises(ExprError):
        ev("psi(texp, a)*t", BS)
    with pytest.raises(ExprError):
        ev("inv(psi(texp, a))", BS)
    with pytest.raises(ExprError):
        ev("psi(texp, a)^2", BS)


def test_unknown_target_is_reported():
    with pytest.raises(ExprError, match="unavailable"):
        ev("psi(mod:7, 1)", Z2)
    with pytest.raises(ExprError, match="unknown target"):
        ev("psi(nosuch, a)", BS)


def test_mod_target_on_factorial_chain():
    zf = FactorialChainPair()
    target = resolve_target(zf, "mod:8")
    assert target.kill_level == 4  # 4! = 24 is the first multiple of 8
    assert ev("psi(mod:8, embed(13))", zf, 4).value == 5


def test_evaluate_returns_completion_elements():
    assert isinstance(ev("a", BS), CompletionElement)


# --- literals are read once per evaluation ---------------------------------------

class _CountingBS12(BS12Pair):
    """bs12 that counts parse_literal calls per literal text."""

    def __init__(self):
        super().__init__()
        self.reads = Counter()

    def parse_literal(self, text):
        self.reads[text] += 1
        return super().parse_literal(text)


def test_each_literal_text_is_read_once_per_evaluation():
    pair = _CountingBS12()
    src = "(1/2; 0)*a*(1/2; 0)^3*inv((1/2; 0))*(1/4; 1)*(2/4; 0)*psi(texp, (1/4; 1))"
    with pytest.raises(ExprError, match="inside a product"):
        ev(src, pair, 3)
    # texts are keys: "(2/4; 0)" names the value of "(1/2; 0)" but is read itself
    assert pair.reads == {"(1/2; 0)": 1, "(1/4; 1)": 1, "(2/4; 0)": 1}
    word = "(1/2; 0)*a*(1/2; 0)^3*inv((1/2; 0))*(1/4; 1)*(2/4; 0)*(1/4; 1)"
    pair.reads.clear()
    value = ev(word, pair, 3)
    assert pair.reads == {"(1/2; 0)": 1, "(1/4; 1)": 1, "(2/4; 0)": 1}
    assert (value.rep, value.depth) == (ev(word, BS, 3).rep, ev(word, BS, 3).depth)
    # nothing is kept between evaluations
    ev(word, pair, 3)
    assert pair.reads == {"(1/2; 0)": 2, "(1/4; 1)": 2, "(2/4; 0)": 2}


@pytest.mark.parametrize("src, message", [
    # a repeated bad literal fails at its first occurrence
    ("a*(1/0; 0)*(1/0; 0)", "bs12: zero denominator in '(1/0; 0)' at position 2"),
    ("inv((1/0; 0))^2*(1/0; 0)", "bs12: zero denominator in '(1/0; 0)' at position 4"),
    # a bad literal after repeats of a good one fails at its own position
    ("(1/2; 0)*(1/2; 0)*(1/0; 0)", "bs12: zero denominator in '(1/0; 0)' at position 18"),
    ("(1/2; 0)^2*(1/2;0)*t*(1/2; 0)*(3/0; 1)", "bs12: zero denominator in '(3/0; 1)' at position 30"),
    # a literal error met before a psi(...) misuse still comes first ...
    ("psi(texp, (3/4; 1))*(1/0; 0)*(3/4; 1)", "bs12: zero denominator in '(1/0; 0)' at position 20"),
    # ... and a misuse met first still wins over a later literal error
    ("psi(texp, (3/4; 1))*(3/4; 1)^2*(1/0; 0)", "psi(...) cannot appear inside a product at position 0"),
])
def test_literal_errors_keep_their_order_and_position(src, message):
    for pair in (BS, _CountingBS12()):
        with pytest.raises(ExprError) as err:
            ev(src, pair, 3)
        assert str(err.value) == message
