"""Expression parsing, printing round-trip and evaluation."""

import math
import random
from fractions import Fraction

import pytest

from ruled4.errors import DomainError, ExprSyntaxError, UnknownIdentifier
from ruled4.expr import (
    _fold,
    Add,
    Call,
    Const,
    CurveSpec,
    Mul,
    Neg,
    Pow,
    Ratio,
    Var,
    evaluate_float,
    evaluate_jet,
    parse_expr,
)
from ruled4.lorentz import Vec4
from ruled4.printer import to_text

from support import mp_reference


@pytest.mark.parametrize("text,t,expected", [
    ("3*t+7", 2.0, 13.0),
    ("-t^2", 3.0, -9.0),          # ^ binds tighter than unary minus
    ("2^3", 0.0, 8.0),
    ("t^-2", 2.0, 0.25),
    ("t^+2", 3.0, 9.0),
    ("t^(1/2)", 9.0, 3.0),
    ("t^(-1/2)", 4.0, 0.5),
    ("t^2.5", 4.0, 32.0),
    ("2*pi", 0.0, 2.0 * math.pi),
    ("e", 0.0, math.e),
    ("sin(pi/2)", 0.0, 1.0),
    ("cosh(0)", 0.0, 1.0),
    ("sqrt(16)", 0.0, 4.0),
    ("1 - 2 - 3", 0.0, -4.0),     # left associativity
    ("12/3/2", 0.0, 2.0),
    ("2 + 3*4", 0.0, 14.0),
    ("(2 + 3)*4", 0.0, 20.0),
    ("--t", 5.0, 5.0),
    ("1.5e2", 0.0, 150.0),
    (".5*t", 4.0, 2.0),
])
def test_parse_and_evaluate(text, t, expected):
    ast = parse_expr(text)
    assert evaluate_float(ast, t) == pytest.approx(expected, abs=1e-12)
    assert evaluate_jet(ast, t).f == pytest.approx(expected, abs=1e-12)


def test_ast_shape_of_precedence():
    assert parse_expr("-t^2") == Neg(Pow(Var(), Fraction(2)))
    assert parse_expr("2*t + 1") == Add(Mul(Const(2.0), Var()), Const(1.0))
    assert parse_expr("sin(t)^2") == Pow(Call("sin", Var()), Fraction(2))


@pytest.mark.parametrize("text,offset", [
    ("t +", 3),
    ("(t", 2),
    ("t)", 1),
    ("sin", 3),
    ("t^t", 2),
    ("t^(1/0)", 5),
    ("2 ** 3", 3),
    ("t @ 2", 2),
    ("", 0),
    ("1²", 0),                  # a digit to str.isdigit, not to float
    ("t^1e400", 2),             # exponents past the float range
    ("t^(1e300/1e-300)", 3),
    ("1e999*t", 0),             # would print as inf*t, which does not parse
])
def test_syntax_error_offsets(text, offset):
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr(text)
    assert info.value.offset == offset
    assert f"(offset {offset})" in str(info.value)
    assert info.value.bare_message


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as info:
        parse_expr("2*q + 1")
    assert info.value.offset == 2
    assert "q" in str(info.value)


def test_non_function_call_rejected():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("foo(t)")
    assert "not a function" in str(info.value)
    with pytest.raises(ExprSyntaxError):
        parse_expr("pi(t)")


def _random_ast(rng: random.Random, depth: int):
    # only non-negative constants: the grammar has no negative literals, a
    # leading minus always parses as Neg, so Const(-x) is outside its image
    if depth <= 0 or rng.random() < 0.3:
        pick = rng.randrange(3)
        if pick == 0:
            return Const(round(rng.uniform(0, 5), 3))
        if pick == 1:
            return Var()
        return Const(float(rng.randrange(1, 9)))
    pick = rng.randrange(7)
    if pick == 0:
        return Add(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if pick == 1:
        from ruled4.expr import Sub
        return Sub(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if pick == 2:
        return Mul(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if pick == 3:
        from ruled4.expr import Div
        return Div(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if pick == 4:
        return Neg(_random_ast(rng, depth - 1))
    if pick == 5:
        # the parser's exponents: an int where integral, else a Ratio
        expo = rng.choice([2, 3, -1, Ratio(1, 2), Ratio(-2, 3), Ratio(5, 4)])
        return Pow(_random_ast(rng, depth - 1), expo)
    fn = rng.choice(["sin", "cos", "sinh", "cosh", "exp", "sqrt"])
    return Call(fn, _random_ast(rng, depth - 1))


def test_printer_round_trip_on_random_trees():
    rng = random.Random(20260816)
    for _ in range(400):
        ast = _random_ast(rng, rng.randrange(1, 5))
        assert parse_expr(to_text(ast)) == ast


def test_negative_constant_prints_to_equivalent_tree():
    # a hand-built negative literal normalizes to Neg on re-parse; the
    # printed form is value-equivalent even though the tree differs
    reparsed = parse_expr(to_text(Const(-2.5)))
    assert reparsed == Neg(Const(2.5))
    assert evaluate_float(reparsed, 0.0) == -2.5


def test_printer_round_trip_on_corpus_texts():
    texts = [
        "t^4/4 + sqrt(2)", "2*t+1", "-3*t", "t^3/3",
        "-2/sqrt(3)", "1/sqrt(7)", "sqrt(6)/sqrt(7)",
        "-cos(t)*cos(2*t)", "cos(t)*sin(2*t)", "sin(t)*sin(2*t)",
        "sin(2*t)*(sin(2*t)/2 - cos(t)^2)",
    ]
    for text in texts:
        ast = parse_expr(text)
        assert parse_expr(to_text(ast)) == ast


def test_jet_derivatives_match_high_precision_differences():
    # random trees against 40-digit central differences of the same text,
    # within the relative band of acceptance criterion 07.  A tree can put
    # t near a singularity, such as sqrt(1 - t) at t = 0.996, where the
    # h^2 error of the default 1e-5 step exceeds the band; at 40 digits a
    # 1e-9 step keeps both truncation and cancellation below 1e-12.
    rng = random.Random(99)
    compared = 0
    for _ in range(200):
        ast = _random_ast(rng, 3)
        t = rng.uniform(0.2, 2.0)
        try:
            jet = evaluate_jet(ast, t)
        except DomainError:
            continue
        text = to_text(ast)
        _, ref_d1, ref_d2 = mp_reference(text, t, step=1e-9)
        assert abs(jet.d1 - ref_d1) <= 1e-6 * max(1.0, abs(ref_d1)), text
        assert abs(jet.d2 - ref_d2) <= 1e-6 * max(1.0, abs(ref_d2)), text
        compared += 1
    assert compared > 150


def test_float_evaluator_matches_jet_value():
    rng = random.Random(5)
    for _ in range(200):
        ast = _random_ast(rng, 3)
        t = rng.uniform(0.2, 2.0)
        try:
            f = evaluate_float(ast, t)
            j = evaluate_jet(ast, t)
        except DomainError:
            continue
        assert f == pytest.approx(j.f, rel=1e-12, abs=1e-12)


def test_three_evaluators_agree_exactly_on_values():
    # one walk serves floats and jets, so wherever both succeed the float
    # value is the jet's f slot
    rng = random.Random(11)
    compared = 0
    for _ in range(300):
        ast = _random_ast(rng, 3)
        t = rng.uniform(0.2, 2.0)
        try:
            f = evaluate_float(ast, t)
            j = evaluate_jet(ast, t)
        except DomainError:
            continue
        assert f == j.f, to_text(ast)
        compared += 1
    assert compared > 150


def test_curve_position_is_the_jet_position():
    rng = random.Random(12)
    compared = 0
    for _ in range(100):
        curve = CurveSpec(tuple(_random_ast(rng, 3) for _ in range(4)))
        t = rng.uniform(0.2, 2.0)
        try:
            want = curve.evaluate(t)[0]
        except DomainError:
            continue
        assert curve.position(t) == want, curve.to_texts()
        compared += 1
    assert compared > 30


@pytest.mark.parametrize("fn", ["exp", "sinh", "cosh"])
def test_overflow_is_a_domain_error_in_every_evaluator(fn):
    node = parse_expr(f"{fn}(t)")
    for evaluate in (evaluate_float, evaluate_jet):
        with pytest.raises(DomainError):
            evaluate(node, 1000.0)


def test_domain_errors_surface():
    with pytest.raises(DomainError):
        evaluate_float(parse_expr("1/t"), 0.0)
    with pytest.raises(DomainError):
        evaluate_jet(parse_expr("1/t"), 0.0)
    with pytest.raises(DomainError):
        evaluate_float(parse_expr("sqrt(t)"), -1.0)
    with pytest.raises(DomainError):
        evaluate_jet(parse_expr("(0 - 1)^(1/2)"), 0.0)
    with pytest.raises(DomainError):
        evaluate_jet(parse_expr("t^(1/2)"), -4.0)


def test_jet_of_parsed_text():
    j = evaluate_jet(parse_expr("t^3"), 2.0)
    assert (j.f, j.d1, j.d2) == (8.0, 12.0, 12.0)


def test_float_evaluator_defined_where_jet_is_not():
    # evaluate_float is not the f slot of evaluate_jet: at t = 0 the value
    # of sqrt(t) and t^(3/2) exists while a derivative is singular.
    for text in ("sqrt(t)", "t^(3/2)"):
        node = parse_expr(text)
        assert evaluate_float(node, 0.0) == 0.0
        with pytest.raises(DomainError):
            evaluate_jet(node, 0.0)


def test_curve_spec_basics():
    curve = CurveSpec.from_strings(["t^2", "sin(t)", "0", "t"])
    p, v, a = curve.evaluate(0.5)
    assert p.components() == pytest.approx(
        (0.25, math.sin(0.5), 0.0, 0.5), abs=1e-15)
    assert v.components() == pytest.approx(
        (1.0, math.cos(0.5), 0.0, 1.0), abs=1e-15)
    assert a.components() == pytest.approx(
        (2.0, -math.sin(0.5), 0.0, 0.0), abs=1e-15)
    texts = curve.to_texts()
    assert CurveSpec.from_strings(texts).comps == curve.comps
    with pytest.raises(ValueError):
        CurveSpec.from_strings(["t", "t", "t"])


def _walk_text(walk, ast, t):
    """repr of every slot of one walk, or of the error it raises, so that
    signed zeros and error messages count."""
    try:
        value = walk(ast, t)
    except DomainError as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, float):
        return repr(value)
    return repr((value.f, value.d1, value.d2))


def test_folded_walk_is_the_walk_bit_for_bit():
    # a curve walks its components with their t-free subtrees folded once;
    # in both kits every slot, and every refusal, is the unfolded walk's
    rng = random.Random(1807)
    folded_nodes = 0
    for _ in range(400):
        ast = _random_ast(rng, rng.randrange(1, 6))
        folded, _ = _fold(ast)
        folded_nodes += repr(folded).count("_Folded(")
        for t in (0.0, -0.0, 0.7, 1.5, -2.25):
            for walk in (evaluate_float, evaluate_jet):
                assert _walk_text(walk, folded, t) == \
                    _walk_text(walk, ast, t), (to_text(ast), t)
    assert folded_nodes > 200


def test_constant_domain_error_raises_at_evaluation():
    # folding keeps a t-free subtree that raises; the curve still builds
    curve = CurveSpec.from_strings(["sqrt(-1)", "0", "0", "0"])
    for walk in (curve.evaluate, curve.position):
        with pytest.raises(DomainError, match="sqrt of a negative value"):
            walk(0.5)
    overflow = CurveSpec.from_strings(["1e308*10", "0", "0", "0"])
    with pytest.raises(DomainError, match="must be finite"):
        overflow.evaluate(0.5)


def test_constant_curve_returns_equal_jets_at_every_t():
    curve = CurveSpec.from_strings(
        ["-2/sqrt(3)", "0", "1/sqrt(3)", "sqrt(6)/sqrt(7)"])
    want = tuple(Vec4(*[getattr(evaluate_jet(c, 0.0), slot)
                        for c in curve.comps]) for slot in ("f", "d1", "d2"))
    for t in (-1.0, 0.0, 0.25, 3.0):
        assert curve.evaluate(t) == want
        assert curve.position(t) == want[0]


DEEP_TEXTS = ["(" * 3000 + "t" + ")" * 3000,    # overflows a recursive parser
              "+".join(["t"] * 5000)]           # left-deep tree, deep to evaluate


@pytest.mark.parametrize("text", DEEP_TEXTS, ids=["groups", "chain"])
def test_too_deep_expression_is_syntax_error(text):
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr(text)
    assert 0 < info.value.offset < len(text)
    assert "nested deeper" in info.value.bare_message


def test_depth_bound_admits_a_hundred_levels():
    # 99 groups around t, and a 99-operator chain, are 100 levels each
    assert evaluate_float(parse_expr("(" * 99 + "t" + ")" * 99), 2.0) == 2.0
    assert evaluate_jet(parse_expr("+".join(["t"] * 100)), 2.0).f == 200.0
