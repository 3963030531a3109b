"""A tiny expression language for curve components in one variable t.

Grammar (whitespace insignificant, radians everywhere):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' literal)?          -- exponent is a literal only
    atom   := NUMBER | 'pi' | 'e' | 't' | FUNC '(' expr ')' | '(' expr ')'
    literal:= ['+'|'-'] NUMBER | '(' ['+'|'-'] INT '/' INT ')'

Binary operators associate left; '^' binds tighter than unary minus, so
-t^2 is -(t^2).  FUNC is one of sin, cos, sinh, cosh, exp, sqrt.  Any other
identifier raises UnknownIdentifier; any other malformation raises
ExprSyntaxError carrying the character offset, as does nesting deeper than
_MAX_DEPTH levels (operators, calls, negations and groups count one each).

Parsed expressions are immutable trees.  `to_text` prints a tree so that
parsing the output reproduces an equal tree.  Evaluation runs over plain
floats, dual numbers, or order-2 jets; the jet and dual evaluators share
operation shapes, making the dual eps slot bit-identical to the jet d1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .dual import (DUAL_FUNCTIONS, JET_FUNCTIONS, Dual, Jet2, dual_pow,
                   jet_pow)
from .errors import DomainError, ExprSyntaxError, UnknownIdentifier
from .lorentz import MEMBERSHIP_TOL, ModelSpace, Vec4, lorentz_dot

__all__ = [
    "Const", "Var", "Add", "Sub", "Mul", "Div", "Neg", "Pow", "Call",
    "ExprAst", "parse_expr", "to_text",
    "evaluate_float", "evaluate_dual", "evaluate_jet",
    "CurveSpec", "DirectorReport", "validate_director",
]

_FUNCTIONS = ("sin", "cos", "sinh", "cosh", "exp", "sqrt")
_CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Add:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Sub:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Mul:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Div:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    expo: Fraction


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "ExprAst"


ExprAst = Union[Const, Var, Add, Sub, Mul, Div, Neg, Pow, Call]
_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}


# ---------------------------------------------------------------------------
# Tokenizer

_OPS = "+-*/^()"
_MAX_DEPTH = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM, IDENT, OP, END
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(_Token("NUM", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.level = 0  # calls, negations and groups open at the cursor

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}", tok.pos)
        return self.advance()

    def deeper(self, height: int, tok: _Token) -> int:
        """height + 1, unless that passes _MAX_DEPTH levels at tok."""
        if height >= _MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {_MAX_DEPTH} levels", tok.pos)
        return height + 1

    def nested(self, tok: _Token, parse) -> tuple[ExprAst, int]:
        """parse() one level below tok, refused before recursing too deep.

        Like every grammar rule below, it returns (tree, nesting height).
        """
        self.level = self.deeper(self.level, tok)
        node, height = parse()
        self.level -= 1
        return node, self.deeper(height, tok)

    def parse(self) -> ExprAst:
        node, _ = self.expr()
        tail = self.peek()
        if tail.kind != "END":
            raise ExprSyntaxError(f"unexpected trailing input {tail.text!r}", tail.pos)
        return node

    def expr(self) -> tuple[ExprAst, int]:
        return self.chain("+-", self.term)

    def term(self) -> tuple[ExprAst, int]:
        return self.chain("*/", self.unary)

    def chain(self, ops: str, operand) -> tuple[ExprAst, int]:
        """operand (op operand)* for op in ops, associating left."""
        node, height = operand()
        while self.peek().kind == "OP" and self.peek().text in ops:
            op = self.advance()
            rhs, rhs_height = operand()
            node = _BINARY[op.text](node, rhs)
            height = self.deeper(max(height, rhs_height), op)
        return node, height

    def unary(self) -> tuple[ExprAst, int]:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            arg, height = self.nested(tok, self.unary)
            return Neg(arg), height
        return self.power()

    def power(self) -> tuple[ExprAst, int]:
        base, height = self.atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            expo = self.exponent_literal()
            return Pow(base, expo), self.deeper(height, tok)
        return base, height

    def exponent_literal(self) -> Fraction:
        sign = 1
        tok = self.peek()
        if tok.kind == "OP" and tok.text in "+-":
            self.advance()
            if tok.text == "-":
                sign = -1
            tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return sign * _number_fraction(tok)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            inner_sign = 1
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.advance()
                if tok.text == "-":
                    inner_sign = -1
            num = self.peek()
            if num.kind != "NUM":
                raise ExprSyntaxError("expected a number in exponent", num.pos)
            self.advance()
            self.expect_op("/")
            den = self.peek()
            if den.kind != "NUM":
                raise ExprSyntaxError("expected a denominator in exponent", den.pos)
            self.advance()
            self.expect_op(")")
            den_frac = _number_fraction(den)
            if den_frac == 0:
                raise ExprSyntaxError("zero denominator in exponent", den.pos)
            return sign * inner_sign * _number_fraction(num) / den_frac
        raise ExprSyntaxError("expected a literal exponent after '^'", tok.pos)

    def atom(self) -> tuple[ExprAst, int]:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return Const(float(tok.text)), 1
        if tok.kind == "IDENT":
            self.advance()
            name = tok.text
            if name in _FUNCTIONS:
                self.expect_op("(")
                arg, height = self.nested(tok, self.expr)
                self.expect_op(")")
                return Call(name, arg), height
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                raise ExprSyntaxError(f"{name!r} is not a function", nxt.pos)
            if name == "t":
                return Var(), 1
            if name in _CONSTANTS:
                return Const(_CONSTANTS[name]), 1
            raise UnknownIdentifier(name, tok.pos)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            node, height = self.nested(tok, self.expr)
            self.expect_op(")")
            return node, height
        raise ExprSyntaxError(
            "expected a number, identifier, or parenthesis"
            if tok.kind != "END" else "unexpected end of input", tok.pos)


def _number_fraction(tok: _Token) -> Fraction:
    try:
        return Fraction(tok.text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ExprSyntaxError(f"bad numeric literal {tok.text!r}", tok.pos) from exc


def parse_expr(text: str) -> ExprAst:
    """Parse one expression in the variable t into an immutable tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Pretty printer (parse(to_text(ast)) == ast)

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
_PREC = {Add: _PREC_ADD, Sub: _PREC_ADD, Mul: _PREC_MUL, Div: _PREC_MUL,
         Neg: _PREC_NEG, Pow: _PREC_POW}


def _wrap(node: ExprAst, parent_prec: int, strict: bool) -> str:
    text = to_text(node)
    p = _PREC.get(type(node), _PREC_ATOM)
    if p < parent_prec or (strict and p == parent_prec):
        return f"({text})"
    return text


def to_text(node: ExprAst) -> str:
    """Render a tree; the output parses back to an equal tree."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Add):
        return f"{_wrap(node.left, _PREC_ADD, False)} + {_wrap(node.right, _PREC_ADD, True)}"
    if isinstance(node, Sub):
        return f"{_wrap(node.left, _PREC_ADD, False)} - {_wrap(node.right, _PREC_ADD, True)}"
    if isinstance(node, Mul):
        return f"{_wrap(node.left, _PREC_MUL, False)}*{_wrap(node.right, _PREC_MUL, True)}"
    if isinstance(node, Div):
        return f"{_wrap(node.left, _PREC_MUL, False)}/{_wrap(node.right, _PREC_MUL, True)}"
    if isinstance(node, Neg):
        return f"-{_wrap(node.arg, _PREC_NEG, False)}"
    if isinstance(node, Pow):
        base = _wrap(node.base, _PREC_ATOM, False)
        e = node.expo
        # integer exponents print inline, negative ones too: t^-2
        expo = (str(e.numerator) if e.denominator == 1
                else f"({e.numerator}/{e.denominator})")
        return f"{base}^{expo}"
    if isinstance(node, Call):
        return f"{node.fn}({to_text(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluation

def evaluate_jet(node: ExprAst, t: float) -> Jet2:
    """Evaluate with exact first and second derivatives at t."""
    return _eval_jet(node, Jet2.variable(float(t)))


def _eval_jet(node: ExprAst, var: Jet2) -> Jet2:
    if isinstance(node, Const):
        return Jet2.constant(node.value)
    if isinstance(node, Var):
        return var
    if isinstance(node, Add):
        return _eval_jet(node.left, var) + _eval_jet(node.right, var)
    if isinstance(node, Sub):
        return _eval_jet(node.left, var) - _eval_jet(node.right, var)
    if isinstance(node, Mul):
        return _eval_jet(node.left, var) * _eval_jet(node.right, var)
    if isinstance(node, Div):
        return _eval_jet(node.left, var) / _eval_jet(node.right, var)
    if isinstance(node, Neg):
        return -_eval_jet(node.arg, var)
    if isinstance(node, Pow):
        return jet_pow(_eval_jet(node.base, var), node.expo)
    if isinstance(node, Call):
        return JET_FUNCTIONS[node.fn](_eval_jet(node.arg, var))
    raise TypeError(f"not an expression node: {node!r}")


def evaluate_dual(node: ExprAst, t: float) -> Dual:
    """Evaluate over t + eps; the eps slot is the first derivative."""
    return _eval_dual(node, Dual(float(t), 1.0))


def _eval_dual(node: ExprAst, var: Dual) -> Dual:
    if isinstance(node, Const):
        return Dual(node.value, 0.0)
    if isinstance(node, Var):
        return var
    if isinstance(node, Add):
        return _eval_dual(node.left, var) + _eval_dual(node.right, var)
    if isinstance(node, Sub):
        return _eval_dual(node.left, var) - _eval_dual(node.right, var)
    if isinstance(node, Mul):
        return _eval_dual(node.left, var) * _eval_dual(node.right, var)
    if isinstance(node, Div):
        return _eval_dual(node.left, var) / _eval_dual(node.right, var)
    if isinstance(node, Neg):
        return -_eval_dual(node.arg, var)
    if isinstance(node, Pow):
        return dual_pow(_eval_dual(node.base, var), node.expo)
    if isinstance(node, Call):
        return DUAL_FUNCTIONS[node.fn](_eval_dual(node.arg, var))
    raise TypeError(f"not an expression node: {node!r}")


_FLOAT_FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "sinh": math.sinh,
    "cosh": math.cosh, "exp": math.exp,
}


def evaluate_float(node: ExprAst, t: float) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return float(t)
    if isinstance(node, Add):
        return evaluate_float(node.left, t) + evaluate_float(node.right, t)
    if isinstance(node, Sub):
        return evaluate_float(node.left, t) - evaluate_float(node.right, t)
    if isinstance(node, Mul):
        return evaluate_float(node.left, t) * evaluate_float(node.right, t)
    if isinstance(node, Div):
        denom = evaluate_float(node.right, t)
        if denom == 0.0:
            raise DomainError("division by zero")
        return evaluate_float(node.left, t) / denom
    if isinstance(node, Neg):
        return -evaluate_float(node.arg, t)
    if isinstance(node, Pow):
        from .dual import _safe_pow
        return _safe_pow(evaluate_float(node.base, t), float(node.expo),
                         node.expo.denominator == 1)
    if isinstance(node, Call):
        if node.fn == "sqrt":
            v = evaluate_float(node.arg, t)
            if v < 0.0:
                raise DomainError("sqrt of a negative value")
            return math.sqrt(v)
        return _FLOAT_FUNCTIONS[node.fn](evaluate_float(node.arg, t))
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Curves

@dataclass(frozen=True)
class CurveSpec:
    """A curve in 4-space: four component expressions of t."""

    comps: tuple[ExprAst, ExprAst, ExprAst, ExprAst]

    @staticmethod
    def from_strings(texts: Sequence[str]) -> "CurveSpec":
        if len(texts) != 4:
            raise ValueError(f"a curve needs exactly 4 components, got {len(texts)}")
        return CurveSpec(tuple(parse_expr(s) for s in texts))

    def evaluate(self, t: float) -> tuple[Vec4, Vec4, Vec4]:
        """Position, velocity, acceleration at t."""
        jets = [evaluate_jet(comp, t) for comp in self.comps]
        p = Vec4(*(j.f for j in jets))
        d1 = Vec4(*(j.d1 for j in jets))
        d2 = Vec4(*(j.d2 for j in jets))
        return p, d1, d2

    def to_texts(self) -> tuple[str, str, str, str]:
        return tuple(to_text(c) for c in self.comps)


@dataclass(frozen=True)
class DirectorReport:
    """Outcome of checking a director curve against a model space."""

    constraint: ModelSpace
    target: float
    max_violation: float
    worst_t: float
    sign_ok: bool
    passed: bool
    n_samples: int


_TARGETS = {
    ModelSpace.HYPERBOLIC: -1.0,
    ModelSpace.DE_SITTER: 1.0,
    ModelSpace.LIGHT_CONE: 0.0,
}


def validate_director(curve: CurveSpec, constraint: ModelSpace,
                      grid: Sequence[float]) -> DirectorReport:
    """Check <c(t), c(t)> against the constraint target on a sample grid.

    The quadratic-form violation is reported as a max over samples; the sign
    condition (positive time slot on the hyperbolic sheet, nonzero time slot
    on the light cone) is a separate boolean.  `passed` requires both, the
    violation within MEMBERSHIP_TOL.
    """
    target = _TARGETS[constraint]
    worst = -1.0
    worst_t = float(grid[0]) if len(grid) else 0.0
    sign_ok = True
    for t in grid:
        p, _, _ = curve.evaluate(float(t))
        q = lorentz_dot(p, p)
        violation = abs(q - target)
        if violation > worst:
            worst = violation
            worst_t = float(t)
        if constraint is ModelSpace.HYPERBOLIC and not p.c0 > 0.0:
            sign_ok = False
        if constraint is ModelSpace.LIGHT_CONE and p.c0 == 0.0:
            sign_ok = False
    passed = worst <= MEMBERSHIP_TOL and sign_ok
    return DirectorReport(constraint, target, worst, worst_t, sign_ok,
                          passed, len(grid))
