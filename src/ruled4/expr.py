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
ExprSyntaxError carrying the character offset, as do a number (or a
literal exponent) that is not a finite float and nesting deeper than
_MAX_DEPTH levels (operators, calls, negations and groups count one each).

Parsed expressions are immutable trees.  A literal exponent is exact: an
int where it is integral, else a Ratio of two ints in lowest terms.
ruled4.printer.to_text prints a tree so that parsing the output
reproduces an equal tree.  _BINOPS holds each binary operator's symbol,
precedence and arithmetic for parser, printer and walk.  One walk evaluates a tree over
floats or order-2 jets, each type bringing a kit of constants, power,
functions and division.  The float equals the jet's f slot wherever the
jet exists, and a domain failure, overflow included, is a DomainError in
both.  A CurveSpec walks its components with each t-free operation, such
as -2/sqrt(3), folded once into the float and the jet the walk gives it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

from ._frozen import Frozen, _set
from .dual import _DERIVATIVES, JET_FUNCTIONS, Jet2, _safe_pow, _sqrt, jet_pow
from .errors import (DomainError, ExprSyntaxError, NonFiniteValue,
                     UnknownIdentifier)
from .lorentz import Vec4

__all__ = [
    "Const", "Var", "Add", "Sub", "Mul", "Div", "Neg", "Pow", "Call", "Ratio",
    "ExprAst", "parse_expr",
    "evaluate_float", "evaluate_jet",
    "CurveSpec",
]

_FUNCTIONS = ("sin", "cos", "sinh", "cosh", "exp", "sqrt")
_CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# AST


class Const(Frozen):
    __slots__ = _fields = ("value",)


class Var(Frozen):
    __slots__ = ()


class _Binary(Frozen):
    __slots__ = _fields = ("left", "right")


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Neg(Frozen):
    __slots__ = _fields = ("arg",)


class Pow(Frozen):
    __slots__ = _fields = ("base", "expo")  # expo is an int or a Ratio


class Ratio(Frozen):
    """A non-integral literal exponent: numerator / denominator in lowest
    terms, the denominator above 1."""

    __slots__ = _fields = ("numerator", "denominator")

    def __float__(self) -> float:
        return self.numerator / self.denominator


class Call(Frozen):
    __slots__ = _fields = ("fn", "arg")


_NODES = (Const, Var, Add, Sub, Mul, Div, Neg, Pow, Call)
ExprAst = Union[_NODES]

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


class _BinOp(NamedTuple):
    symbol: str
    prec: int
    arith: Callable  # (kit, left, right) -> the result in the kit's numbers


_BINOPS = {
    Add: _BinOp("+", _PREC_ADD, lambda kit, a, b: a + b),
    Sub: _BinOp("-", _PREC_ADD, lambda kit, a, b: a - b),
    Mul: _BinOp("*", _PREC_MUL, lambda kit, a, b: a * b),
    Div: _BinOp("/", _PREC_MUL, lambda kit, a, b: kit.div(a, b)),
}
_BINARY = {op.symbol: cls for cls, op in _BINOPS.items()}


# ---------------------------------------------------------------------------
# Tokenizer

_OPS = "+-*/^()"
_MAX_DEPTH = 100


class _Token(NamedTuple):
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
        return self.chain(_PREC_ADD, self.term)

    def term(self) -> tuple[ExprAst, int]:
        return self.chain(_PREC_MUL, self.unary)

    def chain(self, prec: int, operand) -> tuple[ExprAst, int]:
        """operand (op operand)* for the binary ops of prec, associating left."""
        node, height = operand()
        while True:
            tok = self.peek()
            cls = _BINARY.get(tok.text) if tok.kind == "OP" else None
            if cls is None or _BINOPS[cls].prec != prec:
                return node, height
            self.advance()
            rhs, rhs_height = operand()
            node = cls(node, rhs)
            height = self.deeper(max(height, rhs_height), tok)

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

    def sign(self) -> int:
        """-1 after consuming a '-', 1 after a '+' or no sign."""
        tok = self.peek()
        if tok.kind == "OP" and tok.text in "+-":
            self.advance()
            return -1 if tok.text == "-" else 1
        return 1

    def expect_num(self, message: str) -> _Token:
        tok = self.peek()
        if tok.kind != "NUM":
            raise ExprSyntaxError(message, tok.pos)
        return self.advance()

    def exponent_literal(self) -> Union[int, Ratio]:
        sign = self.sign()
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            num, den = _number_ratio(tok)
            return _exponent(sign * num, den)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            sign *= self.sign()
            num = self.expect_num("expected a number in exponent")
            self.expect_op("/")
            den = self.expect_num("expected a denominator in exponent")
            self.expect_op(")")
            (p, q), (r, s) = _number_ratio(num), _number_ratio(den)
            if r == 0:
                raise ExprSyntaxError("zero denominator in exponent", den.pos)
            expo = _exponent(sign * p * s, q * r)
            _finite_literal(expo, f"{num.text}/{den.text}", num.pos)
            return expo
        raise ExprSyntaxError("expected a literal exponent after '^'", tok.pos)

    def atom(self) -> tuple[ExprAst, int]:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return Const(_finite_literal(tok.text, tok.text, tok.pos)), 1
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


def _finite_literal(value: str | int | Ratio, text: str, pos: int) -> float:
    """float(value) if that is finite, else ExprSyntaxError at pos."""
    try:
        number = float(value)
    except (ValueError, OverflowError):
        number = math.inf
    if not math.isfinite(number):
        raise ExprSyntaxError(f"numeric literal {text!r} is not a finite float", pos)
    return number


def _number_ratio(tok: _Token) -> tuple[int, int]:
    """The exact value of a NUM token as (numerator, denominator)."""
    # float first: 1e-999999999 would build a billion-digit power of 10
    if not _finite_literal(tok.text, tok.text, tok.pos):
        return 0, 1
    mantissa, _, power = tok.text.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    try:
        num = int(whole + frac)
    except ValueError as exc:  # past int()'s digit limit
        raise ExprSyntaxError(f"bad numeric literal {tok.text!r}", tok.pos) from exc
    scale = int(power or 0) - len(frac)
    return (num * 10 ** scale, 1) if scale >= 0 else (num, 10 ** -scale)


def _exponent(num: int, den: int) -> Union[int, Ratio]:
    """num / den (den > 0) in lowest terms: an int where it is integral."""
    g = math.gcd(num, den)
    return num // g if den == g else Ratio(num // g, den // g)


def parse_expr(text: str) -> ExprAst:
    """Parse one expression in the variable t into an immutable tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation: one walk, two number types

class _Kit(NamedTuple):
    """A number type's operations beyond its own +, -, * and negation."""

    lift: Callable       # float -> constant
    pow: Callable        # (x, int or Ratio) -> x**p
    functions: dict      # name -> function, for each of _FUNCTIONS
    div: Callable        # (x, y) -> x/y, DomainError where y has no inverse


def _float_div(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainError("division by zero")
    return a / b


_JET = _Kit(Jet2.constant, jet_pow, JET_FUNCTIONS, operator.truediv)
_FLOAT = _Kit(float, lambda x, p: _safe_pow(x, p.numerator / p.denominator,
                                            p.denominator == 1),
              {"sqrt": _sqrt, **{name: (lambda v, fn=fn: fn(v)[0])
                                       for name, fn in _DERIVATIVES.items()}},
              _float_div)


class _Folded(Frozen):
    """A t-free subtree as the walk gives it in each kit."""

    __slots__ = _fields = ("number", "jet")


def _walk(node: ExprAst, var, kit: _Kit):
    """The value of node in kit's number type, with var standing for t."""
    cls = type(node)
    op = _BINOPS.get(cls)
    if op is not None:
        return op.arith(kit, _walk(node.left, var, kit),
                        _walk(node.right, var, kit))
    if cls is Const:
        return kit.lift(node.value)
    if cls is Var:
        return var
    if cls is Neg:
        return -_walk(node.arg, var, kit)
    if cls is Pow:
        return kit.pow(_walk(node.base, var, kit), node.expo)
    if cls is Call:
        return kit.functions[node.fn](_walk(node.arg, var, kit))
    if cls is _Folded:
        return node.jet if kit is _JET else node.number
    raise TypeError(f"not an expression node: {node!r}")


def _fold(node: ExprAst) -> tuple[ExprAst, bool]:
    """(node with each t-free subtree but a bare constant replaced by a
    _Folded of the float and the jet its walk gives, whether node is
    t-free).  The walk of the result is the walk of node, bit for bit: a
    subtree whose walk raises stays, and a tree with nothing to fold comes
    back as itself."""
    cls = type(node)
    if cls is Const or cls is Var:
        return node, cls is Const
    values = node._values()
    parts = [_fold(v) if isinstance(v, _NODES) else (v, True) for v in values]
    if any(new is not old for (new, _), old in zip(parts, values)):
        node = cls(*[new for new, _ in parts])
    if not all(free for _, free in parts):
        return node, False
    try:
        return _Folded(_walk(node, None, _FLOAT), _walk(node, None, _JET)), True
    except (DomainError, ArithmeticError, ValueError):
        return node, False


def evaluate_jet(node: ExprAst, t: float) -> Jet2:
    """Evaluate with exact first and second derivatives at t."""
    return _walk(node, Jet2.variable(float(t)), _JET)


def evaluate_float(node: ExprAst, t: float) -> float:
    """The value at t: the jet's f slot wherever the jet exists."""
    return _walk(node, float(t), _FLOAT)


# ---------------------------------------------------------------------------
# Curves

@dataclass(frozen=True)
class CurveSpec:
    """A curve in 4-space: four component expressions of t.

    The walk reads the components with their t-free operations folded
    once, here (_fold); a curve whose four components are t-free returns
    the same Vec4s at every t.
    """

    comps: tuple[ExprAst, ExprAst, ExprAst, ExprAst]

    def __post_init__(self):
        walked, free = zip(*(_fold(comp) for comp in self.comps))
        _set(self, "_walked", walked)
        _set(self, "_fixed", None)
        if all(free):
            try:
                # CurveSpec's own walks: a subclass may count its calls
                _set(self, "_fixed", (CurveSpec.evaluate(self, 0.0),
                                      CurveSpec.position(self, 0.0)))
            except NonFiniteValue:
                pass  # the walk raises it at every t

    @staticmethod
    def from_strings(texts: Sequence[str]) -> "CurveSpec":
        if len(texts) != 4:
            raise ValueError(f"a curve needs exactly 4 components, got {len(texts)}")
        return CurveSpec(tuple(parse_expr(s) for s in texts))

    def evaluate(self, t: float) -> tuple[Vec4, Vec4, Vec4]:
        """Position, velocity, acceleration at t."""
        if self._fixed:
            return self._fixed[0]
        var = Jet2.variable(float(t))
        jets = [_walk(comp, var, _JET) for comp in self._walked]
        f, d1, d2 = zip(*((j.f, j.d1, j.d2) for j in jets))
        return Vec4(*f), Vec4(*d1), Vec4(*d2)

    def position(self, t: float) -> Vec4:
        """evaluate(t)[0] without the derivatives: the float walk of each
        component, equal to the jet's f slot wherever the jet exists."""
        if self._fixed:
            return self._fixed[1]
        t = float(t)
        return Vec4(*(_walk(comp, t, _FLOAT) for comp in self._walked))

    def to_texts(self) -> tuple[str, str, str, str]:
        from .printer import to_text  # here, so that no command compiles it
        return tuple(to_text(c) for c in self.comps)
