"""The expression printer: to_text(tree) parses back to an equal tree.

Kept apart from ruled4.expr, which every command compiles, because only
callers that print a tree run it (ruled4.to_text, CurveSpec.to_texts).
"""

from __future__ import annotations

from .expr import (_BINOPS, _PREC_ADD, _PREC_ATOM, _PREC_NEG, _PREC_POW,
                   Call, Const, ExprAst, Neg, Pow, Var)

__all__ = ["to_text"]

_PREC = {Neg: _PREC_NEG, Pow: _PREC_POW,
         **{cls: op.prec for cls, op in _BINOPS.items()}}


def _wrap(node: ExprAst, parent_prec: int, strict: bool) -> str:
    text = to_text(node)
    p = _PREC.get(type(node), _PREC_ATOM)
    if p < parent_prec or (strict and p == parent_prec):
        return f"({text})"
    return text


def to_text(node: ExprAst) -> str:
    """Render a tree; the output parses back to an equal tree."""
    op = _BINOPS.get(type(node))
    if op is not None:
        sep = f" {op.symbol} " if op.prec == _PREC_ADD else op.symbol
        return (f"{_wrap(node.left, op.prec, False)}{sep}"
                f"{_wrap(node.right, op.prec, True)}")
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return "t"
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
