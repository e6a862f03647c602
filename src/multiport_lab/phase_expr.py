"""Tiny constant-expression grammar for phase values.

Accepts numbers, ``pi``, the free symbols ``phi1``/``phi2``, the four
arithmetic operators, unary minus, and parentheses::

    pi/8    2*pi - 1e-5    -(phi1 + pi/2)/3

Evaluation keeps values in exact rational-plus-rational-multiple-of-pi form
for as long as the arithmetic allows (so ``2*pi - pi`` is exactly ``pi`` and
``pi/8`` is a single correctly-rounded multiply), dropping to plain floats
only when a nonlinear combination or a free symbol forces it.  The same text
therefore evaluates to the same float on every run.

`PhaseExpr` stores the canonical rendering of the parsed tree and caches
the tree itself; two expressions compare equal iff their canonical texts
match.  `PhaseExpr.derivative` applies the chain rule over that tree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Union

from .errors import ParseError, ValidationError

_SYMBOLS = ("phi1", "phi2")


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class _Num:
    value: float


@dataclass(frozen=True)
class _Sym:
    name: str  # "pi", "phi1", "phi2"


@dataclass(frozen=True)
class _Neg:
    operand: "_Node"


@dataclass(frozen=True)
class _BinOp:
    op: str  # "+", "-", "*", "/"
    left: "_Node"
    right: "_Node"


_Node = Union[_Num, _Sym, _Neg, _BinOp]


# --- tokenizer / parser ----------------------------------------------------

class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tok_start = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, line=1, column=self.tok_start + 1)

    def peek(self):
        text = self.text
        n = len(text)
        i = self.pos
        while i < n and text[i] in " \t":
            i += 1
        self.pos = i
        self.tok_start = i
        if i >= n:
            return ("end", "")
        ch = text[i]
        if ch in "+-*/()":
            return ("op", ch)
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            return ("number", text[i:j])
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            return ("name", text[i:j])
        raise self.error(f"unexpected character {ch!r} in phase expression")

    def take(self):
        kind, tok = self.peek()
        self.pos += len(tok)
        return kind, tok


def _parse_expr(tz: _Tokenizer) -> _Node:
    node = _parse_term(tz)
    while True:
        kind, tok = tz.peek()
        if kind == "op" and tok in "+-":
            tz.take()
            node = _BinOp(tok, node, _parse_term(tz))
        else:
            return node


def _parse_term(tz: _Tokenizer) -> _Node:
    node = _parse_unary(tz)
    while True:
        kind, tok = tz.peek()
        if kind == "op" and tok in "*/":
            tz.take()
            node = _BinOp(tok, node, _parse_unary(tz))
        else:
            return node


def _parse_unary(tz: _Tokenizer) -> _Node:
    kind, tok = tz.peek()
    if kind == "op" and tok == "-":
        tz.take()
        return _Neg(_parse_unary(tz))
    return _parse_atom(tz)


def _parse_atom(tz: _Tokenizer) -> _Node:
    kind, tok = tz.take()
    if kind == "number":
        try:
            value = float(tok)
        except ValueError:
            raise tz.error(f"malformed number {tok!r}") from None
        if not math.isfinite(value):
            raise tz.error(f"number {tok!r} is out of range")
        return _Num(value)
    if kind == "name":
        if tok == "pi" or tok in _SYMBOLS:
            return _Sym(tok)
        raise tz.error(f"unknown name {tok!r} (expected a number, pi, phi1, or phi2)")
    if kind == "op" and tok == "(":
        node = _parse_expr(tz)
        kind, tok = tz.take()
        if tok != ")":
            raise tz.error("expected ')'")
        return node
    raise tz.error("expected a number, name, or '('")


# --- canonical rendering ---------------------------------------------------

def _render_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _render(node: _Node, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(node, _Num):
        return _render_number(node.value)
    if isinstance(node, _Sym):
        return node.name
    if isinstance(node, _Neg):
        inner = _render(node.operand, 3)
        text = "-" + inner
        return f"({text})" if parent_prec >= 2 else text
    prec = _PRECEDENCE[node.op]
    left = _render(node.left, prec)
    # - and / are left-associative: the right operand needs parens at equal
    # precedence (a-(b+c), a/(b*c)).
    right = _render(node.right, prec + (1 if node.op in "-/" else 0), True)
    text = f"{left}{node.op}{right}"
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


# --- evaluation ------------------------------------------------------------

class _Exact:
    """a + b*pi with exact rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction):
        self.a = a
        self.b = b

    def to_float(self) -> float:
        if self.b == 0:
            return float(self.a)
        if self.a == 0:
            return float(self.b) * math.pi
        return float(self.a) + float(self.b) * math.pi


def _to_float(v) -> float:
    try:
        return v.to_float() if isinstance(v, _Exact) else v
    except OverflowError:  # a rational beyond the float range
        return math.inf


def _eval(node: _Node, bindings: Mapping[str, float]):
    if isinstance(node, _Num):
        as_frac = Fraction(node.value)
        return _Exact(as_frac, Fraction(0))
    if isinstance(node, _Sym):
        if node.name == "pi":
            return _Exact(Fraction(0), Fraction(1))
        if node.name not in bindings:
            raise ValidationError(f"unbound symbol {node.name!r} in phase expression")
        return float(bindings[node.name])
    if isinstance(node, _Neg):
        v = _eval(node.operand, bindings)
        if isinstance(v, _Exact):
            return _Exact(-v.a, -v.b)
        return -v
    left = _eval(node.left, bindings)
    right = _eval(node.right, bindings)
    op = node.op
    if isinstance(left, _Exact) and isinstance(right, _Exact):
        if op == "+":
            return _Exact(left.a + right.a, left.b + right.b)
        if op == "-":
            return _Exact(left.a - right.a, left.b - right.b)
        if op == "*" and right.b == 0:
            return _Exact(left.a * right.a, left.b * right.a)
        if op == "*" and left.b == 0:
            return _Exact(left.a * right.a, left.a * right.b)
        if op == "/" and right.b == 0:
            if right.a == 0:
                raise ValidationError("division by zero in phase expression")
            return _Exact(left.a / right.a, left.b / right.a)
        # pi*pi and division by a multiple of pi leave the rational-pi field
    return _FLOAT_OPS[op](_to_float(left), _to_float(right))


def _divide(a: float, b: float) -> float:
    if b == 0.0:
        raise ValidationError("division by zero in phase expression")
    return a / b


_FLOAT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}


def _slope(node: _Node, bindings: Mapping[str, float], name: str) -> float:
    """d(node)/d(name) at `bindings`, by the chain rule over the tree."""
    if isinstance(node, _Num):
        return 0.0
    if isinstance(node, _Sym):
        return 1.0 if node.name == name else 0.0
    if isinstance(node, _Neg):
        return -_slope(node.operand, bindings, name)
    du = _slope(node.left, bindings, name)
    dv = _slope(node.right, bindings, name)
    if node.op in "+-":
        return du + dv if node.op == "+" else du - dv
    u, v = (_to_float(_eval(side, bindings)) for side in (node.left, node.right))
    if node.op == "*":
        return du * v + u * dv
    return _divide(du - _divide(u * dv, v), v)


# --- public API ------------------------------------------------------------

@dataclass(frozen=True)
class PhaseExpr:
    """A parsed phase expression, stored in canonical text form."""

    text: str

    @classmethod
    def parse(cls, source: Union[str, int, float]) -> "PhaseExpr":
        """Parse text (or accept a bare number) into canonical form.

        Raises ParseError on malformed input or a literal too large for a
        float.
        """
        if isinstance(source, bool):
            raise ParseError(f"expected a phase expression, got {source!r}")
        if isinstance(source, (int, float)):
            if not math.isfinite(source):
                raise ParseError(f"non-finite phase value {source!r}")
            return cls(_render_number(float(source)))
        return cls(_render(_parse_text(source)))

    @cached_property
    def _node(self) -> _Node:
        return _parse_text(self.text)

    @property
    def free_symbols(self) -> frozenset:
        return frozenset(s for s in _SYMBOLS if _mentions(self._node, s))

    def evaluate(self, bindings: Mapping[str, float] | None = None) -> float:
        """Evaluate to a float; free symbols must appear in `bindings`.

        Raises ValidationError for unbound symbols, division by zero, or a
        result too large for a float.
        """
        return self._finite(_to_float(_eval(self._node, bindings or {})))

    def derivative(self, symbol: str,
                   bindings: Mapping[str, float] | None = None) -> float:
        """Exact derivative with respect to `symbol` at `bindings`; raises
        like `evaluate`."""
        return self._finite(_slope(self._node, bindings or {}, symbol))

    def _finite(self, value: float) -> float:
        if not math.isfinite(value):
            raise ValidationError(f"phase expression {self.text!r} is not finite")
        return value


def _parse_text(text: str) -> _Node:
    tz = _Tokenizer(text)
    node = _parse_expr(tz)
    kind, tok = tz.peek()
    if kind != "end":
        raise tz.error(f"unexpected trailing input {tok!r}")
    return node


def _mentions(node: _Node, name: str) -> bool:
    if isinstance(node, _Sym):
        return node.name == name
    if isinstance(node, _Neg):
        return _mentions(node.operand, name)
    if isinstance(node, _BinOp):
        return _mentions(node.left, name) or _mentions(node.right, name)
    return False


def evaluate_phase(source: Union[str, int, float],
                   bindings: Mapping[str, float] | None = None) -> float:
    """One-shot parse + evaluate."""
    return PhaseExpr.parse(source).evaluate(bindings)
