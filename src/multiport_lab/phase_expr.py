"""Tiny constant-expression grammar for phase values.

Accepts numbers, ``pi``, the free symbols ``phi1``/``phi2``, the four
arithmetic operators, unary minus, and parentheses::

    pi/8    2*pi - 1e-5    -(phi1 + pi/2)/3

Evaluation keeps values in exact rational-plus-rational-multiple-of-pi form
for as long as the arithmetic allows (so ``2*pi - pi`` is exactly ``pi`` and
``pi/8`` is a single correctly-rounded multiply), dropping to plain floats
only when a nonlinear combination or a free symbol forces it.  The same text
therefore evaluates to the same float on every run.

Bindings may be numpy arrays: the symbols they bind then evaluate
elementwise, with the same bits as one scalar binding at a time, while
operands without them stay exact and broadcast.

A text compiles once to a flat postfix program: a tuple of numbers, the
names ``pi``/``phi1``/``phi2`` and the operators, with ``neg`` for a unary
minus.  One regular expression scans the tokens and one precedence loop
(shunting yard) orders them; the canonical text, the value with its
derivative, and the affinity in a symbol are each one loop over that tuple,
so no function recurses and no expression is too deep to read.
`PhaseExpr` stores the canonical text and caches its program; two
expressions compare equal iff their canonical texts match.
`PhaseExpr.derivative` evaluates every operand on the way, so it raises
like `PhaseExpr.evaluate`, an unbound symbol included.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Union

import numpy as np

from .errors import ParseError, ValidationError

_SYMBOLS = ("phi1", "phi2")

#: a phase value: a float, or an array where an array binding enters
Value = Union[float, np.ndarray]


# --- scanner and precedence loop -------------------------------------------

#: one token after spaces and tabs; `bad` takes any character no other kind
#: starts, and `end` is \Z, as $ would also match before a final newline
_TOKEN = re.compile(r"[ \t]*(?:(?P<number>[\d.]+(?:[eE][+-]?\d+)?)|(?P<name>[^\W\d]\w*)"
                    r"|(?P<op>[-+*/()])|(?P<end>\Z)|(?P<bad>.))", re.DOTALL)

#: how tightly each operator takes its operands while parsing
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}


class _Tokenizer:
    """The (kind, token, column) of each token of one text, by one scan."""

    def __init__(self, text: str):
        self.matches = _TOKEN.finditer(text)

    def __iter__(self):
        for match in self.matches:
            kind = match.lastgroup
            yield kind, match.group(kind), match.start(kind) + 1


def _compile(text: str) -> tuple:
    """The postfix program of `text`, from one scan and a precedence loop."""
    program, ops, depth, operand = [], [], 0, True  # operand: one is due next
    for kind, tok, column in _Tokenizer(text):
        if kind == "bad":
            raise _error(column, f"unexpected character {tok!r} in phase expression")
        if operand:
            if kind == "number":
                try:
                    value = float(tok)
                except ValueError:
                    raise _error(column, f"malformed number {tok!r}") from None
                if not math.isfinite(value):
                    raise _error(column, f"number {tok!r} is out of range")
                program.append(value)
                operand = False
            elif kind == "name":
                if tok != "pi" and tok not in _SYMBOLS:
                    raise _error(column, f"unknown name {tok!r} "
                                         "(expected a number, pi, phi1, or phi2)")
                program.append(tok)
                operand = False
            elif tok == "-":
                ops.append("neg")
            elif tok == "(":
                ops.append(tok)
                depth += 1
            else:
                raise _error(column, "expected a number, name, or '('")
        elif kind == "op" and tok in "+-*/":
            while ops and ops[-1] != "(" and _PRECEDENCE[ops[-1]] >= _PRECEDENCE[tok]:
                program.append(ops.pop())
            ops.append(tok)
            operand = True
        elif tok == ")" and depth:
            while ops[-1] != "(":
                program.append(ops.pop())
            ops.pop()
            depth -= 1
        elif depth:
            raise _error(column, "expected ')'")
        elif kind != "end":
            raise _error(column, f"unexpected trailing input {tok!r}")
        else:
            program.extend(reversed(ops))
            return tuple(program)


def _error(column: int, message: str) -> ParseError:
    return ParseError(message, line=1, column=column)


# --- canonical rendering ---------------------------------------------------

def _render_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


#: how tightly each operator binds, then how tightly the place of each of its
#: operands needs it to bind, else that operand is parenthesised: the right
#: operand of - or / is kept apart at equal precedence (a-(b+c), a-(b*c),
#: a/(b*c)), and a negation is parenthesised unless it is an operand of +
#: or the left one of -
_PLACES = {"+": (2, 2, 3), "-": (2, 2, 5), "*": (4, 4, 5), "/": (4, 4, 7), "neg": (3, 6)}
_ATOM = 9  # a number or a name binds tightest of all


def _render(program: tuple) -> str:
    """The canonical text of a postfix program.  Each operation's text is a
    tuple of its pieces (texts, or tuples like it), joined once at the end
    by a walk with an explicit stack, so no text is copied more than once."""
    stack = []  # (text or tuple of pieces, how tightly it binds)
    for tok in program:
        if tok not in _PLACES:
            stack.append((tok if isinstance(tok, str) else _render_number(tok), _ATOM))
            continue
        binds, *places = _PLACES[tok]
        texts = [("(", text, ")") if tight < place else text
                 for (text, tight), place in zip(stack[-len(places):], places)]
        del stack[-len(places):]
        stack.append((("-", texts[0]) if tok == "neg" else (texts[0], tok, texts[1]), binds))
    out, todo = [], [stack[0][0]]
    while todo:
        piece = todo.pop()
        if isinstance(piece, str):
            out.append(piece)
        else:
            todo.extend(reversed(piece))
    return "".join(out)


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


def _to_float(v) -> Value:
    try:
        return v.to_float() if isinstance(v, _Exact) else v
    except OverflowError:  # a rational beyond the float range
        return math.inf


def _leaf(tok, bindings: Mapping[str, Value]):
    if not isinstance(tok, str):
        return _Exact(Fraction(tok), Fraction(0))
    if tok == "pi":
        return _Exact(Fraction(0), Fraction(1))
    if tok not in bindings:
        raise ValidationError(f"unbound symbol {tok!r} in phase expression")
    value = np.asarray(bindings[tok], dtype=np.float64)
    return value if value.ndim else float(value)


def _apply(op: str, left, right):
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


def _divide(a, b):
    if np.any(np.equal(b, 0.0)):
        raise ValidationError("division by zero in phase expression")
    return a / b


_FLOAT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}


def _run(program: tuple, bindings: Mapping[str, Value], name: str | None = None):
    """(value, slope) of a postfix program at `bindings`: the slope is
    d/d`name` by the chain rule, or None without a `name`."""
    values, slopes = [], []
    for tok in program:
        if tok == "neg":
            v = values[-1]
            values[-1] = _Exact(-v.a, -v.b) if isinstance(v, _Exact) else -v
            if name is not None:
                slopes[-1] = -slopes[-1]
        elif tok in _FLOAT_OPS:
            right = values.pop()
            left = values[-1]
            values[-1] = _apply(tok, left, right)
            if name is not None:
                dv = slopes.pop()
                du = slopes[-1]
                if tok in "+-":
                    slopes[-1] = du + dv if tok == "+" else du - dv
                    continue
                u, v = _to_float(left), _to_float(right)
                slopes[-1] = du * v + u * dv if tok == "*" else _divide(du - _divide(u * dv, v), v)
        else:
            values.append(_leaf(tok, bindings))
            if name is not None:
                slopes.append(1.0 if tok == name else 0.0)
    return values[0], slopes[0] if name is not None else None


def _degree(program: tuple, name: str) -> int:
    """0 if the program does not mention `name`, 1 if affine in it, else 2."""
    stack = []
    for tok in program:
        if tok in _FLOAT_OPS:
            right = stack.pop()
            left = stack[-1]
            if tok in "+-":
                stack[-1] = max(left, right)
            else:
                stack[-1] = min(left + right, 2) if tok == "*" else (2 if right else left)
        elif tok != "neg":
            stack.append(int(tok == name))
    return stack[0]


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
        return cls(_render(_compile(source)))

    @cached_property
    def _program(self) -> tuple:
        return _compile(self.text)

    @property
    def free_symbols(self) -> frozenset:
        return frozenset(s for s in _SYMBOLS if _degree(self._program, s))

    def evaluate(self, bindings: Mapping[str, Value] | None = None) -> Value:
        """Evaluate to a float; free symbols must appear in `bindings`.

        Array bindings give an array, elementwise with the same bits as
        scalar bindings; an operand they do not enter stays a float and
        broadcasts.  Raises ValidationError for unbound symbols, or for
        division by zero or a result too large for a float in any element.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # _finite rejects inf, nan
            return self._finite(_to_float(_run(self._program, bindings or {})[0]))

    def derivative(self, symbol: str,
                   bindings: Mapping[str, Value] | None = None) -> Value:
        """Exact derivative with respect to `symbol` at `bindings`; takes
        arrays and raises like `evaluate`."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._finite(_run(self._program, bindings or {}, symbol)[1])

    def is_affine_in(self, symbol: str) -> bool:
        """Whether the expression is affine in `symbol` (``phi1*phi1 -
        phi1*phi1`` is not: products and divisors are read as written)."""
        return _degree(self._program, symbol) <= 1

    def _finite(self, value: Value) -> Value:
        if not np.all(np.isfinite(value)):
            raise ValidationError(f"phase expression {self.text!r} is not finite")
        return value


def evaluate_phase(source: Union[str, int, float],
                   bindings: Mapping[str, float] | None = None) -> float:
    """One-shot parse + evaluate."""
    return PhaseExpr.parse(source).evaluate(bindings)
