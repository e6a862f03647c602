import ast
import math
import time
from pathlib import Path

import numpy as np
import pytest

from multiport_lab import ParseError, PhaseExpr, ValidationError, evaluate_phase, phase_expr


def test_plain_numbers():
    assert evaluate_phase("0") == 0.0
    assert evaluate_phase("1.5") == 1.5
    assert evaluate_phase("2e-3") == 2e-3
    assert evaluate_phase(".5") == 0.5
    assert evaluate_phase(3) == 3.0
    assert evaluate_phase(0.25) == 0.25


def test_pi_arithmetic_hits_exact_floats():
    # rational multiples of pi must evaluate to the same float every time,
    # matching direct double arithmetic
    assert evaluate_phase("pi") == math.pi
    assert evaluate_phase("pi/8") == math.pi / 8
    assert evaluate_phase("2*pi") == 2 * math.pi
    assert evaluate_phase("pi/2+pi/2") == math.pi
    assert evaluate_phase("3*pi/4") == 3 * math.pi / 4
    assert evaluate_phase("2*pi-1e-5") == 2 * math.pi - 1e-5


def test_operator_precedence_and_parens():
    assert evaluate_phase("1+2*3") == 7.0
    assert evaluate_phase("(1+2)*3") == 9.0
    assert evaluate_phase("2-1-1") == 0.0
    assert evaluate_phase("8/2/2") == 2.0
    assert evaluate_phase("-pi") == -math.pi
    assert evaluate_phase("--1") == 1.0


def test_symbols_require_bindings():
    expr = PhaseExpr.parse("phi1 + phi2/2")
    assert expr.free_symbols == frozenset({"phi1", "phi2"})
    assert expr.evaluate({"phi1": 1.0, "phi2": 4.0}) == 3.0
    with pytest.raises(ValidationError):
        expr.evaluate({"phi1": 1.0})


def test_unknown_name_rejected():
    with pytest.raises(ParseError):
        PhaseExpr.parse("tau")


def test_syntax_errors_carry_column():
    with pytest.raises(ParseError) as err:
        PhaseExpr.parse("1 + * 2")
    assert err.value.line == 1
    assert err.value.column == 5


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        PhaseExpr.parse("1 2")
    with pytest.raises(ParseError):
        PhaseExpr.parse("(1")


def test_division_by_zero():
    with pytest.raises(ValidationError):
        evaluate_phase("1/0")


def test_non_finite_input_rejected():
    with pytest.raises(ParseError):
        PhaseExpr.parse(float("nan"))
    with pytest.raises(ParseError):
        PhaseExpr.parse(float("inf"))


def test_bool_is_not_a_phase():
    with pytest.raises(ParseError):
        PhaseExpr.parse(True)


def test_canonical_text_round_trips():
    for src in ("pi/8", "2*pi-1e-5", "phi1+phi2", "-(phi1)/2", "0.125"):
        expr = PhaseExpr.parse(src)
        again = PhaseExpr.parse(expr.text)
        assert again == expr
        assert again.text == expr.text


def test_numeric_entry_renders_without_noise():
    assert PhaseExpr.parse(2).text == "2"
    assert PhaseExpr.parse(0.5).text == "0.5"


def test_text_is_parsed_once(monkeypatch):
    parsed = []
    tokenizer = phase_expr._Tokenizer
    monkeypatch.setattr(phase_expr, "_Tokenizer",
                        lambda text: parsed.append(text) or tokenizer(text))
    expr = PhaseExpr("phi1*2")
    assert expr.free_symbols == frozenset({"phi1"})
    assert [expr.evaluate({"phi1": x}) for x in (0.25, 1.0)] == [0.5, 2.0]
    assert parsed == ["phi1*2"]


@pytest.mark.parametrize("src, want", [
    ("2*phi1", 2.0),
    ("-(phi1+pi/2)/3", -1 / 3),
    ("phi1*phi2", 1.3),
    ("phi1/3", 1 / 3),
    ("phi2-pi", 0.0),
    ("phi1*phi1", 1.4),
    ("1/phi1", -1 / 0.49),
])
def test_derivative_values(src, want):
    got = PhaseExpr.parse(src).derivative("phi1", {"phi1": 0.7, "phi2": 1.3})
    assert got == pytest.approx(want, rel=1e-15)


def test_derivative_matches_a_central_difference():
    bindings = {"phi1": 0.7, "phi2": 1.3}
    h = 1e-6
    for src in ("2*phi1-phi2", "phi1*phi2/(phi1+pi)", "-(phi1/3)*(phi1-1)", "phi2/phi1"):
        expr = PhaseExpr.parse(src)
        for name in ("phi1", "phi2"):
            up = expr.evaluate({**bindings, name: bindings[name] + h})
            down = expr.evaluate({**bindings, name: bindings[name] - h})
            got = expr.derivative(name, bindings)
            assert got == pytest.approx((up - down) / (2 * h), rel=1e-8)


def test_derivative_errors_like_evaluate():
    with pytest.raises(ValidationError):
        PhaseExpr.parse("phi1/phi2").derivative("phi1", {"phi1": 1.0})
    with pytest.raises(ValidationError):
        PhaseExpr.parse("phi1/phi2").derivative("phi2", {"phi1": 1.0, "phi2": 0.0})
    with pytest.raises(ValidationError):
        PhaseExpr.parse("1e300*phi1*phi1").derivative("phi1", {"phi1": 1e10})


def test_derivative_needs_every_symbol_bound():
    # the value of each operand is taken on the way, so an unbound symbol
    # raises even where it adds nothing to the slope
    for src in ("phi1+phi2", "phi2-phi1", "-phi2+2*phi1"):
        with pytest.raises(ValidationError, match="unbound symbol 'phi2'"):
            PhaseExpr.parse(src).derivative("phi1", {"phi1": 1.0})


@pytest.mark.parametrize("src, affine", [
    ("phi1", True),
    ("-(phi1+pi/2)/3", True),
    ("2*phi1-phi2*phi2", True),
    ("phi2*(phi1-1)/pi", True),
    ("phi1*phi1", False),
    ("phi1*phi1-phi1*phi1", False),
    ("1/phi1", False),
    ("pi/(phi1+1)", False),
])
def test_affinity_is_read_off_the_tree(src, affine):
    assert PhaseExpr.parse(src).is_affine_in("phi1") is affine


def test_overflowing_literal_rejected():
    with pytest.raises(ParseError):
        PhaseExpr.parse("1e400")
    with pytest.raises(ParseError):
        PhaseExpr.parse("pi - 2e308")


@pytest.mark.parametrize("src", ["1e308*10", "1e200*1e200", "pi*1e308*10", "phi1*1e308*10"])
def test_overflowing_result_rejected(src):
    with pytest.raises(ValidationError):
        PhaseExpr.parse(src).evaluate({"phi1": 1.0})


# every tree form used above, plus a constant
ARRAY_FORMS = ("2*phi1", "-(phi1+pi/2)/3", "phi1*phi2", "phi1/3", "phi2-pi", "phi1*phi1",
               "1/phi1", "2*phi1-phi2", "phi1*phi2/(phi1+pi)", "-(phi1/3)*(phi1-1)",
               "phi2/phi1", "2*phi1-phi2*phi2", "phi2*(phi1-1)/pi", "pi/(phi1+1)",
               "phi1*phi1-phi1*phi1", "-(phi1)/2", "2*pi-1e-5")


@pytest.mark.parametrize("src", ARRAY_FORMS)
def test_array_bindings_match_scalar_evaluation_bit_for_bit(src):
    rng = np.random.default_rng(7)
    phi1 = rng.uniform(0.1, 6.0, 37)
    expr = PhaseExpr.parse(src)
    for phi2 in (1.3, rng.uniform(0.1, 6.0, 37)):
        arrays = {"phi1": phi1, "phi2": phi2}
        points = [{"phi1": float(x), "phi2": float(y)}
                  for x, y in zip(phi1, np.broadcast_to(phi2, phi1.shape))]
        for got, at in ((expr.evaluate(arrays), expr.evaluate),
                        (expr.derivative("phi1", arrays), lambda b: expr.derivative("phi1", b)),
                        (expr.derivative("phi2", arrays), lambda b: expr.derivative("phi2", b))):
            want = np.array([at(b) for b in points])
            assert np.broadcast_to(got, phi1.shape).tobytes() == want.tobytes(), src


def test_constant_subtree_stays_exact_under_array_bindings():
    got = PhaseExpr.parse("pi/8").evaluate({"phi1": np.linspace(0.0, 1.0, 5)})
    assert got == math.pi / 8 and np.ndim(got) == 0


@pytest.mark.parametrize("src, symbol, phi1", [
    ("1/phi1", None, [1.0, 0.0, 2.0]),
    ("phi2/phi1", "phi1", [1.0, 2.0, 0.0]),
    ("phi1*1e308*10", None, [0.0, 1.0, 0.0]),
    ("1e300*phi1*phi1", "phi1", [1.0, 1e10, 1.0]),
    ("(phi1-1)/(phi1-1)", None, [2.0, 1.0, 3.0]),
])
def test_one_bad_element_rejects_the_array(src, symbol, phi1):
    expr = PhaseExpr.parse(src)
    bindings = {"phi1": np.array(phi1), "phi2": 0.5}
    with pytest.raises(ValidationError):
        if symbol is None:
            expr.evaluate(bindings)
        else:
            expr.derivative(symbol, bindings)


CORPUS = Path(__file__).with_name("phase_expr_corpus.tsv")
CORPUS_BINDINGS = ({"phi1": 0.7, "phi2": 1.3}, {"phi1": 0.0, "phi2": -2.5})


def corpus_rows():
    with CORPUS.open(encoding="ascii") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if not line.startswith("#")]
    return [pytest.param(row, id=row[0]) for row in rows]


def outcome(fn):
    try:
        return float(fn()).hex()
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@pytest.mark.parametrize("row", corpus_rows())
def test_corpus_answers_as_generated(row):
    src, *want = row
    src = ast.literal_eval(src)
    if want[0] == "ParseError":
        with pytest.raises(ParseError) as err:
            PhaseExpr.parse(src)
        assert [str(err.value.line), str(err.value.column), str(err.value)] == ["1"] + want[1:]
        return
    expr = PhaseExpr.parse(src)
    assert expr.text == ast.literal_eval(want[0])
    assert PhaseExpr.parse(expr.text) == expr
    got = []
    for b in CORPUS_BINDINGS:
        got += [outcome(lambda: expr.evaluate(b)), outcome(lambda: expr.derivative("phi1", b)),
                outcome(lambda: expr.derivative("phi2", b))]
    assert got == want[1:]


def test_corpus_covers_every_error_and_parenthesis_rule():
    rows = [row.values[0] for row in corpus_rows()]
    messages = {row[3].split(" ")[0] for row in rows if row[1] == "ParseError"}
    assert messages == {"unexpected", "malformed", "number", "unknown", "expected"}
    texts = {ast.literal_eval(row[1]) for row in rows if row[1] != "ParseError"}
    # a negation inside a product, the right side of a difference or a
    # quotient, a nested negation, a sum on the right of a sum
    for text in ("(-phi1)*phi2", "phi1*(-phi2)", "phi1-(phi2+pi)", "phi1-(phi2*pi)",
                 "phi1/(phi2*pi)", "phi1/(-phi2)", "-(-phi1)", "phi1+(phi2+pi)"):
        assert text in texts


DEPTH = 10_000
#: balanced inputs DEPTH deep, each with its value at phi1 = 0.3
DEEP = {
    "parentheses": ("(" * DEPTH + "phi1" + ")" * DEPTH, 0.3),
    "unary minus": ("-" * DEPTH + "phi1", 0.3),
    "left sum": ("+".join(["phi1"] * DEPTH), None),
    "right-nested difference": ("phi1-(" * (DEPTH - 1) + "phi1" + ")" * (DEPTH - 1), 0.0),
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_input_parses_and_evaluates_quickly(name):
    src, value = DEEP[name]
    start = time.perf_counter()
    expr = PhaseExpr.parse(src)
    got = expr.evaluate({"phi1": 0.3, "phi2": 0.5})
    slope = expr.derivative("phi1", {"phi1": 0.3, "phi2": 0.5})
    assert time.perf_counter() - start < 1.0
    if value is not None:
        assert got == value
    assert expr.is_affine_in("phi1") and expr.free_symbols == frozenset({"phi1"})
    assert slope == {"left sum": DEPTH, "right-nested difference": 0.0}.get(name, 1.0)


LONG = 100_000
#: inputs LONG operators long, each with the length of its canonical text,
#: which joining each operation's text in turn would build in quadratic time
LONG_SHAPES = {
    "sum": ("+".join(["phi1"] * LONG), 5 * LONG - 1),
    "unary minus": ("-" * LONG + "phi1", 3 * LONG + 2),
    "right-nested difference": ("phi1-(" * LONG + "phi1" + ")" * LONG, 7 * LONG + 2),
}


@pytest.mark.parametrize("name", sorted(LONG_SHAPES))
def test_long_input_renders_in_linear_time(name):
    src, length = LONG_SHAPES[name]
    start = time.perf_counter()
    expr = PhaseExpr.parse(src)
    assert time.perf_counter() - start < 1.0
    assert len(expr.text) == length


@pytest.mark.parametrize("name", sorted(DEEP))
def test_unbalanced_deep_input_fails_quickly(name):
    src = DEEP[name][0]
    unbalanced = "(" + src if src.endswith(")") else "(" * DEPTH + src
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        PhaseExpr.parse(unbalanced)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == "expected ')'" and err.value.column == len(unbalanced) + 1
