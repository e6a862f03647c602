import math

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
