"""Property tests: a phase expression's canonical text is a fixed point of
parsing and gives the same bits as the text it came from.  Needs
hypothesis; skipped without it."""

import pytest

from multiport_lab import PhaseExpr, ValidationError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=300, deadline=None, database=None)

LEAVES = st.one_of(st.sampled_from(["pi", "phi1", "phi2"]), st.integers(0, 100).map(str),
                   st.floats(0.0, 1e6).map(repr), st.floats(1e-8, 1e300).map(repr))


def combine(children):
    # operands joined without parentheses re-associate by precedence, so the
    # parsed form need not follow the drawing
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", "/", " - ", "\t*"]), children)
        .map("".join),
        children.map(lambda c: f"({c})"),
        children.map(lambda c: f"-{c}"))


EXPRESSIONS = st.recursive(LEAVES, combine, max_leaves=24)
ANGLES = st.floats(-10.0, 10.0)


def outcome(fn):
    try:
        return float(fn()).hex()
    except ValidationError as exc:  # the message names the text, which differs
        return "not finite" if "not finite" in str(exc) else str(exc)


@SETTINGS
@hypothesis.given(EXPRESSIONS, ANGLES, ANGLES)
def test_canonical_text_is_a_fixed_point_with_the_same_bits(src, phi1, phi2):
    canonical = PhaseExpr.parse(src)
    assert PhaseExpr.parse(canonical.text).text == canonical.text
    written = PhaseExpr(src)  # evaluates the text as written
    bindings = {"phi1": phi1, "phi2": phi2}
    for expr in (written, canonical):
        assert expr.free_symbols == canonical.free_symbols
        assert expr.is_affine_in("phi1") == canonical.is_affine_in("phi1")
    for fn in (lambda e: e.evaluate(bindings), lambda e: e.derivative("phi1", bindings),
               lambda e: e.derivative("phi2", bindings)):
        assert outcome(lambda: fn(written)) == outcome(lambda: fn(canonical))
