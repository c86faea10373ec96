import numpy as np
import pytest

from sgosc.exprparse import SymbolParseError, parse_expression
from sgosc.symbols import parse_symbol_expr


def _vals(text, d, s, X, K, allow_division=False):
    sym = parse_symbol_expr(text, (d, s), (0, 0), allow_division=allow_division)
    return sym.value(X, K)


def test_grammar_examples():
    X = np.array([[1.0]])
    K = np.array([[1.0]])
    assert abs(_vals("jb(x)*jb(k)", 1, 1, X, K)[0] - 2.0) < 1e-14
    g = _vals("exp(-norm2(x)-norm2(k))", 1, 1, X, K)[0]
    assert abs(g - np.exp(-2.0)) < 1e-14


def test_kg_phase_expression_matches_formula():
    # 1+1-dimensional two-point phase with unit mass: x.xi - x0 omega(xi)
    sym = parse_symbol_expr("x1*k1 - x0*sqrt(1+norm2(k))", (2, 1), (1, 1))
    X = np.array([[0.5], [1.5]])
    K = np.array([[2.0]])
    want = 1.5 * 2.0 - 0.5 * np.sqrt(5.0)
    assert abs(sym.value(X, K)[0] - want) < 1e-14


def test_index_conventions():
    # 1-based by default
    s1 = parse_symbol_expr("x1+x2", (2, 0), (0, 0))
    assert abs(s1.value(np.array([[1.0], [10.0]]), None)[0] - 11.0) < 1e-14
    # presence of x0 switches the x family to 0-based
    s0 = parse_symbol_expr("x0+2*x1", (2, 0), (0, 0))
    assert abs(s0.value(np.array([[1.0], [10.0]]), None)[0] - 21.0) < 1e-14
    with pytest.raises(SymbolParseError):
        parse_expression("x3", 2, 0)


def test_round_trip_on_random_points():
    texts = [
        "jb(x)*jb(k)",
        "exp(-norm2(x)-norm2(k))",
        "x1*k1 - x0*sqrt(1+norm2(k))",
        "sin(x1)*cos(k1)+jb(x,k)^-2.0",
        "(x1+k1)^3",
    ]
    rng = np.random.default_rng(11)
    for t in texts:
        d = 2 if "x0" in t or "x2" in t else 1
        ast = parse_expression(t, d, 1)
        back = parse_expression(ast.to_text(), d, 1)
        X = rng.uniform(-3, 3, (d, 100))
        K = rng.uniform(-3, 3, (1, 100))
        from sgosc.jets import jet_variables

        v = jet_variables(0, X, K)
        a = ast.jet(v[:d], v[d:]).value
        b = back.jet(v[:d], v[d:]).value
        assert np.max(np.abs(a - b)) < 1e-12


def test_parse_error_carries_position():
    with pytest.raises(SymbolParseError) as ei:
        parse_expression("jb(x) + ?", 1, 1)
    assert "position" in str(ei.value)


def test_division_policy():
    # jb-power denominators are fine
    parse_expression("x1/jb(k)^2.0", 1, 1)
    parse_expression("1/jb(x)", 1, 1)
    with pytest.raises(SymbolParseError):
        parse_expression("1/(1+x1)", 1, 1)
    # explicit assertion of nonvanishing lifts the restriction
    parse_expression("1/(1+norm2(x))", 1, 1, allow_division=True)


def test_functions_arity_checked():
    with pytest.raises(SymbolParseError):
        parse_expression("exp(x)", 1, 1)  # bare vector outside jb/norm2
    with pytest.raises(SymbolParseError):
        parse_expression("sqrt(x1, k1)", 1, 1)


def test_jet_evaluation_through_parser():
    sym = parse_symbol_expr("jb(x)*jb(k)", (1, 1), (1, 1))
    j = sym.jet(np.array([[1.0]]), np.array([[1.0]]), 2)
    assert abs(j.partial((1, 1))[0] - 0.5) < 1e-13


# (text, d, s, to_text) for every expression in the tests, the README and the
# benchmark workloads, plus number and spacing forms
_PINNED_TEXT = [
    ("jb(x)*jb(k)", 1, 1, "(jb(x)*jb(k))"),
    ("exp(-norm2(x)-norm2(k))", 1, 1, "exp(((-norm2(x))-norm2(k)))"),
    ("x1*k1 - x0*sqrt(1+norm2(k))", 2, 1, "((x2*k1)-(x1*sqrt((1.0+norm2(k)))))"),
    ("x1+x2", 2, 1, "(x1+x2)"),
    ("x0+2*x1", 2, 1, "(x1+(2.0*x2))"),
    ("sin(x1)*cos(k1)+jb(x,k)^-2.0", 1, 1, "((sin(x1)*cos(k1))+(jb(x,k)^-2.0))"),
    ("(x1+k1)^3", 1, 1, "((x1+k1)^3.0)"),
    ("x1/jb(k)^2.0", 1, 1, "(x1/(jb(k)^2.0))"),
    ("1/jb(x)", 1, 1, "(1.0/jb(x))"),
    ("x1^3*k1", 1, 1, "((x1^3.0)*k1)"),
    ("x1*k1 + 0.1*jb(x)*jb(k)", 1, 1, "((x1*k1)+((0.1*jb(x))*jb(k)))"),
    ("x1", 1, 1, "x1"),
    ("x1*k1 + jb(x)", 1, 1, "((x1*k1)+jb(x))"),
    ("(x1-x2)*k1", 2, 1, "((x1-x2)*k1)"),
    ("jb(k)^1.5", 1, 1, "(jb(k)^1.5)"),
    ("jb(x)^-3*jb(k)^-3", 1, 1, "((jb(x)^-3.0)*(jb(k)^-3.0))"),
    (".5*x1 + 2.*k1 - 3e-2*x1*k1", 1, 1, "(((0.5*x1)+(2.0*k1))-((0.03*x1)*k1))"),
    ("pi*x1 - 1E3*k1^2", 1, 1, "((3.141592653589793*x1)-(1000.0*(k1^2.0)))"),
    ("-x1*k1 + 2^-1*jb(x, k1)", 1, 1, "(((-x1)*k1)+((2.0^-1.0)*jb(x,k1)))"),
    ("x1*-k1 - (-x1)^2", 1, 1, "((x1*(-k1))-((-x1)^2.0))"),
    ("norm2(x, k) / 4", 1, 1, "(norm2(x,k)/4.0)"),
    ("  sqrt( jb(x)*jb(k) )  ", 1, 1, "sqrt((jb(x)*jb(k)))"),
]


@pytest.mark.parametrize("text, d, s, want", _PINNED_TEXT)
def test_to_text_pinned(text, d, s, want):
    assert parse_expression(text, d, s).to_text() == want


def test_unary_minus_binds_looser_than_power():
    X, K = np.array([[2.0]]), np.array([[0.0]])
    assert abs(_vals("exp(-x1^2)", 1, 1, X, K)[0] - np.exp(-4.0)) < 1e-15
    assert _vals("-x1^2", 1, 1, X, K)[0] == -4.0
    assert _vals("2*-x1^2", 1, 1, X, K)[0] == -8.0
    assert parse_expression("-x1^2", 1, 1).to_text() == "(-(x1^2.0))"
    assert parse_expression("2*-x1^2", 1, 1).to_text() == "(2.0*(-(x1^2.0)))"


@pytest.mark.parametrize(
    "text",
    [
        "x1**2",
        "1j*x1",
        "x1 if k1 else 2",
        "foo(x1)",
        pytest.param("x1*1" + "0" * 400, id="int-beyond-float"),
        "x1 < k1",
        "x1 // 2",
        "not x1",
        "x1 and k1",
        "x1.real",
        "x1[0]",
        "(x1, k1)",
        "jb(x=1)",
        "jb(*x)",
        "jb()",
        "'x1'",
        "True*x1",
        "None",
        "x1^k1",
        "x1^2^3",
        "x1^+2",
        "x1 # comment",
        "x1 +",
        "x1 k1",
        "exp",
        pytest.param("-" * 3000 + "x1", id="deep-nesting"),
    ],
)
def test_refused_outside_grammar(text):
    with pytest.raises(SymbolParseError) as ei:
        parse_expression(text, 1, 1)
    assert 0 <= ei.value.pos <= len(text)


@pytest.mark.parametrize(
    "text, pos",
    [("jb(x) + ?", 8), ("x1 ^ k1", 5), ("x1^2 + foo(k1)", 7), ("  x1 ^ 2 ^ 2", 7), ("x1**2", 2)],
)
def test_refusal_position_is_in_the_users_text(text, pos):
    with pytest.raises(SymbolParseError) as ei:
        parse_expression(text, 1, 1)
    assert ei.value.pos == pos


@pytest.mark.parametrize(
    "text, pos",
    [
        ("x1 + x3", 5),
        ("x1 + 1/(1+x1)", 6),
        ("   x1^2 + k2", 10),
        ("  x1^2 + (x1)/ (x1^2)", 13),
        ("x0 + x2^2", 5),
    ],
)
def test_index_and_division_refusals_point_at_the_culprit(text, pos):
    # an out-of-range variable is reported at its first character and a
    # refused division at its "/", counted in the user's text
    with pytest.raises(SymbolParseError) as ei:
        parse_expression(text, 1, 1)
    assert ei.value.pos == pos
    assert str(ei.value).endswith(f"(at position {pos})")


def test_division_value_and_first_partials():
    sym = parse_symbol_expr("x1/jb(k)^2.0", (1, 1), (0, 0))
    x = np.array([[-1.5, 0.0, 0.7, 2.0]])
    k = np.array([[0.3, -2.0, 1.1, 0.0]])
    j = sym.jet(x, k, 1)
    den = 1.0 + k[0] ** 2
    assert np.allclose(j.value, x[0] / den, rtol=1e-14, atol=0)
    assert np.allclose(j.partial((1, 0)), 1.0 / den, rtol=1e-14, atol=0)
    assert np.allclose(j.partial((0, 1)), -2.0 * x[0] * k[0] / den**2, rtol=1e-14, atol=1e-16)
    inv = 1.0 / parse_symbol_expr("jb(k)^2.0", (1, 1), (0, 0)).jet(x, k, 1)  # Jet.__rtruediv__
    assert np.allclose(inv.value, 1.0 / den, rtol=1e-14, atol=0)
    assert np.allclose(inv.partial((0, 1)), -2.0 * k[0] / den**2, rtol=1e-14, atol=1e-16)
