"""Polynomials as formal sums over monomials: ring laws, scalar coercion,
substitution and the printed form."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from roughrenorm.poly import Poly

NAMES = ("x", "y", "z")
COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
MONOMIALS = st.lists(st.sampled_from(NAMES), max_size=3).map(lambda m: tuple(sorted(m)))
POLYS = st.lists(st.tuples(MONOMIALS, COEFFS), max_size=5).map(Poly)
VALUES = st.fixed_dictionaries({name: COEFFS for name in NAMES})


@given(POLYS, POLYS, POLYS)
@settings(max_examples=150, deadline=None)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + Poly() == p and p * Poly.const(1) == p
    assert p * Poly() == Poly()
    assert p - q == p + (-q)
    for x in (p + q, p - q, -p, p * q):
        assert type(x) is Poly
    diff = p - p
    assert diff.terms == {} and not diff


@given(POLYS)
@settings(max_examples=150, deadline=None)
def test_scalar_coercion(p):
    assert 2 + p == p + 2 == p + Poly.const(2)
    assert p - Fraction(1, 3) == p + Poly.const(Fraction(-1, 3))
    assert Fraction(1, 3) - p == Poly.const(Fraction(1, 3)) - p
    assert Fraction(1, 2) * p == p * Fraction(1, 2) == Poly.const(Fraction(1, 2)) * p
    assert (p == 0) == (not p)
    assert p - p == 0
    assert Poly.const(0) == Poly() == 0
    for x in (2 + p, p - 1, 1 - p, 3 * p):
        assert type(x) is Poly


@given(POLYS, POLYS, VALUES)
@settings(max_examples=150, deadline=None)
def test_substitute_is_a_ring_map(p, q, values):
    assert (p * q).substitute(values) == p.substitute(values) * q.substitute(values)
    assert (p + q).substitute(values) == p.substitute(values) + q.substitute(values)
    assert Poly.const(Fraction(2, 3)).substitute(values) == Fraction(2, 3)


def test_repr_as_the_cli_prints_it():
    # `symbolic g-antipode "Xi_1*I(Xi_2) . Xi_2*I(Xi_1) - 1/2*Xi_1*I(Xi_1) + 3"`
    d1x2, d2x1, d1x1 = (Poly.var(f"C[{e}]") for e in ("D1][X2", "D2][X1", "D1][X1"))
    p = d1x2 * d2x1 + Fraction(1, 2) * d1x1 + 3
    assert repr(p) == "3 + 1/2*C[D1][X1] + 1*C[D1][X2]*C[D2][X1]"
    assert repr(-(p - p)) == "0"
    assert repr(Poly.var("x") * Poly.var("x") - Fraction(2, 7)) == "-2/7 + 1*x*x"
