"""Gaussian moments (pairing recursion + Monte Carlo oracle) and the
renormalization character."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from roughrenorm.coalgebra import twisted_antipode
from roughrenorm.errors import ConfigError
from roughrenorm.gaussian import (
    CovarianceSpec,
    SymbolicCovariance,
    g_antipode,
    g_minus,
    isserlis_moment,
    mc_moment_oracle,
)
from roughrenorm.poly import Poly
from roughrenorm.structure import enumerate_basis, generic_spec
from roughrenorm.trees import Forest, parse_symbol

SPEC = generic_spec(2, 8)

D1 = ("D", 1)
D2 = ("D", 2)
X1 = ("X", 1)
X2 = ("X", 2)


def _unit_cov():
    return CovarianceSpec(
        2,
        {
            (D1, D1): Fraction(1),
            (D2, D2): Fraction(1),
            (X1, X1): Fraction(1),
            (X2, X2): Fraction(1),
        },
    )


@pytest.mark.parametrize("k", range(1, 6))
def test_even_power_double_factorial(k):
    cov = _unit_cov()
    expected = 1
    for j in range(1, 2 * k, 2):
        expected *= j
    assert isserlis_moment((D1,) * (2 * k), cov) == expected


def test_odd_moments_vanish():
    cov = _unit_cov()
    assert isserlis_moment((D1,), cov) == 0
    assert isserlis_moment((D1, D1, X2), cov) == 0
    assert isserlis_moment((D1,) * 5, cov) == 0


def test_mixed_moment_exact():
    cov = CovarianceSpec(2, {(D1, X2): Fraction(3, 7), (D1, D1): Fraction(2)})
    assert isserlis_moment((D1, X2), cov) == Fraction(3, 7)
    # E[D1^2 * (D1 X2)] pairs: 3 * Var(D1) * Cov(D1, X2) ... E[D1^3 X2]
    assert isserlis_moment((D1, D1, D1, X2), cov) == 3 * Fraction(2) * Fraction(3, 7)


def test_symbolic_moment():
    cov = SymbolicCovariance(2)
    m = isserlis_moment((D1, X2), cov)
    assert m == Poly.var("C[D1][X2]")


def test_mc_oracle_agrees():
    a = [
        [Fraction(2), Fraction(1, 2), Fraction(0), Fraction(1, 3)],
        [Fraction(1, 2), Fraction(1), Fraction(1, 4), Fraction(0)],
        [Fraction(0), Fraction(1, 4), Fraction(3, 2), Fraction(1, 5)],
        [Fraction(1, 3), Fraction(0), Fraction(1, 5), Fraction(1)],
    ]
    cov = CovarianceSpec.from_matrix(2, a)
    for mono in [(D1, D1), (D1, X2), (D1, D2, X1, X2), (X1, X1, X2, X2)]:
        exact = float(isserlis_moment(mono, cov))
        est, se = mc_moment_oracle(mono, cov, n_samples=200_000, seed=17)
        assert abs(est - exact) <= 5 * se


def test_mc_oracle_rejects_non_psd():
    cov = CovarianceSpec(2, {(D1, D1): Fraction(-1)})
    with pytest.raises(ConfigError):
        mc_moment_oracle((D1, D1), cov, n_samples=10, seed=0)


def test_character_annihilates_bare_integration():
    cov = SymbolicCovariance(2)
    assert g_minus(parse_symbol("Xi_1*I", d=2), cov) == 0
    assert g_minus(parse_symbol("I^2", d=2), cov) == 0


def test_character_on_unit_and_noise():
    cov = SymbolicCovariance(2)
    assert g_minus(parse_symbol("1", d=2), cov) == 1
    assert g_minus(parse_symbol("Xi_1", d=2), cov) == 0


def test_antipode_character_closed_form():
    cov = SymbolicCovariance(2)
    val = g_antipode(parse_symbol("Xi_1*I(Xi_2)", d=2), cov, SPEC)
    assert val == -Poly.var("C[D1][X2]")


@st.composite
def rational_covariances(draw):
    def frac():
        return Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))

    entries = {}
    for u in (D1, D2, X1, X2):
        for v in (D1, D2, X1, X2):
            if u <= v:
                entries[(u, v)] = frac()
    return CovarianceSpec(2, entries)


@given(rational_covariances(), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_antipode_character_vanishes_on_higher_powers(cov, n):
    val = g_antipode(parse_symbol(f"Xi_1*I(Xi_2)^{n}", d=2), cov, SPEC)
    assert val == 0


def test_cached_g_antipode_equals_direct_route():
    """The cached BPHZ character equals g_minus of the expanded antipode on
    every negative-degree basis tree up to power 6, and on every two-tree
    forest of those up to power 3 (all pairs up to power 6 expand about
    6M forest products and take minutes)."""
    spec = generic_spec(2, 6)
    cov = SymbolicCovariance(2)
    trees = [t for t in enumerate_basis(spec) if t.children and spec.degree_tree(t) < 0]
    small = [t for t in trees if t.num_edges <= 7]  # Xi_i * I(Xi_j)^n, n <= 3
    pairs = [Forest((a, b)) for i, a in enumerate(small) for b in small[i:]]
    for x in trees + pairs:
        assert g_antipode(x, cov, spec) == g_minus(twisted_antipode(x, spec), cov), x
