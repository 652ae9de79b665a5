"""Gaussian moments (pairing recursion + Monte Carlo oracle) and the
renormalization character."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

import reference_gaussian
from roughrenorm import cache_info, clear_caches
from roughrenorm.coalgebra import twisted_antipode
from roughrenorm.errors import ConfigError
from roughrenorm.gaussian import (
    CovarianceSpec,
    SymbolicCovariance,
    g_antipode,
    g_minus,
    isserlis_moment,
    mc_moment_oracle,
    variable_order,
)
from roughrenorm.poly import Poly
from roughrenorm.structure import enumerate_basis, generic_spec
from roughrenorm.trees import FormalSum, Forest, parse_symbol

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


def test_symbolic_covariances_share_one_moment_table():
    # every covariance, symbolic or numeric, reads one table of symbolic moments
    clear_caches()
    assert cache_info()["gaussian._MOMENTS"] == 0
    assert isserlis_moment((D1, X2), SymbolicCovariance(2)) == Poly.var("C[D1][X2]")
    filled = cache_info()["gaussian._MOMENTS"]
    assert filled > 0
    assert isserlis_moment((X2, D1), SymbolicCovariance(3)) == Poly.var("C[D1][X2]")
    numeric = CovarianceSpec(2, {(D1, X2): Fraction(3, 7), (X2, X2): Fraction(2)})
    assert isserlis_moment((X2, D1), numeric) == Fraction(3, 7)
    assert cache_info()["gaussian._MOMENTS"] == filled
    assert isserlis_moment((D1, X2, X2, X2), numeric) == 3 * Fraction(3, 7) * 2
    grown = cache_info()["gaussian._MOMENTS"]
    assert grown > filled
    moment = isserlis_moment((X2, D1, X2, X2), SymbolicCovariance(2))
    assert moment == 3 * Poly.var("C[D1][X2]") * Poly.var("C[X2][X2]")
    assert cache_info()["gaussian._MOMENTS"] == grown
    clear_caches()
    assert cache_info()["gaussian._MOMENTS"] == 0


def _random_rational_cov(d, seed):
    rng = random.Random(seed)
    order = variable_order(d)
    entries = {
        (u, v): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for a, u in enumerate(order)
        for v in order[a:]
    }
    return CovarianceSpec(d, entries)


_COVARIANCES = [_random_rational_cov(2, 11), SymbolicCovariance(2)]


@pytest.mark.parametrize("cov", _COVARIANCES, ids=["rational", "symbolic"])
def test_moments_equal_the_ring_generic_recursion(cov):
    kind = Fraction if isinstance(cov, CovarianceSpec) else Poly
    monomials = [
        mono for n in range(7) for mono in combinations_with_replacement(variable_order(2), n)
    ]
    assert len(monomials) == 210
    for mono in monomials:
        value = isserlis_moment(mono, cov)
        assert type(value) is kind and value == reference_gaussian.isserlis_moment(mono, cov), mono


@pytest.mark.parametrize("cov", _COVARIANCES, ids=["rational", "symbolic"])
def test_gaussian_character_equals_the_ring_generic_recursion(cov):
    kind = Fraction if isinstance(cov, CovarianceSpec) else Poly
    basis = enumerate_basis(generic_spec(2, 4))
    forests = [Forest([t]) for t in basis]
    forests += [Forest([s, t]) for s, t in combinations_with_replacement(basis, 2)]
    for forest in forests:
        value = g_minus(forest, cov)
        assert type(value) is kind and value == reference_gaussian.g_minus(forest, cov), forest
    total = sum((FormalSum.lift(f, Fraction(k + 1, 3)) for k, f in enumerate(forests)), FormalSum())
    assert g_minus(total, cov) == reference_gaussian.g_minus(total, cov)


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


@given(
    rational_covariances(),
    st.sampled_from(
        [
            "Xi_1*I(Xi_2)",
            "Xi_1*I(Xi_2) . Xi_2*I(Xi_1)",
            "2*Xi_1*I(Xi_1) - 1/3*Xi_2*I(Xi_1) . Xi_1*I(Xi_2)",
        ]
    ),
)
@settings(max_examples=40, deadline=None)
def test_g_antipode_with_covariance_equals_direct_route(cov, symbol):
    x = parse_symbol(symbol, d=2)
    val = g_antipode(x, cov, SPEC)
    assert isinstance(val, Fraction)
    assert val == g_minus(twisted_antipode(x, SPEC), cov)


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


_NEGATIVE_TREES = [
    t
    for t in enumerate_basis(generic_spec(2, 6))
    if t.children and generic_spec(2, 6).degree_tree(t) < 0
]


@given(
    rational_covariances(),
    st.sampled_from(_NEGATIVE_TREES),
    st.sampled_from(_NEGATIVE_TREES),
)
@settings(max_examples=40, deadline=None)
def test_g_antipode_multiplicative_over_two_tree_forests(cov, a, b):
    """g∘A of a two-tree forest up to power 6 is the product of each tree's
    value by the expanded route (the forest's own antipode is never
    expanded, which for power 6 would take minutes)."""
    spec = generic_spec(2, 6)
    expected = g_minus(twisted_antipode(a, spec), cov) * g_minus(twisted_antipode(b, spec), cov)
    assert g_antipode(Forest((a, b)), cov, spec) == expected
