"""Degree grading, named specs, projections, basis enumeration."""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from roughrenorm.errors import ConfigError
from roughrenorm.structure import (
    enumerate_basis,
    generic_spec,
    required_power,
    rough_vol_spec,
    tree_survives_plus,
)
from roughrenorm.trees import (
    EMPTY_FOREST,
    Forest,
    INTEGRATION,
    LEAF,
    branch,
    forest_of,
    noise,
    tree_product,
)

XI1 = branch(noise(1))
XI2 = branch(noise(2))
I_BARE = branch(INTEGRATION)
IXI2 = branch(INTEGRATION, XI2)


def test_degrees_are_exact_fractions():
    spec = rough_vol_spec(Fraction(2, 5), Fraction(1, 100))
    assert spec.alpha == (Fraction(49, 100), Fraction(39, 100))
    assert spec.degree_tree(XI1) == Fraction(-51, 100)
    assert spec.degree_tree(IXI2) == Fraction(39, 100)
    assert spec.degree_tree(I_BARE) == 1
    assert spec.degree_tree(tree_product(XI1, IXI2)) == Fraction(-12, 100)
    assert spec.degree_tree(LEAF) == 0


def test_degree_additive_over_forests():
    spec = generic_spec(2, 4)
    f = Forest((XI1, IXI2))
    assert spec.degree(f) == spec.degree_tree(XI1) + spec.degree_tree(IXI2)
    assert spec.degree(EMPTY_FOREST) == 0


def test_required_power_values():
    assert required_power(Fraction(2, 5), Fraction(1, 100)) == 1
    assert required_power(Fraction(1, 10), Fraction(1, 100)) == 5


def _required_power_loop(H, kappa):
    """The defining search: smallest m >= 1 with (m + 1)(H - kappa) > 1/2 + kappa."""
    m = 1
    while (m + 1) * (H - kappa) - Fraction(1, 2) - kappa <= 0:
        m += 1
    return m


@given(
    H=st.fractions(0, Fraction(1, 2), max_denominator=100),
    kappa=st.fractions(0, Fraction(1, 2), max_denominator=100),
)
@settings(max_examples=300, deadline=None)
def test_required_power_matches_the_search(H, kappa):
    assume(0 < kappa < H < Fraction(1, 2))
    assert required_power(H, kappa) == _required_power_loop(H, kappa)


def test_required_power_near_the_diagonal_returns_at_once():
    start = time.perf_counter()
    # (1/2 + kappa) / (H - kappa) = 0.7999999999 / 1e-10 = 7,999,999,999 exactly
    assert required_power(Fraction(3, 10), Fraction(2999999999, 10**10)) == 7999999999
    assert time.perf_counter() - start < 0.1


def test_rough_vol_spec_default_truncation():
    assert rough_vol_spec(Fraction(2, 5), Fraction(1, 100)).truncation == 1
    assert rough_vol_spec(Fraction(1, 10), Fraction(1, 100)).truncation == 5


def test_rough_vol_spec_validation():
    with pytest.raises(ConfigError):
        rough_vol_spec(Fraction(3, 5), Fraction(1, 100))
    with pytest.raises(ConfigError):
        rough_vol_spec(Fraction(1, 4), Fraction(1, 4))
    with pytest.raises(ConfigError):
        rough_vol_spec(Fraction(1, 4), Fraction(0))


def test_project_plus_kills_root_noise_factors():
    spec = rough_vol_spec(Fraction(3, 10), Fraction(1, 100))
    assert not tree_survives_plus(tree_product(XI1, IXI2), spec)
    assert tree_survives_plus(IXI2, spec)
    assert tree_survives_plus(I_BARE, spec)
    assert tree_survives_plus(LEAF, spec)


def test_enumerate_basis_count():
    # 1 + d noises + per power n: I^n, d*Xi*I^n, d*I(Xi)^n, d^2*Xi*I(Xi)^n
    spec = generic_spec(2, 3)
    n, d = 3, 2
    assert len(enumerate_basis(spec)) == 1 + d + n * (1 + d + d + d * d)


def test_generic_spec_degrees_negative():
    spec = generic_spec(3, 6)
    for tree in enumerate_basis(spec):
        if any(et.kind == "Xi" for et, _ in tree.children):
            if all(et.kind != "I" or sub.children for et, sub in tree.children):
                assert spec.degree_tree(tree) < 0
