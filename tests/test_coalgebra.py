"""Coproducts, the projected variants, and the twisted antipode."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_extraction
from roughrenorm.coalgebra import (
    _finish_repaired,
    delta_minus,
    delta_minus_ex,
    delta_minus_ex_even,
    delta_plus_ex,
    twisted_antipode,
)
from roughrenorm.errors import DomainError
from roughrenorm.gaussian import SymbolicCovariance, g_antipode, renormalised_expansion
from roughrenorm.model import gamma_direct
from roughrenorm.structure import (
    StructureSpec,
    enumerate_basis,
    generic_spec,
    is_negative_forest,
    rough_vol_spec,
)
from roughrenorm.trees import (
    EMPTY_FOREST,
    FormalSum,
    Forest,
    INTEGRATION,
    LEAF,
    branch,
    forest_of,
    forest_product,
    mul_forests,
    noise,
    parse_symbol,
    tree_product,
)

SPEC = generic_spec(2, 4)
IXI2 = branch(INTEGRATION, branch(noise(2)))


def _forest(text):
    ((f, c),) = list(parse_symbol(text, d=2))
    assert c == 1
    return f


def _pairs(x):
    return {k: c for k, c in x}


def _expect(pairs):
    return {(_forest(a), _forest(b)): m for a, b, m in pairs}


def test_coproduct_of_noise():
    got = _pairs(delta_minus(parse_symbol("Xi_1", d=2)))
    assert got == _expect([("1", "Xi_1", 1), ("Xi_1", "1", 1)])


def test_coproduct_of_integrated_noise():
    got = _pairs(delta_minus(parse_symbol("I(Xi_1)", d=2)))
    assert got == _expect(
        [
            ("1", "I(Xi_1)", 1),
            ("I", "Xi_1", 1),
            ("Xi_1", "I", 1),
            ("I(Xi_1)", "1", 1),
        ]
    )


def test_coproduct_of_product_symbol():
    # includes the multiplicity-2 middle term and the final tau (x) 1
    got = _pairs(delta_minus(parse_symbol("Xi_1*I(Xi_1)", d=2)))
    assert got == _expect(
        [
            ("1", "Xi_1*I(Xi_1)", 1),
            ("Xi_1", "I(Xi_1)", 1),
            ("I(Xi_1)", "Xi_1", 2),
            ("Xi_1", "Xi_1*I", 1),
            ("I*Xi_1", "Xi_1", 1),
            ("Xi_1 . Xi_1", "I", 1),
            ("Xi_1*I(Xi_1)", "1", 1),
        ]
    )


def test_the_smallest_competing_rider_stays_at_the_remainders_root():
    """Of the competing riders, the smallest in branch order stays at the
    remainder's root.  Contracting both I edges of I(Xi_1)*I(Xi_2) and
    neither noise edge leaves the riders Xi_1 and Xi_2; Xi_1 stays, and Xi_2
    goes back into its extracted component: I*I(Xi_2) (x) Xi_1.  Extracting
    the whole I(Xi_2) and the I over Xi_1 gives that term once more, so it
    has coefficient 2 and I*I(Xi_1) (x) Xi_2 has 1."""
    got = _pairs(delta_minus(parse_symbol("I(Xi_1)*I(Xi_2)", d=2)))
    assert got[(_forest("I*I(Xi_1)"), _forest("Xi_2"))] == 1
    assert got[(_forest("I*I(Xi_2)"), _forest("Xi_1"))] == 2


def test_coproduct_counit():
    for text in ["Xi_1", "I(Xi_2)", "Xi_1*I(Xi_2)^2", "I^2", "Xi_2*I"]:
        x = parse_symbol(text, d=2)
        dm = delta_minus(x)
        left_unit = FormalSum()
        right_unit = FormalSum()
        for (a, b), c in dm:
            if a == EMPTY_FOREST:
                left_unit += FormalSum.lift(b, c)
            if b == EMPTY_FOREST:
                right_unit += FormalSum.lift(a, c)
        assert left_unit == x
        assert right_unit == x


def _iterate(dm, which, repair):
    """Apply the coproduct to one leg of a pair-keyed sum -> triple-keyed."""
    out = FormalSum()
    for (a, b), c in dm:
        inner = delta_minus(FormalSum.lift(a if which == 0 else b), repair=repair)
        for (u, v), c2 in inner:
            key = (u, v, b) if which == 0 else (a, u, v)
            out += FormalSum.lift(key, c * c2)
    return out


def test_plain_contraction_is_coassociative():
    for text in ["Xi_1", "I(Xi_1)", "Xi_1*I(Xi_1)", "Xi_1*I(Xi_2)^2", "Xi_2*I*I(Xi_1)"]:
        dm = delta_minus(parse_symbol(text, d=2), repair=False)
        assert _iterate(dm, 0, False) == _iterate(dm, 1, False)


@pytest.mark.parametrize("d, truncation", [(1, 6), (2, 4), (3, 3)])
def test_plain_contraction_is_coassociative_on_basis(d, truncation):
    for tree in enumerate_basis(generic_spec(d, truncation)):
        dm = delta_minus(tree, repair=False)
        assert _iterate(dm, 0, False) == _iterate(dm, 1, False), tree


def test_repaired_variant_is_not_coassociative():
    dm = delta_minus(parse_symbol("Xi_1*I(Xi_1)", d=2), repair=True)
    assert _iterate(dm, 0, True) != _iterate(dm, 1, True)


def _iterate_plus(dp, which, spec):
    """Apply delta_plus_ex to one leg of a pair-keyed sum -> triple-keyed."""
    out = FormalSum()
    for (a, b), c in dp:
        for (u, v), c2 in delta_plus_ex(a if which == 0 else b, spec):
            key = (u, v, b) if which == 0 else (a, u, v)
            out += FormalSum.lift(key, c * c2)
    return out


@pytest.mark.parametrize("d, truncation", [(1, 6), (2, 4), (3, 3)])
def test_positive_coproduct_is_coassociative(d, truncation):
    spec = generic_spec(d, truncation)
    for tree in enumerate_basis(spec):
        dp = delta_plus_ex(tree, spec)
        assert _iterate_plus(dp, 0, spec) == _iterate_plus(dp, 1, spec), tree


def _cointeraction_sides(tau, spec):
    """Both sides of the cointeraction of Δ⁻ex and Δ⁺ex on ``tau``, keyed
    by forest triples (a tree leg as its forest):
    (id (x) Δ⁺ex) Δ⁻ex τ and M^(13)(2)(4) (Δ⁻ex (x) Δ⁻ex) Δ⁺ex τ."""
    left = FormalSum()
    for (a, r), c in delta_minus_ex(tau, spec):
        (root,) = r.trees or (LEAF,)  # a remainder has at most one tree
        for (r1, r2), c2 in delta_plus_ex(root, spec):
            left += FormalSum.lift((a, forest_of(r1), forest_of(r2)), c * c2)
    right = FormalSum()
    for (l, r), c in delta_plus_ex(tau, spec):
        for (a1, r1), c1 in delta_minus_ex(l, spec):
            for (a2, r2), c2 in delta_minus_ex(r, spec):
                right += FormalSum.lift((forest_product(a1, a2), r1, r2), c * c1 * c2)
    return left, right


@pytest.mark.parametrize("d, truncation", [(1, 6), (2, 5), (3, 4)])
def test_negative_and_positive_coproducts_cointeract(d, truncation):
    # Bruned-Hairer-Zambotti (arXiv:1610.08468): renormalisation commutes
    # with recentring
    spec = generic_spec(d, truncation)
    for tau in enumerate_basis(spec):
        left, right = _cointeraction_sides(tau, spec)
        assert left == right, tau


def test_variants_agree_after_negative_projection():
    for tree in enumerate_basis(SPEC):
        x = FormalSum.lift(forest_of(tree))
        plain = FormalSum(
            [
                ((a, r), c)
                for (a, r), c in delta_minus(x, repair=False)
                if all(SPEC.degree_tree(t) < 0 for t in a.trees)
            ]
        )
        assert delta_minus_ex(x, SPEC) == plain


def test_projected_coproduct_left_legs_negative():
    for tree in enumerate_basis(SPEC):
        dm = delta_minus_ex(FormalSum.lift(forest_of(tree)), SPEC)
        for (a, b), _ in dm:
            assert all(SPEC.degree_tree(t) < 0 for t in a.trees)


def test_projected_coproduct_grading():
    for tree in enumerate_basis(SPEC):
        dm = delta_minus_ex(FormalSum.lift(forest_of(tree)), SPEC)
        target = SPEC.degree_tree(tree)
        for (a, b), _ in dm:
            assert SPEC.degree(a) + SPEC.degree(b) == target


@pytest.mark.parametrize("i, j", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_full_projected_coproduct_size(i, j):
    # the full table stays whole; only g∘A's consumers read the pruned one
    tree = parse_symbol(f"Xi_{i}*I(Xi_{j})^3", d=2)
    assert len(delta_minus_ex(tree, generic_spec(2, 3))) == 14


@pytest.mark.parametrize(
    "spec",
    [
        SPEC,
        rough_vol_spec(Fraction(1, 20), Fraction(1, 50), 6),
        generic_spec(1, 6),
        generic_spec(3, 3),
        rough_vol_spec(Fraction(3, 10), Fraction(1, 100)),
        generic_spec(2, 12),  # Xi_i*I(Xi_j)^n up to n = 12 among them
    ],
)
def test_even_table_is_the_full_table_less_odd_left_legs(spec):
    for tree in enumerate_basis(spec):
        full = delta_minus_ex(tree, spec)
        even = FormalSum(
            [((a, r), c) for (a, r), c in full if not any(t.num_noises % 2 for t in a.trees)]
        )
        assert delta_minus_ex_even(tree, spec) == even, tree


def _oracle_even_table(tree, spec):
    """The screened table of the sorted-tuple DP with its left legs projected
    onto negative forests, as ``(key, coefficient)`` pairs in DP order."""
    pairs = {}
    for (aoff, aroot, rem), m in reference_extraction.screened(tree, _finish_repaired, {}).items():
        a = Forest(aoff + (aroot,))
        if is_negative_forest(a, spec):
            key = (a, forest_of(rem))
            pairs[key] = pairs.get(key, 0) + m
    return list(pairs.items())


def _assert_closed_form_is_the_dp(tree, spec):
    got = list(delta_minus_ex_even(tree, spec))
    expected = _oracle_even_table(tree, spec)
    assert got == expected, tree  # keys, coefficients and order
    assert [type(c) for _, c in got] == [type(c) for _, c in expected], tree


# alpha_1 - 1 + 3 * alpha_2 = 0: Xi_1*I(Xi_2)^3, an even root part, has degree 0
_ZERO_SPEC = StructureSpec(2, (Fraction(1, 2), Fraction(1, 6)), 6)


@pytest.mark.parametrize(
    "spec",
    [
        generic_spec(1, 12),
        generic_spec(2, 9),
        generic_spec(2, 14),
        generic_spec(3, 5),
        generic_spec(2, 30),
        rough_vol_spec(Fraction(3, 10), Fraction(1, 100)),
        _ZERO_SPEC,
    ],
    ids=["1-12", "2-9", "2-14", "3-5", "2-30", "rough-vol", "zero-degree"],
)
def test_even_table_equals_the_screened_sorted_tuple_dp_on_basis(spec):
    for tree in enumerate_basis(spec):
        _assert_closed_form_is_the_dp(tree, spec)


def test_a_degree_zero_root_part_is_left_out():
    root_part = tree_product(branch(noise(1)), *[IXI2] * 3)
    assert _ZERO_SPEC.degree_tree(root_part) == 0
    table = delta_minus_ex_even(tree_product(root_part, IXI2), _ZERO_SPEC)
    assert [a for (a, _), _ in table] == [EMPTY_FOREST, forest_of(tree_product(branch(noise(1)), IXI2))]



@st.composite
def symbols_with_runs(draw):
    """A symbol ``Xi_i * I^a * Π_j I(Xi_j)^(n_j)`` over three channels, and a
    spec whose exponents give its root parts degrees of either sign."""
    alpha = draw(st.tuples(*[st.fractions(Fraction(1, 24), Fraction(23, 24), max_denominator=24)] * 3))
    root = draw(st.sampled_from([[], [branch(noise(1))], [branch(noise(2))], [branch(noise(3))]]))
    factors = [branch(INTEGRATION)] * draw(st.integers(0, 2))
    for j in (1, 2, 3):
        factors += [branch(INTEGRATION, branch(noise(j)))] * draw(st.integers(0, 4))
    return tree_product(*root, *factors), StructureSpec(3, alpha)


@given(symbols_with_runs())
@example((tree_product(branch(noise(1)), *[IXI2] * 4), StructureSpec(3, _ZERO_SPEC.alpha + (Fraction(1, 2),))))
@settings(max_examples=60, deadline=None)
def test_even_table_equals_the_screened_sorted_tuple_dp_on_symbols_with_runs(symbol_spec):
    _assert_closed_form_is_the_dp(*symbol_spec)


@pytest.mark.parametrize("n", [1, 9, 30])
def test_even_table_of_xi_times_a_power_has_one_term_per_odd_count(n):
    # the unit, and Xi_1 extracted with each odd count k of whole I(Xi_2), in
    # C(n, k) ways: 1 + ceil(n / 2) terms
    spec = generic_spec(2, 30)
    xi = branch(noise(1))
    table = delta_minus_ex_even(tree_product(xi, *[IXI2] * n), spec)
    assert len(table) == 1 + (n + 1) // 2
    assert table == FormalSum(
        [((EMPTY_FOREST, forest_of(tree_product(xi, *[IXI2] * n))), Fraction(1))]
        + [
            (
                (forest_of(tree_product(xi, *[IXI2] * k)), forest_of(tree_product(*[IXI2] * (n - k)))),
                Fraction(comb(n, k)),
            )
            for k in range(1, n + 1, 2)
        ]
    )
    # a pure power has no root noise: the unit term alone
    power = tree_product(*[branch(INTEGRATION, branch(noise(1)))] * n)
    assert list(delta_minus_ex_even(power, spec)) == [((EMPTY_FOREST, forest_of(power)), 1)]


def test_delta_plus_binomial():
    from math import comb

    n = 4
    ((f, _),) = list(parse_symbol(f"Xi_1*I(Xi_2)^{n}", d=2))
    got = _pairs(delta_plus_ex(f.trees[0], SPEC))
    xi = branch(noise(1))
    ixi = branch(INTEGRATION, branch(noise(2)))
    expected = {}
    for ell in range(n + 1):
        left = tree_product(xi, *([ixi] * ell))
        right = tree_product(*([ixi] * (n - ell)))
        expected[(left, right)] = comb(n, ell)
    assert got == expected


def test_delta_plus_kills_noise_on_right():
    for tree in enumerate_basis(SPEC):
        for (a, b), _ in delta_plus_ex(tree, SPEC):
            assert all(et.kind != "Xi" for et, _ in b.children)


def test_antipode_of_noise():
    x = parse_symbol("Xi_1", d=2)
    assert twisted_antipode(x, SPEC) == -x


def test_antipode_of_product_symbol():
    x = parse_symbol("Xi_1*I(Xi_2)", d=2)
    expected = parse_symbol(
        "-Xi_1*I(Xi_2) + Xi_1 . I(Xi_2) + Xi_2 . Xi_1*I - Xi_1 . Xi_2 . I", d=2
    )
    assert twisted_antipode(x, SPEC) == expected


def test_antipode_multiplicative():
    x = parse_symbol("Xi_1 . Xi_2", d=2)
    a1 = twisted_antipode(parse_symbol("Xi_1", d=2), SPEC)
    a2 = twisted_antipode(parse_symbol("Xi_2", d=2), SPEC)
    prod = FormalSum()
    for (f1, c1) in a1:
        for (f2, c2) in a2:
            prod += FormalSum.lift(Forest(f1.trees + f2.trees), c1 * c2)
    assert twisted_antipode(x, SPEC) == prod


def test_antipode_identity_on_negative_basis():
    # M (A (x) Id) delta_minus_ex(tau) = counit(tau) = 0 for every non-unit tau
    spec = generic_spec(2, 6)
    checked = 0
    for tau in enumerate_basis(spec):
        if not tau.children or spec.degree_tree(tau) >= 0:
            continue
        total = FormalSum()
        for (a, r), c in delta_minus_ex(tau, spec):
            total += mul_forests(twisted_antipode(a, spec), FormalSum.lift(r)).scale(c)
        assert total.is_zero, tau
        checked += 1
    assert checked == 2 + 6 * 4  # Xi_i and Xi_i * I(Xi_j)^n for n <= 6


def test_antipode_requires_negative_degree():
    spec = rough_vol_spec(Fraction(3, 10), Fraction(1, 100), truncation=4)
    with pytest.raises(DomainError):
        twisted_antipode(parse_symbol("I(Xi_2)", d=2), spec)


# depth-3 trees and a noise edge with a child lie outside the symbol family
_OUTSIDE_THE_FAMILY = {
    "I(I(Xi_1))": branch(INTEGRATION, branch(INTEGRATION, branch(noise(1)))),
    "Xi_1*I(I(Xi_2))": tree_product(
        branch(noise(1)), branch(INTEGRATION, branch(INTEGRATION, branch(noise(2))))
    ),
    "Xi_1(Xi_2)": branch(noise(1), branch(noise(2))),
}
_MODE_READERS = {
    "delta_minus": delta_minus,
    "delta_minus_ex": lambda t: delta_minus_ex(t, SPEC),
    "delta_minus_ex_even": lambda t: delta_minus_ex_even(t, SPEC),
    "twisted_antipode": lambda t: twisted_antipode(t, SPEC),
    "g_antipode": lambda t: g_antipode(t, SymbolicCovariance(2), SPEC),
}


@pytest.mark.parametrize("reader", _MODE_READERS)
@pytest.mark.parametrize("tree", _OUTSIDE_THE_FAMILY)
def test_readers_of_the_top_level_modes_reject_trees_outside_the_family(reader, tree):
    # the repaired finisher acts on the top tree only, which is exact only for
    # symbols, whose subtrees have one table under either finisher; the
    # closed form of delta_minus_ex_even holds for symbols only
    with pytest.raises(DomainError):
        _MODE_READERS[reader](_OUTSIDE_THE_FAMILY[tree])


def _coefficients(table):
    """Every coefficient of a FormalSum, a Poly coefficient's own included."""
    for _, c in table:
        if isinstance(c, FormalSum):
            yield from _coefficients(c)
        else:
            yield c


_TYPED_READERS = {
    "delta_minus": lambda tree, spec: delta_minus(tree),
    "delta_minus_ex": delta_minus_ex,
    "delta_minus_ex_even": delta_minus_ex_even,
    "delta_plus_ex": delta_plus_ex,
    "gamma_direct": gamma_direct,
    "renormalised_expansion": renormalised_expansion,
    "twisted_antipode": twisted_antipode,  # on the negative trees, its domain
}


@pytest.mark.parametrize(
    "spec",
    [generic_spec(2, 9), generic_spec(3, 4), rough_vol_spec(Fraction(3, 10), Fraction(1, 100))],
    ids=["2-9", "3-4", "rough-vol"],
)
def test_integral_coefficients_are_ints_on_whole_bases(spec):
    # the algebra is integral: a Fraction enters only with a rational scalar or
    # covariance entry, and a float never
    for tree in enumerate_basis(spec):
        negative = tree.children and spec.degree_tree(tree) < 0
        for name, reader in _TYPED_READERS.items():
            if name == "twisted_antipode" and not negative:
                continue
            for c in _coefficients(reader(tree, spec)):
                assert not isinstance(c, float), (name, tree, c)
                assert type(c) is int or type(c) is Fraction and c.denominator != 1, (name, tree, c)


def test_a_rational_scalar_keeps_a_fraction():
    x = parse_symbol("1/3*Xi_2*I(Xi_1)", d=2)
    assert [type(c) for _, c in x] == [Fraction] and list(x)[0][1] == Fraction(1, 3)
    for table in (delta_minus(x), twisted_antipode(x, SPEC)):
        assert table.terms and all(type(c) is Fraction for c in _coefficients(table)), table
    assert [type(c) for _, c in parse_symbol("4/2*Xi_1 - Xi_2", d=2)] == [int, int]
