"""Path evaluation maps, transport coefficients, renormalized evaluation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import reference_gaussian
import reference_model
from roughrenorm import model
from roughrenorm.coalgebra import (
    delta_minus_ex,
    delta_minus_ex_even,
    delta_plus_ex,
    twisted_antipode,
)
from roughrenorm.errors import DomainError
from roughrenorm.gaussian import (
    CovarianceSpec,
    SymbolicCovariance,
    g_antipode,
    g_minus,
    variable_order,
)
from roughrenorm.model import (
    SamplePath,
    TransportMatrices,
    bphz_expansion,
    check_bphz_plain,
    check_gamma_bphz,
    check_model_axioms,
    eval_pi,
    eval_pi_bphz,
    gamma_direct,
    gamma_via_coproduct,
)
from roughrenorm.poly import Poly
from roughrenorm.structure import StructureSpec, enumerate_basis, generic_spec
from roughrenorm.trees import (
    EMPTY_FOREST,
    INTEGRATION,
    LEAF,
    FormalSum,
    Forest,
    Tree,
    branch,
    forest_of,
    noise,
    parse_symbol,
    tree_product,
)

SPEC = generic_spec(2, 6)

D1 = ("D", 1)
X2 = ("X", 2)


def _forest(text):
    ((f, _),) = list(parse_symbol(text, d=2))
    return f


def _tree(text):
    return _forest(text).trees[0]


def _random_path(d, n, seed):
    t = np.linspace(0.0, 1.0, n + 1)
    rng = np.random.default_rng(seed)
    return SamplePath(
        t=t,
        xi={i: 0.2 * np.cumsum(rng.normal(size=n + 1)) for i in range(1, d + 1)},
        xid={i: rng.normal(size=n + 1) for i in range(1, d + 1)},
    )


@pytest.fixture(scope="module")
def path():
    return _random_path(2, 128, 21)


def test_eval_pi_multiplicative(path):
    a = eval_pi(parse_symbol("I(Xi_2)", d=2), 7, path)
    b = eval_pi(parse_symbol("I(Xi_2)^3", d=2), 7, path)
    assert np.allclose(b, a**3)
    assert b[7] == 0.0


def test_eval_pi_recentering(path):
    x = parse_symbol("I(Xi_1)", d=2)
    v5 = eval_pi(x, 5, path)
    v9 = eval_pi(x, 9, path)
    assert np.allclose(v5 - v5[9], v9)


def test_eval_pi_noise_not_recentered(path):
    x = parse_symbol("Xi_1", d=2)
    assert np.array_equal(eval_pi(x, 5, path), path.xid[1])


def test_gamma_routes_agree_symbolically():
    cov = SymbolicCovariance(2)
    for tree in enumerate_basis(generic_spec(2, 3)):
        direct = gamma_direct(tree, SPEC)
        via = gamma_via_coproduct(tree, SPEC, cov, twist=True)
        plain = gamma_via_coproduct(tree, SPEC, cov, twist=False)
        for other in (via, plain):
            diff = direct - other
            assert all(c == 0 for _, c in diff), tree


def _assert_transport_equals_the_oracle(tree, spec):
    """``gamma_direct`` equals the product of two-term sums exactly: the
    same targets, equal coefficients of the same types, and the integer 1
    on the untransported term."""
    got = gamma_direct(tree, spec)
    expected = reference_model.gamma_direct(tree, spec)
    assert got.terms.keys() == expected.terms.keys(), tree
    for key, c in expected:
        assert got.terms[key] == c, (tree, key)
        assert type(got.terms[key]) is type(c), (tree, key)
        if isinstance(c, Poly):
            assert [type(k) for _, k in got.terms[key]] == [type(k) for _, k in c], (tree, key)
    assert type(got.terms[tree]) is int and got.terms[tree] == 1, tree


@pytest.mark.parametrize("d, truncation", [(1, 8), (2, 6), (3, 4), (2, 9)])
def test_gamma_direct_equals_the_product_of_two_term_sums_on_the_basis(d, truncation):
    spec = generic_spec(d, truncation)
    for tree in enumerate_basis(spec):
        _assert_transport_equals_the_oracle(tree, spec)


@st.composite
def family_trees(draw):
    """A channel count d <= 3 and a symbol-family tree: at most one noise
    and up to three runs, of 1 to 12 equal integration factors each."""
    d = draw(st.integers(1, 3))
    kinds = [branch(INTEGRATION)] + [branch(INTEGRATION, branch(noise(j))) for j in range(1, d + 1)]
    runs = draw(st.lists(st.sampled_from(kinds), max_size=3, unique=True))
    factors = [f for f in runs for _ in range(draw(st.integers(1, 12)))]
    noises = draw(st.sampled_from([[]] + [[branch(noise(i))] for i in range(1, d + 1)]))
    return d, tree_product(*noises, *factors)


@given(family_trees())
@example((2, _tree("Xi_1*I^12*I(Xi_1)^12*I(Xi_2)^12")))
@settings(max_examples=40, deadline=None)
def test_gamma_direct_equals_the_product_of_two_term_sums_off_the_basis(d_tree):
    d, tree = d_tree
    _assert_transport_equals_the_oracle(tree, generic_spec(d, 1))


def _assert_plus_equals_the_oracle(tree, spec):
    """``delta_plus_ex`` equals the product of two-term sums exactly: the
    same pairs, equal coefficients of the same types."""
    got = delta_plus_ex(tree, spec)
    expected = reference_model.delta_plus_ex(tree, spec)
    assert got.terms.keys() == expected.terms.keys(), tree
    for key, c in expected:
        assert got.terms[key] == c, (tree, key)
        assert type(got.terms[key]) is type(c), (tree, key)


@pytest.mark.parametrize("d, truncation", [(1, 10), (2, 8), (3, 5)])
def test_delta_plus_equals_the_product_of_two_term_sums_on_the_basis(d, truncation):
    spec = generic_spec(d, truncation)
    for tree in enumerate_basis(spec):
        _assert_plus_equals_the_oracle(tree, spec)


@given(family_trees())
@example((2, _tree("Xi_1*I^12*I(Xi_1)^12*I(Xi_2)^12")))
@settings(max_examples=40, deadline=None)
def test_delta_plus_equals_the_product_of_two_term_sums_off_the_basis(d_tree):
    d, tree = d_tree
    _assert_plus_equals_the_oracle(tree, generic_spec(d, 1))


@pytest.mark.parametrize(
    "d, truncation, entries", [(1, 8, 178), (2, 6, 246), (3, 4, 228), (2, 9, 489)]
)
def test_transport_puts_each_entry_in_a_cell_of_its_own(d, truncation, entries):
    # TransportMatrices.at assigns the entries to their cells, which adds
    # nothing up: two entries in one cell would keep only the last
    spec = generic_spec(d, truncation)
    flat = TransportMatrices.compile(enumerate_basis(spec), spec).flat
    assert len(flat) == entries
    assert len(set(flat.tolist())) == len(flat)


@pytest.mark.parametrize("twist, character", [(True, "g_antipode"), (False, "g_minus")])
def test_gamma_via_coproduct_reads_each_left_legs_character_once(monkeypatch, twist, character):
    legs = []
    read = getattr(model, character)

    def counted(a, *args):
        legs.append(a)
        return read(a, *args)

    monkeypatch.setattr(model, character, counted)
    spec = generic_spec(2, 4)
    tree = _tree("Xi_1*I(Xi_2)^4")
    assert gamma_via_coproduct(tree, spec, SymbolicCovariance(2), twist=twist) == gamma_direct(
        tree, spec
    )
    assert legs and len(legs) == len(set(legs))


def test_gamma_via_coproduct_reads_each_remainders_transport_once(monkeypatch):
    # with shared minus_tables, a later call reads no transport character again
    remainders = []
    read = model._gamma_char

    def counted(r):
        remainders.append(r)
        return read(r)

    monkeypatch.setattr(model, "_gamma_char", counted)
    spec = generic_spec(2, 4)
    tree = _tree("Xi_1*I(Xi_2)^4")
    tables = {}
    for twist in (True, False):
        cov = SymbolicCovariance(2)
        via = gamma_via_coproduct(tree, spec, cov, twist=twist, minus_tables=tables)
        assert via == gamma_direct(tree, spec)
    assert remainders and len(remainders) == len(set(remainders))


@pytest.mark.parametrize("d, truncation", [(2, 5), (3, 3)])
def test_screened_tables_give_each_right_leg_the_full_tables_inner_character(d, truncation):
    """gamma_via_coproduct reads each right leg's screened extraction
    table; the full-table route it replaced gives the same transport, and
    each right leg the same inner character under both twists."""
    spec, cov = generic_spec(d, truncation), SymbolicCovariance(d)
    screened, full = {}, {}
    for tau in enumerate_basis(spec):
        for twist in (True, False):
            via = gamma_via_coproduct(tau, spec, cov, twist=twist, minus_tables=screened)
            oracle = reference_model.gamma_via_coproduct(tau, spec, cov, twist, full)
            assert via == oracle, (tau, twist)
    assert screened.keys() == full.keys()

    def inner(table, char):
        return sum((char(a) * transport for a, transport in table), Poly())

    characters = {True: lambda a: g_antipode(a, cov, spec), False: lambda a: g_minus(a, cov)}
    for twist, char in characters.items():
        for t2 in full:
            assert inner(screened[t2], char) == inner(full[t2], char), (t2, twist)


def test_every_right_legs_screened_table_is_its_unit_term():
    # renormalisation acts on every positive right leg through its unit term
    # alone: no negative forest of even noise count can be extracted from it
    right_legs = 0
    for spec in (generic_spec(1, 10), generic_spec(2, 8), generic_spec(3, 5)):
        legs = {t2 for tau in enumerate_basis(spec) for (_, t2), _ in delta_plus_ex(tau, spec)}
        for t2 in legs:
            unit = FormalSum([((EMPTY_FOREST, forest_of(t2)), 1)])
            assert delta_minus_ex_even(t2, spec) == unit, t2
        right_legs += len(legs)
    assert right_legs == 67


def test_numeric_transport_matches_symbolic():
    rng = np.random.default_rng(5)
    names = ["g[I]", "g[I(Xi_1)]", "g[I(Xi_2)]"]
    basis = enumerate_basis(SPEC)
    transport = TransportMatrices.compile(basis, SPEC)
    for _ in range(3):
        values = dict(zip(names, rng.normal(size=len(names))))
        (matrix,) = transport.at({name: np.array([v]) for name, v in values.items()})
        for k, tau in enumerate(basis):
            symbolic = gamma_direct(tau, SPEC)
            assert {basis[j] for j in np.flatnonzero(matrix[k])} == set(symbolic.terms), tau
            for key, c in symbolic:
                # the untransported term's coefficient is the integer 1
                ref = (Poly() + c).substitute(values)
                numeric = matrix[k, basis.index(key)]
                assert numeric == pytest.approx(ref, rel=1e-12, abs=0), tau


def test_check_bphz_plain_passes():
    report = check_bphz_plain(SPEC, 6, SymbolicCovariance(2))
    assert report["status"] == "pass"
    assert report["failures"] == []
    assert report["cases"] > 0


def test_check_gamma_bphz_passes():
    report = check_gamma_bphz(SPEC, 4, SymbolicCovariance(2))
    assert report["status"] == "pass"
    assert report["failures"] == []


@pytest.mark.parametrize("d", [1, 2, 3])
def test_checks_agree_at_nmax_zero(d):
    # the unit and the d noises, once per check and, for transport, per twist
    spec, cov = generic_spec(d, 0), SymbolicCovariance(d)
    plain = check_bphz_plain(spec, 0, cov)
    gamma = check_gamma_bphz(spec, 0, cov)
    assert plain["status"] == gamma["status"] == "pass"
    assert plain["cases"] == 1 + d
    assert gamma["cases"] == 2 * (1 + d)


def test_eval_pi_at_many_base_points(path):
    x = parse_symbol("Xi_1*I(Xi_2)^2*I + 1/3*I(Xi_1) . Xi_2", d=2)
    rows = eval_pi(x, [3, 40, 3], path)
    assert rows.shape == (3, len(path.t))
    for row, s_idx in zip(rows, [3, 40, 3]):
        assert np.array_equal(row, eval_pi(x, s_idx, path))
    assert eval_pi(parse_symbol("Xi_2", d=2), [0, 9], path).shape == (2, len(path.t))


@pytest.mark.parametrize(
    "tree",
    [
        Tree([(noise(1), branch(INTEGRATION))]),  # Xi_1(I): a noise edge above another edge
        tree_product(branch(noise(1)), branch(noise(2))),  # Xi_1*Xi_2: two root noises
        branch(noise(3)),  # Xi_3: a channel the path lacks
    ],
    ids=["Xi_1(I)", "Xi_1*Xi_2", "Xi_3"],
)
def test_eval_pi_rejects_trees_outside_the_family(path, tree):
    for x in (tree, forest_of(tree), FormalSum.lift(forest_of(tree), Fraction(1, 2))):
        with pytest.raises(DomainError, match="outside the symbol family"):
            eval_pi(x, 3, path)


@pytest.mark.parametrize(
    "channels",
    [({1, 2}, {1}), ({1}, {1, 2}), ({1, 3}, {1, 3}), ({2}, {2})],
    ids=["xid-missing", "xid-extra", "xi-gap", "no-channel-1"],
)
def test_sample_path_validates_channels(channels):
    t = np.linspace(0.0, 1.0, 5)
    xi, xid = ({i: t for i in keys} for keys in channels)
    with pytest.raises(ValueError, match="same channels 1..d"):
        SamplePath(t=t, xi=xi, xid=xid)


@pytest.mark.parametrize("d, truncation", [(2, 6), (3, 3)])
def test_eval_pi_equals_the_tree_walk_on_the_basis(d, truncation):
    """On basis symbols a factor's powers are repeated products and the noise
    factor comes last, in the walk's order, so the rows are bit for bit the
    walk's."""
    p = _random_path(d, 64, 8)
    for tau in enumerate_basis(generic_spec(d, truncation)):
        for s_idx in (0, 17, [64, 3, 17]):
            got = eval_pi(tau, s_idx, p)
            assert np.array_equal(got, reference_model.eval_pi(tau, s_idx, p)), tau
            assert got.shape == np.shape(s_idx) + p.t.shape


_NOISES = [branch(noise(1)), branch(noise(2))]
_INTEGRATIONS = [branch(INTEGRATION)] + [branch(INTEGRATION, branch(noise(j))) for j in (1, 2)]


@st.composite
def two_channel_trees(draw):
    """A symbol-family tree on two channels: at most one root noise and up
    to three of each integration factor."""
    root = draw(st.lists(st.sampled_from(_NOISES), max_size=1))
    counts = draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))
    return tree_product(*root, *(f for f, k in zip(_INTEGRATIONS, counts) for _ in range(k)))


forests = st.lists(two_channel_trees(), max_size=3).map(Forest)
formal_sums = st.lists(
    st.tuples(forests, st.fractions(min_value=-5, max_value=5, max_denominator=7)), max_size=4
).map(FormalSum)
base_points = st.integers(0, 128) | st.lists(st.integers(0, 128), min_size=1, max_size=4)


@given(two_channel_trees() | forests | formal_sums, base_points)
@example(_tree("Xi_1*I(Xi_2)^2*I"), 5)
@settings(max_examples=80, deadline=None)
def test_eval_pi_equals_the_tree_walk(path, x, s_idx):
    """Off the basis the product order may differ from the walk's, so each
    point agrees within 1e-13 of the sum of its terms' magnitudes."""
    got = eval_pi(x, s_idx, path)
    expected = reference_model.eval_pi(x, s_idx, path)
    assert got.shape == expected.shape == np.shape(s_idx) + path.t.shape
    terms = x.terms.items() if isinstance(x, FormalSum) else [(x, 1)]
    scale = sum(abs(float(c)) * np.abs(reference_model.eval_pi(k, s_idx, path)) for k, c in terms)
    assert np.all(np.abs(got - expected) <= 1e-13 * scale)


def test_model_axioms(path, monkeypatch):
    compiled = []

    def counted(tree, spec):
        compiled.append(tree)
        return gamma_direct(tree, spec)

    monkeypatch.setattr(model, "gamma_direct", counted)
    report = check_model_axioms(path, SPEC, n_triples=100, seed=3)
    assert report["status"] == "pass"
    assert report["worst_rel_err"] <= 1e-10
    # each symbol's transport is expanded once per call, not once per triple
    assert len(compiled) == len(set(compiled))
    assert report["symbols"] == len(enumerate_basis(SPEC)) == 57
    assert report["transport_entries"] == 246
    assert report["elapsed_s"] > 0


def test_model_axioms_reject_a_spec_with_more_channels_than_the_path(path):
    with pytest.raises(DomainError, match="spec has 3 noise channels, the path only 2"):
        check_model_axioms(path, generic_spec(3, 2), n_triples=4, seed=0)


@pytest.mark.parametrize("n_triples", [0, -1])
def test_model_axioms_reject_no_triple(path, n_triples):
    with pytest.raises(DomainError, match=f"3 grid points, not {n_triples}, 129$"):
        check_model_axioms(path, SPEC, n_triples=n_triples, seed=0)


def test_model_axioms_reject_a_path_of_fewer_than_3_points():
    with pytest.raises(DomainError, match="need at least 1 triple and 3 grid points, not 1, 2$"):
        check_model_axioms(_random_path(2, 1, 0), SPEC, n_triples=1, seed=0)


def test_transport_entries_share_19_monomials_and_one_call_equals_three(path):
    """At truncation 6 the 246 transport entries hold 19 distinct monomials,
    and one evaluation at the stacked increments of (t, s), (u, s) and (t, u)
    equals the three evaluations apart, bit for bit."""
    transport = TransportMatrices.compile(enumerate_basis(SPEC), SPEC)
    assert len(transport.flat) == len(transport.monomials.index) == 246
    assert len(transport.monomials.distinct) == 19
    s, u, t = model._triples(len(path.t), 5, seed=2).T
    fused = transport.at(
        model.eval_gamma(np.concatenate([t, u, t]), np.concatenate([s, s, u]), path)
    )
    apart = [transport.at(model.eval_gamma(a, b, path)) for a, b in ((t, s), (u, s), (t, u))]
    assert np.array_equal(fused, np.concatenate(apart))


def _naive_rows(monomials, values):
    """Row by row: the product, in name order, of each name's power, a power
    built by repeated multiplication; the empty monomial is 1."""
    shape = np.broadcast_shapes(*(np.shape(v) for v in values.values()))
    rows = []
    for mono in monomials:
        row = None
        for name in sorted(set(mono)):
            power = values[name]
            for _ in range(mono.count(name) - 1):
                power = power * values[name]
            row = power if row is None else row * power
        rows.append(np.broadcast_to(1.0 if row is None else row, shape))
    return np.stack(rows, axis=-2)


@st.composite
def monomial_tables(draw):
    """Monomials over 1 to 5 names with powers up to 6, the empty one
    included, drawn with repeats, and their values: arrays of shape (n,) or
    (B, n)."""
    names = ("a", "b", "c", "d", "e")[: draw(st.integers(1, 5))]
    monomial = st.dictionaries(st.sampled_from(names), st.integers(1, 6)).map(
        lambda powers: tuple(sorted(name for name, p in powers.items() for _ in range(p)))
    )
    distinct = draw(st.lists(monomial, min_size=1, max_size=6))
    monomials = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=12))
    n, batch = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    shapes = st.sampled_from([(n,), (batch, n)])
    values = {
        name: draw(hnp.arrays(float, draw(shapes), elements=st.floats(-4, 4))) for name in names
    }
    return monomials, values


@settings(max_examples=200, deadline=None)
@given(monomial_tables())
@example(([(), ("a",), ("a", "a", "b"), ()], {"a": np.array([2.0, -0.0]), "b": np.ones((2, 2))}))
# a monomial whose prefixes (a^2 b, a^2 and 1) are not listed
@example(([("a", "a", "b", "c")], {"a": np.array([3.0, -0.5]), "b": np.array([-2.0, 1.5]),
                                    "c": np.array([[0.25, 4.0], [-1.0, 0.0]])}))
# a listed monomial, a b, that is the prefix of another, a b c^3
@example(([("a", "b", "c", "c", "c"), ("a", "b")], {"a": np.array([1.5, -3.0]),
                                                   "b": np.array([-0.75, 2.0]),
                                                   "c": np.array([1.25, -1.5])}))
# repeated rows, in no order of length
@example(([("b", "b"), ("a", "b"), ("b", "b"), ("a",), ("a", "b")],
          {"a": np.array([[0.5, -2.0]]), "b": np.array([-3.0, 1.0])}))
def test_monomials_equal_the_naive_product_row_by_row(table):
    monomials, values = table
    got = model._Monomials.compile(monomials).at(values)
    assert np.array_equal(got, _naive_rows(monomials, values))


def test_model_axioms_do_not_depend_on_the_batch_size(path, monkeypatch):
    reports = []
    for budget in (1, model._BATCH_BYTES):  # one triple per batch, then the default
        monkeypatch.setattr(model, "_BATCH_BYTES", budget)
        reports.append(check_model_axioms(path, SPEC, n_triples=7, seed=5))
    single, batched = reports
    assert model._triples_per_batch(57, len(path.t)) > 1
    assert single["status"] == batched["status"] == "pass"
    assert single["worst_rel_err"] == batched["worst_rel_err"]


def test_model_axioms_catch_offset_increments(path, monkeypatch):
    exact = model.eval_gamma

    def offset(t_idx, s_idx, p):
        return {name: value + 1e-6 for name, value in exact(t_idx, s_idx, p).items()}

    # one offset on each of Gamma_ts, Gamma_tu and Gamma_us breaks both axioms
    monkeypatch.setattr(model, "eval_gamma", offset)
    report = check_model_axioms(path, SPEC, n_triples=3, seed=3)
    assert report["status"] == "fail"
    assert any(f.startswith("recentring: ") for f in report["failures"])
    assert any(f.startswith("cocycle: ") for f in report["failures"])


def test_model_axioms_fail_on_nan(path, monkeypatch):
    exact = model.eval_gamma

    def nan_increment(t_idx, s_idx, p):
        return {**exact(t_idx, s_idx, p), "g[I]": np.full(np.shape(t_idx), np.nan)}

    monkeypatch.setattr(model, "eval_gamma", nan_increment)
    report = check_model_axioms(path, SPEC, n_triples=2, seed=3)
    assert report["status"] == "fail"
    assert report["failures"][0].endswith("rel err nan")


def test_model_axioms_report_failures_in_order(path, monkeypatch):
    exact = model.eval_gamma

    def offset(t_idx, s_idx, p):
        values = exact(t_idx, s_idx, p)
        return {**values, "g[I]": values["g[I]"] + 1e-6}

    # an offset on every triple's g[I] breaks only the symbols with a root I,
    # so the first ten failures span more than one triple
    monkeypatch.setattr(model, "eval_gamma", offset)
    spec = generic_spec(2, 1)
    report = check_model_axioms(path, spec, n_triples=3, seed=3)
    order = []  # triple by triple, then symbol by symbol, recentring first
    for s, u, t in model._triples(len(path.t), 3, seed=3):
        for tau in enumerate_basis(spec):
            order += [
                f"recentring: {tau!r} at (s={s}, t={t})",
                f"cocycle: {tau!r} at (s={s}, u={u}, t={t})",
            ]
    heads = [f[: f.index(": rel err ")] for f in report["failures"]]
    assert len(set(heads)) == len(heads) == 10
    assert heads == sorted(heads, key=order.index)
    assert order.index(heads[-1]) >= len(order) // 3  # past the first triple


def test_model_axioms_catch_one_faulty_triple_in_a_partial_batch(path, monkeypatch):
    per_batch = model._triples_per_batch(len(enumerate_basis(SPEC)), len(path.t))
    assert per_batch > 1
    n_triples = per_batch + per_batch // 2 + 1  # the last batch is a partial one
    assert n_triples % per_batch
    triples = model._triples(len(path.t), n_triples, seed=4)
    s0, u0, t0 = triples[-1]
    # no other triple's Gamma_ts, Gamma_tu or Gamma_us spans (s0, t0)
    assert (t0, s0) not in [p for s, u, t in triples[:-1] for p in ((t, s), (t, u), (u, s))]
    exact = model.eval_gamma

    def offset(t_idx, s_idx, p):
        # only Gamma_ts of the last triple moves
        faulty = 1e-6 * ((t_idx == t0) & (s_idx == s0))
        return {name: value + faulty for name, value in exact(t_idx, s_idx, p).items()}

    monkeypatch.setattr(model, "eval_gamma", offset)
    report = check_model_axioms(path, SPEC, n_triples=n_triples, seed=4)
    assert report["status"] == "fail"
    assert any(f.startswith("recentring: ") for f in report["failures"])
    assert any(f.startswith("cocycle: ") for f in report["failures"])
    at = (f" at (s={s0}, t={t0}): rel err ", f" at (s={s0}, u={u0}, t={t0}): rel err ")
    for f in report["failures"]:
        assert at[f.startswith("cocycle: ")] in f, f


def test_bphz_expansion_two_terms():
    cov = CovarianceSpec(2, {(D1, X2): Fraction(3, 7)})
    for n in (1, 2, 3):
        tree = _tree(f"Xi_1*I(Xi_2)^{n}")
        terms = {k: c for k, c in bphz_expansion(tree, cov, SPEC) if c != 0}
        base = _forest(f"I(Xi_2)^{n - 1}" if n > 1 else "1")
        assert terms == {
            forest_of(tree): 1,
            base: -n * Fraction(3, 7),
        }


# ---------------------------------------------------------------------------
# the structure group exactly: Chen's relation, and renormalisation that
# commutes with transport


def _transport(tree, spec, prefix="g"):
    """``gamma_direct(tree, spec)`` with Poly coefficients and its
    increments ``g[...]`` named ``prefix[...]``."""
    out = {}
    for t, c in gamma_direct(tree, spec):
        if not isinstance(c, Poly):
            c = Poly.const(c)
        out[t] = Poly([(tuple(sorted(prefix + name[1:] for name in mono)), k) for mono, k in c])
    return FormalSum(out)


def _linear(tree_map, x):
    """The linear extension of ``tree_map`` to the tree-keyed sum ``x``."""
    out = FormalSum()
    for t, c in x:
        out += tree_map(t).scale(c)
    return out


@pytest.mark.parametrize("d, truncation", [(1, 8), (2, 6), (3, 4)])
def test_transport_obeys_chens_relation_on_the_basis(d, truncation):
    # Gamma_tu Gamma_us = Gamma_ts, with the increments of s -> t the sums
    # of those of s -> u and u -> t
    spec = generic_spec(d, truncation)
    for tree in enumerate_basis(spec):
        twice = _linear(lambda t: _transport(t, spec, "g_tu"), _transport(tree, spec, "g_us"))
        once = FormalSum()
        for t, c in _transport(tree, spec):
            increments = {n: Poly.var("g_us" + n[1:]) + Poly.var("g_tu" + n[1:]) for m, _ in c for n in m}
            once += FormalSum.lift(t, Poly() + c.substitute(increments))
        assert twice == once, tree


@pytest.mark.parametrize("d, truncation", [(1, 6), (2, 5), (2, 6)])
def test_renormalisation_commutes_with_transport_on_the_basis(d, truncation):
    # M Gamma = Gamma M for M = bphz_expansion: the counterterms do not
    # move under transport, so Pi M is a model whenever Pi is
    spec = generic_spec(d, truncation)
    cov = SymbolicCovariance(d)

    def renormalised(tree):
        return FormalSum(
            [(r.trees[0] if r.trees else LEAF, c) for r, c in bphz_expansion(tree, cov, spec)]
        )

    def transported(tree):
        return _transport(tree, spec)

    for tree in enumerate_basis(spec):
        assert _linear(renormalised, transported(tree)) == _linear(
            transported, renormalised(tree)
        ), tree


@st.composite
def specs_and_covariances(draw):
    """A small spec (d, exponents, truncation) and a covariance over its
    variables: free entries, or rationals with a random zero pattern."""
    d, truncation = draw(st.sampled_from([(1, 6), (2, 4), (3, 2)]))
    exponents = st.sampled_from([Fraction(1, 40), Fraction(1, 10), Fraction(1, 4), Fraction(3, 5)])
    alpha = tuple(draw(st.lists(exponents, min_size=d, max_size=d)))
    spec = StructureSpec(d=d, alpha=alpha, truncation=truncation)
    if draw(st.booleans()):
        return spec, SymbolicCovariance(d)
    order = variable_order(d)
    entries = {}
    for a, u in enumerate(order):
        for v in order[a:]:
            if draw(st.booleans()):
                entries[(u, v)] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
    return spec, CovarianceSpec(d, entries)


def _oracle(x, cov, spec):
    """g∘A of ``x`` by the full route: g of the expanded twisted antipode,
    by the ring-generic Isserlis recursion, a Poly for free entries and a
    Fraction for rational ones."""
    value = reference_gaussian.g_minus(twisted_antipode(x, spec), cov)
    return Poly() + value if isinstance(cov, SymbolicCovariance) else value


@given(specs_and_covariances())
@settings(max_examples=20, deadline=None)
def test_pruned_bphz_character_equals_full_route(spec_cov):
    """bphz_expansion and g∘A, which build only the coproduct terms whose
    left legs have even noise counts, equal the routes through the whole
    delta_minus_ex table and the expanded twisted antipode."""
    spec, cov = spec_cov
    for tree in enumerate_basis(spec):
        expected = FormalSum()
        for (a, r), c in delta_minus_ex(tree, spec):
            coeff = c * _oracle(a, cov, spec)
            if coeff:
                expected += FormalSum.lift(r, coeff)
        got = bphz_expansion(tree, cov, spec)
        assert got == expected, tree
        kind = Poly if isinstance(cov, SymbolicCovariance) else Fraction
        assert all(type(c) is kind for _, c in got), tree
        if tree.children and spec.degree_tree(tree) >= 0:
            with pytest.raises(DomainError):
                g_antipode(tree, cov, spec)
        else:
            value = g_antipode(tree, cov, spec)
            assert type(value) is kind and value == _oracle(tree, cov, spec), tree


def test_eval_pi_bphz_closed_form(path):
    cov = CovarianceSpec(2, {(D1, X2): Fraction(3, 7)})
    for n in (1, 2, 3):
        tree = _tree(f"Xi_1*I(Xi_2)^{n}")
        lhs = eval_pi_bphz(tree, 10, path, cov, SPEC)
        coeff = float(-n * Fraction(3, 7))
        base = parse_symbol(f"I(Xi_2)^{n - 1}" if n > 1 else "1", d=2)
        rhs = eval_pi(parse_symbol(f"Xi_1*I(Xi_2)^{n}", d=2), 10, path) + coeff * (
            eval_pi(base, 10, path)
        )
        assert np.array_equal(lhs, rhs)


def test_bphz_untouched_symbols(path):
    cov = CovarianceSpec(2, {(D1, X2): Fraction(3, 7)})
    for text in ["Xi_1", "I(Xi_2)", "I(Xi_2)^2"]:
        tree = _tree(text)
        lhs = eval_pi_bphz(tree, 4, path, cov, SPEC)
        rhs = eval_pi(parse_symbol(text, d=2), 4, path)
        assert np.array_equal(lhs, rhs)
