"""Tree/forest algebra, extraction-contraction enumeration, parser."""

import copy
import pickle
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_extraction
import reference_symbols
from roughrenorm import clear_caches
from roughrenorm.coalgebra import (
    _entry_key,
    _extract,
    _finish_plain,
    _finish_repaired,
    _msort,
    _states,
    delta_minus,
)
from roughrenorm.errors import ParseError
from roughrenorm.structure import enumerate_basis, generic_spec
from roughrenorm.trees import (
    EMPTY_FOREST,
    EdgeType,
    FormalSum,
    Forest,
    INTEGRATION,
    LEAF,
    Tree,
    _BRANCH_KEYS,
    _TREE_KEY,
    _bsort,
    branch,
    forest_of,
    forest_product,
    format_forest,
    format_symbol,
    format_tree,
    in_symbol_family,
    noise,
    parse_symbol,
    tree_product,
)

XI1 = branch(noise(1))
XI2 = branch(noise(2))
I_BARE = branch(INTEGRATION)
IXI1 = branch(INTEGRATION, XI1)
IXI2 = branch(INTEGRATION, XI2)


def test_tree_product_commutative_associative():
    a = tree_product(XI1, IXI2)
    b = tree_product(IXI2, XI1)
    assert a == b
    assert tree_product(tree_product(XI1, I_BARE), IXI2) == tree_product(
        XI1, tree_product(I_BARE, IXI2)
    )


def test_forest_product_drops_unit_and_sorts():
    f = forest_product(forest_of(XI1), EMPTY_FOREST, forest_of(IXI2))
    g = forest_product(forest_of(IXI2), forest_of(XI1))
    assert f == g
    assert forest_of(LEAF) == EMPTY_FOREST


def test_symbol_family_membership():
    assert in_symbol_family(XI1)
    assert in_symbol_family(tree_product(XI1, IXI2, IXI2))
    assert in_symbol_family(tree_product(XI1, I_BARE))
    # two noises at the root
    assert not in_symbol_family(tree_product(XI1, XI2))
    # depth three
    deep = branch(INTEGRATION, branch(INTEGRATION, XI1))
    assert not in_symbol_family(deep)
    # noise with a child
    assert not in_symbol_family(branch(noise(1), XI2))


# ---------------------------------------------------------------------------
# extraction/contraction vs an independent brute-force enumeration
#
# A family tree is described as a list of branches (et, sub) where sub is
# None or an edge type.  Every subset of edges is enumerated directly:
# the chosen edges are lifted out as a forest and contracted out of the
# remainder.


def _brute_force(branches):
    states = []
    for et, sub in branches:
        opts = [("skip", et, sub)]
        opts.append(("root", et, sub))
        if sub is not None:
            opts.append(("sub", et, sub))
            opts.append(("both", et, sub))
        states.append(opts)

    import itertools

    counts = {}
    for combo in itertools.product(*states):
        root_part = []
        detached = []
        rem = []
        for state, et, sub in combo:
            subtree = branch(sub) if sub is not None else LEAF
            if state == "skip":
                rem.append(branch(et, subtree))
            elif state == "root":
                root_part.append(branch(et))
                if sub is not None:
                    rem.append(branch(sub))
            elif state == "both":
                root_part.append(branch(et, subtree))
            elif state == "sub":
                detached.append(branch(sub))
                rem.append(branch(et))
        pieces = list(detached)
        if root_part:
            pieces.append(tree_product(*root_part))
        forest = Forest(tuple(pieces))
        remainder = forest_of(tree_product(*rem))
        key = (forest, remainder)
        counts[key] = counts.get(key, 0) + 1
    return counts


CASES = [
    [(noise(1), None)],
    [(INTEGRATION, noise(1))],
    [(noise(1), None), (INTEGRATION, noise(1))],
    [(noise(1), None), (INTEGRATION, noise(2)), (INTEGRATION, noise(2))],
    [(noise(1), None), (INTEGRATION, None), (INTEGRATION, noise(2))],
    [(INTEGRATION, noise(1))] * 3,
    [(noise(2), None), (INTEGRATION, None), (INTEGRATION, noise(1))],
]


@pytest.mark.parametrize("branches", CASES)
def test_extractions_match_brute_force(branches):
    tree = tree_product(*[branch(et, branch(s) if s else LEAF) for et, s in branches])
    got = {(f, r): m for (f, r), m in delta_minus(tree, repair=False)}
    assert got == _brute_force(branches)


@pytest.mark.parametrize("branches", CASES)
def test_extraction_multiplicities_sum_to_power_of_two(branches):
    tree = tree_product(*[branch(et, branch(s) if s else LEAF) for et, s in branches])
    total = sum(m for _, m in delta_minus(tree, repair=False))
    assert total == 2**tree.num_edges


def _reference_extract(tree, finish, cache):
    """Reference for ``coalgebra._extract``: one root branch at a time."""
    cached = cache.get(tree)
    if cached is not None:
        return cached
    states = {((), (), ()): 1}
    for et, sub in tree.children:
        sub_ext = _reference_extract(sub, finish, cache)
        nxt = {}
        for (aoff, chosen, rem), m in states.items():
            for (s_off, s_root, s_rem), sm in sub_ext.items():
                w = m * sm
                # edge kept: the sub-extraction's root component detaches
                off2 = s_off + ((s_root,) if s_root.children else ())
                k = (_msort(aoff + off2), chosen, _bsort(rem + ((et, s_rem),)))
                nxt[k] = nxt.get(k, 0) + w
                # edge extracted: endpoints identified, remainder splices up
                riders = tuple(b for b in s_rem.children if b[0].is_noise)
                others = tuple(b for b in s_rem.children if not b[0].is_noise)
                k = (
                    _msort(aoff + s_off),
                    tuple(sorted(chosen + ((et, s_root, riders),), key=_entry_key)),
                    _bsort(rem + others),
                )
                nxt[k] = nxt.get(k, 0) + w
        states = nxt
    out = {}
    for state, m in states.items():
        key = finish(*state)
        out[key] = out.get(key, 0) + m
    cache[tree] = out
    return out


@st.composite
def powered_family_trees(draw):
    """Symbol-family trees with up to 8 integration branches."""
    root = [branch(noise(draw(st.sampled_from([1, 2]))))] if draw(st.booleans()) else []
    factors = draw(st.lists(st.sampled_from([I_BARE, IXI1, IXI2]), max_size=8))
    return tree_product(*root, *factors)


_EDGE_TYPES = st.sampled_from([INTEGRATION, noise(1), noise(2)])


@st.composite
def bounded_trees(draw, depth=3, max_edges=10):
    """Trees of depth at most ``depth`` with at most ``max_edges`` edges; a
    drawn branch is repeated up to three times, so runs of equal branches
    are common."""
    children = []
    budget = max_edges
    while depth > 0 and budget > 0 and draw(st.booleans()):
        et = draw(_EDGE_TYPES)
        sub = draw(bounded_trees(depth - 1, budget - 1))
        size = sub.num_edges + 1
        copies = draw(st.integers(1, min(3, budget // size)))
        children += [(et, sub)] * copies
        budget -= copies * size
    return Tree(children)


@pytest.mark.parametrize("finish", [_finish_plain, _finish_repaired])
def test_grouped_extraction_equals_reference_on_basis(finish):
    for tree in enumerate_basis(generic_spec(2, 8)):
        assert _extract(tree, finish) == _reference_extract(tree, finish, {}), tree


@given(powered_family_trees(), st.sampled_from([_finish_plain, _finish_repaired]))
@settings(max_examples=40, deadline=None)
def test_grouped_extraction_equals_reference_on_family_trees(tree, finish):
    assert _extract(tree, finish) == _reference_extract(tree, finish, {})


@given(bounded_trees())
@settings(max_examples=60, deadline=None)
def test_grouped_extraction_equals_reference_on_depth_3_trees(tree):
    assert _extract(tree, _finish_plain) == _reference_extract(tree, _finish_plain, {})


def _run_length_tables(tree):
    """The tables of the run-length DP, plain and repaired."""
    return [_extract(tree, finish) for finish in (_finish_plain, _finish_repaired)]


def _reference_tables(tree):
    return [reference_extraction.extract(tree, finish, {}) for finish in (_finish_plain, _finish_repaired)]


def test_run_length_tables_equal_the_sorted_tuple_dp_on_basis():
    for spec in (generic_spec(2, 8), generic_spec(3, 4)):
        for tree in enumerate_basis(spec):
            assert _run_length_tables(tree) == _reference_tables(tree), tree


@given(bounded_trees(depth=2))
@example(tree_product(XI1, *[IXI2] * 3))
@example(tree_product(XI2, IXI1, IXI2, branch(INTEGRATION)))
@settings(max_examples=30, deadline=None)
def test_run_length_tables_equal_the_sorted_tuple_dp_on_depth_2_trees(tree):
    # the oracle applies the finisher at every level, the DP at the top only;
    # the two agree up to depth 2 (see the next test)
    assert _run_length_tables(tree) == _reference_tables(tree)


@given(bounded_trees(depth=1))
@example(LEAF)  # a symbol's subtrees
@example(XI1)
@example(XI2)
@example(branch(noise(3)))
@settings(max_examples=100, deadline=None)
def test_depth_1_trees_have_one_table_in_every_mode(tree):
    # no state of a depth-1 tree has a rider or an off-root tree
    for finish in (_finish_plain, _finish_repaired):
        for even in (False, True):
            assert reference_extraction.extract(tree, finish, {}, even) == _extract(tree), (
                finish, even,
            )


@given(bounded_trees())
@settings(max_examples=200, deadline=None)
def test_format_tree_equals_reference_printer(tree):
    # depth-3 trees lie outside the symbol family: their debug form too
    assert format_tree(tree) == reference_symbols.format_tree(tree)


# ---------------------------------------------------------------------------
# canonical keys


def _old_branch_key(branch):
    """A branch's key in the per-factor encoding ``(kind, index, sub-key)``,
    the order oracle for ``Tree.key``."""
    et, sub = branch
    return (et.kind, et.index, _old_tree_key(sub))


def _old_tree_key(tree):
    return tuple(map(_old_branch_key, tree.children))


def _assert_same_order(trees):
    trees = list(set(trees))
    assert sorted(trees, key=_TREE_KEY) == sorted(trees, key=_old_tree_key)


def test_a_tree_key_holds_one_object_per_distinct_root_branch():
    trees = [tree_product(XI1, *[IXI2] * 40), *enumerate_basis(generic_spec(2, 8))]
    for tree in trees:
        assert len({id(k) for k in tree.key}) == len(set(tree.children)), tree
    # a DP entry's key holds its root branch's key and its riders' keys
    clear_caches()
    ranked, _ = _states(trees[0])
    assert ranked[1]
    for et, aroot, riders in ranked[1]:
        branch_key, rider_keys = _entry_key((et, aroot, riders))
        assert branch_key is _BRANCH_KEYS[(et, aroot)]
        assert all(k is _BRANCH_KEYS[r] for k, r in zip(rider_keys, riders, strict=True))


def test_tree_keys_order_trees_as_the_per_factor_encoding_does():
    _assert_same_order(enumerate_basis(generic_spec(2, 8)))


@given(st.lists(bounded_trees(), min_size=2, max_size=8))
@settings(max_examples=100, deadline=None)
def test_tree_keys_order_depth_3_trees_as_the_per_factor_encoding_does(trees):
    _assert_same_order(trees)
    for tree in trees:
        assert tree.children == tuple(sorted(tree.children, key=_old_branch_key))


# ---------------------------------------------------------------------------
# interning


def test_copies_and_pickles_are_the_interned_object():
    symbol = tree_product(XI1, IXI2, IXI2, I_BARE)
    forest = Forest((symbol, IXI1))
    for x in (symbol, forest, noise(2), INTEGRATION, LEAF, EMPTY_FOREST):
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x
    # a copy that rebuilt through an empty constructor would refill the unit
    assert Tree() is LEAF and Forest() is EMPTY_FOREST
    assert LEAF.children == () and LEAF.key == () and LEAF.num_edges == LEAF.num_noises == 0
    assert EMPTY_FOREST.trees == ()
    assert EdgeType("Xi", 2) is noise(2) and EdgeType("I") is INTEGRATION


def test_symbols_stay_interned_across_clear_caches():
    before = parse_symbol("Xi_2*I(Xi_1)^4*I")
    clear_caches()
    after = parse_symbol("Xi_2*I(Xi_1)^4*I")
    ((f_before, _),) = before
    ((f_after, _),) = after
    assert f_after is f_before and f_after.trees[0] is f_before.trees[0]


def test_a_symbol_built_by_8_threads_at_once_is_one_object():
    # a shape no other test builds, so that every thread misses the table
    children = [(noise(3), LEAF)] + [(INTEGRATION, branch(noise(2), branch(INTEGRATION)))] * 23
    barrier = threading.Barrier(8, timeout=30)
    built = []

    def build():
        barrier.wait()
        built.append(Tree(children[::-1]))

    threads = [threading.Thread(target=build) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the constructor
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(built) == 8
    assert all(tree is built[0] for tree in built)
    assert built[0] is Tree(children)


# ---------------------------------------------------------------------------
# formal sums


def test_formal_sum_arithmetic():
    x = FormalSum.lift(forest_of(XI1), Fraction(1, 2))
    y = FormalSum.lift(forest_of(XI1), Fraction(1, 2))
    z = x + y - FormalSum.lift(forest_of(XI1))
    assert z.is_zero
    assert x.scale(0).is_zero


# ---------------------------------------------------------------------------
# parser / printer


@pytest.mark.parametrize(
    "text",
    [
        "1",
        "Xi_1",
        "I(Xi_2)",
        "Xi_1*I(Xi_2)^3",
        "I^2",
        "Xi_2*I",
        "Xi_1 . Xi_1",
        "2*Xi_1 - 1/3*I(Xi_1)*Xi_2",
        "Xi_1*I(Xi_1) + I(Xi_2)^2",
    ],
)
def test_parse_format_round_trip(text):
    x = parse_symbol(text, d=2)
    assert parse_symbol(format_symbol(x), d=2) == x


def test_parser_rejects_double_root_noise():
    with pytest.raises(ParseError):
        parse_symbol("Xi_1^2", d=2)
    with pytest.raises(ParseError):
        parse_symbol("Xi_1*Xi_2", d=2)


def test_parser_rejects_bad_index():
    # the tree's family check would reject Xi_3 too, with a message that names no index
    with pytest.raises(ParseError, match="noise index 3 out of range"):
        parse_symbol("Xi_3", d=2)
    with pytest.raises(ParseError):
        parse_symbol("Xi_0", d=2)


_SYMBOL_CHARS = "1I()Xi_^*.+-/ 0123456789²١"


@given(st.one_of(st.text(), st.text(alphabet=_SYMBOL_CHARS)))
@settings(max_examples=400, deadline=None)
def test_parse_symbol_fuzz(text):
    # malformed text ends in ParseError, never another exception
    for d in (None, 2):
        try:
            parse_symbol(text, d=d)
        except ParseError:
            pass


_GRAMMAR_TOKENS = [
    "1", "2", "0", "12", "01", "1000", "Xi_", "Xi_1", "Xi_2", "Xi_3", "I", "I(Xi_1)",
    "(", ")", "^", "^2", "*", ".", "+", "-", "/", " ", "\t", "X", "²",
]


def _parsed(text, d, parse):
    try:
        return parse(text, d=d)
    except ParseError:
        return ParseError


@given(
    st.one_of(
        st.text(),
        st.text(alphabet=_SYMBOL_CHARS + "\t"),
        st.lists(st.sampled_from(_GRAMMAR_TOKENS), max_size=12).map("".join),
    )
)
@settings(max_examples=1000, deadline=None)
def test_parse_symbol_matches_reference_parser(text):
    # the same language as the reference parser, the same values, and the
    # same printed text
    for d in (None, 2):
        parsed = _parsed(text, d, parse_symbol)
        assert parsed == _parsed(text, d, reference_symbols.parse_symbol)
        if parsed is not ParseError:
            assert format_symbol(parsed) == reference_symbols.format_symbol(parsed)


def test_parse_symbol_skips_long_blank_runs():
    # a tokenizer that retried a failed match at every trailing blank would
    # take minutes here
    blanks = " " * 100_000
    assert parse_symbol(f"Xi_1{blanks}+{blanks}I{blanks}") == parse_symbol("Xi_1 + I")


def test_parser_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_symbol("Xi_1 + @", d=2)
    assert "position" in str(err.value)


@st.composite
def family_trees(draw):
    root_noise = draw(st.sampled_from([None, 1, 2]))
    n_bare = draw(st.integers(0, 2))
    n_i1 = draw(st.integers(0, 3))
    n_i2 = draw(st.integers(0, 3))
    parts = []
    if root_noise:
        parts.append(branch(noise(root_noise)))
    parts += [I_BARE] * n_bare + [IXI1] * n_i1 + [IXI2] * n_i2
    if not parts:
        return LEAF
    return tree_product(*parts)


@given(st.lists(family_trees(), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_random_forest_round_trip(trees):
    f = Forest(tuple(t for t in trees if t.children))
    text = format_forest(f)
    parsed = parse_symbol(text, d=2)
    assert parsed == FormalSum.lift(f)


@given(family_trees())
@settings(max_examples=40, deadline=None)
def test_random_tree_multiplicity_sum(tree):
    total = sum(m for _, m in delta_minus(tree, repair=False))
    assert total == 2**tree.num_edges
