"""Extraction coproducts, the positive-space coproduct, and the twisted
negative antipode.

``delta_minus`` enumerates extractions of edge subsets: the extracted
components form the left leg, the contraction of the extracted edges the
right leg.  The enumeration is one dynamic programme, ``trees._extract``,
whose states record for every extracted root edge the noise branches
("riders") that contracting it leaves at the remainder's root.  Two
finishers read those states:

* ``repair=False`` -- the plain finisher (``trees._finish_plain``) keeps
  every rider at the remainder's root: plain contraction of every edge
  subset.  This is the classical extraction/contraction coproduct and is
  coassociative.
* ``repair=True`` (default) -- the repaired finisher
  (``_finish_repaired``) keeps at most one noise edge at the remainder's
  root, so the remainder stays inside the symbol family, and pulls the
  excess riders into the extracted component they rode in on.  This
  matches the worked expansions used as oracles (in particular it yields
  coefficient 2 on the ``I(Xi_1) (x) Xi_1`` term of the coproduct of
  ``Xi_1*I(Xi_1)``), at the price of coassociativity of the unprojected
  coproduct.

After projecting the left leg onto negative-degree forests the two
variants agree, so everything downstream (the twisted antipode, the
renormalization characters) is variant-independent.

The BPHZ character g∘A (``gaussian``) reads a third, pruned table,
:func:`delta_minus_ex_even`: the repaired, projected coproduct less every
term whose left leg holds a tree with an odd number of noise edges.
g∘A is 0 on such a tree for every centred Gaussian covariance, so those
terms contribute nothing to g∘A or to ``model.bphz_expansion``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction

from .errors import DomainError
from .structure import is_negative_forest, tree_survives_plus
from .trees import (
    EMPTY_FOREST,
    FormalSum,
    Forest,
    LEAF,
    Tree,
    _branch_sort_key,
    _extract,
    _finished,
    _states,
    as_formal_sum,
    branch,
    forest_of,
    forest_product,
    in_symbol_family,
    mul_forests,
    tree_product,
)

# ---------------------------------------------------------------------------
# repaired extraction


_REPAIRED_CACHE = {}


def _finish_repaired(aoff, chosen, rem):
    """Repaired contraction of a ``trees._extract`` state: riders fill the
    remainder's root up to one noise edge (smallest first); the rest go
    back into the extracted component of the edge they rode in on."""
    stay = (None, 0)  # (entry index, rider index) of the rider kept at the root
    if not any(b[0].is_noise for b in rem):
        slots = [
            (r[0].sort_key(), r[1].key, idx, j)
            for idx, entry in enumerate(chosen)
            for j, r in enumerate(entry[2])
        ]
        if slots:
            stay = min(slots)[2:]
    kept = ()
    grown = {}  # equal entries (adjacent in ``chosen``) grow one tree
    root_branches = []
    for idx, (et, aroot, riders) in enumerate(chosen):
        if idx == stay[0]:
            j = stay[1]
            kept, riders = riders[j:j + 1], riders[:j] + riders[j + 1:]
        if riders:
            key = (aroot, riders)
            if key not in grown:
                grown[key] = Tree(aroot.children + riders)
            aroot = grown[key]
        root_branches.append((et, aroot))
    return aoff, Tree(root_branches), Tree(rem + kept)


# ---------------------------------------------------------------------------
# negative-space coproduct


def _pair_sum(entries, keep=lambda a: True):
    """The FormalSum over ``(extracted forest, remainder forest)`` pairs of
    the ``((off_root, root_part, remainder), multiplicity)`` entries of a
    ``trees._extract`` table whose extracted forest passes ``keep``."""
    pairs = {}
    for (aoff, aroot, rem), m in entries:
        a = Forest(aoff + (aroot,))
        if keep(a):
            key = (a, forest_of(rem))
            pairs[key] = pairs.get(key, 0) + Fraction(m)
    return FormalSum(pairs)


def delta_minus(x, repair=True):
    """Extraction coproduct, as a FormalSum keyed by ``(extracted forest,
    remainder forest)`` pairs, multiplicative over forest components and
    linear over formal sums.

    The repaired variant reroutes stranded root noises into the extracted
    component, keeping every term inside the symbol family; it therefore
    rejects input from outside the family.  The plain variant is defined
    on arbitrary depth-bounded trees (the family is not closed under
    plain contraction) and is the one that is coassociative.
    """
    x = as_formal_sum(x)
    out = FormalSum()
    for f, c in x:
        term = FormalSum.lift((EMPTY_FOREST, EMPTY_FOREST))
        for i, t in enumerate(f.trees):
            if repair and not in_symbol_family(t):
                raise DomainError(f"tree {t!r} lies outside the symbol family")
            table = _extract(t, _finish_repaired, _REPAIRED_CACHE) if repair else _extract(t)
            tree_terms = _pair_sum(table.items())
            # the unit pair is the identity of the product: start from the first tree
            term = tree_terms if i == 0 else term.combine(
                tree_terms,
                lambda k1, k2: (
                    forest_product(k1[0], k2[0]),
                    forest_product(k1[1], k2[1]),
                ),
            )
        out += term.scale(c)
    return out


_TABLE_SIZES = ContextVar("coproduct_table_sizes", default=None)


@contextmanager
def coproduct_sizes():
    """Collect the number of terms of every ``delta_minus_ex`` or
    ``delta_minus_ex_even`` table built inside the block, in a list, for
    reports; the context variable keeps threads and nested blocks apart."""
    sizes = []
    token = _TABLE_SIZES.set(sizes)
    try:
        yield sizes
    finally:
        _TABLE_SIZES.reset(token)


def _record_size(table):
    sizes = _TABLE_SIZES.get()
    if sizes is not None:
        sizes.append(len(table))
    return table


def delta_minus_ex(x, spec, repair=True):
    """Coproduct with the left leg projected onto negative-degree forests."""
    return _record_size(FormalSum(
        [((a, r), c) for (a, r), c in delta_minus(x, repair=repair) if is_negative_forest(a, spec)]
    ))


_EVEN_CACHE = {}
_SCREENED_CACHE = {}


def _may_be_kept(state):
    """Whether the root part that :func:`_finish_repaired` makes of a
    ``trees._extract`` state can lie in a kept left leg: it is the unit,
    or it has an even noise count and fewer integration edges than noise
    edges.  An integration edge has degree 1 and a noise edge a degree in
    (-1, 0), so a tree with no fewer integration than noise edges has a
    non-negative degree under every spec.  The counts are summed over
    the chosen entries and their riders, less the rider that stays at
    the remainder's root."""
    _, chosen, rem = state
    if not chosen:
        return True
    edges = noises = 0
    riders = ()
    for et, aroot, entry_riders in chosen:
        edges += 1 + aroot.num_edges
        noises += et.is_noise + aroot.num_noises
        if entry_riders:
            riders += entry_riders
    for _, sub in riders:
        edges += 1 + sub.num_edges
        noises += 1 + sub.num_noises
    # rem is in canonical order, noise branches last; with no noise branch
    # the smallest rider stays, as in _finish_repaired
    if riders and not (rem and rem[-1][0].is_noise):
        sub = min(riders, key=_branch_sort_key)[1]
        edges -= 1 + sub.num_edges
        noises -= 1 + sub.num_noises
    return not noises % 2 and edges < 2 * noises


def delta_minus_ex_even(tree, spec):
    """The terms of ``delta_minus_ex(tree, spec)`` whose left leg holds no
    tree with an odd number of noise edges, with the same coefficients.

    These are all the terms on which the BPHZ character g∘A can be
    non-zero.  A centred Gaussian character is 0 on a monomial of odd
    degree, and the repaired finisher conserves noise edges, so by
    induction on the edge count g∘A(t) = 0 whenever ``t`` has an odd
    noise count: in each antipode term either a left-leg tree or the
    remainder carries an odd count.  That holds for every covariance.

    An off-root component is final once it detaches, so the extraction
    never builds one of odd noise count (``trees._extract`` with
    ``even=True``; the subtrees' tables are cached in ``_EVEN_CACHE``).
    The root component is final only once finished, but its edge counts
    are known from the DP state, so only the states that pass
    :func:`_may_be_kept` (root component the unit, or of even noise count
    with fewer integration than noise edges) are finished; the others
    give an odd or a non-negative root tree, so no kept term.  Subtree
    tables stay unscreened, since a subtree's root part grows inside its
    parent; the screened table of each tree is spec-free and cached
    apart, in ``_SCREENED_CACHE``.
    """
    if not in_symbol_family(tree):
        raise DomainError(f"tree {tree!r} lies outside the symbol family")
    table = _SCREENED_CACHE.get(tree)
    if table is None:
        states = _states(tree, _finish_repaired, _EVEN_CACHE, even=True).items()
        table = _SCREENED_CACHE[tree] = _finished(
            ((state, m) for state, m in states if _may_be_kept(state)), _finish_repaired
        )
    return _record_size(_pair_sum(table.items(), lambda a: is_negative_forest(a, spec)))


# ---------------------------------------------------------------------------
# positive-space coproduct


def _plus_factor_terms(et, sub, spec):
    """Coproduct of a single root factor after projecting the right leg
    onto the positive space."""
    factor = branch(et, sub)
    terms = [(factor, LEAF)]
    if not et.is_noise:
        # 1 (x) factor survives; the cross term I (x) noise is killed by
        # the positive projection of its right leg.
        terms.append((LEAF, factor))
    return [(l, r) for (l, r) in terms if r.is_leaf or tree_survives_plus(r, spec)]


def delta_plus_ex(tree, spec):
    """Positive-twisted coproduct of a symbol tree.

    Returns a FormalSum keyed by ``(tree, tree)`` pairs: the left leg
    lives in the full tree span, the right leg in the positive space.
    Multiplicative over the tree product of root factors.
    """
    if not in_symbol_family(tree, d=spec.d):
        raise DomainError(f"tree {tree!r} lies outside the symbol family")
    out = FormalSum.lift((LEAF, LEAF))
    for et, sub in tree.children:
        fac = FormalSum(
            [((l, r), Fraction(1)) for (l, r) in _plus_factor_terms(et, sub, spec)]
        )
        out = out.combine(
            fac,
            lambda k1, k2: (tree_product(k1[0], k2[0]), tree_product(k1[1], k2[1])),
        )
    return out


# ---------------------------------------------------------------------------
# twisted negative antipode


_ANTIPODE_CACHE = {}


def twisted_antipode(x, spec):
    """Twisted negative antipode, multiplicative over forest products.

    Defined on forests all of whose components have negative degree; on a
    single tree it satisfies the recursion

        A(tau) = -M (A (x) Id) (delta_minus_ex(tau) - tau (x) 1),

    with A(1) = 1.  Returns a forest-keyed FormalSum.
    """
    x = as_formal_sum(x)
    out = FormalSum()
    for f, c in x:
        term = FormalSum.lift(EMPTY_FOREST)
        for t in f.trees:
            term = mul_forests(term, _antipode_tree(t, spec))
        out += term.scale(c)
    return out


def antipode_terms(tree, spec, even=False):
    """The terms ``((a, r), c)`` of ``delta_minus_ex(tree) - tree (x) 1``
    over which the antipode recursion runs; defined on negative-degree
    trees only.  With ``even=True``, only those of
    :func:`delta_minus_ex_even`, the ones the BPHZ character can see."""
    if spec.degree_tree(tree) >= 0:
        raise DomainError(
            f"antipode is defined on negative-degree trees; {tree!r} has degree "
            f"{spec.degree_tree(tree)}"
        )
    full = forest_of(tree)
    table = delta_minus_ex_even(tree, spec) if even else delta_minus_ex(tree, spec)
    return [((a, r), c) for (a, r), c in table if a != full]


def _antipode_tree(tree, spec):
    key = (tree.key, spec)
    cached = _ANTIPODE_CACHE.get(key)
    if cached is not None:
        return cached
    acc = FormalSum()
    for (a, r), c in antipode_terms(tree, spec):
        acc += mul_forests(twisted_antipode(a, spec), FormalSum.lift(r)).scale(c)
    result = -acc
    _ANTIPODE_CACHE[key] = result
    return result
