"""Extraction coproducts, the positive-space coproduct, and the twisted
negative antipode.

``delta_minus`` enumerates extractions of edge subsets: the extracted
components form the left leg, the contraction of the extracted edges the
right leg.  The enumeration is one dynamic programme, :func:`_extract`,
whose states record for every extracted root edge the noise branches
("riders") that contracting it leaves at the remainder's root.  Two
finishers read those states:

* ``repair=False`` -- the plain finisher (:func:`_finish_plain`) keeps
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
variants agree, so :func:`delta_minus_ex` reads the repaired one and
everything downstream (the twisted antipode, the renormalization
characters) is variant-independent.

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
from itertools import groupby
from math import comb

from .errors import DomainError
from .structure import is_negative_forest, tree_survives_plus
from .trees import (
    EMPTY_FOREST,
    FormalSum,
    Forest,
    LEAF,
    Tree,
    _branch_sort_key,
    as_formal_sum,
    branch,
    forest_of,
    forest_product,
    in_symbol_family,
    mul_forests,
    tree_product,
)

# ---------------------------------------------------------------------------
# edge-subset extraction: one DP, finished plain or repaired


_EXTRACT_CACHE = {}


def _msort(trees):
    return tuple(sorted(trees, key=lambda t: t.key))


def _bsort(branches):
    return tuple(sorted(branches, key=_branch_sort_key))


def _csort(entries):
    return tuple(sorted(entries, key=_ENTRY_KEYS.__getitem__))


def _entry_key(entry):
    et, aroot, riders = entry
    return (et.sort_key(), aroot.key, tuple(map(_branch_sort_key, riders)))


class _KeyMemo(dict):
    """Sort key of each chosen entry, computed on its first lookup."""

    def __missing__(self, entry):
        key = self[entry] = _entry_key(entry)
        return key


_ENTRY_KEYS = _KeyMemo()


def _finish_plain(aoff, chosen, rem):
    """Plain contraction: every rider stays at the remainder's root."""
    riders = tuple(r for entry in chosen for r in entry[2])
    return aoff, Tree((et, aroot) for et, aroot, _ in chosen), Tree(rem + riders)


def _extract(tree, finish=_finish_plain, cache=_EXTRACT_CACHE, even=False):
    """All edge-subset extractions of ``tree``.

    Returns a dict mapping ``(off_root, root_part, remainder)`` to a
    multiplicity, where ``off_root`` is the tuple of extracted components
    not containing the root, ``root_part`` is the extracted component
    containing the root (a single node when no root-incident edge is
    chosen), and ``remainder`` is the tree obtained by contracting the
    chosen edges (each removed edge identifies its endpoints): the
    :func:`_states` of ``tree``, each turned into an output key by
    ``finish``.  Only finished tables are cached, in ``cache``.
    """
    cached = cache.get(tree)
    if cached is None:
        cached = cache[tree] = _finished(_states(tree, finish, cache, even).items(), finish)
    return cached


def _finished(states, finish):
    """The table of ``(state, multiplicity)`` pairs, each state finished."""
    out = {}
    for state, m in states:
        key = finish(*state)
        out[key] = out.get(key, 0) + m
    return out


def _states(tree, finish, cache, even):
    """The final DP states of the extractions of ``tree``, with
    multiplicities; subtrees are extracted by :func:`_extract` with the
    same ``finish``, ``cache`` and ``even``.

    The DP walks the root branches group by group, a group being a run
    of k equal ``(edge type, subtree)`` branches (``Tree.children`` is in
    canonical order, so equal branches are adjacent).  Its states are
    ``(off-root trees, chosen entries, remainder branches)``; a chosen
    entry ``(edge type, extracted subtree part, riders)`` records the
    noise branches that contracting that root edge leaves at the
    remainder's root.  One copy of a branch has a choice per entry of
    its subtree's table: keep the edge or extract it.  A group's k copies
    are distributed over those choices in one step: n_1 + ... + n_m = k
    copies taking choices of weights w_1 .. w_m contribute with weight
    k! / (n_1! ... n_m!) * w_1^n_1 ... w_m^n_m, the number of ways the
    one-branch-at-a-time walk reaches the same state.

    With ``even=True`` a kept edge whose detaching root part has an odd
    number of noise edges is not a choice, so no state holds an off-root
    tree of odd noise count; the finisher never moves edges into the
    off-root trees, so the table is the full one less exactly those
    entries.  Its ``cache`` must hold only tables built the same way.
    """
    states = {((), (), ()): 1}
    for (et, sub), copies in groupby(tree.children):
        choices = _branch_choices(et, _extract(sub, finish, cache, even), even)
        group = _distribute(choices, len(list(copies)))
        nxt = {}
        for (aoff, chosen, rem), m in states.items():
            for (g_off, g_chosen, g_rem), w in group:
                k = (
                    _merge(aoff, g_off, _msort),
                    _merge(chosen, g_chosen, _csort),
                    _merge(rem, g_rem, _bsort),
                )
                nxt[k] = nxt.get(k, 0) + m * w
        states = nxt
    return states


def _branch_choices(et, sub_ext, even):
    """The state parts one root branch ``(et, sub)`` can add, with weights:
    per entry of the subtree's table, the edge kept or extracted (kept
    only if the detaching part has even noise count, when ``even``)."""
    choices = {}
    for (s_off, s_root, s_rem), sm in sub_ext.items():
        # edge kept: the sub-extraction's root component detaches
        if not (even and s_root.num_noises % 2):
            off = _msort(s_off + ((s_root,) if s_root.children else ()))
            part = (off, (), ((et, s_rem),))
            choices[part] = choices.get(part, 0) + sm
        # edge extracted: endpoints identified, remainder splices up
        riders = tuple(b for b in s_rem.children if b[0].is_noise)
        others = tuple(b for b in s_rem.children if not b[0].is_noise)
        part = (s_off, ((et, s_root, riders),), others)
        choices[part] = choices.get(part, 0) + sm
    return list(choices.items())


def _distribute(choices, k):
    """All ways of giving k copies of a branch one choice each, as
    sorted state parts with multinomial weights."""
    parts = [(k, (), (), (), 1)]  # copies left, off-root, chosen, remainder, weight
    last = len(choices) - 1
    for i, ((c_off, c_chosen, c_rem), w) in enumerate(choices):
        nxt = []
        for left, off, chosen, rem, weight in parts:
            for n in ((left,) if i == last else range(left + 1)):
                nxt.append((
                    left - n,
                    off + c_off * n,
                    chosen + c_chosen * n,
                    rem + c_rem * n,
                    weight * comb(left, n) * w**n,
                ))
        parts = nxt
    return [
        ((_msort(off), _csort(chosen), _bsort(rem)), weight)
        for _, off, chosen, rem, weight in parts
    ]


def _merge(a, b, sort):
    """The sorted concatenation of two sorted tuples."""
    if not a:
        return b
    if not b:
        return a
    return sort(a + b)


def _stay(riders, rem):
    """The rider that repaired contraction keeps at the remainder's root,
    or None: the smallest in branch order of ``riders`` (the chosen
    entries' riders, in entry order; of equal ones the first stays), if
    ``rem`` (canonical order, so noise branches last) has no noise branch."""
    if riders and not (rem and rem[-1][0].is_noise):
        return min(riders, key=_branch_sort_key)
    return None


def _finish_repaired(aoff, chosen, rem):
    """Repaired contraction of an :func:`_extract` state: the rider of
    :func:`_stay` fills the remainder's root up to one noise edge; the
    rest go back into the extracted component of the edge they rode in on."""
    stay = _stay(tuple(r for entry in chosen for r in entry[2]), rem)
    kept = ()
    grown = {}  # equal entries (adjacent in ``chosen``) grow one tree
    root_branches = []
    for et, aroot, riders in chosen:
        if stay in riders:  # the first entry that holds it
            j = riders.index(stay)
            kept, riders, stay = (stay,), riders[:j] + riders[j + 1:], None
        if riders:
            key = (aroot, riders)
            if key not in grown:
                grown[key] = Tree(aroot.children + riders)
            aroot = grown[key]
        root_branches.append((et, aroot))
    return aoff, Tree(root_branches), Tree(rem + kept)


_REPAIRED_CACHE = {}


# ---------------------------------------------------------------------------
# negative-space coproduct


def _pair_sum(entries, keep=lambda a: True):
    """The FormalSum over ``(extracted forest, remainder forest)`` pairs of
    the ``((off_root, root_part, remainder), multiplicity)`` entries of a
    :func:`_extract` table whose extracted forest passes ``keep``."""
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


def delta_minus_ex(x, spec):
    """Repaired coproduct with the left leg projected onto negative-degree
    forests."""
    return _record_size(FormalSum(
        [((a, r), c) for (a, r), c in delta_minus(x) if is_negative_forest(a, spec)]
    ))


_EVEN_CACHE = {}
_SCREENED_CACHE = {}


def _may_be_kept(state):
    """Whether the root part that :func:`_finish_repaired` makes of an
    :func:`_extract` state can lie in a kept left leg: it is the unit,
    or it has an even noise count and fewer integration edges than noise
    edges.  An integration edge has degree 1 and a noise edge a degree in
    (-1, 0), so a tree with no fewer integration than noise edges has a
    non-negative degree under every spec.  The counts are summed over
    the chosen entries and their riders, less the rider of :func:`_stay`."""
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
    stay = _stay(riders, rem)
    if stay:
        edges -= 1 + stay[1].num_edges
        noises -= 1 + stay[1].num_noises
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
    never builds one of odd noise count (:func:`_extract` with
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
