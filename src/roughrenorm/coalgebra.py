"""Extraction coproducts, the positive-space coproduct, and the twisted
negative antipode.

``delta_minus`` enumerates extractions of edge subsets: the extracted
components form the left leg, the contraction of the extracted edges the
right leg.  The enumeration is one dynamic programme, :func:`_states`,
whose states record for every extracted root edge the noise branches
("riders") that contracting it leaves at the remainder's root.  It reads
each subtree's plain table; :func:`_extract` finishes the top tree's
states with one of two finishers:

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

The finishers act on the top tree only, which is exact for the symbols
their readers take: no state of a symbol's subtrees ``1`` and ``Xi_j``
has a rider or an off-root tree.

After projecting the left leg onto negative-degree forests the two
variants agree, so :func:`delta_minus_ex` reads the repaired one and
everything downstream (the twisted antipode, the renormalization
characters) is variant-independent.

The BPHZ character g∘A (``gaussian``) and the coproduct route of
transport (``model.gamma_via_coproduct``) read a third table,
:func:`delta_minus_ex_even`: the repaired, projected coproduct less every
term whose left leg holds a tree with an odd number of noise edges.  g∘A
and g are 0 on such a tree for every centred Gaussian covariance, so those
terms add nothing.  On a symbol that table has a closed form, the run
split of :func:`~roughrenorm.trees.root_splits` that :func:`delta_plus_ex`
reads too, and it runs no DP.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain, groupby, repeat
from math import comb
from operator import add

from .errors import DomainError
from .structure import is_negative_forest, tree_survives_plus
from .trees import (
    EMPTY_FOREST,
    FormalSum,
    Forest,
    Tree,
    _TREE_KEY,
    _branch_key,
    _msort,
    as_formal_sum,
    branch,
    forest_of,
    forest_product,
    mul_forests,
    require_symbol,
    root_splits,
)

# ---------------------------------------------------------------------------
# edge-subset extraction: one DP, finished plain or repaired


_EXTRACT_CACHE = {}
_REPAIRED_CACHE = {}


def _entry_key(entry):
    et, aroot, riders = entry
    return (_branch_key((et, aroot)), tuple(map(_branch_key, riders)))


def _finish_plain(aoff, chosen, rem):
    """Plain contraction: every rider stays at the remainder's root."""
    riders = tuple(r for entry in chosen for r in entry[2])
    return aoff, Tree((et, aroot) for et, aroot, _ in chosen), Tree(rem + riders)


def _extract(tree, finish=_finish_plain):
    """All edge-subset extractions of ``tree``.

    Returns a dict mapping ``(off_root, root_part, remainder)`` to a
    multiplicity, where ``off_root`` is the tuple of extracted components
    not containing the root, ``root_part`` is the extracted component
    containing the root (a single node when no root-incident edge is
    chosen), and ``remainder`` is the tree obtained by contracting the
    chosen edges (each removed edge identifies its endpoints): the
    :func:`_states` of ``tree``, each turned into an output key by
    ``finish``; cached per finisher (``_EXTRACT_CACHE``, ``_REPAIRED_CACHE``).
    """
    cache = _REPAIRED_CACHE if finish is _finish_repaired else _EXTRACT_CACHE
    cached = cache.get(tree)
    if cached is None:
        ranked, states = _states(tree)
        table = {}
        for counts, m in states.items():
            key = finish(*_parts(counts, ranked))
            table[key] = table.get(key, 0) + m
        cached = cache[tree] = table
    return cached


def _states(tree):
    """The final DP states of the extractions of ``tree``, with
    multiplicities; each subtree's table is its plain :func:`_extract`.

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

    A state is kept run-length encoded, so that it costs its distinct
    items, not its copies: every item a choice can add is ranked once,
    and a state is the tuple of the items' counts by rank.  Adding a
    group to a state adds two count tuples.  Returns ``(ranked,
    states)``: ``ranked`` holds the items of each part in canonical
    order (trees by ``key``, entries by :func:`_entry_key`, branches by
    ``trees._BRANCH_KEYS``), and ``states`` maps each count tuple, in
    that order, to its multiplicity.  :func:`_parts` expands a count
    tuple into the sorted tuples the finishers read.
    """
    groups = [
        (_branch_choices(et, _extract(sub)), len(list(copies)))
        for (et, sub), copies in groupby(tree.children)
    ]
    ranked = tuple(
        tuple(sorted({x for choices, _ in groups for part, _ in choices for x in part[kind]}, key=key))
        for kind, key in enumerate((_TREE_KEY, _entry_key, _branch_key))
    )
    rank = {x: i for i, x in enumerate(chain(*ranked))}
    zero = (0,) * len(rank)
    states = {zero: 1}
    for choices, k in groups:
        group = _distribute([(_counts(part, rank, zero), w) for part, w in choices], k, zero)
        nxt = {}
        for counts, m in states.items():
            for g_counts, w in group:
                key = tuple(map(add, counts, g_counts))
                nxt[key] = nxt.get(key, 0) + m * w
        states = nxt
    return ranked, states


def _counts(part, rank, zero):
    """The count tuple of a choice given as sorted tuples of items."""
    counts = list(zero)
    for items in part:
        for x in items:
            counts[rank[x]] += 1
    return tuple(counts)


def _parts(counts, ranked):
    """The state a count tuple stands for: per part of ``ranked``, the
    sorted tuple of its items, each repeated by its count."""
    counts = iter(counts)  # map stops at the end of each part's items
    off, entries, branches = ranked
    return (
        tuple(chain.from_iterable(map(repeat, off, counts))),
        tuple(chain.from_iterable(map(repeat, entries, counts))),
        tuple(chain.from_iterable(map(repeat, branches, counts))),
    )


def _branch_choices(et, sub_ext):
    """The state parts one root branch ``(et, sub)`` can add, with weights:
    per entry of the subtree's table, the edge kept or extracted."""
    choices = {}
    for (s_off, s_root, s_rem), sm in sub_ext.items():
        # edge kept: the sub-extraction's root component detaches
        off = _msort(s_off + ((s_root,) if s_root.children else ()))
        part = (off, (), ((et, s_rem),))
        choices[part] = choices.get(part, 0) + sm
        # edge extracted: endpoints identified, remainder splices up
        riders = tuple(b for b in s_rem.children if b[0].is_noise)
        others = tuple(b for b in s_rem.children if not b[0].is_noise)
        part = (s_off, ((et, s_root, riders),), others)
        choices[part] = choices.get(part, 0) + sm
    return list(choices.items())


def _distribute(choices, k, zero):
    """All ways of giving k copies of a branch one choice each, as count
    tuples with multinomial weights; ``choices`` holds each choice's count
    tuple and weight, and ``zero`` counts no item."""
    parts = [(k, zero, 1)]  # copies left, counts, weight
    last = len(choices) - 1
    for i, (c_counts, w) in enumerate(choices):
        times = [tuple(c * n for c in c_counts) for n in range(k + 1)]
        nxt = []
        for left, counts, weight in parts:
            for n in ((left,) if i == last else range(left + 1)):
                nxt.append((
                    left - n,
                    tuple(map(add, counts, times[n])) if n else counts,
                    weight * comb(left, n) * w**n,
                ))
        parts = nxt
    return [(counts, weight) for _, counts, weight in parts]


def _stay(riders, noisy):
    """The rider that repaired contraction keeps at the remainder's root,
    or None: the smallest in branch order of ``riders`` (the chosen
    entries' riders, in entry order; of equal ones the first stays),
    unless the remainder's root has a noise branch (``noisy``)."""
    if riders and not noisy:
        return min(riders, key=_branch_key)
    return None


def _finish_repaired(aoff, chosen, rem):
    """Repaired contraction of an :func:`_extract` state: the rider of
    :func:`_stay` fills the remainder's root up to one noise edge; the
    rest go back into the extracted component of the edge they rode in on."""
    runs = [(entry, len(list(copies))) for entry, copies in groupby(chosen)]
    # rem is in canonical order, so noise branches come last
    stay = _stay(tuple(r for (_, _, riders), _ in runs for r in riders), rem and rem[-1][0].is_noise)
    kept = ()
    root_branches = []
    for (et, aroot, riders), n in runs:
        if stay in riders:  # the first copy of the first entry that holds it
            j = riders.index(stay)
            rest = riders[:j] + riders[j + 1:]
            root_branches.append((et, Tree(aroot.children + rest) if rest else aroot))
            kept, stay, n = (stay,), None, n - 1
        if riders and n:
            aroot = Tree(aroot.children + riders)
        root_branches += [(et, aroot)] * n
    return aoff, Tree(root_branches), Tree(rem + kept)


# ---------------------------------------------------------------------------
# negative-space coproduct


def _pair_sum(entries):
    """The FormalSum over ``(extracted forest, remainder forest)`` pairs of
    the ``((off_root, root_part, remainder), multiplicity)`` entries of a
    :func:`_extract` table."""
    pairs = {}
    for (aoff, aroot, rem), m in entries:
        key = (Forest(aoff + (aroot,)), forest_of(rem))
        pairs[key] = pairs.get(key, 0) + m
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
    finish = _finish_repaired if repair else _finish_plain
    out = FormalSum()
    for f, c in x:
        term = FormalSum.lift((EMPTY_FOREST, EMPTY_FOREST))
        for i, t in enumerate(f.trees):
            if repair:
                require_symbol(t)
            tree_terms = _pair_sum(_extract(t, finish).items())
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
    """Collect the sizes of the pruned tables read inside the block, in a
    list, for reports: the renormalised expansions' and the right-leg
    tables of ``model.gamma_via_coproduct``; the context variable keeps
    threads and nested blocks apart."""
    sizes = []
    token = _TABLE_SIZES.set(sizes)
    try:
        yield sizes
    finally:
        _TABLE_SIZES.reset(token)


def _record_size(terms):
    sizes = _TABLE_SIZES.get()
    if sizes is not None:
        sizes.append(terms)


def delta_minus_ex(x, spec):
    """Repaired coproduct with the left leg projected onto negative-degree
    forests."""
    return FormalSum([((a, r), c) for (a, r), c in delta_minus(x) if is_negative_forest(a, spec)])


def delta_minus_ex_even(tree, spec):
    """The terms of ``delta_minus_ex(tree, spec)`` whose left leg holds no
    tree with an odd number of noise edges, with the same coefficients.

    These are all the terms on which the BPHZ character g∘A can be
    non-zero.  A centred Gaussian character is 0 on a monomial of odd
    degree, and the repaired finisher conserves noise edges, so by
    induction on the edge count g∘A(t) = 0 whenever ``t`` has an odd
    noise count: in each antipode term either a left-leg tree or the
    remainder carries an odd count.  That holds for every covariance.

    On a symbol ``Xi_i * I^a * Π_j I(Xi_j)^(n_j)`` the terms are the unit
    ``1 (x) tree`` and, per way of moving k_j copies of each whole
    ``I(Xi_j)`` to the root noise with Σ k_j odd, the root part ``Xi_i *
    Π_j I(Xi_j)^(k_j)`` (x) the factors left, with coefficient Π C(n_j,
    k_j), if that root part has negative degree; its noise count 1 + Σ
    k_j is even.  No other left leg is even and negative.  A tree with
    E >= 2N (E edges, N of them noise) has a non-negative degree, since
    an integration edge has degree 1 and a noise edge one in (-1, 0).
    An off-root component is a lone ``Xi_j``, which is odd.  In the root
    part the root noise adds -1 to E - 2N, a bare ``I`` +1 and a whole
    ``I(Xi_j)`` 0.  An ``I`` extracted without its ``Xi_j`` leaves that
    noise as a rider: if the root noise stays, nothing is negative; if
    not, the remainder's root has no noise, so one rider stays there,
    and the ``I`` it rode in on adds +1 to the root part.

    The terms come in the order in which the extraction DP lists them,
    which the readers' dicts keep: the unit first, then the moved counts
    ascending, the first run outermost, ``root_splits``'s order
    reversed.  The table is not cached: its readers,
    ``gaussian.renormalised_expansion`` and the right-leg tables of
    ``model.gamma_via_coproduct``, keep what they build from it.
    """
    require_symbol(tree)
    # the root noise, last in canonical order, moves with whole I(Xi_j); a
    # moved tuple holding it and an odd count of them has even length
    splits = root_splits(tree, lambda factor: factor[0].is_noise or factor[1].children)
    terms = []
    for kept, moved, b in reversed(list(splits)):
        if not moved or (
            moved[-1][0].is_noise and len(moved) % 2 == 0 and spec.degree_tree(Tree(moved)) < 0
        ):
            terms.append(((forest_of(Tree(moved)), forest_of(Tree(kept))), b))
    return FormalSum(terms)


# ---------------------------------------------------------------------------
# positive-space coproduct


def delta_plus_ex(tree, spec):
    """Positive-twisted coproduct of a symbol tree.

    Returns a FormalSum keyed by ``(tree, tree)`` pairs: the left leg
    lives in the full tree span, the right leg in the positive space.  A
    root factor may move to the right leg only if it survives the positive
    projection there, which no noise factor does, so a run ``f^m`` of
    such factors gives ``sum_k C(m, k) f^k (x) f^(m - k)`` and any other
    run stays on the left (:func:`~roughrenorm.trees.root_splits`): Π (m +
    1) terms over those runs, with int coefficients.
    """
    require_symbol(tree, d=spec.d)
    splits = root_splits(tree, lambda factor: tree_survives_plus(branch(*factor), spec))
    return FormalSum([((Tree(kept), Tree(moved)), b) for kept, moved, b in splits])


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


def require_negative(tree, spec):
    """A DomainError unless ``tree`` has negative degree, the antipode's domain."""
    if spec.degree_tree(tree) >= 0:
        raise DomainError(
            f"antipode is defined on negative-degree trees; {tree!r} has degree "
            f"{spec.degree_tree(tree)}"
        )


def _antipode_tree(tree, spec):
    key = (tree, spec)
    cached = _ANTIPODE_CACHE.get(key)
    if cached is not None:
        return cached
    require_negative(tree, spec)
    full = forest_of(tree)
    acc = FormalSum()
    for (a, r), c in delta_minus_ex(tree, spec):
        if a != full:
            acc += mul_forests(twisted_antipode(a, spec), FormalSum.lift(r)).scale(c)
    result = -acc
    _ANTIPODE_CACHE[key] = result
    return result
