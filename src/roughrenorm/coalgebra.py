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

The finishers and the parity screen act on the top tree only, which is
exact for the symbols their readers take: no state of a symbol's
subtrees ``1`` and ``Xi_j`` has a rider or an off-root tree.

After projecting the left leg onto negative-degree forests the two
variants agree, so :func:`delta_minus_ex` reads the repaired one and
everything downstream (the twisted antipode, the renormalization
characters) is variant-independent.

The BPHZ character g∘A (``gaussian``) and the coproduct route of
transport (``model.gamma_via_coproduct``) read a third, pruned table,
:func:`delta_minus_ex_even`: the repaired, projected coproduct less every
term whose left leg holds a tree with an odd number of noise edges.  g∘A
and g are 0 on such a tree for every centred Gaussian covariance, so those
terms add nothing to g∘A, ``model.bphz_expansion`` or the transport.

Its DP (:func:`_states` with ``even=True``) builds only the states whose
finished root part can lie in a kept left leg: the unit, or a tree of
even noise count N and negative excess E - 2N, E being its edge count (a
tree with E >= 2N has a non-negative degree).  Each state carries its
root part's tallies as integers.  In a symbol, the root noise's entry
adds excess -1 and an integration entry 0 or +1; the rider that stays at
the remainder's root is a noise leaf, so it adds +1 and flips N's
parity, and one stays unless the root noise is kept, which leaves
nothing negative.  So an entry with a rider, or with an excess no lower
than the root noise could take off, is never a choice; the root noise's
group is the last, and there a state is built only if it passes.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
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
        cached = cache[tree] = _finished(ranked, states.items(), finish)
    return cached


def _finished(ranked, states, finish):
    """The table of ``(counts, multiplicity)`` pairs of :func:`_states`,
    each state expanded by :func:`_parts` and finished."""
    out = {}
    for counts, m in states:
        key = finish(*_parts(counts, ranked))
        out[key] = out.get(key, 0) + m
    return out


def _states(tree, even=False):
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

    With ``even=True`` ``tree`` is a symbol, and the DP builds only the
    states that :func:`delta_minus_ex_even` finishes.  A count tuple then
    ends with three tallies of the root part: its chosen entries, their
    excess E - 2N (E edges, N noise edges) and N.  An extracted edge is
    a choice only if its entry passes :func:`_may_be_kept` with the
    ``spare`` that the root noise's entry could still take off; the
    root noise, if any, is the last group, where a state is built only
    if its root part passes the screen itself: the unit, or negative
    excess and even N.
    """
    groups = [
        (_branch_choices(et, _extract(sub), even), len(list(copies)))
        for (et, sub), copies in groupby(tree.children)
    ]
    if even:
        # a symbol's one root noise is its last group, its -1 the most the
        # other choices can take off an entry's excess
        spare = int(bool(tree.children) and tree.children[-1][0].is_noise)
        groups = [
            ([(part, w) for part, w in choices if _may_be_kept(*part[3:5], spare)], k)
            for choices, k in groups
        ]
    ranked = tuple(
        tuple(sorted({x for choices, _ in groups for part, _ in choices for x in part[kind]}, key=key))
        for kind, key in enumerate((_TREE_KEY, _entry_key, _branch_key))
    )
    rank = {x: i for i, x in enumerate(chain(*ranked))}
    zero = (0,) * (len(rank) + 3 * even)
    states = {zero: 1}
    screened = len(groups) - 1 if even else -1
    for i, (choices, k) in enumerate(groups):
        group = _distribute([(_counts(part, rank, zero), w) for part, w in choices], k, zero)
        nxt = {}
        for counts, m in states.items():
            for g_counts, w in group:
                key = tuple(map(add, counts, g_counts))
                if i != screened or _may_be_kept(key[-3], key[-2]) and not key[-1] % 2:
                    nxt[key] = nxt.get(key, 0) + m * w
        states = nxt
    return ranked, states


def _may_be_kept(entries, excess, spare=0):
    """Whether a root part with this many chosen entries and this excess
    E - 2N can still be kept, when the choices still to come can lower
    its excess by at most ``spare``: a kept root part is the unit or has
    negative excess.  An integration edge has degree 1 and a noise edge
    a degree in (-1, 0), so a tree with E >= 2N, no fewer integration
    than noise edges, has a non-negative degree under every spec."""
    return not entries or excess < spare


def _counts(part, rank, zero):
    """The count tuple of a choice given as sorted tuples of items, then
    its tallies, if any (see :func:`_branch_choices`)."""
    counts = list(zero)
    for items in part[:3]:
        for x in items:
            counts[rank[x]] += 1
    counts[len(rank):] = part[3:]
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


def _branch_choices(et, sub_ext, even):
    """The state parts one root branch ``(et, sub)`` can add, with weights:
    per entry of the subtree's table, the edge kept or extracted.  When
    ``even``, an edge is kept only if the detaching part has even noise
    count, and a part ends with the tallies it adds to the root part
    (see :func:`_states`); an entry is tallied without its riders, as if
    they stayed at the remainder's root."""
    choices = {}
    for (s_off, s_root, s_rem), sm in sub_ext.items():
        # edge kept: the sub-extraction's root component detaches
        if not (even and s_root.num_noises % 2):
            off = _msort(s_off + ((s_root,) if s_root.children else ()))
            part = (off, (), ((et, s_rem),)) + (0, 0, 0) * even
            choices[part] = choices.get(part, 0) + sm
        # edge extracted: endpoints identified, remainder splices up
        riders = tuple(b for b in s_rem.children if b[0].is_noise)
        others = tuple(b for b in s_rem.children if not b[0].is_noise)
        noises = et.is_noise + s_root.num_noises
        part = (s_off, ((et, s_root, riders),), others)
        part += (1, 1 + s_root.num_edges - 2 * noises, noises) * even
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

    An off-root component is final once it detaches, so the extraction
    never builds one of odd noise count.  The root component is final
    only once finished, and :func:`_states` with ``even=True`` builds
    only the states whose root component is the unit, or has even noise
    count N and negative excess E - 2N (E its edges), as
    ``_finish_repaired`` makes it; the others give an odd or a
    non-negative root tree, so no kept term.  The DP bounds the excess
    with exact integer tallies:

    * a symbol's root branches are one root noise at most, bare ``I``
      and ``I(Xi_j)``; as a chosen entry, the root noise adds excess -1,
      every integration entry 0 or +1;
    * an entry with a rider, a noise leaf, is never kept: if the root
      noise is extracted, the remainder's root has no noise branch, so
      one rider stays there (excess +1 over the root part without it,
      parity flipped) and cancels the -1; if not, nothing is negative;
    * so an entry is tallied as if its riders stayed, and is a choice
      only if its excess is below the root noise's 1 (0 without a root
      noise): the unit, the root noise and whole ``I(Xi_j)`` remain;
    * no kept state fails before the root noise's group, the last in
      canonical order: there each state is screened as it is built,
      its excess final and its N read for parity.

    At ``check-bphz --d 2 --nmax 9`` the DP builds 157 final states, the
    157 of 2,195 that the unpruned DP built and then finished.  The
    screened table itself is not cached: its readers,
    ``gaussian.renormalised_expansion`` and the right-leg tables of
    ``model.gamma_via_coproduct``, keep what they build from it.
    """
    require_symbol(tree)
    ranked, states = _states(tree, even=True)
    table = _finished(ranked, states.items(), _finish_repaired)
    return _pair_sum(table.items(), lambda a: is_negative_forest(a, spec))


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
    1) terms over those runs, with Fraction coefficients.
    """
    require_symbol(tree, d=spec.d)
    splits = root_splits(tree, lambda factor: tree_survives_plus(branch(*factor), spec))
    return FormalSum([((Tree(kept), Tree(moved)), Fraction(b)) for kept, moved, b in splits])


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
