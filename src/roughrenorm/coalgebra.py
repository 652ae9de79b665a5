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
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .structure import tree_survives_plus
from .trees import (
    EMPTY_FOREST,
    FormalSum,
    Forest,
    LEAF,
    Tree,
    _extract,
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
    fixed = sum(1 for b in rem if b[0].is_noise)
    rider_slots = sorted(
        (r[0].sort_key(), r[1].key, idx, r)
        for idx, entry in enumerate(chosen)
        for r in entry[2]
    )
    capacity = max(0, 1 - fixed)
    pulled_by_entry = {}
    for _, _, idx, r in rider_slots[capacity:]:
        pulled_by_entry.setdefault(idx, []).append(r)
    root_branches = []
    for idx, (et, aroot, _) in enumerate(chosen):
        extra = pulled_by_entry.get(idx)
        if extra:
            aroot = Tree(aroot.children + tuple(extra))
        root_branches.append((et, aroot))
    kept = tuple(r for _, _, _, r in rider_slots[:capacity])
    return aoff, Tree(root_branches), Tree(rem + kept)


# ---------------------------------------------------------------------------
# negative-space coproduct


def delta_minus_tree(tree, repair=True):
    """Extraction coproduct of a single symbol tree, as a FormalSum keyed
    by ``(extracted forest, remainder forest)`` pairs.

    The repaired variant reroutes stranded root noises into the extracted
    component, keeping every term inside the symbol family; it therefore
    rejects input from outside the family.  The plain variant is defined
    on arbitrary depth-bounded trees (the family is not closed under
    plain contraction) and is the one that is coassociative.
    """
    if repair and not in_symbol_family(tree):
        raise DomainError(f"tree {tree!r} lies outside the symbol family")
    ext = _extract(tree, _finish_repaired, _REPAIRED_CACHE) if repair else _extract(tree)
    pairs = {}
    for (aoff, aroot, rem), m in ext.items():
        a = Forest(aoff + ((aroot,) if aroot.children else ()))
        key = (a, forest_of(rem))
        pairs[key] = pairs.get(key, 0) + Fraction(m)
    return FormalSum(pairs)


def delta_minus(x, repair=True):
    """Extraction coproduct, multiplicative over forest components and
    linear over formal sums."""
    x = as_formal_sum(x)
    out = FormalSum()
    for f, c in x:
        term = FormalSum.lift((EMPTY_FOREST, EMPTY_FOREST))
        for t in f.trees:
            term = term.combine(
                delta_minus_tree(t, repair=repair),
                lambda k1, k2: (
                    forest_product(k1[0], k2[0]),
                    forest_product(k1[1], k2[1]),
                ),
            )
        out += term.scale(c)
    return out


def delta_minus_ex(x, spec, repair=True):
    """Coproduct with the left leg projected onto negative-degree forests."""
    out = FormalSum()
    for (a, r), c in delta_minus(x, repair=repair):
        if all(spec.degree_tree(t) < 0 for t in a.trees):
            out += FormalSum.lift((a, r), c)
    return out


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


def _antipode_tree(tree, spec):
    key = (tree.key, spec)
    cached = _ANTIPODE_CACHE.get(key)
    if cached is not None:
        return cached
    if tree.is_leaf:
        return FormalSum.lift(EMPTY_FOREST)
    if spec.degree_tree(tree) >= 0:
        raise DomainError(
            f"antipode is defined on negative-degree trees; {tree!r} has degree "
            f"{spec.degree_tree(tree)}"
        )
    full = forest_of(tree)
    acc = FormalSum()
    for (a, r), c in delta_minus_ex(tree, spec):
        if a == full:
            continue  # the tau (x) 1 term is moved to the other side
        piece = mul_forests(twisted_antipode(a, spec), FormalSum.lift(r))
        acc += piece.scale(c)
    result = -acc
    _ANTIPODE_CACHE[key] = result
    return result
