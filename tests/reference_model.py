"""Oracles that ``test_model`` and ``test_coalgebra`` compare the model
against, each kept verbatim from before it was rewritten: the recentred
evaluation Π as it was before it became a substitution into
``model.pi_symbolic`` (a walk over the tree, forest and formal sum); the
transport rule and the positive coproduct as they were before each became
one binomial sum per run of equal root factors (a product of one two-term
sum per root factor); and the coproduct route of transport as it was
before it read the screened extraction tables (the full ``delta_minus_ex``
table of every right leg).  Their one change since: an integral
coefficient is an int, not a Fraction, as in the package."""

import numpy as np

from roughrenorm.coalgebra import delta_minus_ex
from roughrenorm.errors import DomainError
from roughrenorm.gaussian import g_antipode, g_minus
from roughrenorm.model import _factor_name, _gamma_char
from roughrenorm.poly import Poly
from roughrenorm.structure import tree_survives_plus
from roughrenorm.trees import (
    LEAF,
    FormalSum,
    Forest,
    Tree,
    branch,
    in_symbol_family,
    require_symbol,
    tree_product,
)


def _factor_arrays(et, sub, path, s_idx):
    if et.is_noise:
        return path.xid[et.index]
    if sub.is_leaf:
        base = path.t
    else:
        set2, _ = sub.children[0]
        if not set2.is_noise:
            raise DomainError("tree lies outside the symbol family")
        base = path.xi[set2.index]
    return base - base[s_idx, None]


def eval_pi(x, s_idx, path):
    """Evaluation recentered at grid index ``s_idx``.

    Multiplicative over tree and forest products, linear over formal
    sums (float or Fraction coefficients).  Returns an array on the grid;
    given a sequence of grid indices, one such row per index.
    """
    shape = np.shape(s_idx) + path.t.shape
    if isinstance(x, Tree):
        out = np.ones(shape)
        for et, sub in x.children:
            out = out * _factor_arrays(et, sub, path, s_idx)
        return out
    if isinstance(x, Forest):
        out = np.ones(shape)
        for t in x.trees:
            out = out * eval_pi(t, s_idx, path)
        return out
    acc = np.zeros(shape)
    for key, c in x.sorted_terms():
        acc = acc + float(c) * eval_pi(key, s_idx, path)
    return acc


def gamma_direct(tree, spec):
    """Transport of a symbol by the direct recentring rules.

    Noise factors are fixed; each integration factor ``f`` picks up the
    free increment ``g[<text of f>]``.  Returns a tree-keyed FormalSum
    with Poly coefficients, except that the untransported term has the
    integer coefficient 1.
    """
    if not in_symbol_family(tree, d=spec.d):
        raise DomainError(f"tree {tree!r} lies outside the symbol family")
    out = FormalSum.lift(LEAF, 1)
    for et, sub in tree.children:
        factor = branch(et, sub)
        if et.is_noise:
            fac = FormalSum.lift(factor, 1)
        else:
            fac = FormalSum([(factor, 1), (LEAF, Poly.var(_factor_name("g", et, sub)))])
        out = out.combine(fac, tree_product)
    return out


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
    require_symbol(tree, d=spec.d)
    out = FormalSum.lift((LEAF, LEAF))
    for et, sub in tree.children:
        fac = FormalSum(
            [((l, r), 1) for (l, r) in _plus_factor_terms(et, sub, spec)]
        )
        out = out.combine(
            fac,
            lambda k1, k2: (tree_product(k1[0], k2[0]), tree_product(k1[1], k2[1])),
        )
    return out


def gamma_via_coproduct(tree, spec, cov, twist=True, minus_tables=None):
    """Transport via the positive coproduct composed with the
    renormalization character on the inner leg.

    With ``twist=True`` the inner character is the Gaussian character
    composed with the twisted antipode; with ``twist=False`` it is the
    plain Gaussian character.  Both must reproduce :func:`gamma_direct`.
    ``minus_tables``, a dict, keeps each right leg's ``delta_minus_ex``
    table, remainders replaced by their transport characters, across calls
    with the same ``spec``; the inner character is read once per distinct
    left leg per call.
    """
    tables = {} if minus_tables is None else minus_tables
    chars = {}  # the inner character of each distinct left leg
    out = FormalSum()
    for (t1, t2), c in delta_plus_ex(tree, spec):
        if t2 not in tables:
            tables[t2] = [(a, c2 * _gamma_char(r)) for (a, r), c2 in delta_minus_ex(t2, spec)]
        inner = Poly.const(0)
        for a, transport in tables[t2]:
            if a not in chars:
                chars[a] = g_antipode(a, cov, spec) if twist else g_minus(a, cov)
            inner = inner + chars[a] * transport
        out += FormalSum.lift(t1, c * inner)
    return out
