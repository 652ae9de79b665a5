"""Oracles that ``test_model`` compares the model against, each kept verbatim
from before it was rewritten: the recentred evaluation Π as it was before it
became a substitution into ``model.pi_symbolic`` (a walk over the tree,
forest and formal sum), and the transport rule as it was before it became a
binomial sum per run of equal root factors (a product of one two-term sum
per root factor)."""

import numpy as np

from roughrenorm.errors import DomainError
from roughrenorm.model import _factor_name
from roughrenorm.poly import Poly
from roughrenorm.trees import (
    LEAF,
    FormalSum,
    Forest,
    Tree,
    branch,
    in_symbol_family,
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
