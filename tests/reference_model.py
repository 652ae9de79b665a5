"""The recentred evaluation Π as it was before it became a substitution into
``model.pi_symbolic``: a walk over the tree, forest and formal sum, kept
verbatim as the oracle that ``test_model`` compares ``model.eval_pi``
against."""

import numpy as np

from roughrenorm.errors import DomainError
from roughrenorm.trees import Forest, Tree


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
