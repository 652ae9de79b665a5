"""Path evaluation of symbols, transport coefficients, and the
renormalized evaluation pipeline.

The numeric layer evaluates symbols against a :class:`SamplePath`
(smooth channel paths with analytic derivatives on a common grid).  The
symbolic layer re-runs the same constructions with path values,
transport coefficients, and covariances kept as free polynomial
indeterminates, which turns the structural identities into exact
polynomial identities that can be checked mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coalgebra import delta_minus_ex, delta_plus_ex
from .errors import DomainError
from .gaussian import g_antipode, g_minus
from .poly import Poly
from .trees import (
    FormalSum,
    Forest,
    INTEGRATION,
    LEAF,
    Tree,
    branch,
    in_symbol_family,
    noise,
    tree_product,
)
from .structure import enumerate_basis

# ---------------------------------------------------------------------------
# numeric sample paths


@dataclass
class SamplePath:
    """Smooth channel paths xi_i on a common grid, with derivatives.

    ``t`` is the grid; ``xi[i]`` and ``xid[i]`` are the path and its
    derivative for channel i (1-based).
    """

    t: np.ndarray
    xi: dict
    xid: dict

    def __post_init__(self):
        for i, arr in self.xi.items():
            if arr.shape != self.t.shape or self.xid[i].shape != self.t.shape:
                raise ValueError("channel arrays must match the grid")

    @property
    def d(self):
        return len(self.xi)


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
    if s_idx is None:
        return base
    return base - base[s_idx]


def eval_pi(x, s_idx, path):
    """Evaluation recentered at grid index ``s_idx`` (None: no recentering).

    Multiplicative over tree and forest products, linear over formal
    sums (float or Fraction coefficients).  Returns an array on the grid.
    """
    if isinstance(x, Tree):
        out = np.ones_like(path.t)
        for et, sub in x.children:
            out = out * _factor_arrays(et, sub, path, s_idx)
        return out
    if isinstance(x, Forest):
        out = np.ones_like(path.t)
        for t in x.trees:
            out = out * eval_pi(t, s_idx, path)
        return out
    acc = np.zeros_like(path.t)
    for key, c in x.sorted_terms():
        acc = acc + float(c) * eval_pi(key, s_idx, path)
    return acc


# ---------------------------------------------------------------------------
# transport (Gamma) coefficients: symbolic core shared by both routes

_GAMMA_I = "g[I]"


def _gamma_var(et, sub):
    """Free-symbol name of the transport increment of a positive factor."""
    if et.is_noise:
        return None
    if sub.is_leaf:
        return _GAMMA_I
    set2, sub2 = sub.children[0]
    if set2.is_noise and sub2.is_leaf:
        return f"g[I(Xi_{set2.index})]"
    raise DomainError("tree lies outside the symbol family")


def gamma_direct(tree, spec):
    """Transport of a symbol by the direct recentring rules.

    Noise factors are fixed; each integration factor picks up the
    corresponding increment as a free symbol.  Returns a tree-keyed
    FormalSum with Poly coefficients.
    """
    if not in_symbol_family(tree, d=spec.d):
        raise DomainError(f"tree {tree!r} lies outside the symbol family")
    out = FormalSum.lift(LEAF, Poly.const(1))
    for et, sub in tree.children:
        factor = branch(et, sub)
        if et.is_noise:
            fac = FormalSum.lift(factor, Poly.const(1))
        else:
            fac = FormalSum(
                [(factor, Poly.const(1)), (LEAF, Poly.var(_gamma_var(et, sub)))]
            )
        out = out.combine(fac, tree_product)
    return out


def _gamma_char_tree(tree):
    """The transport character on a positive-space tree: the product of
    its factors' free symbols; zero on trees with noise factors."""
    poly = Poly.const(1)
    for et, sub in tree.children:
        name = _gamma_var(et, sub)
        if name is None:
            return Poly.const(0)
        poly = poly * Poly.var(name)
    return poly


def _gamma_char(forest_or_tree):
    if isinstance(forest_or_tree, Tree):
        return _gamma_char_tree(forest_or_tree)
    poly = Poly.const(1)
    for t in forest_or_tree.trees:
        poly = poly * _gamma_char_tree(t)
    return poly


def gamma_via_coproduct(tree, spec, cov, twist=True):
    """Transport via the positive coproduct composed with the
    renormalization character on the inner leg.

    With ``twist=True`` the inner character is the Gaussian character
    composed with the twisted antipode; with ``twist=False`` it is the
    plain Gaussian character.  Both must reproduce :func:`gamma_direct`.
    """
    out = FormalSum()
    for (t1, t2), c in delta_plus_ex(tree, spec):
        inner = Poly.const(0)
        for (a, r), c2 in delta_minus_ex(t2, spec):
            if twist:
                charval = g_antipode(a, cov, spec)
            else:
                charval = g_minus(a, cov)
            inner = inner + c2 * charval * _gamma_char(r)
        out += FormalSum.lift(t1, c * inner)
    return out


# -- numeric transport -------------------------------------------------------


@dataclass
class GammaCoeffs:
    """Numeric transport between two base points on a sample path."""

    spec: object
    values: dict  # free-symbol name -> float

    def apply(self, x):
        """Expand a Tree/Forest/FormalSum into a float-coefficient
        FormalSum over trees in the recentred basis."""
        if isinstance(x, Forest):
            if len(x.trees) > 1:
                raise DomainError("transport acts on trees")
            x = x.trees[0] if x.trees else LEAF
        if isinstance(x, Tree):
            sym = gamma_direct(x, self.spec)
            return FormalSum(
                [(t, poly.substitute(self.values)) for t, poly in sym]
            )
        out = FormalSum()
        for key, c in x:
            out += self.apply(key).scale(float(c))
        return out


def eval_gamma(t_idx, s_idx, path, spec):
    """Transport coefficients Gamma_{t s} read off a sample path."""
    values = {_GAMMA_I: float(path.t[t_idx] - path.t[s_idx])}
    for j in path.xi:
        values[f"g[I(Xi_{j})]"] = float(path.xi[j][t_idx] - path.xi[j][s_idx])
    return GammaCoeffs(spec=spec, values=values)


# ---------------------------------------------------------------------------
# renormalized evaluation


def bphz_expansion(tree, cov, spec):
    """Exact expansion of the renormalized evaluation of ``tree``:
    a forest-keyed FormalSum whose keys are the remainder legs and whose
    coefficients multiply their recentred evaluations."""
    out = FormalSum()
    for (a, r), c in delta_minus_ex(tree, spec):
        coeff = c * g_antipode(a, cov, spec)
        if coeff:
            out += FormalSum.lift(r, coeff)
    return out


def eval_pi_bphz(tree, s_idx, path, cov, spec):
    """Renormalized recentred evaluation of a symbol on a sample path."""
    return eval_pi(bphz_expansion(tree, cov, spec), s_idx, path)


# ---------------------------------------------------------------------------
# symbolic identity checks


def pi_symbolic(x):
    """Recentred evaluation with path values as free symbols."""
    if isinstance(x, Forest):
        poly = Poly.const(1)
        for t in x.trees:
            poly = poly * pi_symbolic(t)
        return poly
    poly = Poly.const(1)
    for et, sub in x.children:
        if et.is_noise:
            poly = poly * Poly.var(f"P[Xi_{et.index}]")
        elif sub.is_leaf:
            poly = poly * Poly.var("P[I]")
        else:
            set2, _ = sub.children[0]
            poly = poly * Poly.var(f"P[I(Xi_{set2.index})]")
    return poly


def check_bphz_plain(spec, nmax, cov):
    """Verify the closed form of the renormalized evaluation.

    For every pair of channels (i, j) and every 1 <= n <= nmax, the
    pipeline expansion of ``Xi_i * I(Xi_j)^n`` must equal

        P[tau] - n * C[D_i][X_j] * P[I(Xi_j)^(n-1)]

    as a polynomial identity, and the expansion of the unit, the noises,
    and the pure integrated powers must be untouched.  Returns a report
    dict with status "pass"/"fail".
    """
    failures = []
    cases = 0
    ixi = {j: _integrated(j) for j in range(1, spec.d + 1)}
    for i in range(1, spec.d + 1):
        xi_i = branch(noise(i))
        for j in range(1, spec.d + 1):
            for n in range(1, nmax + 1):
                tau = tree_product(xi_i, *([ixi[j]] * n))
                lhs = _expansion_poly(tau, cov, spec)
                rhs = pi_symbolic(tau) - n * cov.entry(("D", i), ("X", j)) * pi_symbolic(
                    tree_product(*([ixi[j]] * (n - 1)))
                )
                cases += 1
                if lhs != rhs:
                    failures.append(
                        f"Xi_{i}*I(Xi_{j})^{n}: expansion does not match the closed form"
                    )
    # symbols that must be left untouched
    untouched = [LEAF]
    for i in range(1, spec.d + 1):
        untouched.append(branch(noise(i)))
        for n in range(1, nmax + 1):
            untouched.append(tree_product(*([ixi[i]] * n)))
    for tau in untouched:
        cases += 1
        if _expansion_poly(tau, cov, spec) != pi_symbolic(tau):
            failures.append(f"{tau!r}: renormalization should act trivially")
    return {
        "name": "bphz_closed_form",
        "status": "pass" if not failures else "fail",
        "cases": cases,
        "failures": failures,
    }


def _integrated(j):
    return branch(INTEGRATION, branch(noise(j)))


def _expansion_poly(tree, cov, spec):
    poly = Poly.const(0)
    for r, coeff in bphz_expansion(tree, cov, spec):
        poly = poly + coeff * pi_symbolic(r)
    return poly


def check_gamma_bphz(spec, nmax, cov):
    """Verify that renormalization does not change transport.

    For every basis symbol of power <= nmax, the transport computed
    through the coproduct route (with and without the antipode twist on
    the inner character) must coincide exactly with the direct
    recentring rules.  Returns a report dict.
    """
    failures = []
    cases = 0
    small = type(spec)(d=spec.d, alpha=spec.alpha, truncation=min(spec.truncation, nmax))
    for tau in enumerate_basis(small):
        direct = gamma_direct(tau, small)
        for twist in (True, False):
            cases += 1
            via = gamma_via_coproduct(tau, small, cov, twist=twist)
            if via != direct:
                failures.append(
                    f"{tau!r}: coproduct route (twist={twist}) disagrees with direct rules"
                )
    return {
        "name": "gamma_unchanged_by_renormalization",
        "status": "pass" if not failures else "fail",
        "cases": cases,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# numeric model-axiom checks


def check_model_axioms(path, spec, n_triples, seed, rtol=1e-10):
    """Check recentring consistency and the transport cocycle numerically.

    For random index triples (s, u, t): every basis symbol must satisfy
    ``eval_pi(tau, s) == eval_pi(Gamma_ts.apply(tau), t)`` up to
    relative error ``rtol``, and the transport must compose:
    ``Gamma_ts == Gamma_tu . Gamma_us`` on basis symbols.
    """
    rng = np.random.default_rng(seed)
    n = len(path.t)
    basis = enumerate_basis(spec)
    worst = 0.0
    failures = []
    for _ in range(n_triples):
        s, u, t = sorted(rng.choice(n, size=3, replace=False))
        g_ts = eval_gamma(t, s, path, spec)
        g_tu = eval_gamma(t, u, path, spec)
        g_us = eval_gamma(u, s, path, spec)
        for tau in basis:
            lhs = eval_pi(tau, s, path)
            rhs = eval_pi(g_ts.apply(tau), t, path)
            scale = max(float(np.max(np.abs(lhs))), 1e-30)
            err = float(np.max(np.abs(lhs - rhs))) / scale
            worst = max(worst, err)
            if err > rtol:
                failures.append(f"recentring: {tau!r} at (s={s}, t={t}): rel err {err:.3e}")
            one_step = g_ts.apply(tau)
            two_step = FormalSum()
            for sigma, c in g_us.apply(tau):
                two_step += g_tu.apply(sigma).scale(c)
            cscale = max((abs(c) for c in one_step.terms.values()), default=1.0)
            cerr = 0.0
            for key in set(one_step.terms) | set(two_step.terms):
                cerr = max(
                    cerr,
                    abs(one_step.terms.get(key, 0.0) - two_step.terms.get(key, 0.0)),
                )
            cerr /= max(cscale, 1e-30)
            worst = max(worst, cerr)
            if cerr > rtol:
                failures.append(
                    f"cocycle: {tau!r} at (s={s}, u={u}, t={t}): rel err {cerr:.3e}"
                )
    return {
        "name": "model_axioms",
        "status": "pass" if not failures else "fail",
        "triples": n_triples,
        "worst_rel_err": worst,
        "failures": failures[:10],
    }
