"""Path evaluation of symbols, transport coefficients, and the
renormalized evaluation pipeline.

The numeric layer evaluates symbols against a :class:`SamplePath`
(smooth channel paths with analytic derivatives on a common grid).  The
symbolic layer re-runs the same constructions with path values,
transport increments, and covariances kept as free polynomial
indeterminates, which turns the structural identities into exact
polynomial identities that can be checked mechanically.  The transport
rule :func:`gamma_direct` is written once, with free increment symbols.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .coalgebra import coproduct_sizes, delta_minus_ex, delta_minus_ex_even, delta_plus_ex
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
    format_atom,
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


# ---------------------------------------------------------------------------
# transport (Gamma): one rule over any coefficient ring


def _factor_name(prefix, et, sub):
    """Free-symbol name of a root factor, from its printed text: ``P[Xi_1]``,
    ``g[I]``, ``g[I(Xi_2)]``."""
    return f"{prefix}[{format_atom(et, sub)}]"


def _root_factors(x):
    """The root factors ``(edge type, subtree)`` of a tree or of every tree
    of a forest."""
    trees = x.trees if isinstance(x, Forest) else (x,)
    return [factor for t in trees for factor in t.children]


def _monomial(prefix, factors):
    """The monomial of the named root factors, as a Poly."""
    return Poly.lift(tuple(sorted(_factor_name(prefix, et, sub) for et, sub in factors)))


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


def _gamma_char(x):
    """The transport character on a tree or forest: the monomial of its
    root factors' increments; zero if a root factor is a noise."""
    factors = _root_factors(x)
    if any(et.is_noise for et, _ in factors):
        return Poly()
    return _monomial("g", factors)


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


def compile_transport(tree, spec):
    """:func:`gamma_direct` of ``tree`` as a list of entries ``(target
    tree, factor, increment names)``; a target's coefficient is the sum
    over its entries of the float factor times the named increments."""
    table = []
    for target, coeff in gamma_direct(tree, spec):
        for names, factor in Poly() + coeff:  # the integer 1 as a constant Poly
            table.append((target, float(factor), names))
    return table


def eval_transport(table, increments):
    """A compiled transport at float increments (:func:`eval_gamma`):
    a dict target -> coefficient."""
    out = {}
    for target, value, names in table:
        for name in names:
            value *= increments[name]
        out[target] = out.get(target, 0.0) + value
    return out


def eval_gamma(t_idx, s_idx, path):
    """The transport increments between grid indices ``s_idx`` and
    ``t_idx``, by the names :func:`gamma_direct` gives them."""
    values = {_factor_name("g", INTEGRATION, LEAF): float(path.t[t_idx] - path.t[s_idx])}
    for j in path.xi:
        name = _factor_name("g", INTEGRATION, branch(noise(j)))
        values[name] = float(path.xi[j][t_idx] - path.xi[j][s_idx])
    return values


# ---------------------------------------------------------------------------
# renormalized evaluation


def bphz_expansion(tree, cov, spec):
    """Exact expansion of the renormalized evaluation of ``tree``:
    a forest-keyed FormalSum whose keys are the remainder legs and whose
    coefficients multiply their recentred evaluations.  Only the terms of
    ``delta_minus_ex`` on which g∘A can be non-zero are built
    (:func:`~roughrenorm.coalgebra.delta_minus_ex_even`)."""
    out = FormalSum()
    for (a, r), c in delta_minus_ex_even(tree, spec):
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
    """Recentred evaluation with path values as free symbols: the
    monomial of the root factors of a tree or forest."""
    return _monomial("P", _root_factors(x))


def check_bphz_plain(spec, nmax, cov):
    """Verify the closed form of the renormalized evaluation.

    For every pair of channels (i, j) and every 1 <= n <= nmax, the
    pipeline expansion of ``Xi_i * I(Xi_j)^n`` must equal

        P[tau] - n * C[D_i][X_j] * P[I(Xi_j)^(n-1)]

    as a polynomial identity, and the expansion of the unit, the noises,
    and the pure integrated powers must be untouched.  Returns a report
    dict with status "pass"/"fail", the run time ``elapsed_s`` and
    ``max_coproduct_terms``, the number of terms of the largest
    extraction table built: here every table is a pruned one, from
    :func:`~roughrenorm.coalgebra.delta_minus_ex_even`.
    """
    start = time.perf_counter()
    with coproduct_sizes() as sizes:
        failures, cases = _check_closed_form(spec, nmax, cov)
    return _check_report("bphz_closed_form", failures, cases, start, sizes)


def _check_report(name, failures, cases, start, sizes):
    """The report of a symbolic check begun at ``perf_counter()`` ``start``,
    ``sizes`` being the sizes of the coproduct tables it built."""
    return {
        "name": name,
        "status": "pass" if not failures else "fail",
        "cases": cases,
        "failures": failures,
        "elapsed_s": time.perf_counter() - start,
        "max_coproduct_terms": max(sizes, default=0),
    }


def _check_closed_form(spec, nmax, cov):
    """The failure messages and the case count of :func:`check_bphz_plain`."""
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
    return failures, cases


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
    recentring rules.  Returns a report dict, with the same ``elapsed_s``
    and ``max_coproduct_terms`` as :func:`check_bphz_plain`.
    """
    start = time.perf_counter()
    failures = []
    cases = 0
    small = type(spec)(d=spec.d, alpha=spec.alpha, truncation=min(spec.truncation, nmax))
    with coproduct_sizes() as sizes:
        for tau in enumerate_basis(small):
            direct = gamma_direct(tau, small)
            for twist in (True, False):
                cases += 1
                via = gamma_via_coproduct(tau, small, cov, twist=twist)
                if via != direct:
                    failures.append(
                        f"{tau!r}: coproduct route (twist={twist}) disagrees with direct rules"
                    )
    return _check_report("gamma_unchanged_by_renormalization", failures, cases, start, sizes)


# ---------------------------------------------------------------------------
# numeric model-axiom checks


def check_model_axioms(path, spec, n_triples, seed, rtol=1e-10):
    """Check recentring consistency and the transport cocycle numerically.

    For random index triples (s, u, t): every basis symbol must satisfy
    ``eval_pi(tau, s) == eval_pi(Gamma_ts tau, t)`` up to
    relative error ``rtol``, and the transport must compose:
    ``Gamma_ts == Gamma_tu . Gamma_us`` on basis symbols.  Each basis
    symbol's transport is compiled once (:func:`compile_transport`) and
    evaluated per triple as float products.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    n = len(path.t)
    basis = enumerate_basis(spec)
    index = {tau: k for k, tau in enumerate(basis)}  # closed under transport
    tables = [
        [(index[target], factor, names) for target, factor, names in compile_transport(tau, spec)]
        for tau in basis
    ]
    worst = 0.0
    failures = []
    for _ in range(n_triples):
        s, u, t = sorted(rng.choice(n, size=3, replace=False))
        inc_ts = eval_gamma(t, s, path)
        inc_tu = eval_gamma(t, u, path)
        inc_us = eval_gamma(u, s, path)
        g_tu = [eval_transport(table, inc_tu) for table in tables]
        pi = [eval_pi(tau, [s, t], path) for tau in basis]  # rows: base s, base t
        for k, tau in enumerate(basis):
            one_step = eval_transport(tables[k], inc_ts)
            lhs = pi[k][0]
            rhs = sum(c * pi[j][1] for j, c in one_step.items())
            scale = max(float(np.max(np.abs(lhs))), 1e-30)
            err = float(np.max(np.abs(lhs - rhs))) / scale
            worst = max(worst, err)
            if err > rtol:
                failures.append(f"recentring: {tau!r} at (s={s}, t={t}): rel err {err:.3e}")
            two_step = {}
            for j, c in eval_transport(tables[k], inc_us).items():
                for rho, c2 in g_tu[j].items():
                    two_step[rho] = two_step.get(rho, 0.0) + c2 * c
            cscale = max((abs(c) for c in one_step.values()), default=1.0)
            cerr = max(
                abs(one_step.get(key, 0.0) - two_step.get(key, 0.0))
                for key in one_step.keys() | two_step.keys()
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
        "symbols": len(basis),
        "transport_entries": sum(len(table) for table in tables),
        "elapsed_s": time.perf_counter() - start,
    }
