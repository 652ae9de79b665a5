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


def gamma_via_coproduct(tree, spec, cov, twist=True, minus_tables=None):
    """Transport via the positive coproduct composed with the
    renormalization character on the inner leg.

    With ``twist=True`` the inner character is the Gaussian character
    composed with the twisted antipode; with ``twist=False`` it is the
    plain Gaussian character.  Both must reproduce :func:`gamma_direct`.
    ``minus_tables``, a dict, keeps each right leg's ``delta_minus_ex``
    table across calls with the same ``spec``.
    """
    tables = {} if minus_tables is None else minus_tables
    out = FormalSum()
    for (t1, t2), c in delta_plus_ex(tree, spec):
        if t2 not in tables:
            tables[t2] = delta_minus_ex(t2, spec)
        inner = Poly.const(0)
        for (a, r), c2 in tables[t2]:
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


@dataclass(frozen=True)
class TransportMatrices:
    """The compiled transports of a basis closed under transport, as flat
    arrays over their entries (:func:`compile_transport`): ``flat`` is an
    entry's position ``row * size + column`` in a ``(size, size)``
    transport matrix, ``factors`` its float factor, and ``powers[e, i]``
    the exponent of increment ``names[i]`` in entry ``e``."""

    size: int
    flat: np.ndarray
    factors: np.ndarray
    names: tuple
    powers: np.ndarray

    @classmethod
    def compile(cls, basis, spec):
        """Compile every symbol of ``basis`` once; row and column ``k``
        stand for ``basis[k]``."""
        index = {tau: k for k, tau in enumerate(basis)}
        entries = [
            (k * len(basis) + index[target], factor, incs)
            for k, tau in enumerate(basis)
            for target, factor, incs in compile_transport(tau, spec)
        ]
        names = tuple(sorted({name for _, _, incs in entries for name in incs}))
        powers = np.zeros((len(entries), len(names)), dtype=int)
        for e, (_, _, incs) in enumerate(entries):
            for name in incs:
                powers[e, names.index(name)] += 1
        flat = np.array([pos for pos, _, _ in entries], dtype=int)
        factors = np.array([factor for _, factor, _ in entries])
        return cls(len(basis), flat, factors, names, powers)

    def at(self, increments):
        """The transport matrices ``G[i, k, j]``, the coefficient of
        symbol ``j`` in the transport of symbol ``k``, at the increments of
        :func:`eval_gamma` (name -> array over ``i``)."""
        inc = np.stack([increments[name] for name in self.names], axis=-1)
        values = self.factors * np.prod(inc[:, None, :] ** self.powers, axis=-1)
        out = np.zeros((len(inc), self.size * self.size))
        np.add.at(out, (slice(None), self.flat), values)
        return out.reshape(len(inc), self.size, self.size)


def eval_gamma(t_idx, s_idx, path):
    """The transport increments between grid indices ``s_idx`` and
    ``t_idx``, by the names :func:`gamma_direct` gives them; given index
    arrays, one increment per pair of indices."""
    values = {_factor_name("g", INTEGRATION, LEAF): path.t[t_idx] - path.t[s_idx]}
    for j in path.xi:
        name = _factor_name("g", INTEGRATION, branch(noise(j)))
        values[name] = path.xi[j][t_idx] - path.xi[j][s_idx]
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


def _power(tree):
    """The number of integration factors at the root of a basis symbol."""
    return sum(not et.is_noise for et, _ in tree.children)


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
    # a spec's truncation is at least 1, as in generic_spec; nmax 0 keeps the
    # symbols of power 0 (the unit and the noises), as check_bphz_plain does
    small = type(spec)(d=spec.d, alpha=spec.alpha, truncation=max(min(spec.truncation, nmax), 1))
    symbols = [tau for tau in enumerate_basis(small) if _power(tau) <= nmax]
    minus_tables = {}  # one delta_minus_ex table per right leg, across twists and symbols
    with coproduct_sizes() as sizes:
        for tau in symbols:
            direct = gamma_direct(tau, small)
            for twist in (True, False):
                cases += 1
                via = gamma_via_coproduct(tau, small, cov, twist=twist, minus_tables=minus_tables)
                if via != direct:
                    failures.append(
                        f"{tau!r}: coproduct route (twist={twist}) disagrees with direct rules"
                    )
    return _check_report("gamma_unchanged_by_renormalization", failures, cases, start, sizes)


# ---------------------------------------------------------------------------
# numeric model-axiom checks


# Bytes of the stacked arrays of one batch of triples in check_model_axioms
_BATCH_BYTES = 2**20


def _triples_per_batch(symbols, points):
    """How many triples of :func:`check_model_axioms` share a batch: as
    many as fit their arrays in ``_BATCH_BYTES``, at least one.  A triple
    holds Π at s and at t and Γ_ts Π_t, three (symbols, points) float
    arrays, and Γ_ts, Γ_tu, Γ_us and Γ_us Γ_tu, four (symbols, symbols)
    ones."""
    return max(1, _BATCH_BYTES // (8 * symbols * (3 * points + 4 * symbols)))


def _triples(points, n_triples, seed):
    """The random grid-index triples s < u < t of :func:`check_model_axioms`,
    one row each."""
    rng = np.random.default_rng(seed)
    rows = [np.sort(rng.choice(points, size=3, replace=False)) for _ in range(n_triples)]
    return np.array(rows, dtype=int).reshape(n_triples, 3)


def check_model_axioms(path, spec, n_triples, seed, rtol=1e-10):
    """Check recentring consistency and the transport cocycle numerically.

    For random index triples (s, u, t): every basis symbol must satisfy
    ``eval_pi(tau, s) == eval_pi(Gamma_ts tau, t)`` up to
    relative error ``rtol``, and the transport must compose:
    ``Gamma_ts == Gamma_tu . Gamma_us`` on basis symbols.  Each basis
    symbol's transport is compiled once (:class:`TransportMatrices`).  The
    triples go in batches (:func:`_triples_per_batch`): per batch, Γ_ts,
    Γ_tu and Γ_us are stacked (symbols, symbols) matrices, Π at s and at t
    stacked (symbols, points) arrays from one ``eval_pi`` call per symbol,
    and both checks are stacked matrix products.
    """
    start = time.perf_counter()
    points = len(path.t)
    basis = enumerate_basis(spec)
    transport = TransportMatrices.compile(basis, spec)
    triples = _triples(points, n_triples, seed)
    per_batch = _triples_per_batch(len(basis), points)
    worst = 0.0
    failures = []
    for lo in range(0, n_triples, per_batch):
        s, u, t = triples[lo:lo + per_batch].T
        m = len(s)
        g_ts = transport.at(eval_gamma(t, s, path))
        bases = np.concatenate([s, t])
        pi = np.empty((2 * m, len(basis), points))  # rows: base s, then base t
        for k, tau in enumerate(basis):
            pi[:, k] = eval_pi(tau, bases, path)
        pi_s = pi[:m]
        scale = np.maximum(np.maximum(pi_s.max(axis=2), -pi_s.min(axis=2)), 1e-30)
        diff = np.matmul(g_ts, pi[m:])
        diff -= pi_s
        err = np.abs(diff, out=diff).max(axis=2) / scale
        two_step = np.matmul(
            transport.at(eval_gamma(u, s, path)), transport.at(eval_gamma(t, u, path))
        )
        cscale = np.maximum(np.abs(g_ts).max(axis=2), 1e-30)
        cerr = np.abs(g_ts - two_step).max(axis=2) / cscale
        worst = float(np.max([worst, err.max(), cerr.max()]))
        # a NaN error fails too; argwhere keeps the order triple, then symbol
        for i, k in np.argwhere(~(err <= rtol) | ~(cerr <= rtol)):
            tau = basis[k]
            if not err[i, k] <= rtol:
                failures.append(
                    f"recentring: {tau!r} at (s={s[i]}, t={t[i]}): rel err {err[i, k]:.3e}"
                )
            if not cerr[i, k] <= rtol:
                failures.append(
                    f"cocycle: {tau!r} at (s={s[i]}, u={u[i]}, t={t[i]}): "
                    f"rel err {cerr[i, k]:.3e}"
                )
    return {
        "name": "model_axioms",
        "status": "pass" if not failures else "fail",
        "triples": n_triples,
        "worst_rel_err": worst,
        "failures": failures[:10],
        "symbols": len(basis),
        "transport_entries": len(transport.flat),
        "elapsed_s": time.perf_counter() - start,
    }
