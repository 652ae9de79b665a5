"""Path evaluation of symbols, transport coefficients, and the
renormalized evaluation pipeline.

The symbolic layer keeps path values, transport increments, and
covariances as free polynomial indeterminates, which turns the
structural identities into exact polynomial identities that can be
checked mechanically.  Π (:func:`pi_symbolic`) and the transport rule
(:func:`gamma_direct`) are each written once, as monomials in named root
factors and increments.  The numeric layer substitutes into them: one
evaluator (:class:`_Monomials`), which evaluates each distinct monomial
once, as its prefix times one power, gives Π rows on a :class:`SamplePath`
(smooth channel paths with analytic derivatives on a common grid) and the
transport matrices' entries.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import groupby, product

import numpy as np

from .coalgebra import _record_size, coproduct_sizes, delta_minus_ex_even, delta_plus_ex
from .errors import DomainError
from .gaussian import at_covariance, g_antipode, g_minus, renormalised_expansion
from .poly import Poly
from .trees import (
    FormalSum,
    Forest,
    INTEGRATION,
    LEAF,
    Tree,
    branch,
    format_atom,
    noise,
    require_symbol,
    root_splits,
    tree_product,
)
from .structure import enumerate_basis

# ---------------------------------------------------------------------------
# numeric sample paths and compiled monomials


@dataclass
class SamplePath:
    """Smooth channel paths xi_i on a common grid, with derivatives.

    ``t`` is the grid; ``xi[i]`` and ``xid[i]`` are the path and its
    derivative for channel i, and both hold the channels 1..d.
    """

    t: np.ndarray
    xi: dict
    xid: dict

    def __post_init__(self):
        channels = set(range(1, len(self.xi) + 1))
        if set(self.xi) != channels or set(self.xid) != channels:
            raise ValueError("xi and xid must hold the same channels 1..d")
        for i, arr in self.xi.items():
            if arr.shape != self.t.shape or self.xid[i].shape != self.t.shape:
                raise ValueError("channel arrays must match the grid")

    @property
    def d(self):
        return len(self.xi)


@dataclass(frozen=True)
class _Monomials:
    """Monomials, sorted tuples of names repeated for powers, each distinct
    one compiled once: ``distinct[k]`` holds the k-th one's ``(name, power)``
    factors in name order, and ``index[r]`` is row ``r``'s distinct one.

    Each distinct monomial is a slot, computed as its prefix (its factors
    but the last) times the last factor's power.  A prefix that is not
    listed is one more slot, of ``spare`` ones after the listed ones.
    ``steps`` holds ``(slot, prefix slot, name, power)`` in order of length,
    the empty monomial's prefix slot being None; ``tops`` each name's
    highest power that a step reads."""

    distinct: tuple
    index: np.ndarray
    steps: tuple
    spare: int
    tops: tuple

    @classmethod
    def compile(cls, monomials):
        keys = {m: k for k, m in enumerate(dict.fromkeys(monomials))}
        distinct = tuple(tuple((name, len(list(run))) for name, run in groupby(m)) for m in keys)
        slots = {factors: k for k, factors in enumerate(distinct)}
        for factors in distinct:
            while factors and factors[:-1] not in slots:
                factors = factors[:-1]
                slots[factors] = len(slots)
        steps = tuple(
            (k, slots[f[:-1]], *f[-1]) if f else (k, None, None, 0)
            for f, k in sorted(slots.items(), key=lambda item: len(item[0]))
        )
        tops = {}
        for _, _, name, p in steps:
            if name is not None:
                tops[name] = max(tops.get(name, 0), p)
        index = np.array([keys[m] for m in monomials], dtype=int)
        return cls(distinct, index, steps, len(slots) - len(distinct), tuple(tops.items()))

    @property
    def slots(self):
        """The number of slots, listed and spare."""
        return len(self.distinct) + self.spare

    def at(self, values, buffer=None):
        """The monomials at ``values`` (name -> array, all broadcasting to
        one shape ``(..., n)``), as an array ``(..., rows, n)``.  Each name's
        powers are built once, by repeated multiplication, and each slot by
        one multiplication into its own contiguous ``(..., n)`` block, of its
        prefix by its last power, shorter slots first; the empty monomial is
        1.  So a monomial is the left-to-right product of its powers.  Rows
        are gathered from the distinct monomials only if some repeat; the
        result is a view of the slot-major blocks with the rows axis moved.
        The blocks are a new array, or the start of ``buffer``, a 1-D float
        array with room for them all."""
        *lead, n = np.broadcast_shapes(*(np.shape(v) for v in values.values()))
        powers = {}  # name -> [value, value**2, ...]
        for name, top in self.tops:
            table = powers[name] = [values[name]]
            while len(table) < top:
                table.append(table[-1] * values[name])
        listed = len(self.distinct)
        shape = (self.slots, *lead, n)  # each slot contiguous
        slots = np.empty(shape) if buffer is None else buffer[: math.prod(shape)].reshape(shape)
        for k, prefix, name, p in self.steps:
            if prefix is None:
                slots[k] = 1.0
            else:
                np.multiply(slots[prefix], powers[name][p - 1], out=slots[k])
        rows = slots[:listed] if listed == len(self.index) else slots[self.index]
        return np.moveaxis(rows, 0, -2)


def _pi_values(path, s_idx):
    """The root-factor arrays recentred at grid index ``s_idx``, by the names
    :func:`pi_symbolic` gives them; given index arrays, one row per index."""
    values = {_factor_name("P", INTEGRATION, LEAF): path.t - path.t[s_idx, None]}
    for j, xi in path.xi.items():
        values[_factor_name("P", INTEGRATION, branch(noise(j)))] = xi - xi[s_idx, None]
        values[_factor_name("P", noise(j), LEAF)] = path.xid[j]
    return values


def _pi_table(keys):
    """The :func:`pi_symbolic` monomials of trees or forests, compiled."""
    return _Monomials.compile([mono for key in keys for mono, _ in pi_symbolic(key)])


def eval_pi(x, s_idx, path):
    """Evaluation recentered at grid index ``s_idx``: :func:`pi_symbolic`
    at the recentred root-factor arrays.

    Multiplicative over tree and forest products, linear over formal
    sums (int, Fraction or float coefficients).  Returns an array on the grid;
    given a sequence of grid indices, one such row per index.  A tree
    outside the symbol family of the path's channels is a DomainError.
    """
    terms = x.sorted_terms() if isinstance(x, FormalSum) else [(x, 1)]
    for key, _ in terms:
        for tree in _trees(key):
            require_symbol(tree, d=path.d)
    rows = _pi_table([key for key, _ in terms]).at(_pi_values(path, s_idx))
    zero = np.zeros(np.shape(s_idx) + path.t.shape)
    return sum((float(c) * rows[..., r, :] for r, (_, c) in enumerate(terms)), zero)


# ---------------------------------------------------------------------------
# transport (Gamma): one rule over any coefficient ring


def _factor_name(prefix, et, sub):
    """Free-symbol name of a root factor, from its printed text: ``P[Xi_1]``,
    ``g[I]``, ``g[I(Xi_2)]``."""
    return f"{prefix}[{format_atom(et, sub)}]"


def _trees(x):
    """The trees of a forest, or a tree alone."""
    return x.trees if isinstance(x, Forest) else (x,)


def _root_factors(x):
    """The root factors ``(edge type, subtree)`` of a tree or of every tree
    of a forest."""
    return [factor for t in _trees(x) for factor in t.children]


def _monomial(prefix, factors):
    """The monomial of the named root factors, as a Poly."""
    return Poly.lift(tuple(sorted(_factor_name(prefix, et, sub) for et, sub in factors)))


def pi_symbolic(x):
    """Recentred evaluation with path values as free symbols: the
    monomial of the root factors of a tree or forest."""
    return _monomial("P", _root_factors(x))


def gamma_direct(tree, spec):
    """Transport of a symbol by the direct recentring rules.

    Noise factors are fixed; each integration factor ``f`` picks up the
    free increment ``g[<text of f>]``.  A run ``f^m`` of integration
    factors expands as ``sum_k C(m, k) f^k g[f]^(m - k)``
    (:func:`~roughrenorm.trees.root_splits`), so every target tree is
    reached once, with the product of its runs' binomials.  Returns a
    tree-keyed FormalSum with Poly coefficients, except that the
    untransported term has the integer coefficient 1.
    """
    require_symbol(tree, d=spec.d)
    # one increment name per distinct integration factor: exactly those runs split
    names = {f: _factor_name("g", *f) for f in dict.fromkeys(tree.children) if not f[0].is_noise}
    terms = []
    for kept, moved, binomial in root_splits(tree, names.__contains__):
        incs = tuple(sorted(map(names.__getitem__, moved)))
        terms.append((Tree(kept), Poly.lift(incs, binomial) if incs else 1))
    return FormalSum(terms)


def _gamma_char(x):
    """The transport character on a tree or forest: the monomial of its
    root factors' increments; zero if a root factor is a noise."""
    factors = _root_factors(x)
    return Poly() if any(et.is_noise for et, _ in factors) else _monomial("g", factors)


def gamma_via_coproduct(tree, spec, cov, twist=True, minus_tables=None):
    """Transport via the positive coproduct composed with the
    renormalization character on the inner leg.

    With ``twist=True`` the inner character is the Gaussian character
    composed with the twisted antipode; with ``twist=False`` it is the
    plain Gaussian character.  Both must reproduce :func:`gamma_direct`.
    Both are multiplicative and 0 on every tree of odd noise count, so each
    right leg's screened table (:func:`~roughrenorm.coalgebra.delta_minus_ex_even`)
    holds every term that counts.  ``minus_tables``, a dict, keeps those
    tables, remainders replaced by their transport characters, across calls
    with the same ``spec``; each records its size as it is built
    (``coalgebra.coproduct_sizes``).  The inner character is read once per
    distinct left leg per call.
    """
    tables = {} if minus_tables is None else minus_tables
    chars = {}  # the inner character of each distinct left leg
    out = FormalSum()
    for (t1, t2), c in delta_plus_ex(tree, spec):
        if t2 not in tables:
            tables[t2] = [(a, c2 * _gamma_char(r)) for (a, r), c2 in delta_minus_ex_even(t2, spec)]
            _record_size(len(tables[t2]))
        products = []
        for a, transport in tables[t2]:
            if a not in chars:
                chars[a] = g_antipode(a, cov, spec) if twist else g_minus(a, cov)
            products.append(chars[a] * transport)
        # every table holds the unit extraction, so the sum starts from its first product
        out += FormalSum.lift(t1, sum(products[1:], products[0]).scale(c))
    return out


@dataclass(frozen=True)
class TransportMatrices:
    """The :func:`gamma_direct` transports of a basis closed under
    transport, compiled as flat arrays over their entries: ``flat`` is an
    entry's position ``row * size + column`` in a ``(size, size)``
    transport matrix (no two entries share one), ``factors`` its float
    factor, and row ``e`` of ``monomials`` its monomial in the increments."""

    size: int
    flat: np.ndarray
    factors: np.ndarray
    monomials: _Monomials

    @classmethod
    def compile(cls, basis, spec):
        """Compile every symbol of ``basis`` once; row and column ``k``
        stand for ``basis[k]``."""
        index = {tau: k for k, tau in enumerate(basis)}
        entries = [
            (k * len(basis) + index[target], float(factor), incs)
            for k, tau in enumerate(basis)
            for target, coeff in gamma_direct(tau, spec)
            for incs, factor in Poly() + coeff  # the integer 1 as a constant Poly
        ]
        flat, factors, monomials = zip(*entries)
        return cls(len(basis), np.array(flat), np.array(factors), _Monomials.compile(monomials))

    def at(self, increments, out=None):
        """The transport matrices ``G[i, k, j]``, the coefficient of
        symbol ``j`` in the transport of symbol ``k``, at the increments of
        :func:`eval_gamma` (name -> array over ``i``).  They are written into
        ``out``, if given, a ``(i, size * size)`` array of zeros that earlier
        calls may have written: they write only the cells of ``flat``."""
        columns = {name: np.asarray(value)[:, None] for name, value in increments.items()}
        values = self.factors * self.monomials.at(columns)[..., 0]
        if out is None:
            out = np.zeros((len(values), self.size * self.size))
        out[:, self.flat] = values  # one entry per cell: gamma_direct has one term per target
        return out.reshape(len(values), self.size, self.size)


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
    coefficients multiply their recentred evaluations: the cached
    :func:`~roughrenorm.gaussian.renormalised_expansion` at ``cov``."""
    return FormalSum([(r, at_covariance(c, cov)) for r, c in renormalised_expansion(tree, spec)])


def eval_pi_bphz(tree, s_idx, path, cov, spec):
    """Renormalized recentred evaluation of a symbol on a sample path."""
    return eval_pi(bphz_expansion(tree, cov, spec), s_idx, path)


# ---------------------------------------------------------------------------
# symbolic identity checks


def check_bphz_plain(spec, nmax, cov):
    """Verify the closed form of the renormalized evaluation.

    For every pair of channels (i, j) and every 1 <= n <= nmax, the
    pipeline expansion of ``Xi_i * I(Xi_j)^n`` must equal

        P[tau] - n * C[D_i][X_j] * P[I(Xi_j)^(n-1)]

    as a polynomial identity, and the expansion of the unit, the noises,
    and the pure integrated powers must be untouched.  Returns a report
    dict with status "pass"/"fail", the run time ``elapsed_s`` and
    ``max_coproduct_terms``, the number of terms of the largest
    extraction table the check reads, cached or not: here every table is
    a pruned one, from :func:`~roughrenorm.coalgebra.delta_minus_ex_even`.
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
    channels = range(1, spec.d + 1)
    ixi = {j: branch(INTEGRATION, branch(noise(j))) for j in channels}
    cases = []  # (symbol, its expected expansion, failure message)
    for i, j, n in product(channels, channels, range(1, nmax + 1)):
        tau = tree_product(branch(noise(i)), *[ixi[j]] * n)
        shift = n * cov.entry(("D", i), ("X", j)) * pi_symbolic(tree_product(*[ixi[j]] * (n - 1)))
        text = f"Xi_{i}*I(Xi_{j})^{n}: expansion does not match the closed form"
        cases.append((tau, pi_symbolic(tau) - shift, text))
    # symbols that must be left untouched
    untouched = [LEAF]
    for i in channels:
        untouched += [branch(noise(i))] + [tree_product(*[ixi[i]] * n) for n in range(1, nmax + 1)]
    for tau in untouched:
        cases.append((tau, pi_symbolic(tau), f"{tau!r}: renormalization should act trivially"))
    failures = [text for tau, rhs, text in cases if _expansion_poly(tau, cov, spec) != rhs]
    return failures, len(cases)


def _power(tree):
    """The number of integration factors at the root of a basis symbol."""
    return sum(not et.is_noise for et, _ in tree.children)


def _expansion_poly(tree, cov, spec):
    terms = bphz_expansion(tree, cov, spec)
    return sum((coeff * pi_symbolic(r) for r, coeff in terms), Poly.const(0))


def check_gamma_bphz(spec, nmax, cov):
    """Verify that renormalization does not change transport.

    For every basis symbol of power <= nmax, the transport computed
    through the coproduct route (with and without the antipode twist on
    the inner character) must coincide exactly with the direct
    recentring rules.  Returns a report dict as :func:`check_bphz_plain`
    does; the tables it reads are the right legs' screened ones.
    """
    start = time.perf_counter()
    failures = []
    cases = 0
    # a spec's truncation is at least 1, as in generic_spec; nmax 0 keeps the
    # symbols of power 0 (the unit and the noises), as check_bphz_plain does
    small = type(spec)(d=spec.d, alpha=spec.alpha, truncation=max(min(spec.truncation, nmax), 1))
    symbols = [tau for tau in enumerate_basis(small) if _power(tau) <= nmax]
    minus_tables = {}  # one screened table per right leg, across twists and symbols
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


# Bytes of the stacked arrays of one batch of triples in check_model_axioms:
# one core's L2 cache (2 MiB on the 2-vCPU Xeon VM the axioms benchmark ran on)
_BATCH_BYTES = 2**21
# The relative error above which check_model_axioms fails a symbol at a triple
_RTOL = 1e-10


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


def check_model_axioms(path, spec, n_triples, seed):
    """Check recentring consistency and the transport cocycle numerically.

    For random index triples (s, u, t): every basis symbol must satisfy
    ``eval_pi(tau, s) == eval_pi(Gamma_ts tau, t)`` up to
    relative error ``_RTOL``, and the transport must compose:
    ``Gamma_ts == Gamma_tu . Gamma_us`` on basis symbols.  Each basis
    symbol's transport is compiled once (:class:`TransportMatrices`), as are
    the basis' Π monomials.  Per batch of triples (:func:`_triples_per_batch`)
    one transport evaluation gives Γ_ts, Γ_us and Γ_tu, one Π evaluation Π at
    s and at t, and both checks are stacked matrix products.  A spec with more
    noise channels than the path, no triple, or under 3 grid points is a
    DomainError.
    """
    if spec.d > path.d:
        raise DomainError(f"the spec has {spec.d} noise channels, the path only {path.d}")
    points = len(path.t)
    if n_triples < 1 or points < 3:
        raise DomainError(f"need at least 1 triple and 3 grid points, not {n_triples}, {points}")
    start = time.perf_counter()
    basis = enumerate_basis(spec)
    transport = TransportMatrices.compile(basis, spec)
    pi_table = _pi_table(basis)
    triples = _triples(points, n_triples, seed)
    per_batch = _triples_per_batch(len(basis), points)
    size = len(basis)
    # one batch's arrays, made once and reused by every batch (the last may be
    # shorter): the transport matrices, the Π slots and the two products
    gammas = np.zeros((3 * per_batch, size * size))
    pi_slots = np.empty(pi_table.slots * 2 * per_batch * points)
    products = np.empty((per_batch, size, points)), np.empty((per_batch, size, size))
    worst = 0.0
    failures = []
    for lo in range(0, n_triples, per_batch):
        s, u, t = triples[lo:lo + per_batch].T
        batch = len(s)
        stacked = eval_gamma(np.concatenate([t, u, t]), np.concatenate([s, s, u]), path)
        g_ts, g_us, g_tu = np.split(transport.at(stacked, gammas[: 3 * batch]), 3)
        pi_at = _pi_values(path, np.concatenate([s, t]))
        pi_s, pi_t = np.split(pi_table.at(pi_at, pi_slots), 2)
        scale = np.maximum(np.maximum(pi_s.max(axis=2), -pi_s.min(axis=2)), 1e-30)
        diff, two_step = (a[:batch] for a in products)
        np.matmul(g_ts, pi_t, out=diff)
        diff -= pi_s
        err = np.abs(diff, out=diff).max(axis=2) / scale
        cscale = np.maximum(np.abs(g_ts, out=two_step).max(axis=2), 1e-30)
        np.matmul(g_us, g_tu, out=two_step)
        cerr = np.abs(np.subtract(g_ts, two_step, out=two_step), out=two_step).max(axis=2) / cscale
        worst = float(np.max([worst, err.max(), cerr.max()]))
        # a NaN error fails too; argwhere keeps the order triple, then symbol
        for i, k in np.argwhere(~(err <= _RTOL) | ~(cerr <= _RTOL)):
            places = (f"(s={s[i]}, t={t[i]})", f"(s={s[i]}, u={u[i]}, t={t[i]})")
            for kind, e, where in zip(("recentring", "cocycle"), (err, cerr), places):
                if not e[i, k] <= _RTOL:
                    failures.append(f"{kind}: {basis[k]!r} at {where}: rel err {e[i, k]:.3e}")
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
