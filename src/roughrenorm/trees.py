"""Typed rooted trees, forests, formal sums, and the symbol parser/printer.

Edges carry a type: an integration edge ``I`` or a noise edge ``Xi_i``
(1-based channel index).  Nodes are undecorated.  A forest is a
commutative multiset of trees; the empty forest is the unit of the forest
product ``.`` and the single-node tree is the unit of the tree product
``*``.  A single-node tree occurring as a forest component is identified
with the empty forest.

The symbol family accepted by the parser (and by the combinatorial
operators downstream) consists of trees of depth at most two whose root
carries at most one noise edge, every other root branch being either a
bare integration edge or an integration edge topped by a single noise
edge.  Products of such trees are written with ``*`` (tree product,
merging roots) and ``.`` (forest product, disjoint union).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import groupby, product
from math import comb, prod
from operator import attrgetter

from .errors import DomainError, ParseError


# ---------------------------------------------------------------------------
# edge types


class EdgeType:
    """Type tag of an edge: integration ("I") or noise ("Xi", index).

    Edge types are interned (see :class:`Tree`): equal ones are one object.
    """

    __slots__ = ("kind", "index", "_key")
    _interned = {}

    def __new__(cls, kind, index=0):
        self = cls._interned.get((kind, index))
        if self is None:
            if kind not in ("I", "Xi"):
                raise ValueError(f"unknown edge kind {kind!r}")
            if kind == "Xi" and index < 1:
                raise ValueError("noise indices are 1-based")
            if kind == "I" and index != 0:
                raise ValueError("integration edges carry no index")
            self = object.__new__(cls)
            self.kind = kind
            self.index = index
            self._key = (0, 0) if kind == "I" else (1, index)
            self = cls._interned.setdefault((kind, index), self)
        return self

    def __reduce__(self):
        return EdgeType, (self.kind, self.index)

    @property
    def is_noise(self):
        return self.kind == "Xi"

    def sort_key(self):
        return self._key

    def __repr__(self):
        return "I" if self.kind == "I" else f"Xi_{self.index}"


INTEGRATION = EdgeType("I")


def noise(i):
    return EdgeType("Xi", i)


# ---------------------------------------------------------------------------
# trees and forests


def _branch_sort_key(branch):
    et, sub = branch
    return (et.sort_key(), sub.key)


class _BranchKeys(dict):
    """Sort key of each branch, computed on its first lookup."""

    __slots__ = ()

    def __missing__(self, branch):
        key = self[branch] = _branch_sort_key(branch)
        return key


_BRANCH_KEYS = _BranchKeys()
_branch_key = _BRANCH_KEYS.__getitem__


def _bsort(branches):
    """``branches`` in canonical order."""
    return tuple(sorted(branches, key=_branch_key))


class Tree:
    """Immutable rooted tree with typed edges, kept in canonical order.

    ``children`` is a tuple of ``(EdgeType, Tree)`` pairs in canonical
    order, and ``key``, which orders trees, is the tuple of their
    ``_BRANCH_KEYS`` entries, one object per distinct branch (clearing
    that table only makes later trees build equal keys).  ``num_edges``
    and ``num_noises`` count all edges and the noise edges.

    Trees are interned, as are :class:`EdgeType` and :class:`Forest`: the
    constructor returns the one instance per canonical children tuple, so
    equal trees are one object, and ``==`` and ``hash`` are identity's,
    computed in C.  The class-level tables only grow; they hold one
    instance per distinct symbol a process has built, and are not memo
    tables (``clear_caches`` leaves them alone, since equality rests on
    them).  ``dict.setdefault`` fills them, so threads that build one
    symbol at once get one object.  Copies and pickles rebuild through
    the constructor, so they return the same object.
    """

    __slots__ = ("children", "key", "num_edges", "num_noises", "_text")
    _interned = {}

    def __new__(cls, children=()):
        children = tuple(children)
        self = cls._interned.get(children)  # a hit is already canonical
        if self is None:
            children = _bsort(children)
            self = cls._interned.get(children)
        if self is None:
            self = object.__new__(cls)
            self.children = children
            self.key = tuple(map(_branch_key, children))
            self.num_edges = self.num_noises = 0
            for et, sub in children:
                self.num_edges += 1 + sub.num_edges
                self.num_noises += et.is_noise + sub.num_noises
            self._text = None  # format_tree's text, once printed
            self = cls._interned.setdefault(children, self)
        return self

    def __reduce__(self):
        return Tree, (self.children,)

    @property
    def is_leaf(self):
        return not self.children

    def __repr__(self):
        return f"Tree<{format_tree(self)}>"


LEAF = Tree()


def branch(et, sub=LEAF):
    """Tree consisting of a root with a single edge of type ``et`` to ``sub``."""
    return Tree(((et, sub),))


def tree_product(*trees):
    """Merge the roots of the given trees (commutative, unit = single node)."""
    children = []
    for t in trees:
        children.extend(t.children)
    return Tree(children)


def root_splits(tree, movable):
    """Each way of moving root factors out of ``tree``, as ``(kept, moved,
    binomial)``.  Of a run ``f^m`` of equal root factors that ``movable(f)``
    accepts, k copies stay and m - k move, in C(m, k) ways; any other run
    stays.  ``kept`` and ``moved`` are in canonical order, ``binomial`` is
    the product of the runs' C(m, k), and there are Π (m + 1) splits."""
    runs = [[((), (), 1)]]  # a unit run, so that zip(*choice) never sees no run
    for factor, copies in groupby(tree.children):
        m = len(list(copies))
        stays = range(m + 1) if movable(factor) else (m,)
        runs.append([((factor,) * k, (factor,) * (m - k), comb(m, k)) for k in stays])
    for choice in product(*runs):
        kept, moved, binomials = zip(*choice)
        yield sum(kept, ()), sum(moved, ()), prod(binomials)


_TREE_KEY = attrgetter("key")


def _msort(trees):
    """``trees`` in canonical order."""
    return tuple(sorted(trees, key=_TREE_KEY))


class Forest:
    """Commutative multiset of trees; single-node trees are dropped (unit).

    Interned like :class:`Tree`, by its canonical tuple of trees."""

    __slots__ = ("trees", "key")
    _interned = {}

    def __new__(cls, trees=()):
        ts = tuple(t for t in trees if t.children)
        self = cls._interned.get(ts)
        if self is None:
            ts = _msort(ts)
            self = cls._interned.get(ts)
        if self is None:
            self = object.__new__(cls)
            self.trees = ts
            self.key = tuple(t.key for t in ts)
            self = cls._interned.setdefault(ts, self)
        return self

    def __reduce__(self):
        return Forest, (self.trees,)

    @property
    def is_empty(self):
        return not self.trees

    def __repr__(self):
        return f"Forest<{format_forest(self)}>"


EMPTY_FOREST = Forest()


def forest_of(tree):
    return Forest((tree,))


def forest_product(*forests):
    trees = []
    for f in forests:
        trees.extend(f.trees)
    return Forest(trees)


# ---------------------------------------------------------------------------
# symbol family predicate


def in_symbol_family(tree, d=None):
    """Whether ``tree`` is a valid symbol.

    Valid symbols are depth <= 2 trees: at most one noise edge at the
    root (to a leaf), any number of integration branches that are either
    bare or carry exactly one noise edge to a leaf.  ``d`` bounds noise
    indices.
    """
    n_noise = 0
    for et, sub in tree.children:
        if et.is_noise:
            n_noise += 1
            if n_noise > 1 or not sub.is_leaf:
                return False
            if d is not None and et.index > d:
                return False
        elif not sub.is_leaf:
            if len(sub.children) != 1:
                return False
            set2, sub2 = sub.children[0]
            if not set2.is_noise or not sub2.is_leaf:
                return False
            if d is not None and set2.index > d:
                return False
    return True


def require_symbol(tree, d=None):
    """A DomainError unless ``tree`` is a symbol, noise indices up to ``d``."""
    if not in_symbol_family(tree, d=d):
        raise DomainError(f"tree {tree!r} lies outside the symbol family")


# ---------------------------------------------------------------------------
# formal sums


class FormalSum:
    """Finite formal linear combination with exact coefficients.

    Keys may be any hashable values (forests, pairs of forests, ...).
    Coefficients are any commutative-ring value supporting ``+``, ``*``,
    unary ``-`` and truthiness as a zero test.  The package's algebra is
    integral, so its coefficients are ints (multiplicities, binomials,
    signs), or polynomials with int coefficients; a Fraction enters only
    with a rational scalar of :func:`parse_symbol` or a rational
    covariance entry.  No operation of the package divides, so no float
    arises.
    Sums, negations, scalings and products keep the subclass, so a
    subclass such as ``poly.Poly`` stays closed under its arithmetic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for k, c in (terms.items() if isinstance(terms, dict) else terms):
                if k in d:
                    c = d[k] + c
                if c:
                    d[k] = c
                elif k in d:
                    del d[k]
        self.terms = d

    @classmethod
    def lift(cls, key, coeff=1):
        return cls([(key, coeff)])

    @property
    def is_zero(self):
        return not self.terms

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __add__(self, other):
        d = dict(self.terms)
        for k, c in other.terms.items():
            if k in d:
                c = d[k] + c
            if c:
                d[k] = c
            elif k in d:
                del d[k]
        out = type(self)()
        out.terms = d
        return out

    def __neg__(self):
        out = type(self)()
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        if not factor:
            return type(self)()
        out = type(self)()
        out.terms = {k: c * factor for k, c in self.terms.items()}
        return out

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("FormalSum is not hashable")

    def combine(self, other, key_fn):
        """Bilinear product: combine every pair of terms."""
        pairs = []
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                pairs.append((key_fn(k1, k2), c1 * c2))
        return type(self)(pairs)

    def sorted_terms(self):
        def keyof(k):
            if isinstance(k, tuple):
                return tuple(x.key for x in k)
            return k.key

        return sorted(self.terms.items(), key=lambda kv: keyof(kv[0]))

    def __repr__(self):
        return f"FormalSum({self.terms!r})"


def as_formal_sum(x):
    """A Tree, Forest or forest-keyed FormalSum as a forest-keyed FormalSum."""
    if isinstance(x, Tree):
        x = forest_of(x)
    if isinstance(x, Forest):
        x = FormalSum.lift(x)
    return x


def mul_forests(a, b):
    """Forest-product of two forest-keyed formal sums."""
    return a.combine(b, forest_product)


# ---------------------------------------------------------------------------
# parser / printer

_ATOM_UNIT = "1"
_MAX_POWER = 999  # a power is expanded into that many branches
# A token is a run of ASCII digits (str.isdigit also accepts other scripts'
# digits), the noise prefix, or any other single non-blank character; the
# search skips the blanks between tokens.
_TOKEN = re.compile(r"[0-9]+|Xi_|\S")


def _unexpected(tok, pos, wanted):
    return ParseError(f"expected {wanted}, found {repr(tok) if tok else 'the end'}", pos)


def _take(toks, want):
    """Pop the next token if it is ``want``; return whether it was."""
    if toks[-1][0] == want:
        toks.pop()
        return True
    return False


def _integer(toks):
    tok, pos = toks.pop()
    if not (tok.isascii() and tok.isdigit()):
        raise _unexpected(tok, pos, "an integer")
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        raise ParseError("integer too long", pos) from None


def _atom(toks, d):
    """One atom: '1', 'I', 'I(Xi_j)' or 'Xi_i', with an optional '^n'."""
    tok, pos = toks.pop()
    wrapped = tok == "I" and _take(toks, "(")  # I(Xi_j): read Xi_j, then wrap it
    if wrapped:
        tok, pos = toks.pop()
    if tok == "Xi_":
        index = _integer(toks)
        if index < 1 or d is not None and index > d:
            raise ParseError(f"noise index {index} out of range (1-based, d={d})", pos)
        base = branch(noise(index))
    elif tok in ("1", "I") and not wrapped:
        base = LEAF if tok == "1" else branch(INTEGRATION)
    else:
        raise _unexpected(tok, pos, "'Xi_'" if wrapped else "'1', 'I' or 'Xi_'")
    if wrapped:
        if not _take(toks, ")"):
            raise _unexpected(*toks[-1], "')'")
        base = branch(INTEGRATION, base)
    power = _integer(toks) if _take(toks, "^") else 1
    if not 1 <= power <= _MAX_POWER:
        raise ParseError(f"powers must be between 1 and {_MAX_POWER}", pos)
    return tree_product(*([base] * power))


def _tree(toks, d):
    """Atoms joined by '*'; the product must be in the symbol family."""
    pos = toks[-1][1]
    atoms = [_atom(toks, d)]
    while _take(toks, "*"):
        atoms.append(_atom(toks, d))
    tree = tree_product(*atoms)
    if not in_symbol_family(tree, d=d):
        raise ParseError("tree product is not a valid symbol", pos)
    return tree


def _forest(toks, d):
    """Trees joined by '.'."""
    trees = [_tree(toks, d)]
    while _take(toks, "."):
        trees.append(_tree(toks, d))
    return Forest(trees)


def parse_symbol(text, d=None):
    """Parse symbol text into a forest-keyed FormalSum.

    Grammar: sums of optionally rational-scaled forests, where a forest
    is a ``.``-product of tree monomials and a tree monomial is a
    ``*``-product of atoms ``1``, ``I``, ``I(Xi_j)``, ``Xi_i`` with
    optional integer powers ``^n``.  A term's leading digit run is its
    coefficient, unless it is a lone ``1`` not followed by ``*`` or
    ``/``: that ``1`` is the unit atom.  An integral coefficient (``4/2``
    too) is an int, any other a Fraction.  Raises ParseError on malformed
    input, on noise indices above ``d``, and on monomials outside the
    symbol family (e.g. ``Xi_1^2``).
    """
    # (token, position) pairs, read from the end of the list down to the
    # end marker ""
    toks = [("", len(text))] + [(m[0], m.start()) for m in _TOKEN.finditer(text)][::-1]
    result = FormalSum()
    sign = toks.pop()[0] if toks[-1][0] in ("+", "-") else "+"
    while True:
        coeff = -1 if sign == "-" else 1
        tok, pos = toks[-1]
        bare = False
        if tok.isascii() and tok.isdigit() and (tok != "1" or toks[-2][0] in ("*", "/")):
            num = _integer(toks)
            den = _integer(toks) if _take(toks, "/") else 1
            if den == 0:
                raise ParseError("zero denominator", pos)
            coeff *= num // den if num % den == 0 else Fraction(num, den)
            bare = not _take(toks, "*") and toks[-1][0] in ("", "+", "-")
        result += FormalSum.lift(EMPTY_FOREST if bare else _forest(toks, d), coeff)
        sign, pos = toks.pop()
        if not sign:
            return result
        if sign not in ("+", "-"):
            raise _unexpected(sign, pos, "'+', '-' or the end")


def format_atom(et, sub):
    """Printed text of one root factor: ``Xi_i``, ``I`` or ``I(Xi_j)``.

    A deeper branch, outside the parseable family, prints nested, e.g.
    ``Xi_1(I)``, for debugging only.
    """
    return repr(et) if sub.is_leaf else f"{et!r}({format_tree(sub)})"


def format_tree(tree):
    """Canonical text of a single tree; equal root factors print as a power.
    The text is kept on the tree, so each interned tree is printed once."""
    text = tree._text
    if text is None:
        runs = ((format_atom(et, sub), len(list(run))) for (et, sub), run in groupby(tree.children))
        text = tree._text = "*".join(atom if n == 1 else f"{atom}^{n}" for atom, n in runs) or _ATOM_UNIT
    return text


def format_forest(forest):
    if forest.is_empty:
        return _ATOM_UNIT
    return " . ".join(format_tree(t) for t in forest.trees)


def format_symbol(x):
    """Canonical text of a Tree, Forest, or forest-keyed FormalSum."""
    if isinstance(x, Tree):
        return format_tree(x)
    if isinstance(x, Forest):
        return format_forest(x)
    if x.is_zero:
        return "0"
    first, *rest = (
        ("" if c == 1 else "-" if c == -1 else f"{c}*") + format_forest(f)
        for f, c in x.sorted_terms()
    )
    return first + "".join(f" - {t[1:]}" if t[0] == "-" else f" + {t}" for t in rest)
