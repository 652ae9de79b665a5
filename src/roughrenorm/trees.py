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

from fractions import Fraction

from .errors import ParseError


# ---------------------------------------------------------------------------
# edge types


class EdgeType:
    """Type tag of an edge: integration ("I") or noise ("Xi", index)."""

    __slots__ = ("kind", "index", "_key")

    def __init__(self, kind, index=0):
        if kind not in ("I", "Xi"):
            raise ValueError(f"unknown edge kind {kind!r}")
        if kind == "Xi" and index < 1:
            raise ValueError("noise indices are 1-based")
        if kind == "I" and index != 0:
            raise ValueError("integration edges carry no index")
        self.kind = kind
        self.index = index
        self._key = (0, 0) if kind == "I" else (1, index)

    @property
    def is_noise(self):
        return self.kind == "Xi"

    def sort_key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, EdgeType) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

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


class Tree:
    """Immutable rooted tree with typed edges, kept in canonical order.

    ``children`` is a tuple of ``(EdgeType, Tree)`` pairs sorted by a
    canonical key, so structural equality is plain equality of keys.
    """

    __slots__ = ("children", "key", "num_edges", "_hash")

    def __init__(self, children=()):
        children = tuple(sorted(children, key=_branch_sort_key))
        self.children = children
        self.key = tuple(
            (et.kind, et.index, sub.key) for et, sub in children
        )
        self.num_edges = sum(1 + sub.num_edges for _, sub in children)
        self._hash = hash(self.key)

    @property
    def is_leaf(self):
        return not self.children

    def __eq__(self, other):
        return isinstance(other, Tree) and self.key == other.key

    def __hash__(self):
        return self._hash

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


class Forest:
    """Commutative multiset of trees; single-node trees are dropped (unit)."""

    __slots__ = ("trees", "key", "num_edges", "_hash")

    def __init__(self, trees=()):
        ts = tuple(sorted((t for t in trees if t.children), key=lambda t: t.key))
        self.trees = ts
        self.key = tuple(t.key for t in ts)
        self.num_edges = sum(t.num_edges for t in ts)
        self._hash = hash(self.key)

    @property
    def is_empty(self):
        return not self.trees

    def __eq__(self, other):
        return isinstance(other, Forest) and self.key == other.key

    def __hash__(self):
        return self._hash

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


def in_symbol_family(tree, d=None, truncation=None):
    """Whether ``tree`` is a valid symbol.

    Valid symbols are depth <= 2 trees: at most one noise edge at the
    root (to a leaf), any number of integration branches that are either
    bare or carry exactly one noise edge to a leaf.  ``d`` bounds noise
    indices, ``truncation`` bounds the number of integration branches.
    """
    n_noise = 0
    n_int = 0
    for et, sub in tree.children:
        if et.is_noise:
            n_noise += 1
            if n_noise > 1 or not sub.is_leaf:
                return False
            if d is not None and et.index > d:
                return False
        else:
            n_int += 1
            if sub.is_leaf:
                continue
            if len(sub.children) != 1:
                return False
            set2, sub2 = sub.children[0]
            if not set2.is_noise or not sub2.is_leaf:
                return False
            if d is not None and set2.index > d:
                return False
    if truncation is not None and n_int > truncation:
        return False
    return True


# ---------------------------------------------------------------------------
# formal sums


class FormalSum:
    """Finite formal linear combination with exact coefficients.

    Keys may be any hashable values (forests, pairs of forests, ...).
    Coefficients are Fractions, ints, or any commutative-ring value
    supporting ``+``, ``*``, unary ``-`` and truthiness as a zero test.
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
    def lift(cls, key, coeff=Fraction(1)):
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
            c = d.get(k, 0) + c
            if c:
                d[k] = c
            elif k in d:
                del d[k]
        out = FormalSum()
        out.terms = d
        return out

    def __neg__(self):
        out = FormalSum()
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        if not factor:
            return FormalSum()
        out = FormalSum()
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
        return FormalSum(pairs)

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
# edge-subset extraction: one DP, finished plain here or repaired in coalgebra


_EXTRACT_CACHE = {}


def _msort(trees):
    return tuple(sorted(trees, key=lambda t: t.key))


def _bsort(branches):
    return tuple(sorted(branches, key=_branch_sort_key))


def _entry_key(entry):
    et, aroot, riders = entry
    return (et.sort_key(), aroot.key, tuple(r[0].sort_key() + (r[1].key,) for r in riders))


def _finish_plain(aoff, chosen, rem):
    """Plain contraction: every rider stays at the remainder's root."""
    riders = tuple(r for entry in chosen for r in entry[2])
    return aoff, Tree((et, aroot) for et, aroot, _ in chosen), Tree(rem + riders)


def _extract(tree, finish=_finish_plain, cache=_EXTRACT_CACHE):
    """All edge-subset extractions of ``tree``.

    Returns a dict mapping ``(off_root, root_part, remainder)`` to a
    multiplicity, where ``off_root`` is the tuple of extracted components
    not containing the root, ``root_part`` is the extracted component
    containing the root (a single node when no root-incident edge is
    chosen), and ``remainder`` is the tree obtained by contracting the
    chosen edges (each removed edge identifies its endpoints).

    The DP walks the root edges.  Its states are ``(off-root trees,
    chosen entries, remainder branches)``; a chosen entry ``(edge type,
    extracted subtree part, riders)`` records the noise branches that
    contracting that root edge leaves at the remainder's root.
    ``finish`` turns a final state into an output key, and subtrees are
    extracted with the same finisher.  Only finished tables are cached,
    in ``cache``.
    """
    cached = cache.get(tree)
    if cached is not None:
        return cached
    states = {((), (), ()): 1}
    for et, sub in tree.children:
        sub_ext = _extract(sub, finish, cache)
        nxt = {}
        for (aoff, chosen, rem), m in states.items():
            for (s_off, s_root, s_rem), sm in sub_ext.items():
                w = m * sm
                # edge kept: the sub-extraction's root component detaches
                off2 = s_off + ((s_root,) if s_root.children else ())
                k = (_msort(aoff + off2), chosen, _bsort(rem + ((et, s_rem),)))
                nxt[k] = nxt.get(k, 0) + w
                # edge extracted: endpoints identified, remainder splices up
                riders = tuple(b for b in s_rem.children if b[0].is_noise)
                others = tuple(b for b in s_rem.children if not b[0].is_noise)
                k = (
                    _msort(aoff + s_off),
                    tuple(sorted(chosen + ((et, s_root, riders),), key=_entry_key)),
                    _bsort(rem + others),
                )
                nxt[k] = nxt.get(k, 0) + w
        states = nxt
    out = {}
    for state, m in states.items():
        key = finish(*state)
        out[key] = out.get(key, 0) + m
    cache[tree] = out
    return out


def subforest_extractions(tree):
    """Enumerate every edge subset of ``tree`` as (extracted, remainder, mult).

    ``extracted`` collects the connected components of the chosen edge
    set as a Forest; ``remainder`` is the contraction of the chosen
    edges.  Multiplicities over all entries sum to ``2 ** tree.num_edges``.
    """
    merged = {}
    for (aoff, aroot, rem), m in _extract(tree).items():
        a = Forest(aoff + ((aroot,) if aroot.children else ()))
        merged[(a, rem)] = merged.get((a, rem), 0) + m
    return sorted(
        ((a, r, m) for (a, r), m in merged.items()),
        key=lambda e: (e[0].key, e[1].key),
    )


# ---------------------------------------------------------------------------
# parser / printer

_ATOM_UNIT = "1"


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def expect(self, ch):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def try_consume(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])


def _parse_atom(tok, d):
    """One atom: '1', 'I', 'I(Xi_j)' or 'Xi_i', with optional '^n'."""
    pos = tok.pos
    ch = tok.peek()
    if ch is None:
        raise ParseError("unexpected end of input", tok.pos)
    if ch == "1":
        tok.pos += 1
        base = None
    elif ch == "I":
        tok.pos += 1
        if tok.try_consume("("):
            inner = _parse_noise(tok, d)
            tok.expect(")")
            base = branch(INTEGRATION, branch(inner))
        else:
            base = branch(INTEGRATION)
    elif ch == "X":
        base = branch(_parse_noise(tok, d))
    else:
        raise ParseError(f"unexpected character {ch!r}", tok.pos)
    power = 1
    if tok.try_consume("^"):
        power = tok.integer()
        if power < 1:
            raise ParseError("powers must be >= 1", pos)
    if base is None:
        return LEAF, pos
    return tree_product(*([base] * power)), pos


def _parse_noise(tok, d):
    tok.skip_ws()
    if not tok.text.startswith("Xi_", tok.pos):
        raise ParseError("expected a noise symbol 'Xi_<i>'", tok.pos)
    tok.pos += 3
    idx = tok.integer()
    if idx < 1:
        raise ParseError("noise indices are 1-based", tok.pos)
    if d is not None and idx > d:
        raise ParseError(f"unknown noise index {idx} (d={d})", tok.pos)
    return noise(idx)


def _parse_tree(tok, d, truncation):
    t, pos = _parse_atom(tok, d)
    while tok.peek() == "*":
        tok.pos += 1
        t2, _ = _parse_atom(tok, d)
        t = tree_product(t, t2)
    if not in_symbol_family(t, d=d, truncation=truncation):
        raise ParseError("tree product is not a valid symbol", pos)
    return t


def _parse_forest(tok, d, truncation):
    trees = [_parse_tree(tok, d, truncation)]
    while tok.peek() == ".":
        tok.pos += 1
        trees.append(_parse_tree(tok, d, truncation))
    return Forest(trees)


def _parse_rational(tok):
    num = tok.integer()
    if tok.try_consume("/"):
        den = tok.integer()
        if den == 0:
            raise ParseError("zero denominator", tok.pos)
        return Fraction(num, den)
    return Fraction(num)


def _starts_coefficient(tok):
    ch = tok.peek()
    return ch is not None and ch.isdigit() and ch != "1" or _is_coeff_one(tok)


def _is_coeff_one(tok):
    # '1' starts a coefficient only when followed by more digits, '/', or '*'
    if tok.peek() != "1":
        return False
    j = tok.pos + 1
    text = tok.text
    while j < len(text) and text[j].isdigit():
        return True
    while j < len(text) and text[j].isspace():
        j += 1
    return j < len(text) and text[j] in "/*"


def parse_symbol(text, d=None, truncation=None):
    """Parse symbol text into a forest-keyed FormalSum.

    Grammar: sums of optionally rational-scaled forests, where a forest
    is a ``.``-product of tree monomials and a tree monomial is a
    ``*``-product of atoms ``1``, ``I``, ``I(Xi_j)``, ``Xi_i`` with
    optional integer powers ``^n``.  Raises ParseError on malformed
    input, on noise indices above ``d``, and on monomials outside the
    symbol family (e.g. ``Xi_1^2``).
    """
    tok = _Tokenizer(text)
    if tok.peek() is None:
        raise ParseError("empty input", 0)
    result = FormalSum()
    sign = Fraction(1)
    first = True
    while True:
        ch = tok.peek()
        if ch is None:
            if first:
                raise ParseError("expected a term", tok.pos)
            break
        if not first or ch in "+-":
            if ch == "+":
                tok.pos += 1
                sign = Fraction(1)
            elif ch == "-":
                tok.pos += 1
                sign = Fraction(-1)
            elif first:
                sign = Fraction(1)
            else:
                raise ParseError(f"unexpected character {ch!r}", tok.pos)
        coeff = sign
        if _starts_coefficient(tok):
            coeff = sign * _parse_rational(tok)
            nxt = tok.peek()
            if nxt == "*":
                tok.pos += 1
            elif nxt is None or nxt in "+-":
                result += FormalSum.lift(EMPTY_FOREST, coeff)
                first = False
                continue
        f = _parse_forest(tok, d, truncation)
        result += FormalSum.lift(f, coeff)
        first = False
    return result


def _format_atom(et, sub):
    if et.is_noise:
        if sub.is_leaf:
            return f"Xi_{et.index}"
        # outside the parseable family: nested display for debugging only
        return f"Xi_{et.index}({format_tree(sub)})"
    if sub.is_leaf:
        return "I"
    if len(sub.children) == 1:
        set2, sub2 = sub.children[0]
        if set2.is_noise and sub2.is_leaf:
            return f"I(Xi_{set2.index})"
    return f"I({format_tree(sub)})"


def format_tree(tree):
    """Canonical text of a single tree."""
    if tree.is_leaf:
        return _ATOM_UNIT
    parts = []
    counts = {}
    order = []
    for et, sub in tree.children:
        atom = _format_atom(et, sub)
        if atom not in counts:
            counts[atom] = 0
            order.append(atom)
        counts[atom] += 1
    for atom in order:
        n = counts[atom]
        parts.append(atom if n == 1 else f"{atom}^{n}")
    return "*".join(parts)


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
    parts = []
    for f, c in x.sorted_terms():
        body = format_forest(f)
        if c == 1:
            term = body
        elif c == -1:
            term = f"-{body}"
        else:
            term = f"{c}*{body}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out
