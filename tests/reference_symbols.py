"""The symbol parser and tree printer as they were before the token-level
rewrite, kept verbatim as the oracle that ``test_trees`` compares the
current parser and printer against."""

from fractions import Fraction

from roughrenorm.errors import ParseError
from roughrenorm.trees import (
    EMPTY_FOREST,
    INTEGRATION,
    LEAF,
    FormalSum,
    Forest,
    Tree,
    branch,
    in_symbol_family,
    noise,
    tree_product,
)

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
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts
            raise ParseError("integer too long", start) from None


_MAX_POWER = 999  # a power is expanded into that many branches


def _is_digit(ch):
    # ASCII only: str.isdigit also accepts superscripts and other scripts' digits
    return "0" <= ch <= "9"


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
        if not 1 <= power <= _MAX_POWER:
            raise ParseError(f"powers must be between 1 and {_MAX_POWER}", pos)
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


def _parse_tree(tok, d):
    t, pos = _parse_atom(tok, d)
    while tok.peek() == "*":
        tok.pos += 1
        t2, _ = _parse_atom(tok, d)
        t = tree_product(t, t2)
    if not in_symbol_family(t, d=d):
        raise ParseError("tree product is not a valid symbol", pos)
    return t


def _parse_forest(tok, d):
    trees = [_parse_tree(tok, d)]
    while tok.peek() == ".":
        tok.pos += 1
        trees.append(_parse_tree(tok, d))
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
    return ch is not None and _is_digit(ch) and ch != "1" or _is_coeff_one(tok)


def _is_coeff_one(tok):
    # '1' starts a coefficient only when followed by more digits, '/', or '*'
    if tok.peek() != "1":
        return False
    j = tok.pos + 1
    text = tok.text
    while j < len(text) and _is_digit(text[j]):
        return True
    while j < len(text) and text[j].isspace():
        j += 1
    return j < len(text) and text[j] in "/*"


def parse_symbol(text, d=None):
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
        f = _parse_forest(tok, d)
        result += FormalSum.lift(f, coeff)
        first = False
    return result


def format_atom(et, sub):
    """Printed text of one root factor: ``Xi_i``, ``I`` or ``I(Xi_j)``."""
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
        atom = format_atom(et, sub)
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
