"""An earlier extraction DP, kept as the oracle.

The DP as it was before its states were run-length encoded: every state
part a sorted tuple holding one copy per item, re-sorted at each merge.
Kept verbatim (its key memo aside) as the oracle that ``test_trees``
compares ``coalgebra._extract`` against; its even mode and the g∘A screen
(:func:`screened`) are the oracle that ``test_coalgebra`` compares the
closed form of ``coalgebra.delta_minus_ex_even`` against.  The finishers
are the package's, which read the same sorted tuples.
"""

from itertools import groupby
from math import comb

from roughrenorm.trees import _branch_sort_key


def _msort(trees):
    return tuple(sorted(trees, key=lambda t: t.key))


def _bsort(branches):
    return tuple(sorted(branches, key=_branch_sort_key))


def _entry_key(entry):
    et, aroot, riders = entry
    return (et.sort_key(), aroot.key, tuple(map(_branch_sort_key, riders)))


def _csort(entries):
    return tuple(sorted(entries, key=_entry_key))


def extract(tree, finish, cache, even=False):
    """The table of ``coalgebra._extract(tree, finish)``; with ``even``, no
    kept edge detaches a part of odd noise count."""
    cached = cache.get(tree)
    if cached is None:
        cached = cache[tree] = finished(states(tree, finish, cache, even).items(), finish)
    return cached


def finished(states, finish):
    out = {}
    for state, m in states:
        key = finish(*state)
        out[key] = out.get(key, 0) + m
    return out


def states(tree, finish, cache, even):
    """The final DP states of ``tree``, sorted tuples with multiplicities."""
    states = {((), (), ()): 1}
    for (et, sub), copies in groupby(tree.children):
        choices = _branch_choices(et, extract(sub, finish, cache, even), even)
        group = _distribute(choices, len(list(copies)))
        nxt = {}
        for (aoff, chosen, rem), m in states.items():
            for (g_off, g_chosen, g_rem), w in group:
                k = (
                    _merge(aoff, g_off, _msort),
                    _merge(chosen, g_chosen, _csort),
                    _merge(rem, g_rem, _bsort),
                )
                nxt[k] = nxt.get(k, 0) + m * w
        states = nxt
    return states


def _branch_choices(et, sub_ext, even):
    choices = {}
    for (s_off, s_root, s_rem), sm in sub_ext.items():
        if not (even and s_root.num_noises % 2):
            off = _msort(s_off + ((s_root,) if s_root.children else ()))
            part = (off, (), ((et, s_rem),))
            choices[part] = choices.get(part, 0) + sm
        riders = tuple(b for b in s_rem.children if b[0].is_noise)
        others = tuple(b for b in s_rem.children if not b[0].is_noise)
        part = (s_off, ((et, s_root, riders),), others)
        choices[part] = choices.get(part, 0) + sm
    return list(choices.items())


def _distribute(choices, k):
    parts = [(k, (), (), (), 1)]
    last = len(choices) - 1
    for i, ((c_off, c_chosen, c_rem), w) in enumerate(choices):
        nxt = []
        for left, off, chosen, rem, weight in parts:
            for n in ((left,) if i == last else range(left + 1)):
                nxt.append((
                    left - n,
                    off + c_off * n,
                    chosen + c_chosen * n,
                    rem + c_rem * n,
                    weight * comb(left, n) * w**n,
                ))
        parts = nxt
    return [
        ((_msort(off), _csort(chosen), _bsort(rem)), weight)
        for _, off, chosen, rem, weight in parts
    ]


def _merge(a, b, sort):
    if not a:
        return b
    if not b:
        return a
    return sort(a + b)


def _stay(riders, rem):
    if riders and not (rem and rem[-1][0].is_noise):
        return min(riders, key=_branch_sort_key)
    return None


def may_be_kept(state):
    """The g∘A screen on one state: whether its finished root part is the
    unit, or has an even noise count N and fewer than 2N edges."""
    _, chosen, rem = state
    if not chosen:
        return True
    edges = noises = 0
    riders = ()
    for et, aroot, entry_riders in chosen:
        edges += 1 + aroot.num_edges
        noises += et.is_noise + aroot.num_noises
        if entry_riders:
            riders += entry_riders
    for _, sub in riders:
        edges += 1 + sub.num_edges
        noises += 1 + sub.num_noises
    stay = _stay(riders, rem)
    if stay:
        edges -= 1 + stay[1].num_edges
        noises -= 1 + stay[1].num_noises
    return not noises % 2 and edges < 2 * noises


def screened(tree, finish, cache):
    """The screened top-level table that ``delta_minus_ex_even`` reads."""
    top = states(tree, finish, cache, even=True).items()
    return finished(((state, m) for state, m in top if may_be_kept(state)), finish)
