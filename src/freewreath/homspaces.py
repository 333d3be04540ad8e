"""Hom spaces between tensor products of the basic word representations.

For words of letters a = (a_1..a_k), b = (b_1..b_l) over Irr(G), the space of
intertwiners from r(a_1) x ... x r(a_k) to r(b_1) x ... x r(b_l) in the free
wreath product has a basis indexed by noncrossing partitions p of the k upper
and l lower points *decorated* by the letters, where each block carries the
multiplicity of the trivial representation in the tensor product of its
decorations (upper ones conjugated and read right to left, then lower ones
left to right).  The Hom dimension is the sum over all of NC(k,l) of the
product of these block multiplicities.  No dependence on N remains (the count
is valid in the stable range N >= 4).

That sum is computed without listing a partition.  Read the boundary as the
word w = (conj a_k, ..., conj a_1, b_1, ..., b_l): it goes once around the
circle on which NC(k,l) is drawn, so NC(k,l) is NC(|w|) on this linear order
and each block's decoration is w restricted to the block.  The sum is then a
moment-cumulant sum with the trivial multiplicity as cumulant, evaluated by
the recursion on the block of the first letter.  The generic form of that
recursion, ``_nc_sum`` in :mod:`freewreath.freeprob`, tries the 2^(|w|-1)
choices of the block one by one.  Here a block's weight is
linear in the tensor product of its letters, so all partial blocks from one
start are carried together as one element of the fusion ring
(:func:`_boundary_moments`): from a cold cache, O(|w|^2) tensor steps and
O(|w|^3) integer additions in place of Catalan(|w|) partitions.  The work
from one start yields the moments of every prefix of the suffix it starts,
a row that depends on that suffix and the ring alone, so each row is kept:
a word whose proper suffixes were met before costs one new row, at most
|w| - 1 tensor steps and O(|w|^2) additions.  A sweep over many words pays
once per distinct suffix; the module keeps at most ``_MAX_ROWS`` rows.  Its
letters are themselves fusion-ring elements, so a reducible representation
at every position (the character moments of :mod:`freewreath.freeprob`)
costs one recursion, not one per choice of constituents.

The same dimension is computable through the fusion ring: decompose both
tensor products into irreducible words, one letter at a time, and pair up
the multiplicity vectors.  A word of a decomposition is never longer than
its tensor product, so each side's fold carries only the words that can
still end as short as the other side's letter count: one letter shortens a
word by at most one.  The two routes are independent and must agree; both
take letters and a length that :func:`dim_hom_wreath`, the one entry, has
checked.  Neither lists a partition, so this module does not import the
partition layer; the enumeration of the decorated partitions, the oracle of
both routes, lives with the tests.
"""

from __future__ import annotations

from .config import _Memo, check_enum_cap
from .fusion import FusionData, Word, fuse, tensor_fold

# Neither Hom route calls ``fuse``.  The name stays bound here because the
# benchmark harness's tracer test patches and restores ``homspaces.fuse``.
_KEPT_BINDINGS = (fuse,)


# The rows of the first-block recursion, keyed by suffix + (ring,): a row
# depends on its suffix and its ring alone, and Z/2 and Z/3 share the label
# "g".  The keys hold the letters of _LETTERS, one object per distinct
# letter, which _LABEL_LETTERS gives for an irreducible.  A row that would
# pass _MAX_ROWS empties all three first.
_MAX_ROWS = 4096
_ROWS: dict[tuple, tuple[int, ...]] = {}
_LETTERS: dict[frozenset, frozenset] = {}


def _frozen_letter(element: dict) -> frozenset:
    """A fusion-ring element, a label->multiplicity dict, in the hashable form
    that :func:`_boundary_moments` takes: the frozenset of its items."""
    letter = frozenset(element.items())
    return _LETTERS.setdefault(letter, letter)


_LABEL_LETTERS = _Memo(lambda a: _frozen_letter({a: 1}))


def _boundary_moments(fd: FusionData, word: tuple) -> tuple[int, ...]:
    """Sum over NC(j) of the product of the block trivial multiplicities of
    word[:j], for every j <= |word|: the row of word below.

    Each letter is a fusion-ring element in :func:`_frozen_letter`'s form,
    and a block weighs the trivial multiplicity of the product of its
    letters.  The row of word[i:] holds that sum for each of its prefixes
    and depends on that suffix alone, so it is computed once per ring and
    kept.  With m(i, j) the sum for word[i:j] (m(i, i) = 1), the partial
    blocks from i to t, with the tensor product of their letters times the
    moments of their inner gaps, sum to v[t]: v[i] = word[i] and
    v[t] = (sum over i <= r < t of m(r+1, t) v[r]) x word[t], one tensor
    step.  Closing the block at t leaves the gap word[t+1:j], so
    m(i, j) = sum over i <= t < j of <1, v[t]> m(t+1, j).  The rows are
    filled shortest suffix first, without recursion: a word whose proper
    suffixes are kept costs one new row, at most |word| - 1 tensor steps.
    """
    n = len(word)
    key = word + (fd,)
    rows: list = [()] * n + [(1,)]  # rows[i]: the row of word[i:]
    one = fd.trivial()
    for i in range(n - 1, -1, -1):
        row = _ROWS.get(key[i:])
        if row is None:
            v = [dict(word[i])]
            for t in range(i + 1, n):
                acc: dict = {}
                for r in range(i, t):
                    c = rows[r + 1][t - r - 1]
                    if c:
                        for a, x in v[r - i].items():
                            acc[a] = acc.get(a, 0) + c * x
                v.append(tensor_fold(fd, (dict(word[t]),), acc) if acc else {})
            new = [1] + [0] * (n - i)
            for t, vt in enumerate(v, i):
                c = vt.get(one, 0)
                if c:
                    for j, gap in enumerate(rows[t + 1], t + 1 - i):
                        new[j] += c * gap
            if len(_ROWS) >= _MAX_ROWS:
                _ROWS.clear()
                _LETTERS.clear()
                _LABEL_LETTERS.clear()
            row = _ROWS[key[i:]] = tuple(new)
        rows[i] = row
    return rows[0]


def dim_hom_partition(up: Word, down: Word, fd: FusionData) -> int:
    """Hom dimension by the fusion-ring-valued first-block recursion over the
    boundary word (conj u_k, ..., conj u_1, v_1, ..., v_l), on letters that
    :func:`dim_hom_wreath` checks."""
    return _boundary_moments(fd, tuple(
        [_LABEL_LETTERS[fd.conj(a)] for a in reversed(up)]
        + [_LABEL_LETTERS[b] for b in down]))[-1]


def word_tensor_decomposition(letters: Word, fd: FusionData,
                              longest: int) -> dict:
    """Decompose r(a_1) x ... x r(a_k) into irreducible word representations.

    One letter at a time: the fusion rule splits w x (a) at two cuts, into
    w.(a) with w[:-1].(gamma) for gamma in last(w) x a, and w[:-1] when
    last(w) = conj(a); for the trivial letter r(1) = () + (1) adds w itself.

    Only the words of at most ``longest`` letters are returned, each with
    its full multiplicity; ``len(letters)`` returns them all.  A step
    shortens a word by at most one letter, so a word longer than ``longest``
    plus the letters still to come is never made, and a word at that limit
    takes no tensor step: only its contraction w[:-1] can still end short
    enough.
    """
    acc = {(): 1}
    for done, a in enumerate(letters, 1):
        a_bar, trivial = fd.conj(a), a == fd.trivial()
        reach = longest + len(letters) - done
        nxt: dict = {}
        for w, m in acc.items():
            head, room = w[:-1], reach - len(w)
            if room > 0:
                key = w + (a,)
                nxt[key] = nxt.get(key, 0) + m
            if w and room >= 0:
                for gamma, mult in fd.tensor(w[-1], a).items():
                    key = head + (gamma,)
                    nxt[key] = nxt.get(key, 0) + m * mult
            if w and w[-1] == a_bar:
                nxt[head] = nxt.get(head, 0) + m
            if trivial and room >= 0:
                nxt[w] = nxt.get(w, 0) + m
        acc = nxt
    return acc


def dim_hom_fusion(up: Word, down: Word, fd: FusionData) -> int:
    """Hom dimension by pairing the two irreducible decompositions.

    A word of a decomposition has at most as many letters as its tensor
    product, so each side keeps only the words the other side can reach.
    Its letters are checked by :func:`dim_hom_wreath`.
    """
    dec_up = word_tensor_decomposition(up, fd, len(down))
    dec_down = word_tensor_decomposition(down, fd, len(up))
    return sum(m * dec_down.get(w, 0) for w, m in dec_up.items())


def dim_hom_wreath(up: Word, down: Word, fd: FusionData,
                   method: str = "partition") -> int:
    """Dimension of the intertwiner space between the two tensor words.

    method is "partition" (decorated noncrossing partition count) or
    "fusion" (decompose and pair); the two must agree.  The letters, then
    the cap on their count, are checked once here for both routes.
    """
    for letter in up + down:
        fd.check_label(letter)
    check_enum_cap(len(up) + len(down))
    if method == "partition":
        return dim_hom_partition(up, down, fd)
    if method == "fusion":
        return dim_hom_fusion(up, down, fd)
    raise ValueError(f"unknown hom method {method!r}")
