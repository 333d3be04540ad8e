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
(:func:`_boundary_moments`): O(|w|^2) tensor steps and O(|w|^3) integer
additions in place of Catalan(|w|) partitions.  Its letters are themselves
fusion-ring elements, so a reducible representation at every position (the
character moments of :mod:`freewreath.freeprob`) costs one recursion, not
one per choice of constituents.

The same dimension is computable through the fusion ring: decompose both
tensor products into irreducible words, one letter at a time, and pair up
the multiplicity vectors.  The two routes are independent and must agree.
Their oracle, :func:`hom_terms`, lists the decorated partitions as plain
(partition, block multiplicities) pairs, one tensor fold per block.
"""

from __future__ import annotations

from typing import Sequence

from .config import check_enum_cap
from .fusion import FusionData, Word, conj_word, fuse, tensor_fold
from .partition import Partition, enumerate_partitions

# Neither Hom route calls ``fuse``.  The name stays bound here because the
# benchmark harness's tracer test patches and restores ``homspaces.fuse``.
_KEPT_BINDINGS = (fuse,)


def hom_terms(up: Word, down: Word, fd: FusionData
              ) -> tuple[tuple[Partition, tuple[int, ...]], ...]:
    """(partition, block multiplicities) for the noncrossing partitions
    between the two words with no zero-multiplicity block: the others add
    nothing to the Hom dimension."""
    for letter in up + down:
        fd.check_label(letter)
    k, one = len(up), fd.trivial()
    terms = []
    for p in enumerate_partitions(k, len(down), mode="noncrossing"):
        dims = []
        for block in p.blocks:
            uppers = tuple(up[pt - 1] for pt in block if pt <= k)
            lowers = tuple(down[pt - k - 1] for pt in block if pt > k)
            dims.append(tensor_fold(fd, conj_word(uppers, fd) + lowers)
                        .get(one, 0))
        if 0 not in dims:
            terms.append((p, tuple(dims)))
    return tuple(terms)


def _boundary_moments(fd: FusionData, word: Sequence[dict]) -> list[int]:
    """Sum over NC(j) of the product of the block trivial multiplicities of
    word[:j], for every j <= |word|: the row m[0] below.

    Each letter is a fusion-ring element, a label->multiplicity dict, and a
    block weighs the trivial multiplicity of the product of its letters.
    m[i][j] is that sum for word[i:j] (m[i][i] = 1).  For a start i, taken
    from the right, v[t] is the sum over the partial blocks from i to t of
    the tensor product of their letters times the moments of their inner
    gaps: v[i] = word[i] and v[t] = (sum over i <= r < t of
    m[r+1][t] v[r]) x word[t], one tensor step.  Closing the block at t
    leaves the gap word[t+1:j], so
    m[i][j] = sum over i <= t < j of <1, v[t]> m[t+1][j].  The row m[0]
    holds every prefix of the word at no extra cost.
    """
    n = len(word)
    one = fd.trivial()
    m = [[0] * (n + 1) for _ in range(n + 1)]
    m[n][n] = 1
    for i in range(n - 1, -1, -1):
        v = [word[i]]
        for t in range(i + 1, n):
            acc: dict = {}
            for r in range(i, t):
                c = m[r + 1][t]
                if c:
                    for a, x in v[r - i].items():
                        acc[a] = acc.get(a, 0) + c * x
            v.append(tensor_fold(fd, (word[t],), acc) if acc else {})
        row = m[i]
        row[i] = 1
        for t, vt in enumerate(v, i):
            c = vt.get(one, 0)
            if c:
                gaps = m[t + 1]
                for j in range(t + 1, n + 1):
                    row[j] += c * gaps[j]
    return m[0]


def dim_hom_partition(up: Word, down: Word, fd: FusionData) -> int:
    """Hom dimension by the fusion-ring-valued first-block recursion over the
    boundary word (conj u_k, ..., conj u_1, v_1, ..., v_l)."""
    for letter in up + down:
        fd.check_label(letter)
    check_enum_cap(len(up) + len(down))
    return _boundary_moments(fd, [{fd.conj(a): 1} for a in reversed(up)]
                             + [{b: 1} for b in down])[-1]


def word_tensor_decomposition(letters: Word, fd: FusionData) -> dict:
    """Decompose r(a_1) x ... x r(a_k) into irreducible word representations.

    One letter at a time: the fusion rule splits w x (a) at two cuts, into
    w.(a) with w[:-1].(gamma) for gamma in last(w) x a, and w[:-1] when
    last(w) = conj(a); for the trivial letter r(1) = () + (1) adds w itself.
    """
    acc = {(): 1}
    for a in letters:
        a_bar, trivial = fd.conj(a), a == fd.trivial()
        nxt: dict = {}
        for w, m in acc.items():
            key = w + (a,)
            nxt[key] = nxt.get(key, 0) + m
            if w:
                head = w[:-1]
                for gamma, mult in fd.tensor(w[-1], a).items():
                    key = head + (gamma,)
                    nxt[key] = nxt.get(key, 0) + m * mult
                if w[-1] == a_bar:
                    nxt[head] = nxt.get(head, 0) + m
            if trivial:
                nxt[w] = nxt.get(w, 0) + m
        acc = nxt
    return acc


def dim_hom_fusion(up: Word, down: Word, fd: FusionData) -> int:
    """Hom dimension by pairing the two irreducible decompositions."""
    check_enum_cap(len(up) + len(down))
    dec_up = word_tensor_decomposition(up, fd)
    dec_down = word_tensor_decomposition(down, fd)
    return sum(m * dec_down.get(w, 0) for w, m in dec_up.items())


def dim_hom_wreath(up: Word, down: Word, fd: FusionData,
                   method: str = "partition") -> int:
    """Dimension of the intertwiner space between the two tensor words.

    method is "partition" (decorated noncrossing partition count) or
    "fusion" (decompose and pair); the two must agree.
    """
    if method == "partition":
        return dim_hom_partition(up, down, fd)
    if method == "fusion":
        return dim_hom_fusion(up, down, fd)
    raise ValueError(f"unknown hom method {method!r}")
