"""Hom spaces between tensor products of the basic word representations.

For words of letters a = (a_1..a_k), b = (b_1..b_l) over Irr(G), the space of
intertwiners from r(a_1) x ... x r(a_k) to r(b_1) x ... x r(b_l) in the free
wreath product has a basis indexed by noncrossing partitions p of the k upper
and l lower points *decorated* by the letters, where each block carries the
multiplicity of the trivial representation in the tensor product of its
decorations (upper ones conjugated and read right to left, then lower ones
left to right).  The Hom dimension is the sum over all of NC(k,l) of the
product of these block multiplicities; blocks with multiplicity zero kill
their term, so only the admissible partitions contribute.  No dependence on N
remains (the count is valid in the stable range N >= 4).

The same dimension is computable through the fusion ring: decompose both
tensor products into irreducible words and pair up the multiplicity vectors.
The two routes are independent implementations and must agree.

Letters may carry a conjugation star in text form ("g,g2*"); a starred letter
stands for the conjugate representation and is resolved at parse time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .fusion import FusionData, Word, fuse
from .partition import Partition, enumerate_partitions


def tensor_fold(fd: FusionData, factors: Sequence) -> dict:
    """Irreducible multiplicities of the tensor product of the factors, in order.

    A factor is a label->multiplicity dict; a bare label stands for {label: 1}.
    """
    acc = {fd.trivial(): 1}
    for factor in factors:
        terms = factor.items() if isinstance(factor, dict) else ((factor, 1),)
        nxt: dict = {}
        for c, m in acc.items():
            for a, ma in terms:
                mm = m * ma
                for d, md in fd.tensor(c, a).items():
                    if md:
                        nxt[d] = nxt.get(d, 0) + mm * md
        acc = nxt
    return acc


def trivial_mult(fd: FusionData, labels: Sequence) -> int:
    return tensor_fold(fd, labels).get(fd.trivial(), 0)


def block_trivial_mult(fd: FusionData, upper_labels: Sequence,
                       lower_labels: Sequence) -> int:
    """Multiplicity of the trivial rep in conj(u_m) x .. x conj(u_1) x v_1 x .. x v_n."""
    folded = [fd.conj(a) for a in reversed(list(upper_labels))]
    folded.extend(lower_labels)
    return trivial_mult(fd, folded)


@dataclass(frozen=True)
class DecoratedPartition:
    """A noncrossing partition together with its per-block trivial multiplicities."""

    partition: Partition
    block_dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.block_dims) != len(self.partition.blocks):
            raise ValueError("need one multiplicity per block")

    def weight(self) -> int:
        w = 1
        for d in self.block_dims:
            w *= d
        return w

    def render(self) -> str:
        dims = ",".join(str(d) for d in self.block_dims)
        return f"{self.partition.render()} dims[{dims}]"


def _decorate(p: Partition, up: Word, down: Word, fd: FusionData) -> DecoratedPartition:
    k = p.upper
    dims = []
    for block in p.blocks:
        uppers = [up[pt - 1] for pt in block if pt <= k]
        lowers = [down[pt - k - 1] for pt in block if pt > k]
        dims.append(block_trivial_mult(fd, uppers, lowers))
    return DecoratedPartition(p, tuple(dims))


def hom_terms(up: Word, down: Word, fd: FusionData,
              admissible_only: bool = True) -> tuple[DecoratedPartition, ...]:
    """The decorated noncrossing partitions between the two words.

    With admissible_only, partitions containing a zero-multiplicity block are
    dropped (they contribute nothing to the Hom dimension).
    """
    for letter in up + down:
        fd.check_label(letter)
    out = []
    for p in enumerate_partitions(len(up), len(down), mode="noncrossing"):
        dp = _decorate(p, up, down, fd)
        if admissible_only and 0 in dp.block_dims:
            continue
        out.append(dp)
    return tuple(out)


def dim_hom_partition(up: Word, down: Word, fd: FusionData) -> int:
    total = 0
    for dp in hom_terms(up, down, fd, admissible_only=True):
        total += dp.weight()
    return total


def basic_rep_decomposition(letter, fd: FusionData) -> Counter:
    """Irreducible constituents of the basic representation r(a).

    For a nontrivial letter r(a) is the irreducible word (a); for the trivial
    letter the basic representation on N-space with trivial decoration splits
    off a copy of the trivial representation, r(1) = 1 + (1).
    """
    fd.check_label(letter)
    out = Counter({(letter,): 1})
    if letter == fd.trivial():
        out[()] += 1
    return out


def word_tensor_decomposition(letters: Word, fd: FusionData,
                              method: str = "direct") -> Counter:
    """Decompose r(a_1) x ... x r(a_k) into irreducible word representations."""
    acc: Counter = Counter({(): 1})
    for letter in letters:
        basic = basic_rep_decomposition(letter, fd)
        nxt: Counter = Counter()
        for w, m in acc.items():
            for w1, m1 in basic.items():
                for w2, m2 in fuse(w, w1, fd, method=method).items():
                    nxt[w2] += m * m1 * m2
        acc = nxt
    return acc


def dim_hom_fusion(up: Word, down: Word, fd: FusionData,
                   method: str = "direct") -> int:
    """Hom dimension by pairing the two irreducible decompositions."""
    dec_up = word_tensor_decomposition(up, fd, method=method)
    dec_down = word_tensor_decomposition(down, fd, method=method)
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


def parse_star_list(text: str, fd: FusionData) -> Word:
    """Parse "g,g2*,1" into effective labels, resolving conjugation stars.

    Accepts surrounding parentheses and an empty string (or "()") for the
    empty word.
    """
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1].strip()
    if not body:
        return ()
    out = []
    for part in body.split(","):
        part = part.strip()
        starred = part.endswith("*")
        if starred:
            part = part[:-1].strip()
        label = fd.parse_label(part)
        fd.check_label(label)
        out.append(fd.conj(label) if starred else label)
    return tuple(out)
