"""Objects the tests build that the library does not: group duals written as
fusion files, the identity Temperley-Lieb diagrams, the word a reduced form
stands for, the decorated partitions that both Hom routes count, the
brute-force noncrossing Gram matrix, and the bytes a call's result keeps.

A group dual reaches the library the way a user's ``file:`` table does, so
``fusion_from_json`` runs every check on it, associativity included.
"""

import functools
import itertools
import json
import tracemalloc

from freewreath.fusion import conj_word, reduce_word, tensor_fold
from freewreath.linmaps import build_tp
from freewreath.partition import enumerate_partitions
from freewreath.tl import TLDiagram

# S3 as permutations of 1, 2, 3 in one-line form, the identity first
S3_ELEMENTS = tuple("".join(map(str, p))
                    for p in itertools.permutations((1, 2, 3)))


def s3_product(a: str, b: str) -> str:
    """The permutation a after b, in one-line form."""
    return "".join(a[int(x) - 1] for x in b)


def cyclic_names(s: int) -> list[str]:
    """The elements 1, g, g2, ... of Z/s, as cyclic_fusion labels them."""
    return ["1", "g"][:s] + [f"g{j}" for j in range(2, s)]


def cyclic_product(s: int):
    """g^i g^j = g^(i+j mod s) on the names of Z/s."""
    names = cyclic_names(s)
    return lambda a, b: names[(names.index(a) + names.index(b)) % s]


def group_dual_json(elements, mult) -> str:
    """The fusion file of the dual of a finite group, or of any loop: the
    elements are labels of dimension 1, the first is trivial, a x b is
    mult(a, b) once, and conj(a) is the b with mult(a, b) trivial."""
    one = elements[0]
    doc = {
        "irreps": [{"label": a, "dim": 1} for a in elements],
        "trivial": one,
        "conj": {a: next(b for b in elements if mult(a, b) == one)
                 for a in elements},
        "tensor": {f"{a},{b}": {mult(a, b): 1}
                   for a in elements for b in elements},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def tl_identity(k: int) -> TLDiagram:
    return TLDiagram(k, k, [(i, k + i) for i in range(1, k + 1)])


def check_reduced_form(word, fd) -> None:
    """Assert the invariants of reduce_word's pair, and that it gives back
    the word: a gap of exponent e between `sides` letters holds
    (e - sides) // 2 trivial letters."""
    exponents, letters = reduce_word(word, fd)
    triv = fd.trivial()
    assert letters == tuple(a for a in word if a != triv)
    if letters:
        assert exponents[0] % 2 == exponents[-1] % 2 == 1
        assert all(e % 2 == 0 and e >= 2 for e in exponents[1:-1])
    else:
        assert exponents == (2 * len(word),)
    if word:
        assert sum(exponents) == 2 * len(word)
    last = len(letters)
    gaps = [(e - (i > 0) - (i < last)) // 2 for i, e in enumerate(exponents)]
    rebuilt = (triv,) * gaps[0]
    for a, gap in zip(letters, gaps[1:]):
        rebuilt += (a,) + (triv,) * gap
    assert rebuilt == word


def hom_terms(up, down, fd) -> tuple:
    """(partition, block multiplicities) for the noncrossing partitions
    between the two words with no zero-multiplicity block: the others add
    nothing to the Hom dimension.  The oracle of both Hom routes.

    A block's multiplicity is the trivial multiplicity of the tensor product
    of its decorations, the upper ones conjugated and read right to left,
    then the lower ones; the words are fixed, so each distinct block is
    folded once per call.
    """
    for letter in up + down:
        fd.check_label(letter)
    k, one = len(up), fd.trivial()

    @functools.cache
    def weight(block: tuple) -> int:
        uppers = tuple(up[pt - 1] for pt in block if pt <= k)
        lowers = tuple(down[pt - k - 1] for pt in block if pt > k)
        return tensor_fold(fd, conj_word(uppers, fd) + lowers).get(one, 0)

    terms = []
    for p, blocks in _nc_blocks(k, len(down)):
        dims = tuple(map(weight, blocks))
        if 0 not in dims:
            terms.append((p, dims))
    return tuple(terms)


@functools.cache
def _nc_blocks(k: int, l: int) -> tuple:
    """The (p, p.blocks) pairs of NC(k, l), enumerated once per shape."""
    return tuple((p, p.blocks)
                 for p in enumerate_partitions(k, l, mode="noncrossing"))


def gram_brute(k: int, l: int, dim: int) -> list[list[int]]:
    """The Gram matrix <T_p, T_q> over the noncrossing partitions of (k, l),
    in the order of enumerate_partitions, by brute force: Tr(T_p* T_q) as the
    number of nonzero entries T_p and T_q share.  The oracle of
    ``weingarten.wg_gram``'s "singletons" Gram.

    Each T_p comes once from ``linmaps.build_tp``, which enumerates the index
    assignments constant on its blocks; no join is taken, so the count is an
    independent check of the join formula.
    """
    maps = [build_tp(p, dim) for p in enumerate_partitions(k, l, "noncrossing")]
    return [[int(a.inner(b)) for b in maps] for a in maps]


def kept_bytes(call) -> int:
    """The bytes that call()'s result keeps allocated, by tracemalloc: the
    traced size with the result alive, less the size before the call.  A
    cache that the call fills counts too, so warm it first."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
