"""Objects the tests build that the library does not: group duals written as
fusion files, and the identity Temperley-Lieb diagrams.

A group dual reaches the library the way a user's ``file:`` table does, so
``fusion_from_json`` runs every check on it, associativity included.
"""

import itertools
import json

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
