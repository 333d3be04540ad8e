"""Fusion rules of the free wreath product, on words over the base irreducibles.

The irreducible representations of the free wreath product of a compact
quantum group G by the quantum permutation group on N >= 4 points are indexed
by *words* over Irr(G) -- including the empty word, and with words containing
the trivial letter kept as distinct irreducibles (the letter is not dropped).

Fusion data for G is supplied by a :class:`FusionData` oracle (trivial label,
integer dimensions, conjugates, tensor decompositions).  Shipped instances:
the trivial group, cyclic groups, the integers (a group dual on infinitely
many labels), duals of arbitrary finite groups given by multiplication table,
arbitrary finite tables loaded from a JSON file, the character ring of the
symmetric group on three letters (the standard non-abelian example with
dimensions 1, 1, 2), and the quantum permutation groups.

Tensor products of word representations decompose by two independent routes,
which must agree:

* the closed formula: sum over all ways of writing x = u.t and y = conj(t).v
  of the concatenated word (u, v), plus, when both u and v are nonempty, the
  boundary-fused words obtained by replacing the adjacent letters a = last(u),
  b = first(v) with each constituent of a tensor b -- the trivial constituent
  included (it leaves a trivial letter in the word);

* the reduced-word route: a word embeds in the free product of Irr(G) with
  quantum SU(2) as the reduced word b^{l1} a1 b^{l2} ... b^{lk} (outer
  exponents odd, inner ones even, letters nontrivial).  The free-product rule
  walks inward from the boundary of the concatenation: b^p x b^q and a x c
  splice each nontrivial constituent into the concatenation, and the trivial
  one removes both boundary letters and moves on to the next pair.

The dimension of the word (a1, ..., a_{k-1}) with reduced exponents (l1..lk)
is prod dim(a_i) * prod A_{l_i}(sqrt(N)), always a rational integer; replacing
sqrt(N) by a variable sqrt(X) gives the central character polynomial, an
integer polynomial in X.
"""

from __future__ import annotations

import json
import re
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Any, Hashable, Sequence

from .qnum import QNum, cheb_eval_sqrtN, cheb_poly, poly_mul, poly_trim

Label = Hashable
Word = tuple


# ---------------------------------------------------------------------------
# finite groups (used for group duals and for decorated partition maps)


@dataclass(frozen=True)
class FiniteGroup:
    elements: tuple[str, ...]
    table: dict

    def __post_init__(self):
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise ValueError("duplicate group elements")
        for a in self.elements:
            for b in self.elements:
                if self.table.get((a, b)) not in elems:
                    raise ValueError(f"multiplication table misses ({a},{b})")
        ident = None
        for e in self.elements:
            if all(self.table[(e, a)] == a and self.table[(a, e)] == a
                   for a in self.elements):
                ident = e
                break
        if ident is None:
            raise ValueError("no identity element")
        object.__setattr__(self, "_identity", ident)
        for a in self.elements:
            if not any(self.table[(a, b)] == ident for b in self.elements):
                raise ValueError(f"{a} has no inverse")
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self.table[(self.table[(a, b)], c)] != \
                            self.table[(a, self.table[(b, c)])]:
                        raise ValueError("multiplication is not associative")

    @property
    def identity(self) -> str:
        return self._identity

    def mult(self, a: str, b: str) -> str:
        return self.table[(a, b)]

    def inverse(self, a: str) -> str:
        for b in self.elements:
            if self.table[(a, b)] == self.identity:
                return b
        raise ValueError(f"{a} has no inverse")


def cyclic_group(s: int) -> FiniteGroup:
    if s < 1:
        raise ValueError("order must be positive")
    names = ["1"] + [f"g{j}" if j > 1 else "g" for j in range(1, s)]
    table = {(names[a], names[b]): names[(a + b) % s]
             for a in range(s) for b in range(s)}
    return FiniteGroup(tuple(names), table)


def symmetric_group_3() -> FiniteGroup:
    """S3 as permutations of three letters, elements named by their one-line form."""
    import itertools
    perms = list(itertools.permutations(range(3)))
    name = {p: "".join(str(x + 1) for x in p) for p in perms}
    compose = {}
    for p in perms:
        for q in perms:
            pq = tuple(p[q[i]] for i in range(3))
            compose[(name[p], name[q])] = name[pq]
    return FiniteGroup(tuple(name[p] for p in perms), compose)


# ---------------------------------------------------------------------------
# fusion data


class FusionData(ABC):
    """Oracle describing the fusion rules of a compact quantum group.

    Labels are opaque hashable objects; tensor returns a finite multiplicity
    dict.  The fusion need not be commutative (group duals of non-abelian
    groups are not).
    """

    @abstractmethod
    def trivial(self) -> Label: ...

    @abstractmethod
    def dim(self, label: Label) -> int: ...

    @abstractmethod
    def conj(self, label: Label) -> Label: ...

    @abstractmethod
    def tensor(self, a: Label, b: Label) -> dict:
        """Multiplicities of the irreducible constituents of a tensor b."""

    def labels(self) -> tuple | None:
        """The full label list for finite data, None for infinite oracles."""
        return None

    def parse_label(self, text: str) -> Label:
        return text

    def render_label(self, label: Label) -> str:
        return str(label)

    def check_label(self, label: Label) -> None:
        known = self.labels()
        if known is not None and label not in known:
            raise ValueError(f"unknown irreducible label {label!r}")

    def validate(self) -> None:
        """Check the semiring axioms; complete for finite label sets."""
        labels = self.labels()
        if labels is None:
            return
        triv = self.trivial()
        if triv not in labels:
            raise ValueError("trivial label missing from label list")
        if self.conj(triv) != triv:
            raise ValueError("conjugate of the trivial label must be itself")
        for a in labels:
            if self.dim(a) < 1:
                raise ValueError(f"dimension of {a!r} must be positive")
            if self.conj(self.conj(a)) != a:
                raise ValueError(f"conjugation is not involutive at {a!r}")
            if self.dim(self.conj(a)) != self.dim(a):
                raise ValueError(f"conjugate of {a!r} has a different dimension")
        for a in labels:
            for b in labels:
                prod = self.tensor(a, b)
                for c, m in prod.items():
                    if c not in labels or m < 0:
                        raise ValueError(f"bad tensor entry {c!r}:{m} in {a!r}x{b!r}")
                total = sum(m * self.dim(c) for c, m in prod.items())
                if total != self.dim(a) * self.dim(b):
                    raise ValueError(
                        f"dimension count fails in {a!r}x{b!r}: {total} != "
                        f"{self.dim(a) * self.dim(b)}")
                expect = 1 if b == self.conj(a) else 0
                if prod.get(triv, 0) != expect:
                    raise ValueError(
                        f"trivial multiplicity in {a!r}x{b!r} is "
                        f"{prod.get(triv, 0)}, expected {expect}")
        for a in labels:
            for b in labels:
                prod = self.tensor(a, b)
                for c in labels:
                    lhs = prod.get(c, 0)
                    rhs = self.tensor(b, self.conj(c)).get(self.conj(a), 0)
                    if lhs != rhs:
                        raise ValueError(
                            f"Frobenius symmetry fails: mult({c!r}, {a!r}x{b!r})"
                            f"={lhs} but mult({self.conj(a)!r}, "
                            f"{b!r}x{self.conj(c)!r})={rhs}")


class TableFusion(FusionData):
    def __init__(self, labels: Sequence[str], dims: dict, trivial: str,
                 conj: dict, tensor: dict, name: str = "table"):
        self._labels = tuple(labels)
        self._dims = dict(dims)
        self._trivial = trivial
        self._conj = dict(conj)
        self._tensor = {k: {c: int(m) for c, m in v.items() if m}
                        for k, v in tensor.items()}
        self.name = name
        for a in self._labels:
            if a not in self._dims:
                raise ValueError(f"missing dimension for {a!r}")
            if a not in self._conj:
                raise ValueError(f"missing conjugate for {a!r}")
        for a in self._labels:
            for b in self._labels:
                if (a, b) not in self._tensor:
                    raise ValueError(f"missing tensor entry for {a!r},{b!r}")
        self.validate()

    def trivial(self):
        return self._trivial

    def dim(self, label):
        self.check_label(label)
        return self._dims[label]

    def conj(self, label):
        self.check_label(label)
        return self._conj[label]

    def tensor(self, a, b):
        self.check_label(a)
        self.check_label(b)
        return dict(self._tensor[(a, b)])

    def labels(self):
        return self._labels

    def to_json(self) -> str:
        doc = {
            "irreps": [{"label": a, "dim": self._dims[a]} for a in self._labels],
            "trivial": self._trivial,
            "conj": {a: self._conj[a] for a in self._labels},
            "tensor": {f"{a},{b}": self._tensor[(a, b)]
                       for a in self._labels for b in self._labels},
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def fusion_from_json(text: str, name: str = "file") -> TableFusion:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"fusion file is not valid JSON: {exc}") from exc
    for key in ("irreps", "trivial", "conj", "tensor"):
        if key not in doc:
            raise ValueError(f"fusion file misses required field {key!r}")
    try:
        labels = [entry["label"] for entry in doc["irreps"]]
        dims = {entry["label"]: int(entry["dim"]) for entry in doc["irreps"]}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad irreps entry in fusion file: {exc}") from exc
    tensor = {}
    for key, val in doc["tensor"].items():
        parts = key.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad tensor key {key!r}, expected 'a,b'")
        tensor[(parts[0], parts[1])] = {c: int(m) for c, m in val.items()}
    missing = [(a, b) for a in labels for b in labels if (a, b) not in tensor]
    if missing:
        raise ValueError(f"missing tensor entries for pairs {missing[:5]}")
    return TableFusion(labels, dims, doc["trivial"], doc["conj"], tensor, name)


def load_fusion_file(path: str) -> TableFusion:
    with open(path, "r", encoding="utf-8") as fh:
        return fusion_from_json(fh.read(), name=path)


def group_dual_fusion(group: FiniteGroup, name: str | None = None) -> TableFusion:
    """The dual of a finite group: one-dimensional labels, tensor = product."""
    labels = group.elements
    tensor = {(a, b): {group.mult(a, b): 1} for a in labels for b in labels}
    return TableFusion(labels, {a: 1 for a in labels}, group.identity,
                       {a: group.inverse(a) for a in labels}, tensor,
                       name or "group dual")


def cyclic_fusion(s: int) -> TableFusion:
    """Irreducibles of the dual of Z/s; labels 1, g, g2, ..."""
    return group_dual_fusion(cyclic_group(s), f"cyclic({s})")


def trivial_fusion() -> TableFusion:
    return cyclic_fusion(1)


class IntegersFusion(FusionData):
    """The dual of the integers: labels are the integers, tensor is addition."""

    name = "integers"

    def trivial(self):
        return 0

    def dim(self, label):
        return 1

    def conj(self, label):
        return -label

    def tensor(self, a, b):
        return {a + b: 1}

    def parse_label(self, text):
        try:
            return int(text)
        except ValueError as exc:
            raise ValueError(f"integer label expected, got {text!r}") from exc


def integers_fusion() -> IntegersFusion:
    return IntegersFusion()


def symmetric_group_3_fusion() -> TableFusion:
    """Character ring of the symmetric group on 3 letters: dims 1, 1, 2."""
    labels = ["triv", "sgn", "std"]
    dims = {"triv": 1, "sgn": 1, "std": 2}
    conj = {a: a for a in labels}
    t = {}
    for a in labels:
        t[("triv", a)] = {a: 1}
        t[(a, "triv")] = {a: 1}
    t[("sgn", "sgn")] = {"triv": 1}
    t[("sgn", "std")] = {"std": 1}
    t[("std", "sgn")] = {"std": 1}
    t[("std", "std")] = {"triv": 1, "sgn": 1, "std": 1}
    return TableFusion(labels, dims, "triv", conj, t, "character ring of S3")


class QuantumPermutationFusion(FusionData):
    """Fusion of the quantum permutation group on s >= 4 points.

    Labels are nonnegative integers, m x n = |m-n|, |m-n|+1, ..., m+n, each
    once; dimensions are the even dilated Chebyshev values A_{2m}(sqrt(s)),
    which are integers.
    """

    def __init__(self, s: int):
        if s < 4:
            raise ValueError("the label set is free only for s >= 4")
        self.s = s
        self.name = f"quantum permutation({s})"

    def trivial(self):
        return 0

    def dim(self, label):
        if label < 0:
            raise ValueError("labels must be nonnegative")
        value = cheb_eval_sqrtN(2 * label, self.s).as_fraction()
        assert value.denominator == 1 and value > 0
        return int(value)

    def conj(self, label):
        return label

    def tensor(self, a, b):
        if a < 0 or b < 0:
            raise ValueError("labels must be nonnegative")
        return {j: 1 for j in range(abs(a - b), a + b + 1)}

    def parse_label(self, text):
        return int(text)


def quantum_permutation_fusion(s: int) -> QuantumPermutationFusion:
    return QuantumPermutationFusion(s)


_URI = re.compile(r"^(builtin|file):(.*)$")


def fusion_from_uri(uri: str) -> FusionData:
    """Resolve "builtin:cyclic:3", "builtin:integers", "builtin:trivial",
    or "file:PATH"."""
    m = _URI.match(uri.strip())
    if not m:
        raise ValueError(f"cannot parse fusion locator {uri!r}")
    kind, rest = m.groups()
    if kind == "file":
        return load_fusion_file(rest)
    if rest == "trivial":
        return trivial_fusion()
    if rest == "integers":
        return integers_fusion()
    cm = re.match(r"^cyclic:(\d+)$", rest)
    if cm:
        return cyclic_fusion(int(cm.group(1)))
    raise ValueError(f"unknown builtin fusion {rest!r}")


# ---------------------------------------------------------------------------
# words


def parse_word(text: str, fd: FusionData) -> Word:
    compact = text.strip()
    if not (compact.startswith("(") and compact.endswith(")")):
        raise ValueError(f"word literal must be parenthesized, got {text!r}")
    body = compact[1:-1].strip()
    if not body:
        return ()
    letters = tuple(fd.parse_label(part.strip()) for part in body.split(","))
    for letter in letters:
        fd.check_label(letter)
    return letters


def render_word(word: Word, fd: FusionData) -> str:
    return "(" + ",".join(fd.render_label(a) for a in word) + ")"


def conj_word(word: Word, fd: FusionData) -> Word:
    return tuple(fd.conj(a) for a in reversed(word))


@dataclass(frozen=True)
class ReducedWord:
    """Alternating form b^{l1} a1 b^{l2} ... a_{k-1} b^{lk}.

    The exponent list is never empty; the empty word is exponents (0,).  For a
    nonempty word the outer exponents are odd, the inner ones even and >= 2,
    and every letter is nontrivial.
    """

    exponents: tuple[int, ...]
    letters: tuple

    def __post_init__(self):
        if len(self.exponents) != len(self.letters) + 1:
            raise ValueError("need one more exponent than letters")


def reduce_word(word: Word, fd: FusionData) -> ReducedWord:
    """Embed a word as an alternating product, merging across trivial letters."""
    triv = fd.trivial()
    exponents = [1] + [2] * (len(word) - 1) + [1] if word else [0]
    letters = list(word)
    i = 0
    while i < len(letters):
        if letters[i] == triv:
            exponents[i] += exponents[i + 1]
            del letters[i], exponents[i + 1]
        else:
            i += 1
    return ReducedWord(tuple(exponents), tuple(letters))


def expand_reduced(rw: ReducedWord, fd: FusionData) -> Word:
    """Inverse of reduce_word: reinsert the trivial letters."""
    triv = fd.trivial()
    exps, letters = rw.exponents, rw.letters
    if not letters:
        single = exps[0]
        if single % 2:
            raise ValueError(f"pure exponent {single} must be even")
        return (triv,) * (single // 2)
    if exps[0] % 2 == 0 or exps[-1] % 2 == 0:
        raise ValueError(f"outer exponents of {rw} must be odd")
    if any(e % 2 or e < 2 for e in exps[1:-1]):
        raise ValueError(f"inner exponents of {rw} must be even and positive")
    if any(a == triv for a in letters):
        raise ValueError("letters of a reduced word must be nontrivial")
    out: list = [triv] * ((exps[0] - 1) // 2)
    for i, a in enumerate(letters):
        out.append(a)
        gap = exps[i + 1]
        out.extend([triv] * (((gap - 1) // 2) if i == len(letters) - 1
                             else ((gap - 2) // 2)))
    return tuple(out)


# ---------------------------------------------------------------------------
# fusion of words


def fuse(x: Word, y: Word, fd: FusionData, method: str = "direct") -> Counter:
    """Decompose the tensor product of two word representations.

    Returns a Counter over words.  method="direct" uses the closed splitting
    formula; method="free-product" applies the free-product rule to the
    reduced words; both agree.
    """
    if method == "direct":
        return fuse_direct(x, y, fd)
    if method == "free-product":
        return fuse_via_reduced(x, y, fd)
    raise ValueError(f"unknown fusion method {method!r}")


def fuse_direct(x: Word, y: Word, fd: FusionData) -> Counter:
    out: Counter = Counter()
    for cut in range(min(len(x), len(y)) + 1):
        u, t = x[:len(x) - cut], x[len(x) - cut:]
        if conj_word(t, fd) != y[:cut]:
            continue
        v = y[cut:]
        out[u + v] += 1
        if u and v:
            for gamma, mult in fd.tensor(u[-1], v[0]).items():
                if mult:
                    out[u[:-1] + (gamma,) + v[1:]] += mult
    return out


def fuse_via_reduced(x: Word, y: Word, fd: FusionData) -> Counter:
    """The free-product rule on the reduced forms, one boundary product a step.

    The boundary exponents give b^p x b^q = b^|p-q| + b^(|p-q|+2) + ... +
    b^(p+q); the boundary letters of G give fd.tensor(a, c).  Each nontrivial
    constituent is spliced into the concatenation.  The trivial one, present
    once when p = q or c = conj(a), drops both boundary letters and exposes
    the next pair.
    """
    rx, ry = reduce_word(x, fd), reduce_word(y, fd)
    xe, xl, ye, yl = rx.exponents, rx.letters, ry.exponents, ry.letters
    triv = fd.trivial()
    out: Counter = Counter()
    i, j = len(xl), 0
    while True:
        p, q = xe[i], ye[j]
        for r in range(abs(p - q) or 2, p + q + 1, 2):  # r = 0 is trivial
            rw = ReducedWord(xe[:i] + (r,) + ye[j + 1:], xl[:i] + yl[j:])
            out[expand_reduced(rw, fd)] += 1
        if p != q:
            return out
        if i == 0 or j == len(yl):
            # by parity both words are used up here, leaving the empty word
            rw = ReducedWord(xe[:i] + ye[j + 1:] or (0,), xl[:i] + yl[j:])
            out[expand_reduced(rw, fd)] += 1
            return out
        prod = fd.tensor(xl[i - 1], yl[j])
        for c, m in prod.items():
            if c != triv and m:
                rw = ReducedWord(xe[:i] + ye[j + 1:],
                                 xl[:i - 1] + (c,) + yl[j + 1:])
                out[expand_reduced(rw, fd)] += m
        if not prod.get(triv):
            return out
        i, j = i - 1, j + 1


def sort_words(counter: Counter, fd: FusionData) -> list[tuple[Word, int]]:
    """Deterministic presentation order: by length, then rendered letters."""
    return sorted(counter.items(),
                  key=lambda kv: (len(kv[0]),
                                  tuple(fd.render_label(a) for a in kv[0])))


# ---------------------------------------------------------------------------
# dimensions


def dim_wreath(word: Word, fd: FusionData, n: int) -> int:
    """prod dim(letters) * prod A_l(sqrt(N)) over the reduced exponents.

    The formula holds for N >= 4 only; smaller N is refused.
    """
    if n < 4:
        raise ValueError(f"word dimensions need N >= 4, got N={n}")
    rw = reduce_word(word, fd)
    value = QNum.rational(1)
    for a in rw.letters:
        value = value * fd.dim(a)
    for e in rw.exponents:
        value = value * cheb_eval_sqrtN(e, n)
    frac = value.as_fraction()
    assert frac.denominator == 1
    return int(frac)


def dim_multiplicativity_failures(fd: FusionData, n: int, rng,
                                  count: int) -> list:
    """Check dim(x) dim(y) = sum of dims over x tensor y on count random pairs.

    Each pair draws x, then y, as words of length 0..3 over the finite label
    set, from ``rng`` (a random.Random).  Returns the failures as
    (x, y, lhs, rhs) tuples.
    """
    labels = fd.labels()
    bad = []
    for _ in range(count):
        x = tuple(rng.choice(labels) for _ in range(rng.randrange(4)))
        y = tuple(rng.choice(labels) for _ in range(rng.randrange(4)))
        lhs = dim_wreath(x, fd, n) * dim_wreath(y, fd, n)
        rhs = sum(m * dim_wreath(w, fd, n) for w, m in fuse(x, y, fd).items())
        if lhs != rhs:
            bad.append((x, y, lhs, rhs))
    return bad


def central_char_poly(word: Word, fd: FusionData) -> tuple[int, ...]:
    """Coefficients (low degree first) of the central character polynomial.

    The product prod dim(a_i) * prod A_{l_i}(sqrt(X)) only involves even
    powers of sqrt(X) because the exponent sum is even, so it is an integer
    polynomial in X; evaluating at X=N recovers dim_wreath.
    """
    rw = reduce_word(word, fd)
    poly: tuple[int, ...] = (1,)
    for e in rw.exponents:
        poly = poly_mul(poly, cheb_poly(e))
    scalar = 1
    for a in rw.letters:
        scalar = scalar * fd.dim(a)
    poly = tuple(scalar * c for c in poly)
    if any(c for i, c in enumerate(poly) if i % 2):
        raise AssertionError(f"odd powers survived in {poly}")
    return poly_trim(poly[::2])
