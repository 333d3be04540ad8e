"""Fusion rules of the free wreath product, on words over the base irreducibles.

The irreducible representations of the free wreath product of a compact
quantum group G by the quantum permutation group on N >= 4 points are indexed
by *words* over Irr(G) -- including the empty word, and with words containing
the trivial letter kept as distinct irreducibles (the letter is not dropped).

Fusion data for G is supplied by a :class:`FusionData` oracle (trivial label,
integer dimensions, conjugates, tensor decompositions).  Shipped instances:
the trivial group and the cyclic groups (tables built from
g^i x g^j = g^(i+j mod s)), the integers (a group dual on infinitely many
labels), arbitrary finite tables loaded from a JSON file, the character ring
of the symmetric group on three letters (the standard non-abelian example
with dimensions 1, 1, 2), and the quantum permutation groups.  The dual of
any other finite group is a file table: its elements are the labels, each of
dimension 1, and a x b is the product ab once.

Tensor products of word representations decompose by two independent routes,
which must agree:

* the closed formula: sum over all ways of writing x = u.t and y = conj(t).v
  of the concatenated word (u, v), plus, when both u and v are nonempty, the
  boundary-fused words obtained by replacing the adjacent letters a = last(u),
  b = first(v) with each constituent of a tensor b -- the trivial constituent
  included (it leaves a trivial letter in the word).  The valid cuts t are
  those shorter than the first letter pair that fails to match;

* the reduced-word route: a word embeds in the free product of Irr(G) with
  quantum SU(2) as the reduced word b^{l1} a1 b^{l2} ... b^{lk} (outer
  exponents odd, inner ones even, letters nontrivial), kept as the plain
  pair (exponents, letters).  The free-product rule walks inward from the
  boundary of the concatenation: b^p x b^q and a x c splice each nontrivial
  constituent into the concatenation, and the trivial one removes both
  boundary letters and moves on to the next pair.  Each constituent is
  written out from slices of x and y cut at their nontrivial letters.  The
  one scan that lists a word's exponents and the positions of its
  nontrivial letters serves every reader of the reduced form.

The dimension of the word (a1, ..., a_{k-1}) with reduced exponents (l1..lk)
is prod dim(a_i) * prod A_{l_i}(sqrt(N)).  Each factor is the integer a_l(N)
times sqrt(N)**(l mod 2), and 0 or 2 exponents are odd, so it is computed in
integers as N**(odd/2) * prod dim(a_i) * prod a_{l_i}(N), in one scan of
the word with no reduced form built.  Replacing
sqrt(N) by a variable sqrt(X) gives the central character polynomial, an
integer polynomial in X.  The dimension formula holds for N >= 4 only, and
smaller N is refused.  ``verify_dim_multiplicativity`` checks dim(x) dim(y)
against the dimensions of x tensor y on random pairs of words and returns
its verification report, as every suite's layer does.

Letters and ring elements: every typed letter goes through
:func:`parse_letter`, which reads a trailing star ("g2*") as the conjugate
representation.  Every shipped ring's ``dim`` refuses what its
``check_label`` refuses, so word dimensions refuse unknown letters too.  An
element of the fusion ring of G is a label->multiplicity dict, and
:func:`tensor_fold` multiplies such elements.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from typing import Hashable, Sequence

from .config import _Memo, check_entry_cap, check_work_cap
from .qnum import cheb_int_factor, cheb_poly, poly_mul, poly_trim

Label = Hashable
Word = tuple


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
        """Constituent multiplicities of a tensor b, read-only to callers."""

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
        """Check the semiring axioms other than associativity (which
        ``fusion_from_json`` checks); complete for finite label sets.

        Frobenius symmetry N(a, b, c) = N(b, conj c, conj a) is checked on the
        nonzero entries only, which is complete: that triple map has order 3.
        """
        labels = self.labels()
        if labels is None:
            return
        triv = self.trivial()
        if triv not in labels:
            raise ValueError("trivial label missing from label list")
        if self.conj(triv) != triv:
            raise ValueError("conjugate of the trivial label must be itself")
        conj = {a: self.conj(a) for a in labels}
        for a in labels:
            if self.dim(a) < 1:
                raise ValueError(f"dimension of {a!r} must be positive")
            if self.conj(conj[a]) != a:
                raise ValueError(f"conjugation is not involutive at {a!r}")
            if self.dim(conj[a]) != self.dim(a):
                raise ValueError(f"conjugate of {a!r} has a different dimension")
        for a in labels:
            for b in labels:
                prod = self.tensor(a, b)
                for c, m in prod.items():
                    if c not in conj or m < 0:
                        raise ValueError(f"bad tensor entry {c!r}:{m} in {a!r}x{b!r}")
                total = sum(m * self.dim(c) for c, m in prod.items())
                if total != self.dim(a) * self.dim(b):
                    raise ValueError(
                        f"dimension count fails in {a!r}x{b!r}: {total} != "
                        f"{self.dim(a) * self.dim(b)}")
                expect = 1 if b == conj[a] else 0
                if prod.get(triv, 0) != expect:
                    raise ValueError(
                        f"trivial multiplicity in {a!r}x{b!r} is "
                        f"{prod.get(triv, 0)}, expected {expect}")
                for c, m in prod.items():
                    rhs = self.tensor(b, conj[c]).get(conj[a], 0)
                    if rhs != m:
                        raise ValueError(
                            f"Frobenius symmetry fails: mult({c!r}, {a!r}x{b!r})"
                            f"={m} but mult({conj[a]!r}, {b!r}x{conj[c]!r})"
                            f"={rhs}")


class TableFusion(FusionData):
    """A finite fusion ring given by tables: dims and conj keyed by exactly
    its labels, tensor by exactly their ordered pairs."""

    def __init__(self, labels: Sequence[str], dims: dict, trivial: str,
                 conj: dict, tensor: dict):
        self._labels = tuple(labels)
        self._label_set = frozenset(self._labels)
        if len(self._label_set) < len(self._labels):
            dup = next(a for i, a in enumerate(self._labels)
                       if a in self._labels[:i])
            raise ValueError(f"duplicate irrep label {dup!r}")
        self._dims = dict(dims)
        self._trivial = trivial
        self._conj = dict(conj)
        self._tensor = {k: {c: int(m) for c, m in v.items() if m}
                        for k, v in tensor.items()}
        pairs = [(a, b) for a in self._labels for b in self._labels]
        for what, table, keys in (("dimension", self._dims, self._labels),
                                  ("conjugate", self._conj, self._labels),
                                  ("tensor entry", self._tensor, pairs)):
            missing = [k for k in keys if k not in table]
            stray = table.keys() - set(keys)
            if missing or stray:
                key = missing[0] if missing else min(stray, key=repr)
                shown = ",".join(map(repr, key)) if keys is pairs else repr(key)
                raise ValueError(f"missing {what} for {shown}" if missing else
                                 f"{what} for {shown} names an unlisted label")
        self.validate()

    def trivial(self):
        return self._trivial

    def dim(self, label):
        try:
            return self._dims[label]
        except KeyError:
            raise ValueError(f"unknown irreducible label {label!r}") from None

    def conj(self, label):
        try:
            return self._conj[label]
        except KeyError:
            raise ValueError(f"unknown irreducible label {label!r}") from None

    def tensor(self, a, b):
        try:
            return self._tensor[(a, b)]
        except KeyError:
            bad = b if a in self._label_set else a
            raise ValueError(f"unknown irreducible label {bad!r}") from None

    def labels(self):
        return self._labels

    def check_label(self, label):
        if label not in self._label_set:
            raise ValueError(f"unknown irreducible label {label!r}")


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer"}


def _expect(value, kind: type, what: str):
    """value itself when it has the JSON type ``kind``, else ValueError."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def fusion_from_json(text: str) -> TableFusion:
    import json

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"fusion file is not valid JSON: {exc}") from exc
    try:
        labels, dims = [], {}
        for entry in _expect(_expect(doc, dict, "fusion file")["irreps"],
                             list, "irreps"):
            label = _expect(_expect(entry, dict, "irreps entry")["label"],
                            str, "irrep label")
            # the word parsers split on commas and parentheses, strip
            # whitespace and read a trailing star as conjugation
            if not label or label != label.strip() or any(
                    c in label for c in ",()*"):
                raise ValueError(
                    f"irrep label {label!r} cannot be spelled in a word: it "
                    "must be nonempty, with no surrounding whitespace and "
                    "no ',', '(', ')' or '*'")
            labels.append(label)
            dims[label] = _expect(entry["dim"], int, f"dimension of {label!r}")
        conj = {a: _expect(b, str, f"conjugate of {a!r}")
                for a, b in _expect(doc["conj"], dict, "conj").items()}
        tensor = {}
        for key, val in _expect(doc["tensor"], dict, "tensor").items():
            parts = key.split(",")
            if len(parts) != 2:
                raise ValueError(f"bad tensor key {key!r}, expected 'a,b'")
            tensor[(parts[0], parts[1])] = {
                c: _expect(m, int, f"multiplicity of {c!r} in {key!r}")
                for c, m in _expect(val, dict, f"tensor entry {key!r}").items()}
        trivial = _expect(doc["trivial"], str, "trivial")
    except KeyError as exc:
        raise ValueError(f"fusion file misses the field {exc}") from exc
    check_entry_cap(len(labels) ** 2)  # the tensor table, before it is built
    fd = TableFusion(labels, dims, trivial, conj, tensor)
    check_work_cap(len(labels) ** 3,
                   "checking associativity on {} label triples")
    _check_associative(fd)
    return fd


def _check_associative(fd: TableFusion) -> None:
    """ValueError unless (a x b) x c = a x (b x c) for all labels a, b, c.

    Not part of ``validate``: it costs two products per label triple.
    """
    labels = fd.labels()
    table = {(a, b): tuple(fd.tensor(a, b).items())
             for a in labels for b in labels}
    for (a, b), ab in table.items():
        for c in labels:
            left: dict = {}
            right: dict = {}
            for d, m in ab:
                for e, n in table[d, c]:
                    left[e] = left.get(e, 0) + m * n
            for d, m in table[b, c]:
                for e, n in table[a, d]:
                    right[e] = right.get(e, 0) + m * n
            if left != right:
                raise ValueError(
                    f"fusion rules are not associative: "
                    f"({a!r}x{b!r})x{c!r} != {a!r}x({b!r}x{c!r})")


def load_fusion_file(path: str) -> TableFusion:
    with open(path, "r", encoding="utf-8") as fh:
        return fusion_from_json(fh.read())


def cyclic_fusion(s: int) -> TableFusion:
    """The dual of Z/s: labels 1, g, g2, ... with g^i x g^j = g^(i+j mod s)."""
    if s < 1:
        raise ValueError("order must be positive")
    check_entry_cap(s * s)  # the tensor table, before any of it
    names = ["1", "g"][:s] + [f"g{j}" for j in range(2, s)]
    tensor = {(a, b): {names[(i + j) % s]: 1}
              for i, a in enumerate(names) for j, b in enumerate(names)}
    return TableFusion(names, dict.fromkeys(names, 1), "1",
                       {a: names[-i % s] for i, a in enumerate(names)}, tensor)


class IntegersFusion(FusionData):
    """The dual of the integers: labels are the integers, tensor is addition."""

    def trivial(self):
        return 0

    def dim(self, label):
        self.check_label(label)
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

    def check_label(self, label):
        if type(label) is not int:  # a bool is no integer label
            raise ValueError(f"unknown irreducible label {label!r}")


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
    return TableFusion(labels, dims, "triv", conj, t)


class QuantumPermutationFusion(FusionData):
    """Fusion of the quantum permutation group on s >= 4 points.

    Labels are nonnegative integers, m x n = |m-n|, |m-n|+1, ..., m+n, each
    once; dimensions are the even dilated Chebyshev values
    A_{2m}(sqrt(s)) = a_{2m}(s), which are integers.
    """

    def __init__(self, s: int):
        if s < 4:
            raise ValueError("the label set is free only for s >= 4")
        self.s = s

    def trivial(self):
        return 0

    def dim(self, label):
        self.check_label(label)
        return cheb_int_factor(2 * label, self.s)

    def conj(self, label):
        return label

    def tensor(self, a, b):
        self.check_label(a)
        self.check_label(b)
        return {j: 1 for j in range(abs(a - b), a + b + 1)}

    def parse_label(self, text):
        return int(text)

    def check_label(self, label):
        if type(label) is not int or label < 0:
            raise ValueError(f"unknown irreducible label {label!r}")


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
        return cyclic_fusion(1)
    if rest == "integers":
        return IntegersFusion()
    cm = re.match(r"^cyclic:(\d+)$", rest)
    if cm:
        return cyclic_fusion(int(cm.group(1)))
    raise ValueError(f"unknown builtin fusion {rest!r}")


# ---------------------------------------------------------------------------
# words


def parse_letter(text: str, fd: FusionData) -> Label:
    """One typed letter: a label, or with a trailing star its conjugate."""
    text = text.strip()
    starred = text.endswith("*")
    label = fd.parse_label(text[:-1].strip() if starred else text)
    fd.check_label(label)
    return fd.conj(label) if starred else label


def parse_star_list(text: str, fd: FusionData) -> Word:
    """Parse "g,g2*,1" into letters, each read by :func:`parse_letter`.

    Accepts surrounding parentheses and an empty string (or "()") for the
    empty word.
    """
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1].strip()
    if not body:
        return ()
    return tuple(parse_letter(part, fd) for part in body.split(","))


def parse_word(text: str, fd: FusionData) -> Word:
    compact = text.strip()
    if not (compact.startswith("(") and compact.endswith(")")):
        raise ValueError(f"word literal must be parenthesized, got {text!r}")
    return parse_star_list(compact, fd)


def render_word(word: Word, fd: FusionData) -> str:
    return "(" + ",".join(fd.render_label(a) for a in word) + ")"


def conj_word(word: Word, fd: FusionData) -> Word:
    return tuple(fd.conj(a) for a in reversed(word))


def _exponents_and_cuts(word: Word, triv: Label) -> tuple[list, list]:
    """The exponents of :func:`reduce_word` and the cuts around them, in the
    one scan of a word that lists them: exponent i lies between positions
    cuts[i] and cuts[i + 1], each a nontrivial letter or an end."""
    exponents, cuts = [1], [-1]
    for k, a in enumerate(word):
        if a == triv:
            exponents[-1] += 2
        else:
            cuts.append(k)
            exponents.append(2)
    exponents[-1] -= 1
    cuts.append(len(word))
    return exponents, cuts


def reduce_word(word: Word, fd: FusionData) -> tuple[tuple[int, ...], tuple]:
    """The alternating form b^{l1} a1 b^{l2} ... a_{k-1} b^{lk} of a word.

    Returns (exponents, letters): the nontrivial letters in order, and one
    more exponent than letters.  Each trivial letter adds 2 to the exponent
    it sits in.  For a nonempty word the outer exponents are odd and the
    inner ones even and >= 2; a word of trivial letters alone has the one
    exponent 2 * len(word), so the empty word is ((0,), ()).
    """
    exponents, cuts = _exponents_and_cuts(word, fd.trivial())
    return tuple(exponents), tuple(word[k] for k in cuts[1:-1])


# ---------------------------------------------------------------------------
# fusion-ring elements


def tensor_fold(fd: FusionData, factors: Sequence,
                start: dict | None = None) -> dict:
    """Irreducible multiplicities of the tensor product of the factors, in order.

    A factor is a label->multiplicity dict; a bare label stands for {label: 1}.
    The product is taken on the right of ``start``, a label->multiplicity
    dict, or of the trivial representation.
    """
    acc = {fd.trivial(): 1} if start is None else start
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


def rep_as_dict(fd: FusionData, rep) -> dict:
    """Accept a bare label or a label->multiplicity dict."""
    if isinstance(rep, dict):
        for label, m in rep.items():
            fd.check_label(label)
            if m < 0:
                raise ValueError(f"negative multiplicity for {label!r}")
        return {a: m for a, m in rep.items() if m}
    fd.check_label(rep)
    return {rep: 1}


# ---------------------------------------------------------------------------
# fusion of words


def fuse(x: Word, y: Word, fd: FusionData, method: str = "direct") -> dict:
    """Decompose the tensor product of two word representations.

    Returns a dict from each constituent word to its positive multiplicity.
    method="direct" uses the closed splitting formula; method="free-product"
    applies the free-product rule to the reduced words; both agree, and each
    checks the letters once.
    """
    if method == "direct":
        return fuse_direct(x, y, fd)
    if method == "free-product":
        return fuse_via_reduced(x, y, fd)
    raise ValueError(f"unknown fusion method {method!r}")


def fuse_direct(x: Word, y: Word, fd: FusionData) -> dict:
    """The closed splitting formula over the cuts x = u.t, y = conj(t).v.

    Cut c is valid when conj(x[-s]) = y[s-1] for every s <= c, so the valid
    cuts run from 0 up to the first mismatch, one conjugate each.  No word
    comes twice (see :func:`fused_letters`), so each is set once.
    """
    for letter in x + y:
        fd.check_label(letter)
    out: dict = {}
    for cut in range(_cut_count(x, y, fd)):
        u, v = x[:len(x) - cut], y[cut:]
        out[u + v] = 1
        if u and v:
            for gamma, mult in fd.tensor(u[-1], v[0]).items():
                if mult:
                    out[u[:-1] + (gamma,) + v[1:]] = mult
    return out


def _cut_count(x: Word, y: Word, fd: FusionData) -> int:
    """The valid cuts of :func:`fuse_direct`, one conjugate looked up each:
    cut c is valid when conj(x[-s]) = y[s-1] for every s <= c."""
    cut, top = 0, min(len(x), len(y))
    while cut < top and fd.conj(x[-cut - 1]) == y[cut]:
        cut += 1
    return cut + 1


def fused_letters(x: Word, y: Word, fd: FusionData) -> int:
    """The letters of the distinct words x tensor y decomposes into, counted
    before any is built, so that a command can refuse a long product.

    The valid cut c gives the concatenation, of len(x) + len(y) - 2c letters,
    and, while both sides keep a letter, one word of a letter fewer per
    constituent of the boundary product.  The lengths differ between cuts,
    so no word comes twice and the count is exact.
    """
    size = len(x) + len(y)
    letters = 0
    for cut in range(_cut_count(x, y, fd)):
        letters += size - 2 * cut
        if cut < len(x) and cut < len(y):
            letters += (size - 2 * cut - 1) * len(fd.tensor(x[-cut - 1],
                                                            y[cut]))
    return letters


def fuse_via_reduced(x: Word, y: Word, fd: FusionData) -> dict:
    """The free-product rule on the reduced forms, one boundary product a step.

    The boundary exponents give b^p x b^q = b^|p-q| + b^(|p-q|+2) + ... +
    b^(p+q); the boundary letters of G give fd.tensor(a, c).  The trivial
    constituent, present once when p = q or c = conj(a), drops both boundary
    letters and exposes the next pair.  The others are cut from the inputs:
    with u the rest of x up to its last letter and v the rest of y from its
    first, b^r gives u, (r - ends) // 2 trivial letters, v, where ends
    counts the nonempty ones, and a letter c gives u[:-1], c, v[1:].  Each
    word is read once, for its exponents and its nontrivial letters'
    positions, and no constituent comes twice, so each is set once.
    """
    for letter in x + y:
        fd.check_label(letter)
    triv = fd.trivial()
    xe, xcut = _exponents_and_cuts(x, triv)
    ye, ycut = _exponents_and_cuts(y, triv)
    out: dict = {}
    i, j = len(xe) - 1, 0
    while True:
        p, q = xe[i], ye[j]
        u, v = x[:xcut[i] + 1], y[ycut[j + 1]:]
        ends = bool(u) + bool(v)
        for r in range(abs(p - q) or 2, p + q + 1, 2):  # r = 0 is trivial
            out[u + (triv,) * ((r - ends) // 2) + v] = 1
        if p != q:
            return out
        if not (u and v):
            # by parity both words are used up here, leaving the empty word
            out[()] = 1
            return out
        prod = fd.tensor(u[-1], v[0])
        for c, m in prod.items():
            if c != triv and m:
                out[u[:-1] + (c,) + v[1:]] = m
        if not prod.get(triv):
            return out
        i, j = i - 1, j + 1


def sort_words(words: dict, fd: FusionData) -> list[tuple[Word, int]]:
    """The (word, multiplicity) items of a word->multiplicity dict in a
    deterministic presentation order: by length, then rendered letters.

    Each distinct label is rendered once per call.
    """
    text = _Memo(fd.render_label).__getitem__
    return sorted(words.items(),
                  key=lambda kv: (len(kv[0]), tuple(map(text, kv[0]))))


# ---------------------------------------------------------------------------
# dimensions


def _check_word_n(n: int) -> None:
    if n < 4:
        raise ValueError(f"word dimensions need N >= 4, got N={n}")


def dim_wreath(word: Word, fd: FusionData, n: int) -> int:
    """prod dim(letters) * prod A_l(sqrt(N)) over the reduced exponents.

    That is N**(odd // 2) * prod dim(letters) * prod a_l(N), the 0 or 2 odd
    exponents giving one sqrt(N) each, and it holds for N >= 4 only.  It is
    taken in one scan of the word, no reduced form built: a trivial letter
    adds 2 to the running exponent, and a nontrivial letter a closes it,
    multiplying in dim(a) * a_e(N), and opens the next at 2.  The last
    exponent is closed at the end, one less; the outer two are odd, and
    their sqrt(N)s make N, exactly when a nontrivial letter was read.
    """
    _check_word_n(n)
    triv, dim = fd.trivial(), fd.dim
    value, e, root = 1, 1, 1
    for a in word:
        if a == triv:
            e += 2
        else:
            value *= dim(a) * cheb_int_factor(e, n)
            e, root = 2, n
    return value * root * cheb_int_factor(e - 1, n)


def verify_dim_multiplicativity(fd: FusionData, n: int, rng, count: int):
    """Check dim(x) dim(y) = sum of dims over x tensor y on count random pairs.

    Each pair draws x, then y, as words of length 0..3 over the finite label
    set, from ``rng`` (a random.Random); the check stops at the first failure
    and names it as (x, y, lhs, rhs).  An infinite table, N < 4, a negative
    count and a count above the entry cap are refused, in that order, before
    the first pair.
    """
    # imported here, so the commands that only fuse or measure words load no
    # report layer
    from .report import VerificationReport

    labels = fd.labels()
    if labels is None:
        raise ValueError("fusion-dim needs a finite fusion table")
    _check_word_n(n)
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    check_work_cap(count, "checking {} random products")
    report = VerificationReport(f"dimension multiplicativity N={n}")
    description = f"{count} random products have multiplicative dimension"
    for _ in range(count):
        x = tuple(rng.choice(labels) for _ in range(rng.randrange(4)))
        y = tuple(rng.choice(labels) for _ in range(rng.randrange(4)))
        lhs = dim_wreath(x, fd, n) * dim_wreath(y, fd, n)
        rhs = sum(m * dim_wreath(w, fd, n) for w, m in fuse(x, y, fd).items())
        if lhs != rhs:
            report.add(description, False, f"first failure {(x, y, lhs, rhs)}")
            return report
    report.add(description, True)
    return report


def char_poly_products(word: Word, fd: FusionData) -> int:
    """The coefficient pairs :func:`central_char_poly` hands ``poly_mul`` on
    word: a product of degree d times A_e is (d + 1)(e + 1) pairs, a bound on
    the products taken, since only the nonzero pairs are multiplied."""
    products = degree = 0
    for e in _exponents_and_cuts(word, fd.trivial())[0]:
        products += (degree + 1) * (e + 1)
        degree += e
    return products


def central_char_poly(word: Word, fd: FusionData) -> tuple[int, ...]:
    """Coefficients (low degree first) of the central character polynomial.

    The product prod dim(a_i) * prod A_{l_i}(sqrt(X)) only involves even
    powers of sqrt(X) because the exponent sum is even, so it is an integer
    polynomial in X; evaluating at X=N recovers dim_wreath.  An unknown
    letter is refused, by its dimension, before any product is taken.
    """
    exponents, cuts = _exponents_and_cuts(word, fd.trivial())
    scalar = 1
    for k in cuts[1:-1]:
        scalar *= fd.dim(word[k])
    poly: tuple[int, ...] = (1,)
    for e in exponents:
        poly = poly_mul(poly, cheb_poly(e))
    poly = tuple(scalar * c for c in poly)
    if any(c for i, c in enumerate(poly) if i % 2):
        raise AssertionError(f"odd powers survived in {poly}")
    return poly_trim(poly[::2])
