"""Character laws: free cumulants, free compound Poisson, classical comparison.

The character of the basic representation r(a) of the free wreath product,
integrated against the Haar state, follows a free compound Poisson law of
rate 1 whose jump distribution is the law of the character of a in G.  Since
characters need not be self-adjoint, moments are indexed by star-words eps
over {1, *}: the eps-moment of x is the state applied to x^{eps_1}...x^{eps_k}.

Three independent computations meet here:

* moment route: the eps-moments of chi(r(a)) are Hom dimensions
  dim Hom(1, r(a)^{eps_1} x ... x r(a)^{eps_k}), delegated to the partition
  route of :mod:`freewreath.homspaces`, whose sum over decorated noncrossing
  partitions runs as the recursion on the first block with trivial
  multiplicities in G as cumulants, all blocks from one start carried as one
  element of the fusion ring of G (the enumeration of those partitions is
  its oracle).  A representation of G is one :mod:`freewreath.fusion` ring
  element, a label->multiplicity dict, and the recursion takes it, or its
  conjugate, as every letter, so a reducible a costs one recursion;

* cumulant route: a free compound Poisson law of rate t with jump law mu has
  free cumulants k(eps) = t * m_mu(eps); the moment/cumulant dictionaries are
  converted by the recursion on the block B that holds the first letter
  (Nica-Speicher, Lectures on the Combinatorics of Free Probability, 2006,
  Lecture 10): m(eps) = sum over B of k(eps|B) times the moments of the gaps
  that B leaves.  That sum over the choices of B is ``_nc_sum`` here; the
  moment route does not use it, so the two routes stay independent.  The
  law is one lazy table, :func:`compound_poisson_law`, that computes a
  moment, and the cumulants its blocks pick out, on first lookup.  On a
  plain word every cumulant depends on the length alone, and the sum
  collapses to a functional equation that ``qnum._plain_moments`` solves in
  O(k^3) products (Lectures 10 and 16), with ``_nc_sum`` as its oracle, for
  :func:`partial_trace_law`, the law at rate t, whose run at t = 1 gives
  every plain order of the untruncated law;

* classical route: for the honest wreath product by the symmetric group on n
  letters the analogous character moments are sums over *all* partitions with
  at most n blocks, computed by a recursion on the number of blocks and
  checked against a direct group average for Z/2 wr S_3.

The truncated character (a partial sum of t*N of the N diagonal entries)
converges to :func:`partial_trace_law`, the free compound Poisson of rate t:
its plain free cumulants are t times the jump moments.

No partition is materialised.  The enumeration cap bounds the longest word
of the transforms that sum over block choices; the plain-word solver, the
Hom route and the classical recursion are bounded by the entry cap on a
closed-form count of their work, checked before the first block moment.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from operator import add, mul
from typing import Callable, Iterable

from .config import _Memo, caps, check_enum_cap, check_work_cap
from .fusion import FusionData, rep_as_dict, tensor_fold
from .homspaces import _boundary_moments, _frozen_letter
from .qnum import _plain_moments

Eps = tuple  # of bools; True marks a starred position


def parse_eps(text: str) -> Eps:
    out = []
    for ch in text.strip():
        if ch == "1":
            out.append(False)
        elif ch == "*":
            out.append(True)
        else:
            raise ValueError(f"eps word may only contain '1' and '*', got {ch!r}")
    return tuple(out)


def render_eps(eps: Eps) -> str:
    return "".join("*" if star else "1" for star in eps)


def all_eps(k: int) -> Iterable[Eps]:
    return itertools.product((False, True), repeat=k)


def plain_eps(k: int) -> Eps:
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return (False,) * k


# ---------------------------------------------------------------------------
# moments of a representation of G itself


def _eps_letters(fd: FusionData, rd: dict, eps: Eps) -> list[dict]:
    """The ring element rd, or at a starred position its conjugate, per letter
    of eps; conjugation is a bijection on labels."""
    rd_bar = {fd.conj(a): m for a, m in rd.items()}
    return [rd_bar if star else rd for star in eps]


def moment_of_rep(fd: FusionData, rep, eps: Eps) -> int:
    """Trivial multiplicity of rep^{eps_1} x ... x rep^{eps_k} inside G.

    This is the eps-moment of the character of rep against the Haar state of
    G, an integer.
    """
    return tensor_fold(fd, _eps_letters(fd, rep_as_dict(fd, rep), eps)).get(
        fd.trivial(), 0)


# ---------------------------------------------------------------------------
# noncrossing moment/cumulant transforms on eps-indexed families


def _nc_sum(cumulants, moments, word: tuple):
    """Sum over NC(|word|) of prod over blocks of cumulants[word|block].

    The noncrossing partitions are grouped by the block B that holds the first
    letter.  The letters strictly between two points of B, or after its last
    point, form a gap; no other block crosses B, so the rest of the partition
    is any noncrossing partition of each gap, and the gaps contribute their
    moments: the sum is that of k(word|B) * prod m(gap) over the 2^(|word|-1)
    choices of B (Nica-Speicher, Lectures on the Combinatorics of Free
    Probability, 2006, Lecture 10).  ``moments`` must hold, or compute on
    lookup, every contiguous subword shorter than word.
    """
    n = len(word)
    if n == 0:
        return 1  # the empty partition, which has no first block
    total = 0
    for size in range(n):
        for rest in itertools.combinations(range(1, n), size):
            block = (0, *rest)
            term = cumulants[tuple(word[i] for i in block)]
            for a, b in zip(block, (*rest, n)):
                if b > a + 1:
                    term *= moments[word[a + 1:b]]
            total += term
    return total


def _nc_moments(cumulants) -> _Memo:
    """The moments of the free cumulants (a dict, or a :class:`_Memo` that
    computes them), each computed on lookup as its :func:`_nc_sum` and kept."""
    moments = _Memo(lambda word: _nc_sum(cumulants, moments, word))
    return moments


def _plain_work(k: int, bits: int) -> int:
    """A bound on the work of :func:`_plain_moments` to order k and on the
    digits of its k moments, when every integer it meets at order n has at
    most n * bits bits.

    Step n makes at most n(n+1)/2 products, and a product weighs one plus
    the 64-bit words of its larger operand, at most 1 + n * bits / 64; the
    sums of these over n are closed forms.  The moment of order n prints at
    most 2 n bits digits, numerator and denominator.
    """
    return (k * (k + 1) * (k + 2) // 6
            + bits * k * (k + 1) * (k + 2) * (3 * k + 1) // 1536
            + bits * k * (k + 1))


def _block_moments(block_moment: Callable[[int], int], k: int,
                   work: Callable[[int], int]) -> list[int]:
    """block_moment(s) for 1 <= s <= k, which must be integers.

    The cap is checked on work(e) before the first, with e = 0, and after the
    last, with the least e such that |block_moment(s)| < 2^(e s) for every s:
    a count that is over the cap whatever the block moments is refused before
    any is taken.
    """
    what = f"{{}} steps for the moments to order {k}"
    check_work_cap(work(0), what)
    beta = [block_moment(s) for s in range(1, k + 1)]
    e = max((-(-x.bit_length() // s) for s, x in enumerate(beta, 1)),
            default=0)
    check_work_cap(work(e), what)
    return beta


def free_cumulants_to_moments(cumulants: dict) -> dict:
    """Moments from free cumulants: m(eps) = sum over NC of prod k(eps|block).

    Input maps every eps-word with 1 <= |eps| <= max length to its cumulant;
    the output has the same key set.  Words are taken by increasing length, so
    each first-block sum finds the moments of its gaps already computed.
    """
    check_enum_cap(max(map(len, cumulants), default=0))
    moments = _nc_moments(cumulants)
    return {eps: moments[eps] for eps in sorted(cumulants, key=len)}


def moments_to_free_cumulants(moments: dict) -> dict:
    """Inverse transform, by induction on word length.

    In the first-block sum for eps, the block of all letters contributes the
    unknown k(eps) itself; it is counted as 0 and k(eps) is what remains of
    m(eps).
    """
    check_enum_cap(max(map(len, moments), default=0))
    cumulants: dict = {}
    for eps in sorted(moments, key=len):
        cumulants[eps] = 0
        cumulants[eps] = moments[eps] - _nc_sum(cumulants, moments, eps)
    return cumulants


def compound_poisson_law(fd: FusionData, rep) -> _Memo:
    """eps-moments of the free compound Poisson with jump law chi_rep, lazily.

    Built through the cumulant route: every free cumulant equals the
    matching eps-moment of chi_rep in G.  Looking up eps asks only for the
    moments of its contiguous subwords and for the cumulants of the
    sub-sequences that its blocks pick out.  A lookup checks no cap, so the
    caller checks it on its longest word first.
    """
    return _nc_moments(_Memo(lambda eps: moment_of_rep(fd, rep, eps)))


def compound_poisson_moments(fd: FusionData, rep, max_len: int) -> dict:
    """The eps-moments of :func:`compound_poisson_law` up to length max_len.

    A negative max_len is refused, then the cap checked on it, before any
    moment of G is computed.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    check_enum_cap(max_len)
    law = compound_poisson_law(fd, rep)
    return {eps: law[eps] for k in range(1, max_len + 1) for eps in all_eps(k)}


# ---------------------------------------------------------------------------
# character moments of the wreath product, via Hom spaces


def _dim_width(fd: FusionData, rd: dict, n: int) -> tuple[int, int]:
    """(d, w): the dimension d of rd, and a bound w on the labels of a product
    of at most n letters that are rd or its conjugate: one if d is one, else
    the label count of a finite ring, else d^n, which past the cap's bit
    length exceeds the cap, as every count it enters does."""
    d = sum(m * fd.dim(a) for a, m in rd.items())
    labels = fd.labels()
    return d, (1 if d == 1 else len(labels) if labels is not None
               else d ** min(n, caps()[1].bit_length()))


def _hom_work(w: int, r: int, n: int) -> int:
    """A bound on the steps of the Hom route, ``_boundary_moments``, on one
    word of n letters, whose letters have r constituents and whose products
    have at most w labels, from a cold cache: at most w r n(n-1)/2 tensor
    calls, w (n^3-n)/6 additions into the carried elements and
    n(n+1)(n+2)/6 updates of its moment rows.  Rows kept from earlier words
    only lower the count.
    """
    return (w * (n ** 3 - n) // 6 + n * (n + 1) * (n + 2) // 6
            + w * r * n * (n - 1) // 2)


def _check_hom_work(fd: FusionData, rd: dict, n: int) -> None:
    """The cap on the Hom route's steps on one word of n letters rd or its
    conjugate."""
    w, r = _dim_width(fd, rd, n)[1], len(rd)
    check_work_cap(_hom_work(w, r, n), f"{{}} steps for a word of length {n}")


def character_moment_wreath(fd: FusionData, rep, eps: Eps) -> int:
    """eps-moment of the character of the basic representation r(rep).

    Computed as dim Hom(1, r^{eps_1} x ... x r^{eps_k}) by the first-block
    recursion of the partition route, with the ring element rep, or at a
    starred position its conjugate, as every letter: the conjugate of the
    basic representation r(a) is r(conj a), and the count is linear in each
    letter.  The cap is checked on the recursion's steps first.
    """
    rd = rep_as_dict(fd, rep)
    _check_hom_work(fd, rd, len(eps))
    return _boundary_moments(
        fd, tuple(map(_frozen_letter, _eps_letters(fd, rd, eps))))[-1]


def plain_character_moments(fd: FusionData, rep, k: int) -> list[int]:
    """The plain moments of orders 0..k of the character of r(rep).

    One run of the Hom route, :func:`character_moment_wreath`'s, on the
    plain word of k letters: the sum it makes for every prefix is the
    moment of that order.  k < 0 is refused, then the run's steps capped.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    rd = rep_as_dict(fd, rep)
    _check_hom_work(fd, rd, k)
    return list(_boundary_moments(fd, (_frozen_letter(rd),) * k))


def char_law_work(fd: FusionData, rep, k: int) -> int:
    """A bound on the work of the plain moments of orders 1..k by both
    routes, and on their digits.

    The Hom route runs once, on the word of k letters, bounded as from a
    cold cache (see :func:`plain_character_moments` and :func:`_hom_work`),
    and the cumulant route is :func:`partial_trace_law` at t = 1: it takes
    the block moments, at most w r s tensor calls for the s-th, then solves
    for the moments, and the block moment of s letters is at most
    d^s < 2^(s bitlen(d)).
    """
    rd = rep_as_dict(fd, rep)
    (d, w), r = _dim_width(fd, rd, k), len(rd)
    return (_hom_work(w, r, k) + w * r * k * (k + 1) // 2
            + _plain_work(k, 4 + d.bit_length()))


# ---------------------------------------------------------------------------
# truncated characters


def partial_trace_law(t, block_moment: Callable[[int], int],
                      k: int) -> list[Fraction]:
    """The plain moments m_0, ..., m_k of the rate-t free compound Poisson law.

    The limit law of the truncated character keeping a fraction t of the
    diagonal, so t lies in [0, 1]; its free cumulant at a plain word of
    length s is t * block_moment(s).  With t = a/b the scaled moments
    b^n m_n solve the same functional equation with the integer cumulants
    a block_moment(s) b^(s-1), so :func:`_plain_moments` runs on integers.
    t and k are checked first, then the cap on the solver's work (see
    :func:`_block_moments`): with |block_moment(s)| < 2^(e s), every integer
    at order n has at most n (3 + e + bitlen(b)) bits, since fewer than 4^n
    noncrossing partitions add up in b^n m_n and a power of its series sums
    fewer than 2^n of their products.
    """
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    a, b = t.numerator, t.denominator
    beta = _block_moments(block_moment, k,
                          lambda e: _plain_work(k, 3 + e + b.bit_length()))
    scaled = _plain_moments(lambda s: a * beta[s - 1] * b ** (s - 1))
    return [Fraction(m, b ** n) for n, m in zip(range(k + 1), scaled)]


def partial_trace_moments(t, block_moment: Callable[[int], int],
                          k: int) -> Fraction:
    """k-th moment of :func:`partial_trace_law`, after its checks."""
    return partial_trace_law(t, block_moment, k)[k]


def rep_block_moment(fd: FusionData, rep) -> Callable[[int], int]:
    """Self-adjoint block moments j -> trivial mult of rep^{x j}."""
    def moment(j: int) -> int:
        return moment_of_rep(fd, rep, plain_eps(j))
    return moment


# ---------------------------------------------------------------------------
# classical wreath products


def _classical_work(n: int, k: int, e: int) -> int:
    """A bound on the products of :func:`classical_wreath_moments` and on the
    digits of its moments, with |block_moment(s)| < 2^(e s).

    The table of C(m-1, s-1) block_moment(s) and each of the min(n, k)
    passes make m products at m points, every operand below
    2^(m (1 + e + bitlen(k))): a sum over fewer than m^m set partitions, or a
    binomial below 2^m times a block moment.  Each product weighs one plus
    its 64-bit words, as in :func:`_plain_work`.
    """
    bits = 1 + e + k.bit_length()
    per_pass = (k * (k + 1) // 2
                + bits * k * (k + 1) * (2 * k + 1) // 384)
    return (min(n, k) + 1) * per_pass + bits * k * (k + 1) // 2


def classical_wreath_moments(block_moment: Callable[[int], int], n: int,
                             k: int) -> list[Fraction]:
    """Character moments 0..k of the classical wreath product by S_n.

    Sum over *all* partitions of k points with at most n blocks of the product
    of block moments; the symmetric-group average contributes exactly the
    block-count cutoff.  Let a_j(m) be that sum over the partitions of m
    points into exactly j blocks.  The block of the last point has some size
    s, and C(m-1, s-1) ways to pick its other points, so
    a_j(m) = sum over s of C(m-1, s-1) * block_moment(s) * a_{j-1}(m-s);
    the moment is the sum of a_j(k) over j <= n.  The cap is checked on
    :func:`_classical_work` as in :func:`_block_moments`.
    """
    if n < 0 or k < 0:
        raise ValueError(f"classical moments need n, k >= 0, got n={n}, k={k}")
    beta = _block_moments(block_moment, k,
                          lambda e: _classical_work(n, k, e))
    # the block of the last of m points, by its size s
    weights = [[comb(m - 1, s - 1) * beta[s - 1] for s in range(1, m + 1)]
               for m in range(k + 1)]
    row = [1] + [0] * k  # a_0(m)
    totals = row
    for _ in range(min(n, k)):  # a_j vanishes for j > k
        row = [sum(map(mul, weights[m], reversed(row[:m])))
               for m in range(k + 1)]
        totals = list(map(add, totals, row))
    return [Fraction(x) for x in totals]


def classical_wreath_moment(block_moment: Callable[[int], int], n: int,
                            k: int) -> Fraction:
    """k-th moment of :func:`classical_wreath_moments`."""
    return classical_wreath_moments(block_moment, n, k)[k]


def brute_force_z2_s3_moments(rep: str, max_k: int) -> list[Fraction]:
    """Character moments of Z/2 wr S_3 averaged over all 48 group elements.

    rep "sign": the 3-dimensional signed permutation representation twisted
    by the sign character of Z/2, trace = sum of +-1 over fixed points.
    rep "regular": the 6-dimensional permutation representation on the signed
    set {+-1, +-2, +-3}, trace = sum over fixed points of 2 * [sign part is 0].
    Returns [m_0, ..., m_max_k].
    """
    if rep not in ("sign", "regular"):
        raise ValueError(f"unknown representation {rep!r}")
    chars = []
    for sigma in itertools.permutations(range(3)):
        fixed = [j for j in range(3) if sigma[j] == j]
        for signs in itertools.product((0, 1), repeat=3):
            if rep == "sign":
                chi = sum(1 if signs[j] == 0 else -1 for j in fixed)
            else:
                chi = sum(2 for j in fixed if signs[j] == 0)
            chars.append(chi)
    assert len(chars) == 48
    return [Fraction(sum(c ** k for c in chars), 48) for k in range(max_k + 1)]


def z2_block_moment(rep: str) -> Callable[[int], int]:
    """Block moments of the corresponding character law on Z/2.

    "sign": the sign character, j-th moment 1 for even j, 0 for odd.
    "regular": the regular character (2 at identity, 0 at the flip),
    j-th moment 2^{j-1}.
    """
    if rep == "sign":
        return lambda j: 1 if j % 2 == 0 else 0
    if rep == "regular":
        return lambda j: 2 ** (j - 1)
    raise ValueError(f"unknown representation {rep!r}")
