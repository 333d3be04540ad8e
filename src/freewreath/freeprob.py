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
  its oracle);

* cumulant route: a free compound Poisson law of rate t with jump law mu has
  free cumulants k(eps) = t * m_mu(eps); the moment/cumulant dictionaries are
  converted by the recursion on the block B that holds the first letter
  (Nica-Speicher, Lectures on the Combinatorics of Free Probability, 2006,
  Lecture 10): m(eps) = sum over B of k(eps|B) times the moments of the gaps
  that B leaves.  That sum over the choices of B is ``_nc_sum`` here; the
  moment route does not use it, so the two routes stay independent;

* classical route: for the honest wreath product by the symmetric group on n
  letters the analogous character moments are sums over *all* partitions with
  at most n blocks, computed by a recursion on the number of blocks and
  checked against a direct group average for Z/2 wr S_3.

The truncated character (a partial sum of t*N of the N diagonal entries)
converges to the free compound Poisson of rate t: its plain free cumulants
are t times the jump moments.

No partition is materialised.  The enumeration cap bounds the longest word or
order of every transform here, and is checked before any sum is computed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable

from .config import check_enum_cap
from .fusion import FusionData
from .homspaces import dim_hom_wreath, tensor_fold

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
    return (False,) * k


# ---------------------------------------------------------------------------
# moments of a representation of G itself


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


def conj_rep(fd: FusionData, rep: dict) -> dict:
    out: dict = {}
    for a, m in rep.items():
        c = fd.conj(a)
        out[c] = out.get(c, 0) + m
    return out


def moment_of_rep(fd: FusionData, rep, eps: Eps) -> int:
    """Trivial multiplicity of rep^{eps_1} x ... x rep^{eps_k} inside G.

    This is the eps-moment of the character of rep against the Haar state of
    G, an integer.
    """
    rd = rep_as_dict(fd, rep)
    rd_bar = conj_rep(fd, rd)
    return tensor_fold(fd, [rd_bar if star else rd for star in eps]).get(
        fd.trivial(), 0)


# ---------------------------------------------------------------------------
# noncrossing moment/cumulant transforms on eps-indexed families


class _Memo(dict):
    """A dict that computes a missing value as fn(key) and keeps it."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


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


def _nc_moment(cumulant: Callable, word: tuple):
    """_nc_sum of one word, with cumulant(letters) and the moments of its
    contiguous subwords computed on demand and memoised for this call only."""
    cumulants = _Memo(cumulant)
    moments = _Memo(lambda sub: _nc_sum(cumulants, moments, sub))
    return moments[word]


def free_cumulants_to_moments(cumulants: dict) -> dict:
    """Moments from free cumulants: m(eps) = sum over NC of prod k(eps|block).

    Input maps every eps-word with 1 <= |eps| <= max length to its cumulant;
    the output has the same key set.  Words are taken by increasing length, so
    each first-block sum finds the moments of its gaps already computed.
    """
    check_enum_cap(max(map(len, cumulants), default=0))
    moments: dict = {}
    for eps in sorted(cumulants, key=len):
        moments[eps] = _nc_sum(cumulants, moments, eps)
    return moments


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


def compound_poisson_moments(fd: FusionData, rep, max_len: int) -> dict:
    """eps-moments of the free compound Poisson with jump law chi_rep.

    Built through the cumulant route: every free cumulant equals the
    matching eps-moment of chi_rep in G.  The cap is checked on max_len
    before any of those 2^(max_len+1)-2 moments of G is computed.
    """
    check_enum_cap(max_len)
    cumulants = {}
    for k in range(1, max_len + 1):
        for eps in all_eps(k):
            cumulants[eps] = moment_of_rep(fd, rep, eps)
    return free_cumulants_to_moments(cumulants)


def compound_poisson_moment(fd: FusionData, rep, eps: Eps) -> int:
    """The eps-moment of the free compound Poisson with jump law chi_rep.

    The same value as ``compound_poisson_moments(fd, rep, len(eps))[eps]``,
    but the first-block sum only asks for the moments of the contiguous
    subwords of eps and for the cumulants, moments of chi_rep in G, of the
    sub-sequences that its blocks pick out.
    """
    check_enum_cap(len(eps))
    return _nc_moment(lambda sub: moment_of_rep(fd, rep, sub), tuple(eps))


# ---------------------------------------------------------------------------
# character moments of the wreath product, via Hom spaces


def character_moment_wreath(fd: FusionData, rep, eps: Eps) -> int:
    """eps-moment of the character of the basic representation r(rep).

    Computed as dim Hom(1, r^{eps_1} x ... x r^{eps_k}) through the decorated
    partition count, expanding a reducible rep over the tensor positions.
    The conjugate of the basic representation r(a) is r(conj a).
    """
    rd = rep_as_dict(fd, rep)
    rd_bar = conj_rep(fd, rd)
    per_position = [sorted((rd_bar if star else rd).items(),
                           key=lambda kv: str(kv[0])) for star in eps]
    total = 0
    for choices in itertools.product(*per_position):
        weight = 1
        for _, m in choices:
            weight *= m
        letters = tuple(a for a, _ in choices)
        total += weight * dim_hom_wreath((), letters, fd, method="partition")
    return total


def character_moments_wreath(fd: FusionData, rep, max_len: int) -> dict:
    return {eps: character_moment_wreath(fd, rep, eps)
            for k in range(1, max_len + 1) for eps in all_eps(k)}


# ---------------------------------------------------------------------------
# truncated characters


def partial_trace_moments(t, block_moment: Callable[[int], int],
                          k: int) -> Fraction:
    """k-th moment of the rate-t free compound Poisson with the given jump moments.

    Its plain free cumulants are t * block_moment(s), so the moment comes
    from the first-block recursion of :func:`free_cumulants_to_moments`.
    This is the limit law of the truncated character keeping a fraction t of
    the diagonal, so t must lie in [0, 1].
    """
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if k == 0:
        return Fraction(1)
    cumulants = {plain_eps(s): t * block_moment(s) for s in range(1, k + 1)}
    return free_cumulants_to_moments(cumulants)[plain_eps(k)]


def rep_block_moment(fd: FusionData, rep) -> Callable[[int], int]:
    """Self-adjoint block moments j -> trivial mult of rep^{x j}."""
    def moment(j: int) -> int:
        return moment_of_rep(fd, rep, plain_eps(j))
    return moment


# ---------------------------------------------------------------------------
# classical wreath products


def classical_wreath_moment(block_moment: Callable[[int], int], n: int,
                            k: int) -> Fraction:
    """k-th character moment of the classical wreath product by S_n.

    Sum over *all* partitions of k points with at most n blocks of the product
    of block moments; the symmetric-group average contributes exactly the
    block-count cutoff.  Let a_j(m) be that sum over the partitions of m
    points into exactly j blocks.  The block of the last point has some size
    s, and C(m-1, s-1) ways to pick its other points, so
    a_j(m) = sum over s of C(m-1, s-1) * block_moment(s) * a_{j-1}(m-s);
    the moment is the sum of a_j(k) over j <= n.
    """
    if n < 0 or k < 0:
        raise ValueError(f"classical moments need n, k >= 0, got n={n}, k={k}")
    check_enum_cap(k)
    beta = {s: block_moment(s) for s in range(1, k + 1)}
    row = [1] + [0] * k  # a_0(m)
    total = row[k]
    for _ in range(min(n, k)):  # a_j vanishes for j > k
        row = [sum(math.comb(m - 1, s - 1) * beta[s] * row[m - s]
                   for s in range(1, m + 1)) for m in range(k + 1)]
        total += row[k]
    return Fraction(total)


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
