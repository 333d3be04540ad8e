"""Character laws: free cumulants, free compound Poisson, classical comparison.

The character of the basic representation r(a) of the free wreath product,
integrated against the Haar state, follows a free compound Poisson law of
rate 1 whose jump distribution is the law of the character of a in G.  Since
characters need not be self-adjoint, moments are indexed by star-words eps
over {1, *}: the eps-moment of x is the state applied to x^{eps_1}...x^{eps_k}.

Three independent computations meet here:

* moment route: the eps-moments of chi(r(a)) are Hom dimensions
  dim Hom(1, r(a)^{eps_1} x ... x r(a)^{eps_k}), delegated to the decorated
  partition count;

* cumulant route: a free compound Poisson law of rate t with jump law mu has
  free cumulants k(eps) = t * m_mu(eps); the moment/cumulant dictionaries are
  converted through the noncrossing partition recursion;

* classical route: for the honest wreath product by the symmetric group on n
  letters the analogous character moments are sums over *all* partitions with
  at most n blocks, checked against a direct group average for Z/2 wr S_3.

The truncated character (a partial sum of t*N of the N diagonal entries)
converges to the free compound Poisson of rate t, whose moments weight each
noncrossing partition by t^{number of blocks}.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable

from .fusion import FusionData
from .homspaces import dim_hom_wreath, tensor_fold
from .partition import Block, Mode, enumerate_partitions

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


def _partition_sum(n: int, mode: Mode,
                   term: Callable[[tuple[Block, ...]], int]):
    """Sum of term(blocks) over the partitions of n points 1..n."""
    return sum(term(p.blocks) for p in enumerate_partitions(0, n, mode=mode))


def _cumulant_product(cumulants: dict, eps: Eps):
    """The term of a partition: prod over its blocks of k(eps|block)."""
    return lambda blocks: math.prod(cumulants[tuple(eps[i - 1] for i in b)]
                                    for b in blocks)


def free_cumulants_to_moments(cumulants: dict) -> dict:
    """Moments from free cumulants: m(eps) = sum over NC of prod k(eps|block).

    Input maps every eps-word with 1 <= |eps| <= max length to its cumulant;
    the output has the same key set.
    """
    return {eps: _partition_sum(len(eps), "noncrossing",
                                _cumulant_product(cumulants, eps))
            for eps in sorted(cumulants, key=len)}


def moments_to_free_cumulants(moments: dict) -> dict:
    """Inverse transform, by induction on word length."""
    cumulants: dict = {}
    for eps in sorted(moments, key=len):
        # the one-block partition's term is the unknown k(eps) itself: count
        # it as 0 in the sum over NC
        cumulants[eps] = 0
        cumulants[eps] = moments[eps] - _partition_sum(
            len(eps), "noncrossing", _cumulant_product(cumulants, eps))
    return cumulants


def compound_poisson_moments(fd: FusionData, rep, max_len: int,
                             rate=1) -> dict:
    """eps-moments of the free compound Poisson with jump law chi_rep.

    Built through the cumulant route: every free cumulant equals rate times
    the matching eps-moment of chi_rep in G.
    """
    cumulants = {}
    for k in range(1, max_len + 1):
        for eps in all_eps(k):
            cumulants[eps] = rate * moment_of_rep(fd, rep, eps)
    return free_cumulants_to_moments(cumulants)


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

    Sum over noncrossing partitions of t^{blocks} * prod block_moment(|B|).
    This is the limit law of the truncated character keeping a fraction t of
    the diagonal, so t must lie in [0, 1].
    """
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")

    def term(blocks):
        return t ** len(blocks) * math.prod(block_moment(len(b))
                                            for b in blocks)

    return _partition_sum(k, "noncrossing", term)


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
    block-count cutoff.
    """
    if n < 0 or k < 0:
        raise ValueError(f"classical moments need n, k >= 0, got n={n}, k={k}")
    if k == 0:
        return Fraction(1)

    def term(blocks):
        if len(blocks) > n:
            return 0
        return math.prod(block_moment(len(b)) for b in blocks)

    return Fraction(_partition_sum(k, "all", term))


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
