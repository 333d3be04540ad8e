"""Temperley-Lieb diagrams and the collapsing map onto noncrossing partitions.

A diagram in TL(a, b) is a noncrossing perfect matching of a upper and b lower
points, drawn in a box; a+b must be even.  Points are numbered as in
:mod:`freewreath.partition`: 1..a on top left to right, a+1..a+b on the bottom
left to right, and the boundary circle runs top left-to-right then bottom
right-to-left, so the wrap gap is the left edge of the box.

Composition glues boxes vertically; every strand closed in the middle becomes
a loop worth sqrt(N), so D compose E = N^{loops/2} times a diagram.  The
Markov trace equals sqrt(N)^{closed curves of the full closure}, counted by
the union-find of the closure; closing strand by strand from the right
(partial_close, one step as conditional expectation to one fewer strand)
gives the same count.

The collapsing map identifies the upper points in consecutive pairs
(1,2),(3,4),... and likewise below, sending TL(2k, 2l) onto the noncrossing
partitions NC(k, l); fattening is its right inverse (draw the boundary of a
thickened block).  Shading the box regions starting white at the left edge and
alternating across strands, br(D) counts the black regions; equivalently a
strand at even nesting depth from the left-edge cut contributes one black
region (its region lies at odd tree depth).  The rescaled collapse

    phi(D) = N^{(k+l)/4 - br(D)/2} c(D)

is a trace-preserving tensor-* isomorphism; its coefficients are quarter
powers of N, so scaled diagrams carry the exponent in quarter units.  Every
scalar here is a power of sqrt(N) and is kept as its integer exponent; only
``sqrt_power`` turns one into a number, for display.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .config import check_enum_cap
from .partition import (ComposeResult, Partition, _from_labels, _merge,
                        _position_to_point)
from .report import VerificationReport

Pair = tuple[int, int]


def _canonical_pairs(pairs) -> tuple[Pair, ...]:
    return tuple(sorted(tuple(sorted(pr)) for pr in pairs))


@dataclass(frozen=True)
class TLDiagram:
    upper: int
    lower: int
    pairs: tuple[Pair, ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", _canonical_pairs(self.pairs))
        n = self.upper + self.lower
        if n % 2:
            raise ValueError("a Temperley-Lieb diagram needs an even point count")
        flat = sorted(pt for pr in self.pairs for pt in pr)
        if flat != list(range(1, n + 1)):
            raise ValueError(f"pairs {self.pairs} are not a perfect matching of 1..{n}")
        if not self.as_partition().is_noncrossing():
            raise ValueError(f"pairs {self.pairs} cross")

    @property
    def points(self) -> int:
        return self.upper + self.lower

    def as_partition(self) -> Partition:
        return Partition(self.upper, self.lower, self.pairs)

    def strands(self) -> int:
        return len(self.pairs)

    def tensor(self, other: "TLDiagram") -> "TLDiagram":
        p = self.as_partition().tensor(other.as_partition())
        return TLDiagram(p.upper, p.lower, p.blocks)

    def involute(self) -> "TLDiagram":
        p = self.as_partition().involute()
        return TLDiagram(p.upper, p.lower, p.blocks)

    def render(self) -> str:
        body = "".join(f"({a},{b})" for a, b in self.pairs)
        return f"TL({self.upper},{self.lower}): {body}"

    __str__ = render

    def __repr__(self):
        return f"TLDiagram({self.render()})"


_TL_LITERAL = re.compile(r"^TL\((?P<a>\d+),(?P<b>\d+)\):(?P<pairs>(\(\d+,\d+\))*)$")


def parse_tl(text: str) -> TLDiagram:
    compact = re.sub(r"\s+", "", text)
    m = _TL_LITERAL.match(compact)
    if not m:
        raise ValueError(f"cannot parse {text!r} as a TL diagram literal")
    pairs = [tuple(int(x) for x in pr.split(","))
             for pr in re.findall(r"\((\d+,\d+)\)", m.group("pairs"))]
    return TLDiagram(int(m.group("a")), int(m.group("b")), pairs)


def tl_identity(k: int) -> TLDiagram:
    return TLDiagram(k, k, [(i, k + i) for i in range(1, k + 1)])


def cap() -> TLDiagram:
    """The single lower arc in TL(0,2)."""
    return TLDiagram(0, 2, [(1, 2)])


def cup() -> TLDiagram:
    """The single upper arc in TL(2,0)."""
    return TLDiagram(2, 0, [(1, 2)])


@cache
def _matching_shapes(n: int) -> tuple[tuple[Pair, ...], ...]:
    """Noncrossing perfect matchings of linear positions 0..n-1."""
    if n % 2:
        return ()
    if n == 0:
        return ((),)
    out = []
    for j in range(1, n, 2):
        inside = _matching_shapes(j - 1)
        outside = _matching_shapes(n - j - 1)
        for ins in inside:
            shifted_in = tuple((a + 1, b + 1) for a, b in ins)
            for outs in outside:
                shifted_out = tuple((a + j + 1, b + j + 1) for a, b in outs)
                out.append(((0, j),) + shifted_in + shifted_out)
    return tuple(out)


def tl_enumerate(a: int, b: int) -> tuple[TLDiagram, ...]:
    """All diagrams in TL(a, b), canonically ordered; empty if a+b is odd."""
    n = a + b
    check_enum_cap(n)
    if n % 2:
        return ()
    conv = _position_to_point(a, b)
    diags = [TLDiagram(a, b, [(conv(x), conv(y)) for x, y in shape])
             for shape in _matching_shapes(n)]
    diags.sort(key=lambda d: d.pairs)
    return tuple(diags)


def tl_compose(bottom: TLDiagram, top: TLDiagram) -> tuple[TLDiagram, int]:
    """(diagram, loops) for the vertical gluing with top above bottom.

    As elements of the algebra at loop value sqrt(N):
    T_bottom . T_top = N^{loops/2} T_diagram.
    """
    res: ComposeResult = bottom.as_partition().compose(top.as_partition())
    p = res.partition
    return TLDiagram(p.upper, p.lower, p.blocks), res.closed_blocks


def partial_close(d: TLDiagram) -> tuple[TLDiagram, int]:
    """Close the last strand of a square diagram: (id tensor cup) . (D tensor id) . (id tensor cap).

    Returns the smaller diagram and the number of loops closed (each worth
    sqrt(N)).
    """
    if d.upper != d.lower:
        raise ValueError("partial closing needs a square diagram")
    if d.upper == 0:
        raise ValueError("nothing to close in TL(0,0)")
    k = d.upper - 1
    top = tl_identity(k).tensor(cap())          # TL(k, k+2)
    mid = d.tensor(tl_identity(1))              # TL(k+2, k+2)
    bot = tl_identity(k).tensor(cup())          # TL(k+2, k)
    step1, loops1 = tl_compose(mid, top)
    step2, loops2 = tl_compose(bot, step1)
    return step2, loops1 + loops2


def markov_trace_exponent(d: TLDiagram) -> int:
    """The exponent of sqrt(N) in the Markov trace of a square diagram.

    The trace is sqrt(N)^{closed curves}: the components of the closure,
    which joins upper point i to lower point i.  A non-square diagram is
    refused with ValueError.
    """
    if d.upper != d.lower:
        raise ValueError("partial closing needs a square diagram")
    return nc_closure_components(d.as_partition())


def sqrt_power(dim: int, exponent: int, as_float: bool = False) -> str | float:
    """sqrt(dim)**exponent for exponent >= 0, as exact text or as a float.

    The text is "c" when the power is an integer, a perfect-square dim folded
    into c, and "0 + c*sqrt(dim)" otherwise.  The float is float(c), times
    float(dim)**0.5 in the second case; past the float range it is inf or
    raises OverflowError.
    """
    if dim < 1:
        raise ValueError(f"N must be a positive integer, got {dim}")
    if exponent < 0:
        raise ValueError(f"negative exponent {exponent}")
    c, odd = dim ** (exponent // 2), exponent % 2
    root = math.isqrt(dim)
    if odd and root * root == dim:
        c, odd = c * root, 0
    if as_float:
        return float(c) * float(dim) ** 0.5 if odd else float(c)
    return f"0 + {c}*sqrt({dim})" if odd else str(c)


# ---------------------------------------------------------------------------
# collapsing and fattening


def collapse(d: TLDiagram) -> Partition:
    """Identify upper points (1,2),(3,4),... and lower points likewise."""
    if d.upper % 2 or d.lower % 2:
        raise ValueError("collapse needs even arities TL(2k, 2l)")
    # the odd points 1, 3, ... stand for the collapsed points in order
    odd = range(1, d.points, 2)
    labels, _ = _merge(d.points, d.pairs + tuple((x, x + 1) for x in odd), odd)
    return _from_labels(d.upper // 2, d.lower // 2, labels)


def _position(upper: int, lower: int, pt: int) -> int:
    """Position of a point on the cut-open boundary circle.

    Positions are 0-based and the wrap gap is the left edge of the picture.
    """
    return pt - 1 if pt <= upper else 2 * upper + lower - pt


def fatten(p: Partition) -> TLDiagram:
    """Boundary of the thickened blocks: the right inverse of collapse.

    Each point doubles into a left and a right copy; walking around a block in
    boundary-circle order, each point's outgoing copy is paired with the next
    point's incoming copy (cyclically), tracing the block's boundary.
    """
    k, l = p.upper, p.lower

    def copies(pt: int) -> tuple[int, int]:
        """(incoming, outgoing) copy in diagram numbering along the traversal."""
        if pt <= k:
            return 2 * pt - 1, 2 * pt
        j = pt - k
        return 2 * k + 2 * j, 2 * k + 2 * j - 1

    pairs = []
    for block in p.blocks:
        cyc = sorted(block, key=lambda pt: _position(k, l, pt))
        m = len(cyc)
        for t in range(m):
            a = copies(cyc[t])[1]
            b = copies(cyc[(t + 1) % m])[0]
            pairs.append((a, b))
    return TLDiagram(2 * k, 2 * l, pairs)


def black_regions(d: TLDiagram) -> int:
    """Number of black regions under the alternating shading.

    With the box cut open at the left edge, the strands form a nesting forest;
    a strand properly contained in an even number of other strands bounds a
    region at odd depth from the white outer region, hence black.
    """
    arcs = [tuple(sorted(_position(d.upper, d.lower, pt) for pt in pair))
            for pair in d.pairs]
    count = 0
    for u, v in arcs:
        depth = sum(1 for x, y in arcs if x < u and v < y)
        if depth % 2 == 0:
            count += 1
    return count


# ---------------------------------------------------------------------------
# scaled noncrossing partitions and the isomorphism


@dataclass(frozen=True)
class ScaledPartition:
    """A noncrossing partition scaled by N^(quarters/4), N kept symbolic."""

    quarters: int
    partition: Partition

    def compose(self, top: "ScaledPartition") -> "ScaledPartition":
        res = self.partition.compose(top.partition)
        return ScaledPartition(self.quarters + top.quarters + 4 * res.closed_blocks,
                               res.partition)

    def tensor(self, other: "ScaledPartition") -> "ScaledPartition":
        return ScaledPartition(self.quarters + other.quarters,
                               self.partition.tensor(other.partition))

    def involute(self) -> "ScaledPartition":
        return ScaledPartition(self.quarters, self.partition.involute())

    def render(self) -> str:
        q = self.quarters
        if q == 0:
            coeff = "1"
        elif q % 4 == 0:
            coeff = f"N^{q // 4}"
        else:
            coeff = f"N^({Fraction(q, 4)})"
        return f"{coeff} * {self.partition.render()}"

    __str__ = render


def phi(d: TLDiagram) -> ScaledPartition:
    """The rescaled collapse N^{(k+l)/4 - br/2} c(D) on TL(2k, 2l)."""
    p = collapse(d)
    quarters = (p.upper + p.lower) - 2 * black_regions(d)
    return ScaledPartition(quarters, p)


def nc_closure_components(p: Partition) -> int:
    """Blocks of a square partition after identifying upper i with lower i."""
    if p.upper != p.lower:
        raise ValueError("closure needs equal arities")
    k = p.upper
    return _merge(2 * k, p.blocks + tuple((i, k + i) for i in range(1, k + 1)),
                  ())[1]


def verify_phi(max_points: int = 6) -> VerificationReport:
    """Check that phi respects compose, tensor, involution, and the traces.

    All identities are checked at the level of exponents of sqrt(N) plus
    partitions, which proves them for every N at once.  Diagrams range over
    all of TL(a,b) with a+b <= max_points (even arities where phi applies).
    """
    if max_points < 0:
        raise ValueError(f"max_points must be nonnegative, got {max_points}")
    rep = VerificationReport(f"collapsing isomorphism up to {max_points} points")
    even_shapes = [(a, b) for a in range(0, max_points + 1, 2)
                   for b in range(0, max_points + 1 - a, 2)]
    even_diags = {sh: tl_enumerate(*sh) for sh in even_shapes}

    checked, failures = 0, 0
    for (k1, m1), tops in even_diags.items():
        for (m2, l2), bottoms in even_diags.items():
            if m2 != m1:
                continue
            for top in tops:
                for bottom in bottoms:
                    checked += 1
                    diag, loops = tl_compose(bottom, top)
                    lhs = ScaledPartition(phi(diag).quarters + 2 * loops,
                                          phi(diag).partition)
                    rhs = phi(bottom).compose(phi(top))
                    if lhs != rhs:
                        failures += 1
    rep.add(f"phi(D . E) = phi(D) . phi(E) on {checked} pairs",
            failures == 0, f"{failures} failures")

    checked, failures = 0, 0
    all_even = [d for diags in even_diags.values() for d in diags]
    for d in all_even:
        for e in all_even:
            if d.points + e.points > max_points:
                continue
            checked += 1
            if phi(d.tensor(e)) != phi(d).tensor(phi(e)):
                failures += 1
    rep.add(f"phi(D tensor E) = phi(D) tensor phi(E) on {checked} pairs",
            failures == 0, f"{failures} failures")

    failures = sum(1 for d in all_even if phi(d.involute()) != phi(d).involute())
    rep.add(f"phi(D*) = phi(D)* on {len(all_even)} diagrams",
            failures == 0, f"{failures} failures")

    checked, failures = 0, 0
    for sh, diags in even_diags.items():
        for d in diags:
            for e in diags:
                checked += 1
                prod, loops = tl_compose(d.involute(), e)
                lhs_exp = loops + markov_trace_exponent(prod)
                sp = phi(d).involute().compose(phi(e))
                if sp.quarters % 2:
                    failures += 1
                    continue
                rhs_exp = sp.quarters // 2 + 2 * nc_closure_components(sp.partition)
                if lhs_exp != rhs_exp:
                    failures += 1
    rep.add("trace isometry tau(D* E) = tau~(phi(D)* phi(E)) "
            f"on {checked} pairs", failures == 0, f"{failures} failures")

    # a fattened block forms a single black region, so br(fatten(p)) counts
    # blocks and phi(fatten(p)) = N^{(k+l-2b(p))/4} p; the scale vanishes
    # exactly on pair partitions
    checked, failures = 0, 0
    from .partition import enumerate_partitions
    for k in range(0, max_points // 2 + 1):
        for l in range(0, max_points // 2 + 1 - k):
            for p in enumerate_partitions(k, l, "noncrossing"):
                checked += 1
                fat = fatten(p)
                quarters = (k + l) - 2 * len(p.blocks)
                if collapse(fat) != p or phi(fat) != ScaledPartition(quarters, p):
                    failures += 1
    rep.add("collapse(fatten(p)) = p and phi(fatten(p)) = "
            f"N^((k+l-2b)/4) p on {checked} partitions",
            failures == 0, f"{failures} failures")
    return rep
