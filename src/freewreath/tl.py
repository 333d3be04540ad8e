"""Temperley-Lieb diagrams and the collapsing map onto noncrossing partitions.

A diagram in TL(a, b) is a noncrossing perfect matching of a upper and b lower
points, drawn in a box, held as a :class:`Partition` into pairs; a+b must be
even; ``tl_enumerate`` lists them as the "pairings" category of
:func:`~freewreath.partition.enumerate_partitions`.  Diagrams from outside
(literals, fattenings) are checked; computed ones are built unchecked from
their labels, unless an operand is a plain partition.  Points are numbered as
in :mod:`freewreath.partition`: 1..a on top left to right, a+1..a+b on the
bottom left to right, and the boundary circle runs top left-to-right then
bottom right-to-left, so the wrap gap is the left edge of the box.

Composition glues boxes vertically; every strand closed in the middle becomes
a loop worth sqrt(N), so D compose E = N^{loops/2} times a diagram.  The
Markov trace equals sqrt(N)^{closed curves of the full closure}, counted by
the union-find of the closure.  That one closure count takes any square
partition, so it also gives Tr(T_p) = N^count on the partition side below.

The collapsing map identifies the upper points in consecutive pairs
(1,2),(3,4),... and likewise below, sending TL(2k, 2l) onto the noncrossing
partitions NC(k, l); fattening is its right inverse (draw the boundary of a
thickened block).  Shading the box regions starting white at the left edge and
alternating across strands, br(D) counts the black regions; equivalently a
strand at even nesting depth from the left-edge cut, read in one pass,
contributes one black region (at odd tree depth).  The rescaled collapse

    phi(D) = N^{(k+l)/4 - br(D)/2} c(D)

is a trace-preserving tensor-* isomorphism; its coefficients are quarter
powers of N, so ``phi`` returns the plain pair (partition, quarters), and the
scaled algebra is exponent arithmetic on the partition operations: a
composite adds both quarters and 4 per closed block, a tensor product adds
them, the involution keeps them.  Every scalar here is a power of N or
sqrt(N) and is kept as its integer exponent; only ``sqrt_power`` and
``render_scaled`` turn one into a number or text, for display.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .config import check_work_cap
from .partition import (Partition, _circle, _from_labels, _merge,
                        enumerate_partitions)
from .report import VerificationReport


class TLDiagram(Partition):
    """A noncrossing partition whose blocks are pairs."""

    __slots__ = ()

    def __init__(self, upper: int, lower: int, blocks):
        # the matching checks come first, so a bad diagram gets their message
        n = upper + lower
        if n % 2:
            raise ValueError("a Temperley-Lieb diagram needs an even point count")
        pairs = tuple(sorted(tuple(sorted(pr)) for pr in blocks))
        flat = sorted(pt for pr in pairs for pt in pr)
        if flat != list(range(1, n + 1)) or any(len(pr) != 2 for pr in pairs):
            raise ValueError(f"pairs {pairs} are not a perfect matching of 1..{n}")
        super().__init__(upper, lower, pairs)
        if not self.is_noncrossing():
            raise ValueError(f"pairs {self.blocks} cross")

    def tensor(self, other: "TLDiagram") -> "TLDiagram":
        return _diagram(super().tensor(other), other)

    def involute(self) -> "TLDiagram":
        return _diagram(super().involute(), self)

    def render(self) -> str:
        body = "".join(f"({a},{b})" for a, b in self.blocks)
        return f"TL({self.upper},{self.lower}): {body}"

    __str__ = render

    def __repr__(self):
        return f"TLDiagram({self.render()})"


def _diagram(p: Partition, *operands: Partition) -> TLDiagram:
    """p as a diagram, unchecked only when every operand is a diagram."""
    if all(isinstance(d, TLDiagram) for d in operands):
        return _from_labels(p.upper, p.lower, p.labels, TLDiagram)
    return TLDiagram(p.upper, p.lower, p.blocks)


_TL_LITERAL = re.compile(r"^TL\((?P<a>\d+),(?P<b>\d+)\):(?P<pairs>(\(\d+,\d+\))*)$")


def parse_tl(text: str) -> TLDiagram:
    compact = re.sub(r"\s+", "", text)
    m = _TL_LITERAL.match(compact)
    if not m:
        raise ValueError(f"cannot parse {text!r} as a TL diagram literal")
    pairs = [tuple(int(x) for x in pr.split(","))
             for pr in re.findall(r"\((\d+,\d+)\)", m.group("pairs"))]
    return TLDiagram(int(m.group("a")), int(m.group("b")), pairs)


def tl_enumerate(a: int, b: int) -> tuple[TLDiagram, ...]:
    """All diagrams in TL(a, b), canonically ordered; empty if a+b is odd."""
    return tuple(_from_labels(a, b, p.labels, TLDiagram)
                 for p in enumerate_partitions(a, b, "pairings"))


def tl_compose(bottom: TLDiagram, top: TLDiagram) -> tuple[TLDiagram, int]:
    """(diagram, loops) for the vertical gluing with top above bottom.

    As elements of the algebra at loop value sqrt(N):
    T_bottom . T_top = N^{loops/2} T_diagram.
    """
    p, loops = bottom.compose(top)
    return _diagram(p, bottom, top), loops


def markov_trace_exponent(p: Partition) -> int:
    """The blocks of a square partition once upper point i is joined to lower
    point i: for a diagram, the exponent of sqrt(N) in its Markov trace; for
    a partition p, Tr(T_p) = N to this power.  Non-square ones raise
    ValueError."""
    if p.upper != p.lower:
        raise ValueError("the Markov trace needs a square diagram")
    labels = p.labels
    return _merge(p.block_count(), zip(labels[:p.upper], labels[p.upper:]),
                  ())[1]


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
    # the blocks of the odd points 1, 3, ... stand for the collapsed points
    odd = d.labels[::2]
    labels, _ = _merge(d.block_count(), zip(odd, d.labels[1::2]), odd)
    return _from_labels(d.upper // 2, d.lower // 2, labels)


def fatten(p: Partition) -> TLDiagram:
    """Boundary of the thickened blocks: the right inverse of collapse.

    Each point doubles into a left and a right copy; walking around a block in
    boundary-circle order, each point's outgoing copy is paired with the next
    point's incoming copy (cyclically), tracing the block's boundary.
    """
    k, l = p.upper, p.lower
    cycles: list[list[int]] = [[] for _ in range(p.block_count())]
    labels = p.labels
    for pt in _circle(k, l):
        cycles[labels[pt - 1]].append(pt)
    # point pt's copies are 2pt - 1 and 2pt; the walk enters an upper point
    # by the first and a lower point by the second
    return TLDiagram(2 * k, 2 * l, [(2 * a - (a > k), 2 * b - (b <= k))
                                    for cyc in cycles
                                    for a, b in zip(cyc, cyc[1:] + cyc[:1])])


def black_regions(d: TLDiagram) -> int:
    """Number of black regions under the alternating shading.

    With the box cut open at the left edge, the strands form a nesting forest;
    a strand properly contained in an even number of other strands bounds a
    region at odd depth from the white outer region, hence black; its depth
    is the number of strands still open when it opens along the cut circle.
    """
    labels, count = d.labels, 0
    stack: list[int] = []
    for pt in _circle(d.upper, d.lower):
        if stack and stack[-1] == labels[pt - 1]:
            stack.pop()
        else:
            count += len(stack) % 2 == 0
            stack.append(labels[pt - 1])
    return count


# ---------------------------------------------------------------------------
# the isomorphism onto noncrossing partitions scaled by quarter powers of N


def phi(d: TLDiagram) -> tuple[Partition, int]:
    """(c(D), quarters) for the rescaled collapse N^{quarters/4} c(D) on
    TL(2k, 2l), where quarters = k + l - 2 br(D)."""
    p = collapse(d)
    return p, p.upper + p.lower - 2 * black_regions(d)


def render_scaled(p: Partition, quarters: int) -> str:
    """N^(quarters/4) * p as text, the exponent as a reduced fraction."""
    if quarters == 0:
        coeff = "1"
    elif quarters % 4 == 0:
        coeff = f"N^{quarters // 4}"
    else:
        coeff = f"N^({Fraction(quarters, 4)})"
    return f"{coeff} * {p.render()}"


def verify_phi(max_points: int = 6) -> VerificationReport:
    """Check that phi respects compose, tensor, involution, and the traces.

    All identities are checked at the level of exponents of sqrt(N) plus
    partitions, which proves them for every N at once.  Diagrams range over
    all of TL(a,b) with a+b <= max_points (even arities where phi applies).
    """
    if max_points < 0:
        raise ValueError(f"max_points must be nonnegative, got {max_points}")
    rep = VerificationReport(f"collapsing isomorphism up to {max_points} points")
    even_diags = {(a, b): tl_enumerate(a, b) for a in range(0, max_points + 1, 2)
                  for b in range(0, max_points + 1 - a, 2)}
    all_even = [d for diags in even_diags.values() for d in diags]
    # the points of the stacked pictures of the composed, tensor and trace
    # pairs, counted by shape before any phi
    size = {shape: len(diags) for shape, diags in even_diags.items()}
    check_work_cap(sum(
        n * m * ((m1 == m2) * (k1 + m1 + l2)
                 + (k1 + m1 + m2 + l2 <= max_points) * (k1 + m1 + m2 + l2)
                 + ((k1, m1) == (m2, l2)) * (2 * k1 + m1))
        for (k1, m1), n in size.items() for (m2, l2), m in size.items()),
        "stacking {} points of composed, tensor and trace pairs")
    # every tensor product, involution and fattening below is one of these
    image = {d: phi(d) for d in all_even}

    def composes_ok(bottom: TLDiagram, top: TLDiagram) -> bool:
        diag, loops = tl_compose(bottom, top)
        p, q = phi(diag)
        (pb, qb), (pt, qt) = image[bottom], image[top]
        r, closed = pb.compose(pt)
        return (p, q + 2 * loops) == (r, qb + qt + 4 * closed)

    def tensors_ok(d: TLDiagram, e: TLDiagram) -> bool:
        (pd, qd), (pe, qe) = image[d], image[e]
        return image[d.tensor(e)] == (pd.tensor(pe), qd + qe)

    def involutes_ok(d: TLDiagram) -> bool:
        p, q = image[d]
        return image[d.involute()] == (p.involute(), q)

    def trace_ok(d: TLDiagram, e: TLDiagram) -> bool:
        prod, loops = tl_compose(d.involute(), e)
        (pd, qd), (pe, qe) = image[d], image[e]
        r, closed = pd.involute().compose(pe)
        q = qd + qe + 4 * closed
        return q % 2 == 0 and loops + markov_trace_exponent(prod) == \
            q // 2 + 2 * markov_trace_exponent(r)

    def fatten_ok(p: Partition) -> bool:
        fat = fatten(p)
        return collapse(fat) == p and \
            image[fat] == (p, p.points - 2 * p.block_count())

    rep.tally("phi(D . E) = phi(D) . phi(E) on {} pairs", (
        composes_ok(bottom, top)
        for (k1, m1), tops in even_diags.items()
        for (m2, l2), bottoms in even_diags.items() if m2 == m1
        for top in tops for bottom in bottoms))
    rep.tally("phi(D tensor E) = phi(D) tensor phi(E) on {} pairs", (
        tensors_ok(d, e) for d in all_even for e in all_even
        if d.points + e.points <= max_points))
    rep.tally("phi(D*) = phi(D)* on {} diagrams", (
        involutes_ok(d) for d in all_even))
    rep.tally("trace isometry tau(D* E) = tau~(phi(D)* phi(E)) on {} pairs", (
        trace_ok(d, e) for diags in even_diags.values()
        for d in diags for e in diags))
    # a fattened block forms a single black region, so br(fatten(p)) counts
    # blocks and phi(fatten(p)) = N^{(k+l-2b(p))/4} p; the scale vanishes
    # exactly on pair partitions
    rep.tally("collapse(fatten(p)) = p and phi(fatten(p)) = "
              "N^((k+l-2b)/4) p on {} partitions", (
                  fatten_ok(p) for k in range(0, max_points // 2 + 1)
                  for l in range(0, max_points // 2 + 1 - k)
                  for p in enumerate_partitions(k, l, "noncrossing")))
    return rep
