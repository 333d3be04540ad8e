import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freewreath import config, tl
from freewreath.config import CapExceededError
from freewreath.partition import (Partition, _circle, discrete_partition,
                                  enumerate_partitions, full_block,
                                  identity_partition)
from builders import tl_identity
from freewreath.tl import (TLDiagram, black_regions, collapse, fatten,
                           markov_trace_exponent, parse_tl, phi,
                           render_scaled, sqrt_power, tl_compose,
                           tl_enumerate, verify_phi)


def cap() -> TLDiagram:
    """The single lower arc in TL(0,2)."""
    return TLDiagram(0, 2, [(1, 2)])


def cup() -> TLDiagram:
    """The single upper arc in TL(2,0)."""
    return TLDiagram(2, 0, [(1, 2)])


def partial_close(d: TLDiagram) -> tuple[TLDiagram, int]:
    """Close the last strand of a square diagram D, k + 1 strands wide:
    (id_k tensor cup) . (D tensor id_1) . (id_k tensor cap).

    Returns the smaller diagram and the number of loops closed (each worth
    sqrt(N)); the test oracle of markov_trace_exponent.
    """
    k = d.upper - 1
    top = tl_identity(k).tensor(cap())          # TL(k, k+2)
    mid = d.tensor(tl_identity(1))              # TL(k+2, k+2)
    bot = tl_identity(k).tensor(cup())          # TL(k+2, k)
    step1, loops1 = tl_compose(mid, top)
    step2, loops2 = tl_compose(bot, step1)
    return step2, loops1 + loops2


def test_diagram_validation():
    # the matching checks run before the partition check, so each bad
    # diagram gets the diagram's own message
    with pytest.raises(ValueError, match="needs an even point count"):
        TLDiagram(1, 2, [(1, 2), (3, 3)])        # odd total / bad pair
    with pytest.raises(ValueError, match=r"^pairs \(\(1, 2\), \(3, 3\)\) "
                       "are not a perfect matching of 1..4$"):
        TLDiagram(2, 2, [(1, 2), (3, 3)])        # 3 repeated, 4 missing
    with pytest.raises(ValueError, match="are not a perfect matching"):
        TLDiagram(2, 2, [(1, 2, 3), (4,)])       # blocks that are not pairs
    with pytest.raises(ValueError, match=r"^pairs \(\(1, 4\), \(2, 3\)\) cross$"):
        TLDiagram(2, 2, [(1, 4), (2, 3)])        # crossing
    d = TLDiagram(2, 2, [(4, 3), (2, 1)])
    assert d.blocks == ((1, 2), (3, 4)) and d == TLDiagram(2, 2, [(1, 2), (3, 4)])
    # a diagram is a partition, but never equal to a plain one
    assert isinstance(d, Partition) and d != Partition(2, 2, d.blocks)
    assert len({d, Partition(2, 2, d.blocks)}) == 2


def test_diagram_from_a_one_shot_iterable():
    # the matching check reads the blocks once, as Partition does
    d = TLDiagram(0, 2, (b for b in [(1, 2)]))
    assert d == TLDiagram(0, 2, [(1, 2)])
    assert Partition(0, 2, (b for b in [(1, 2)])) == Partition(0, 2, d.blocks)


def test_partition_operands_take_the_checks():
    # a result that is no noncrossing pairing is refused, as from the
    # constructor, and never returned as a diagram
    with pytest.raises(ValueError, match="^a Temperley-Lieb diagram needs an "
                       "even point count$"):
        cap().tensor(Partition(0, 1, [(1,)]))
    with pytest.raises(ValueError, match=r"^pairs \(\(1,\), \(2,\)\) are "
                       r"not a perfect matching of 1..2$"):
        tl_compose(TLDiagram(1, 1, [(1, 2)]), Partition(1, 1, [(1,), (2,)]))
    with pytest.raises(ValueError, match="cross$"):
        cap().tensor(Partition(0, 4, [(1, 3), (2, 4)]))
    # a partition that is a noncrossing pairing gives a diagram
    d = cap().tensor(Partition(0, 2, [(1, 2)]))
    assert type(d) is TLDiagram and d == TLDiagram(0, 4, [(1, 2), (3, 4)])


def test_enumeration_catalan():
    # |TL(a,b)| = Catalan((a+b)/2)
    for (a, b), count in (((0, 2), 1), ((2, 2), 2), ((0, 4), 2), ((3, 3), 5),
                          ((0, 6), 5), ((2, 4), 5), ((4, 4), 14)):
        assert len(tl_enumerate(a, b)) == count
    assert tl_enumerate(1, 2) == ()              # odd point count: none
    for n in range(15):
        count = math.comb(n, n // 2) // (n // 2 + 1) if n % 2 == 0 else 0
        for a in range(n + 1):
            assert len(tl_enumerate(a, n - a)) == count


def test_parse_render_round_trip():
    for d in tl_enumerate(3, 3) + tl_enumerate(0, 4):
        assert parse_tl(d.render()) == d
    assert parse_tl("TL(2,2): (1,3)(2,4)") == tl_identity(2)
    with pytest.raises(ValueError):
        parse_tl("TL(2,2): (1,3)")
    with pytest.raises(ValueError):
        parse_tl("diagram")


def test_diagram_repr_wraps_its_rendering():
    assert repr(TLDiagram(2, 2, [(1, 2), (3, 4)])) == \
        "TLDiagram(TL(2,2): (1,2)(3,4))"


def test_compose_identity_and_loops():
    # e = cap then cup on two strands: TL(2,2) with pairs (1,2)(3,4)
    e = TLDiagram(2, 2, [(1, 2), (3, 4)])
    d, loops = tl_compose(e, e)
    assert d == e and loops == 1                  # e^2 = sqrtN * e
    d, loops = tl_compose(tl_identity(2), e)
    assert d == e and loops == 0
    # cup after cap in TL: a single closed loop
    d, loops = tl_compose(cup(), cap())
    assert d == TLDiagram(0, 0, []) and loops == 1


def test_compose_shape_mismatch():
    with pytest.raises(ValueError):
        tl_compose(tl_identity(2), tl_identity(3))


def test_partial_close():
    # closing the single strand of the identity makes one loop
    d, loops = partial_close(tl_identity(1))
    assert d.points == 0 and loops == 1
    # closing e strand by strand: the right strand closes cleanly to id_1,
    # then the leftover strand closes into one loop (trace sqrt(N))
    e = TLDiagram(2, 2, [(1, 2), (3, 4)])
    once, loops1 = partial_close(e)
    assert once == tl_identity(1) and loops1 == 0
    closed, loops2 = partial_close(once)
    assert closed == TLDiagram(0, 0, []) and loops1 + loops2 == 1


def test_markov_trace_values():
    # tau(id_k) = sqrt(N)^k: the closure has k components
    assert markov_trace_exponent(tl_identity(2)) == 2
    assert sqrt_power(4, 2) == "4" and sqrt_power(5, 2) == "5"
    e = TLDiagram(2, 2, [(1, 2), (3, 4)])
    assert markov_trace_exponent(e) == 1
    assert sqrt_power(4, 1) == "2"                      # sqrt(4)
    assert sqrt_power(5, 1) == "0 + 1*sqrt(5)"
    assert markov_trace_exponent(TLDiagram(0, 0, [])) == 0
    assert sqrt_power(7, 0) == "1"


def test_markov_trace_exponent_matches_closure():
    # the oracle closes strand by strand from the right
    for k in range(6):
        for d in tl_enumerate(k, k):
            loops, cur = 0, d
            while cur.upper:
                cur, closed = partial_close(cur)
                loops += closed
            assert markov_trace_exponent(d) == loops


@pytest.mark.parametrize("upper, lower, pairs", [
    (1, 1, [(1, 2)]), (3, 1, [(1, 4), (2, 3)]), (1, 3, [(1, 2), (3, 4)])])
def test_collapse_refuses_odd_arities(upper, lower, pairs):
    with pytest.raises(ValueError) as info:
        collapse(TLDiagram(upper, lower, pairs))
    assert str(info.value) == "collapse needs even arities TL(2k, 2l)"

def test_collapse():
    assert collapse(tl_identity(2)) == identity_partition(1)
    assert collapse(cap()) == discrete_partition(0, 1)
    # nested cups collapse to a single 2-point block
    nested = TLDiagram(0, 4, [(1, 4), (2, 3)])
    assert collapse(nested) == full_block(0, 2)
    side_by_side = TLDiagram(0, 4, [(1, 2), (3, 4)])
    assert collapse(side_by_side) == discrete_partition(0, 2)


def test_fatten_round_trip():
    for k in range(0, 4):
        for l in range(0, 4 - k):
            for p in enumerate_partitions(k, l, mode="noncrossing"):
                d = fatten(p)
                assert d.upper == 2 * k and d.lower == 2 * l
                assert collapse(d) == p


def test_fatten_examples():
    assert fatten(identity_partition(1)) == tl_identity(2)
    assert fatten(full_block(0, 2)) == TLDiagram(0, 4, [(1, 4), (2, 3)])
    assert fatten(discrete_partition(0, 1)) == cap()


def test_black_regions():
    assert black_regions(tl_identity(1)) == 1
    assert black_regions(cap()) == 1
    assert black_regions(cup()) == 1
    e = TLDiagram(2, 2, [(1, 2), (3, 4)])
    assert black_regions(e) == 2
    # br(D tensor cap) = br(D) + 1
    for d in tl_enumerate(2, 2) + tl_enumerate(0, 4):
        assert black_regions(d.tensor(cap())) == black_regions(d) + 1
        assert black_regions(d.tensor(cup())) == black_regions(d) + 1


def _pairwise_black_regions(d: TLDiagram) -> int:
    """The oracle of black_regions: each strand's nesting depth counted as
    the strands that contain it, over every pair of strands."""
    position = {pt: t for t, pt in enumerate(_circle(d.upper, d.lower))}
    arcs = [tuple(sorted(position[pt] for pt in pair)) for pair in d.blocks]
    return sum(sum(x < u and v < y for x, y in arcs) % 2 == 0
               for u, v in arcs)


def test_black_regions_match_the_pairwise_count():
    for n in range(11):
        for a in range(n + 1):
            for d in tl_enumerate(a, n - a):
                assert black_regions(d) == _pairwise_black_regions(d)


def test_black_regions_count_blocks_after_fattening():
    for k in range(0, 4):
        for l in range(0, 4 - k):
            for p in enumerate_partitions(k, l, mode="noncrossing"):
                assert black_regions(fatten(p)) == len(p.blocks)


def test_phi_values():
    assert phi(tl_identity(2)) == (identity_partition(1), 0)
    assert phi(cap()) == (discrete_partition(0, 1), -1)
    assert phi(cup()) == (discrete_partition(1, 0), -1)
    nested = TLDiagram(0, 4, [(1, 4), (2, 3)])
    assert phi(nested) == (full_block(0, 2), 0)
    p, quarters = phi(nested)
    assert type(p) is Partition and type(quarters) is int


def test_phi_cap_cup_compose_gives_sqrtN():
    # phi(cup) . phi(cap) carries N^{-1/4} twice and one closed block: sqrt(N)
    (pb, qb), (pt, qt) = phi(cup()), phi(cap())
    p, closed = pb.compose(pt)
    quarters = qb + qt + 4 * closed
    assert p == Partition(0, 0, [])
    assert quarters == 2
    assert sqrt_power(9, quarters // 2) == "3"
    assert sqrt_power(5, quarters // 2) == "0 + 1*sqrt(5)"


def test_scaled_partition_coefficient_requires_half_powers():
    # N^(-1/4) stays a quarter power; N^(2/4) is sqrt(N) and renders as one
    p, quarters = discrete_partition(0, 1), -1
    assert quarters % 2 == 1
    assert render_scaled(p, quarters).startswith("N^(-1/4) * ")
    half = 2
    assert render_scaled(full_block(0, 2), half).startswith("N^(1/2) * ")
    assert sqrt_power(4, half // 2) == "2"
    with pytest.raises(ValueError):
        sqrt_power(4, -1)


def test_render_scaled_reduces_the_quarter_exponent():
    p = full_block(1, 1)
    coeffs = ["N^-1", "N^(-3/4)", "N^(-1/2)", "N^(-1/4)", "1", "N^(1/4)",
              "N^(1/2)", "N^(3/4)", "N^1", "N^(5/4)", "N^(3/2)", "N^(7/4)",
              "N^2"]
    assert [render_scaled(p, q) for q in range(-4, 9)] == \
        [f"{c} * {p.render()}" for c in coeffs]
    assert render_scaled(p, -3) == "N^(-3/4) * {1,2} (k=1,l=1)"


@st.composite
def stacked_diagrams(draw):
    """(top, bottom, twin): top in TL(a, m), bottom in TL(m, b) glued below
    it, and twin in TL(a, m) beside top; every arity even and at most 6, so
    a stacked picture has up to 24 points."""
    a, m, b = (draw(st.sampled_from((0, 2, 4, 6))) for _ in range(3))
    top, twin = (draw(st.sampled_from(tl_enumerate(a, m))) for _ in range(2))
    return top, draw(st.sampled_from(tl_enumerate(m, b))), twin


@st.composite
def composable_diagrams(draw):
    """(bottom, middle, top), top glued above middle above bottom, every
    arity even and at most 6."""
    rows = [draw(st.sampled_from((0, 2, 4, 6))) for _ in range(4)]
    return tuple(draw(st.sampled_from(tl_enumerate(upper, lower)))
                 for lower, upper in zip(rows, rows[1:]))


@given(composable_diagrams())
def test_tl_compose_associative_with_loops(case):
    # both bracketings give one diagram and one loop count: the scalar
    # sqrt(N)^loops of the product is associative too
    bottom, middle, top = case
    lower, lower_loops = tl_compose(bottom, middle)
    left, left_loops = tl_compose(lower, top)
    upper, upper_loops = tl_compose(middle, top)
    right, right_loops = tl_compose(bottom, upper)
    assert left == right and isinstance(left, TLDiagram)
    assert lower_loops + left_loops == upper_loops + right_loops


@given(stacked_diagrams())
def test_phi_relations_past_eight_points(case):
    top, bottom, twin = case
    (pt, qt), (pb, qb), (pw, qw) = phi(top), phi(bottom), phi(twin)
    diag, loops = tl_compose(bottom, top)
    p, q = phi(diag)
    r, closed = pb.compose(pt)
    assert (p, q + 2 * loops) == (r, qb + qt + 4 * closed)
    assert phi(top.tensor(bottom)) == (pt.tensor(pb), qt + qb)
    assert phi(top.involute()) == (pt.involute(), qt)
    # tau(W* T) = tau~(phi(W)* phi(T)), both sides as exponents of sqrt(N)
    prod, loops = tl_compose(twin.involute(), top)
    r, closed = pw.involute().compose(pt)
    q = qw + qt + 4 * closed
    assert q % 2 == 0
    assert loops + markov_trace_exponent(prod) == \
        q // 2 + 2 * markov_trace_exponent(r)


def test_nc_closure_and_trace():
    # the one closure count also takes partitions that are not diagrams
    assert markov_trace_exponent(identity_partition(2)) == 2
    assert markov_trace_exponent(full_block(2, 2)) == 1
    # the collapsed-side trace N^{components} of id_2 at N = 3
    assert sqrt_power(3, 2 * markov_trace_exponent(identity_partition(2))) == "9"
    with pytest.raises(ValueError, match="needs a square diagram"):
        markov_trace_exponent(full_block(1, 2))


def test_trace_isometry_spot():
    # tau(e) = sqrt(N) and tau~(phi(e)) with phi(e) = N^{-1/2} {1,2|3,4}-collapse
    e = TLDiagram(2, 2, [(1, 2), (3, 4)])
    p = collapse(e)
    # coefficient N^{quarters/4} * N^{closure components} must equal sqrt(N):
    assert phi(e) == (p, -2)
    assert markov_trace_exponent(p) == 1
    # total exponent in sqrt(N) units: -1 + 2 = 1


def test_verify_phi_suite():
    report = verify_phi(max_points=6)
    assert report.passed, report.render()


def test_verify_phi_at_eight_points():
    report = verify_phi(max_points=8)
    assert report.passed, report.render()
    assert [c.description.split(" on ")[-1] for c in report.checks] == [
        "2011 pairs", "341 pairs", "99 diagrams", "1095 pairs",
        "99 partitions"]


def test_verify_phi_checks_only_the_fattened_diagrams(monkeypatch):
    # every other diagram is enumerated or computed, so built unchecked;
    # the 29 fattenings are the noncrossing partitions of at most 3 points
    calls = []
    init = TLDiagram.__init__
    monkeypatch.setattr(TLDiagram, "__init__",
                        lambda self, *a: calls.append(a) or init(self, *a))
    assert verify_phi(max_points=6).passed
    assert len(calls) == 29


def test_verify_phi_caps_its_pairs_before_any_phi(monkeypatch):
    # 6 points: 219 composed, 85 tensor and 115 trace pairs, whose stacked
    # pictures hold 3152 points in all
    def never(d):
        raise AssertionError("phi taken before the pair cap was checked")

    monkeypatch.setattr(config, "caps", lambda: (14, 3151))
    monkeypatch.setattr(tl, "phi", never)
    with pytest.raises(CapExceededError, match="stacking 3152 points of "
                       "composed, tensor and trace pairs"):
        verify_phi(max_points=6)


def test_verify_phi_takes_each_image_once(monkeypatch):
    # phi once per enumerated diagram (29 up to 6 points), whose images the
    # tensor, involution and fattening checks look up, and once per composed
    # pair (219), whose composite may have more points than the bound
    calls = []
    monkeypatch.setattr(tl, "phi", lambda d: calls.append(d) or phi(d))
    assert verify_phi(max_points=6).passed
    assert len(calls) <= 29 + 219
