"""The library workloads: seeded inputs, the items run on them, and checks.

An :class:`Item` is one unit of work with its own check; a pass runs every
item of a workload once, in order.  The items flagged ``query`` are the
workload's call load, whose latency percentiles are reported: every
verification call on ``category``, the seeded word pairs on ``counting`` and
the seeded Haar-state queries on ``weingarten``.  Library functions are always reached
through their module (``fusion.fuse``), so the tracer's patched bindings are
the ones called.  Fixed items are compared with values frozen from the
program; seeded items are compared with an independent route, which holds for
any seed.

Why each workload exists:

* ``category``: the traffic of acceptance criteria 1 and 3 (partition-map
  relations and the collapsing isomorphism).  It is the only user of
  ``linmaps``; ``exactmat``, ``fusion`` and ``homspaces`` never run.
* ``counting``: exhaustive exact counts, each by two routes.  NC enumeration
  and ``Partition`` construction dominate; ``linmaps`` and ``exactmat`` never
  run, so it is the bypass workload for the T_p maps.
* ``weingarten``: Gram and Weingarten exact linear algebra plus a Haar-state
  query load.  Bareiss elimination does most of the work, and ``partition``
  runs through ``join``/``refines``/``kernel`` on few objects many times.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from freewreath import (exactmat, freeprob, fusion, homspaces, linmaps,
                        partition, tl, weingarten)

@dataclass
class Item:
    name: str
    group: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    query: bool = False     # timed for call_p50_ms/call_p75_ms




def _counts(report) -> tuple[int, ...]:
    """The check counts a verification report states in its descriptions."""
    return tuple(int(m) for c in report.checks
                 for m in re.findall(r"on (?:all )?(\d+)", c.description))


def _report_item(name, group, run, counts) -> Item:
    return Item(name, group, run,
                lambda rep: rep.passed and _counts(rep) == counts, query=True)


# ---------------------------------------------------------------------------
# category: criteria 1 and 3

# (tensor pairs, stacked compose pairs, involuted diagrams) per point bound;
# they do not depend on N
CATEGORY_COUNTS = {4: (341, 597, 99), 5: (1365, 4758, 351), 6: (5461, 43371, 1275)}
PHI6_COUNTS = (219, 85, 29, 115, 29)
# seven verification calls of distinct cost, so that the pooled p50 and p75
# fall inside one call's samples rather than between two calls
CATEGORY_POINTS = {4: (5,), 5: (2, 3, 4, 5), 6: (2,)}


def category(seed: int) -> list[Item]:
    items = [_report_item(f"relations N={n} p={p}", "relations",
                          lambda n=n, p=p: linmaps.verify_category_relations(n, p),
                          CATEGORY_COUNTS[p])
             for p, dims in CATEGORY_POINTS.items() for n in dims]
    items.append(_report_item("phi p=6", "phi", lambda: tl.verify_phi(6),
                              PHI6_COUNTS))
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# counting: exhaustive exact counts by two routes

RINGS = {"Z2": fusion.cyclic_fusion(2), "Z3": fusion.cyclic_fusion(3),
         "S3": fusion.symmetric_group_3_fusion()}
# sums of Hom(1, word) dimensions over all words of length <= 5
HOM_SUMS = {"Z2": 258, "Z3": 687, "S3": 933}
S3_SPLIT_SUM = 719       # sum of Hom(up, down) over all S3 splits of <= 4 letters
EPS_SUMS = {("Z2", "g", 5): 52, ("Z3", "g", 5): 48, ("S3", "std", 6): 2780}
# k-th moment of the rate-1/2 free Poisson law: large Schroeder numbers / 2^k
PARTIAL_TRACE = {k: Fraction(v, 2 ** k) for k, v in enumerate(
    (1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859), start=1)}
CLASSICAL_K = {"regular": 9, "sign": 7}
SEEDED_LEN6 = 100      # sampled length-6 words per ring for Z3 and S3
PAIRS = 1000           # seeded random word pairs
PAIR_LEN = 8           # pair words have length < PAIR_LEN


def _hom_item(ring, up, down, sink=None) -> Item:
    fd = RINGS[ring]

    def run():
        a = homspaces.dim_hom_wreath(up, down, fd, method="partition")
        b = homspaces.dim_hom_wreath(up, down, fd, method="fusion")
        if sink is not None:
            sink.append(a)
        return a, b

    return Item(f"hom {ring} {up}->{down}", "hom", run, lambda r: r[0] == r[1])


def _digest_item(name, values, expected) -> Item:
    return Item(name, "digest", lambda: sum(values), lambda s: s == expected)


def _pair_item(rng: random.Random, index: int) -> Item:
    # the ring, the word lengths and how often each letter occurs cycle through
    # fixed patterns, so the cost mix is the same for every seed; the seed
    # orders the letters
    ring = sorted(RINGS)[index % len(RINGS)]
    fd = RINGS[ring]
    labels = fd.labels()
    len_x, len_y = divmod(index // len(RINGS) % PAIR_LEN ** 2, PAIR_LEN)

    def word(length, offset):
        letters = [labels[(offset + i) % len(labels)] for i in range(length)]
        rng.shuffle(letters)
        return tuple(letters)

    x, y = word(len_x, index), word(len_y, index + 1)

    def run():
        direct = fusion.fuse(x, y, fd, method="direct")
        free = fusion.fuse(x, y, fd, method="free-product")
        ok = direct == free
        poly = fusion.central_char_poly(x, fd)
        for n in (4, 9):
            dx = fusion.dim_wreath(x, fd, n)
            lhs = dx * fusion.dim_wreath(y, fd, n)
            rhs = sum(m * fusion.dim_wreath(w, fd, n) for w, m in direct.items())
            ok = ok and lhs == rhs and sum(c * n ** i for i, c in
                                           enumerate(poly)) == dx
        return ok

    return Item(f"pair {ring} {x}x{y}", "pair", run, lambda ok: ok, query=True)


def counting(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items: list[Item] = []
    for ring, fd in RINGS.items():
        labels = fd.labels()
        values: list[int] = []
        for k in range(6):
            for word in itertools.product(labels, repeat=k):
                items.append(_hom_item(ring, (), word, values))
        items.append(_digest_item(f"hom sum {ring}", values, HOM_SUMS[ring]))
        words6 = list(itertools.product(labels, repeat=6))
        if ring != "Z2":
            words6 = rng.sample(words6, SEEDED_LEN6)
        items.extend(_hom_item(ring, (), w) for w in words6)

    split_values: list[int] = []
    for n in range(5):
        for word in itertools.product(RINGS["S3"].labels(), repeat=n):
            for cut in range(n + 1):
                items.append(_hom_item("S3", word[:cut], word[cut:], split_values))
    items.append(_digest_item("S3 split sum", split_values, S3_SPLIT_SUM))

    for (ring, rep, order), expected in EPS_SUMS.items():
        fd = RINGS[ring]
        cumulant_route: dict = {}
        hom_values: list[int] = []
        items.append(Item(f"cumulants {ring} {rep}", "cumulants",
                          lambda fd=fd, rep=rep, order=order, out=cumulant_route:
                          out.update(freeprob.compound_poisson_moments(fd, rep, order)),
                          lambda r: True))
        for k in range(1, order + 1):
            for eps in freeprob.all_eps(k):
                def run(fd=fd, rep=rep, eps=eps, sink=hom_values):
                    value = freeprob.character_moment_wreath(fd, rep, eps)
                    sink.append(value)
                    return value

                items.append(Item(f"eps {ring} {rep} {freeprob.render_eps(eps)}",
                                  "eps", run,
                                  lambda v, eps=eps, cr=cumulant_route: v == cr[eps]))
        items.append(_digest_item(f"eps sum {ring} {rep}", hom_values, expected))

    block = freeprob.rep_block_moment(RINGS["Z2"], "1")
    for k, expected in PARTIAL_TRACE.items():
        items.append(Item(f"partial trace k={k}", "partial_trace",
                          lambda k=k: freeprob.partial_trace_moments(Fraction(1, 2),
                                                                     block, k),
                          lambda v, e=expected: v == e))
    for rep, top in CLASSICAL_K.items():
        brute = freeprob.brute_force_z2_s3_moments(rep, top)
        bm = freeprob.z2_block_moment(rep)
        for k in range(top + 1):
            items.append(Item(f"classical {rep} k={k}", "classical",
                              lambda bm=bm, k=k: freeprob.classical_wreath_moment(bm, 3, k),
                              lambda v, e=brute[k]: v == e))
    items.extend(_pair_item(rng, i) for i in range(PAIRS))
    return items


# ---------------------------------------------------------------------------
# weingarten: Gram ranks, Weingarten tables, asymptotics, Haar states

NC6_RANKS = {3: 122, 4: 132}
# (k, s) -> number of (outer, inner) indices
TABLE_INDICES = {(1, 4): 1, (2, 4): 3, (3, 4): 12, (4, 4): 55,
                 (1, 1): 1, (2, 1): 2, (3, 1): 5, (4, 1): 14, (5, 1): 42,
                 (6, 1): 132}
HAAR_QUERIES = 3000
HAAR_K, HAAR_N = 4, 5


def _projection_oracle(k: int, n: int):
    """Haar state at s = 1 as the projection onto span{T_p : p in NC(k)}.

    Built here, independently of ``haar_state``: membership of an index tuple
    is tested block by block, the Gram matrix comes from joins, and the
    inverse from the Fraction Gauss-Jordan oracle.
    """
    parts = partition.enumerate_partitions(0, k, mode="noncrossing")
    gram = [[n ** p.join(q).block_count() for q in parts] for p in parts]
    winv = exactmat.gauss_jordan_inverse(gram)
    blocks = [[[pt - 1 for pt in b] for b in p.blocks] for p in parts]

    def support(idx):
        return [i for i, bl in enumerate(blocks)
                if all(len({idx[j] for j in b}) == 1 for b in bl)]

    def entry(row, col) -> Fraction:
        cols = support(col)
        return sum((winv[j][i] for j in support(row) for i in cols), Fraction(0))

    return entry


def _table_check(table, k, s) -> bool:
    total, m = weingarten.trace_identity(table)
    return total == m == TABLE_INDICES[(k, s)]


def weingarten_items(seed: int) -> list[Item]:
    items = []
    for n, rank in NC6_RANKS.items():
        items.append(Item(f"NC(6) Gram rank N={n}", "rank",
                          lambda n=n: exactmat.bareiss_det_rank(
                              weingarten.wg_gram(6, n, 1, "singletons")),
                          lambda r, rank=rank: r[0] == rank and (r[1] == 0) == (rank < 132)))
    for k in range(1, 5):
        for n in (4, 5):
            for s in (4, 1):
                items.append(Item(f"wg_table k={k} N={n} s={s}", "table",
                                  lambda k=k, n=n, s=s: weingarten.wg_table(k, n, s),
                                  lambda t, k=k, s=s: _table_check(t, k, s)))
    for k in (5, 6):
        items.append(Item(f"wg_table k={k} N=4 s=1", "table",
                          lambda k=k: weingarten.wg_table(k, 4, 1),
                          lambda t, k=k: _table_check(t, k, 1)))
    for s, category, top in ((4, "noncrossing", 4), (1, "singletons", 5)):
        for k in range(1, top + 1):
            items.append(Item(f"certify k={k} s={s}", "certify",
                              lambda k=k, s=s, c=category:
                              weingarten.wg_certify_asymptotics(k, s, c),
                              lambda rep: rep.passed))

    # criterion 8: exhaustive projection oracle and row sums, k <= 3
    for k, n in ((1, 4), (1, 5), (2, 4), (2, 5), (3, 4)):
        def projection(k=k, n=n):
            table = weingarten.wg_table(k, n, 1)
            oracle = _projection_oracle(k, n)
            ones = (1,) * k
            tuples = list(itertools.product(range(1, n + 1), repeat=k))
            return all(weingarten.haar_state(table, ones, ones, r, c) == oracle(r, c)
                       for r in tuples for c in tuples)
        items.append(Item(f"projection k={k} N={n}", "projection", projection,
                          lambda ok: ok))
    for n in (4, 5):
        def row_sums(n=n):
            t1, t2 = weingarten.wg_table(1, n, 1), weingarten.wg_table(2, n, 1)
            ok = sum(weingarten.haar_state(t1, (1,), (1,), (1,), (c,))
                     for c in range(1, n + 1)) == 1
            for r in ((1, 1), (1, 2)):
                s2 = sum(weingarten.haar_state(t2, (1, 1), (1, 1), r, (r[0], c))
                         for c in range(1, n + 1))
                ok = ok and s2 == weingarten.haar_state(t1, (1,), (1,), (r[0],),
                                                        (r[0],))
            return ok
        items.append(Item(f"row sums N={n}", "row_sums", row_sums, lambda ok: ok))

    # seeded Haar-state queries on one table, each against the oracle
    rng = random.Random(seed)
    state: dict = {}

    def build():
        state["table"] = weingarten.wg_table(HAAR_K, HAAR_N, 1)
        state["oracle"] = _projection_oracle(HAAR_K, HAAR_N)
        return state["table"]

    items.append(Item(f"haar table k={HAAR_K} N={HAAR_N}", "table", build,
                      lambda t: _table_check(t, HAAR_K, 1)))
    ones = (1,) * HAAR_K
    for _ in range(HAAR_QUERIES):
        row = tuple(rng.randint(1, HAAR_N) for _ in range(HAAR_K))
        col = tuple(rng.randint(1, HAAR_N) for _ in range(HAAR_K))
        items.append(Item(f"haar {row} {col}", "haar",
                          lambda r=row, c=col: (weingarten.haar_state(
                              state["table"], ones, ones, r, c),
                              state["oracle"](r, c)),
                          lambda v: v[0] == v[1], query=True))
    return items


BUILDERS = {"category": category, "counting": counting,
            "weingarten": weingarten_items}


def build(workload: str, seed: int) -> list[Item]:
    return BUILDERS[workload](seed)


# ---------------------------------------------------------------------------
# size sweeps: one call per size, each timed on its own


def sweeps() -> dict[str, Callable[[], Any]]:
    """Calls whose cost grows exponentially, keyed by per-layer metric name."""
    out: dict[str, Callable[[], Any]] = {}
    for n in (9, 10, 11):
        out[f"partition.enum_s.n{n}"] = (
            lambda n=n: partition.enumerate_partitions(0, n))
    for p in (3, 4, 5):
        out[f"linmaps.category_s.p{p}"] = (
            lambda p=p: linmaps.verify_category_relations(5, p))
    for k, d in ((5, 42), (6, 132)):
        parts = partition.enumerate_partitions(0, k)
        gram = [[4 ** p.join(q).block_count() for q in parts] for p in parts]
        out[f"exactmat.inverse_s.d{d}"] = lambda g=gram: exactmat.bareiss_inverse(g)
    s3 = RINGS["S3"]
    for n in (5, 6):
        words = list(itertools.product(("sgn", "std"), repeat=n))
        out[f"homspaces.partition_route_s.len{n}"] = (
            lambda words=words: [homspaces.dim_hom_wreath((), w, s3, "partition")
                                 for w in words])
    return out
