import itertools
import json
import random
import re
from collections import Counter

import pytest

from builders import (S3_ELEMENTS, check_reduced_form, cyclic_names,
                      cyclic_product, group_dual_json, s3_product)
from freewreath import fusion
from freewreath.fusion import (IntegersFusion, QuantumPermutationFusion,
                               TableFusion, central_char_poly,
                               char_poly_products, conj_word, cyclic_fusion,
                               dim_wreath, fuse, fuse_direct, fused_letters,
                               fuse_via_reduced, fusion_from_json,
                               fusion_from_uri, load_fusion_file,
                               parse_letter, parse_word, reduce_word,
                               render_word, rep_as_dict, sort_words,
                               symmetric_group_3_fusion,
                               verify_dim_multiplicativity)

Z2 = cyclic_fusion(2)
Z3 = cyclic_fusion(3)
S3 = symmetric_group_3_fusion()
ALL_FD = (cyclic_fusion(1), Z2, Z3, S3)
Z2_JSON = group_dual_json(cyclic_names(2), cyclic_product(2))
S3_DUAL = fusion_from_json(group_dual_json(S3_ELEMENTS, s3_product))


def test_finite_group_validation():
    # a group dual holds the identity, products and inverses in its table
    assert Z3.trivial() == "1"
    assert Z3.tensor("g", "g2") == {"1": 1} and Z3.conj("g2") == "g"
    doc = json.loads(Z2_JSON)
    doc["tensor"] = {"1,1": {"1": 1}}                    # incomplete table
    with pytest.raises(ValueError, match="^missing tensor entry for '1','g'$"):
        fusion_from_json(json.dumps(doc))
    doc = json.loads(Z2_JSON)
    doc["tensor"]["g,g"] = {"g": 1}                      # no inverse for g
    with pytest.raises(ValueError, match=re.escape(
            "Frobenius symmetry fails: mult('g', '1'x'g')=1 but "
            "mult('1', 'g'x'g')=0")):
        fusion_from_json(json.dumps(doc))


def _loops(n):
    """Every Latin square on 0..n-1 whose row and column 0 are the identity:
    the loops of order n with identity 0, each element with two-sided
    inverses."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == (n - 1) ** 2:
            yield tuple(map(tuple, rows))
            return
        r, c = divmod(cell, n - 1)
        r, c = r + 1, c + 1
        used = set(rows[r][:c]) | {rows[i][c] for i in range(r)}
        for v in range(n):
            if v not in used:
                rows[r][c] = v
                yield from fill(cell + 1)
        rows[r][c] = None

    yield from fill(0)


LOOP_CHECKS = ("conjugation is not involutive", "Frobenius symmetry fails",
               "fusion rules are not associative")


def test_finite_group_refuses_non_associative_loops():
    # a loop's dual, conj taken as the right inverse, loads as a fusion file
    # exactly when the loop is a group, and the check over every triple is
    # the oracle: the 4 loops of order 4 are groups, of the 56 of order 5
    # only the 6 labellings of Z/5, and LOOP6 is none.  Each other loop is
    # refused by the first check it fails
    accepted, refused = 0, Counter()
    for square in itertools.chain(_loops(4), _loops(5), [LOOP6]):
        n = len(square)
        text = group_dual_json([str(a) for a in range(n)],
                               lambda a, b: str(square[int(a)][int(b)]))
        if all(square[square[a][b]][c] == square[a][square[b][c]]
               for a, b, c in itertools.product(range(n), repeat=3)):
            fusion_from_json(text)
            accepted += 1
        else:
            with pytest.raises(ValueError) as exc:
                fusion_from_json(text)
            refused[next(check for check in LOOP_CHECKS
                         if str(exc.value).startswith(check))] += 1
    assert accepted == 4 + 6
    assert refused == {"conjugation is not involutive": 48,
                       "Frobenius symmetry fails": 1,
                       "fusion rules are not associative": 2}


def test_symmetric_group_3():
    g = S3_DUAL
    one = g.trivial()
    assert len(g.labels()) == 6 and one == "123"
    # a transposition squares to the identity, a 3-cycle does not
    tr = next(e for e in g.labels() if g.tensor(e, e) == {one: 1}
              and e != one)
    assert g.conj(tr) == tr
    cyc = next(e for e in g.labels() if g.tensor(e, e) != {one: 1})
    [square] = g.tensor(cyc, cyc)
    assert g.tensor(square, cyc) == {one: 1}


def test_builtin_fusion_validates():
    for fd in ALL_FD + (IntegersFusion(), QuantumPermutationFusion(4)):
        fd.validate()


def test_s3_ring():
    assert sorted(S3.dim(a) for a in S3.labels()) == [1, 1, 2]
    prod = S3.tensor("std", "std")
    assert prod == {"triv": 1, "sgn": 1, "std": 1}
    assert sum(S3.dim(a) * m for a, m in prod.items()) == 4
    assert S3.tensor("sgn", "sgn") == {"triv": 1}
    assert S3.conj("std") == "std"


def test_parse_render_word():
    w = parse_word("(g,g)", Z2)
    assert w == ("g", "g")
    assert parse_word("()", Z2) == ()
    assert render_word(w, Z2) == "(g,g)"
    with pytest.raises(ValueError):
        parse_word("(h)", Z2)
    with pytest.raises(ValueError):
        parse_word("g,g", Z2)


def test_a_trailing_star_reads_the_conjugate_letter():
    assert parse_word("(g*,g2*)", Z3) == ("g2", "g")
    assert parse_word("(3*)", IntegersFusion()) == (-3,)
    assert parse_letter(" g2 * ", Z3) == "g"
    assert parse_letter("g", Z3) == "g"
    for text, unknown in (("h*", "h"), ("*", "")):
        with pytest.raises(ValueError,
                           match=f"unknown irreducible label '{unknown}'"):
            parse_letter(text, Z3)


def test_conj_word_antiautomorphism():
    w = parse_word("(g,g2)", Z3)
    assert conj_word(w, Z3) == ("g", "g2")
    assert conj_word(("g",), Z3) == ("g2",)
    rng = random.Random(7)
    labels = Z3.labels()
    for _ in range(50):
        x = tuple(rng.choice(labels) for _ in range(rng.randrange(4)))
        assert conj_word(conj_word(x, Z3), Z3) == x


def test_reduce_expand_round_trip():
    rng = random.Random(3)
    for fd in ALL_FD:
        labels = fd.labels()
        for _ in range(60):
            w = tuple(rng.choice(labels) for _ in range(rng.randrange(6)))
            check_reduced_form(w, fd)


def test_reduced_word_validation():
    # a run of trivial letters reduces to a bare even exponent
    assert reduce_word(("1",), Z2) == ((2,), ())
    assert reduce_word((), Z2) == ((0,), ())


def test_fuse_single_letters():
    # r(g) x r(g) over Z/2: () + (1) + (g,g)
    out = fuse(("g",), ("g",), Z2)
    assert out == {(): 1, ("1",): 1, ("g", "g"): 1}
    # over Z/3 the cancellation cut needs the conjugate letter
    out3 = fuse(("g",), ("g",), Z3)
    assert out3 == {("g", "g"): 1, ("g2",): 1}
    out3b = fuse(("g",), ("g2",), Z3)
    assert out3b == {("g", "g2"): 1, ("1",): 1, (): 1}


def test_fuse_longer_frozen():
    # (g,g) x (g) over Z/2
    out = fuse(("g", "g"), ("g",), Z2)
    assert out == {("g",): 1, ("g", "1"): 1, ("g", "g", "g"): 1}


def test_fuse_methods_agree():
    rng = random.Random(11)
    for fd in ALL_FD:
        labels = fd.labels()
        for _ in range(40):
            x = tuple(rng.choice(labels) for _ in range(rng.randrange(4)))
            y = tuple(rng.choice(labels) for _ in range(rng.randrange(4)))
            direct = fuse(x, y, fd, method="direct")
            free = fuse_via_reduced(x, y, fd)
            assert +direct == +free, (x, y)


def test_fuse_direct_looks_up_one_conjugate_per_cut(monkeypatch):
    # every cut of g^200 against g^200 is valid; each adds one letter pair
    ring = cyclic_fusion(2)
    calls = []
    conj = ring.conj
    monkeypatch.setattr(ring, "conj", lambda a: calls.append(a) or conj(a))
    x = ("g",) * 200
    assert len(fuse_direct(x, x, ring)) == 401
    assert len(calls) <= 200
    # long words with trivial letters between, where both routes cut slices
    w = ("g", "1") * 500
    assert fuse_direct(w, w[::-1], Z2) == fuse_via_reduced(w, w[::-1], Z2)


def _ring_words(seed, count, max_len):
    """count seeded pairs of words over every shipped ring, y opening with
    part of conj(x) half the time, so that many cuts are valid."""
    rng = random.Random(seed)
    rings = [(fd, fd.labels()) for fd in ALL_FD]
    rings += [(IntegersFusion(), range(-2, 3)),
              (QuantumPermutationFusion(4), range(4))]
    for fd, labels in rings:
        for _ in range(count):
            x = tuple(rng.choice(labels) for _ in range(rng.randrange(max_len)))
            y = tuple(rng.choice(labels) for _ in range(rng.randrange(max_len)))
            if rng.random() < 0.5:
                y = conj_word(x, fd)[:rng.randrange(len(x) + 1)] + y
            yield fd, x, y


def test_fused_letters_count_what_each_route_builds(monkeypatch):
    # every word either route writes into its Counter, with its letters
    built = []

    class Recording(Counter):
        def __setitem__(self, word, mult):
            built.append(len(word))
            super().__setitem__(word, mult)

    monkeypatch.setattr(fusion, "Counter", Recording)
    for fd, x, y in _ring_words(17, 150, 7):
        count = fused_letters(x, y, fd)
        for route in (fuse_direct, fuse_via_reduced):
            built.clear()
            words = route(x, y, fd)
            # each route writes each of its words once: the count is exact
            assert sum(built) == sum(map(len, words)) == count, (route, x, y)
    # the two 3000-letter g words: every cut valid, one product word each
    g = ("g",) * 3000
    assert fused_letters(g, g, Z2) == 18003000


def test_char_poly_products_count_the_coefficient_products(monkeypatch):
    taken = []
    multiply = fusion.poly_mul
    monkeypatch.setattr(fusion, "poly_mul", lambda a, b: taken.append(
        len(a) * len(b)) or multiply(a, b))
    for fd, x, y in _ring_words(19, 40, 9):
        taken.clear()
        central_char_poly(x + y, fd)
        assert sum(taken) == char_poly_products(x + y, fd), (x + y)
    assert char_poly_products(("g",) * 3000, Z2) == 27003002


def test_fusion_routes_check_letters():
    # the unknown letter sits at no cut and in no boundary product
    for route in (fuse_direct, fuse_via_reduced):
        with pytest.raises(ValueError, match="unknown irreducible label 'g3'"):
            route(("g3",), (), Z3)
        with pytest.raises(ValueError, match="unknown irreducible label 'g3'"):
            route((), ("g", "g3"), Z3)


def test_fuse_dimension_count():
    # total dimension is multiplicative, letter by letter at sqrt(N)
    rng = random.Random(5)
    for fd in (Z2, S3):
        labels = fd.labels()
        for n in (4, 9):
            for _ in range(25):
                x = tuple(rng.choice(labels) for _ in range(rng.randrange(3)))
                y = tuple(rng.choice(labels) for _ in range(rng.randrange(3)))
                lhs = dim_wreath(x, fd, n) * dim_wreath(y, fd, n)
                rhs = sum(m * dim_wreath(w, fd, n)
                          for w, m in fuse(x, y, fd).items())
                assert lhs == rhs


def test_dim_values():
    assert dim_wreath((), Z2, 4) == 1
    assert dim_wreath(("g",), Z2, 4) == 4          # A_1(2)^2 = 4
    assert dim_wreath(("1",), Z2, 4) == 3          # A_2(2) = 3
    assert dim_wreath(("g", "g"), Z2, 4) == 12     # A_1 A_2 A_1 at 2 = 2*3*2
    std = next(a for a in S3.labels() if S3.dim(a) == 2)
    assert dim_wreath((std,), S3, 9) == 2 * 9


def test_dim_matches_qnum_product(cheb_qnum, qnum_prod):
    # the Q[sqrt(N)] product of the letter dimensions and the A_l(sqrt(N))
    for fd in (Z2, Z3, S3):
        labels = fd.labels()
        words = [w for k in range(7) for w in itertools.product(labels, repeat=k)]
        for n in (4, 5, 9, 16):
            for w in words:
                exponents, letters = reduce_word(w, fd)
                value = qnum_prod([(fd.dim(a), 0) for a in letters]
                                  + [cheb_qnum(e, n) for e in exponents], n)
                assert value == (dim_wreath(w, fd, n), 0), (w, n)


def test_dim_refuses_small_n_then_the_first_unknown_letter():
    # N is refused before a letter is read, and the scan stops at the first
    # unknown letter, after trivial and known ones
    with pytest.raises(ValueError, match=r"^word dimensions need N >= 4, "
                                         r"got N=3$"):
        dim_wreath(("zz",), Z2, 3)
    for word in (("zz", "yy"), ("1", "g", "1", "zz", "yy")):
        with pytest.raises(ValueError,
                           match="^unknown irreducible label 'zz'$"):
            dim_wreath(word, Z2, 4)


@pytest.mark.parametrize("read", ["dim", "conj"])
def test_table_reads_refuse_an_unknown_label(read):
    for fd in ALL_FD + (S3_DUAL,):
        with pytest.raises(ValueError,
                           match="^unknown irreducible label 'zz'$"):
            getattr(fd, read)("zz")
        with pytest.raises(TypeError):
            getattr(fd, read)(["g"])


def test_sort_words_deterministic():
    out = fuse(("g",), ("g",), Z2)
    listed = sort_words(out, Z2)
    assert [render_word(w, Z2) for w, _ in listed] == ["()", "(1)", "(g,g)"]


def test_sort_words_renders_each_label_once():
    ring = cyclic_fusion(2)
    render, rendered = ring.render_label, []
    ring.render_label = lambda a: rendered.append(a) or render(a)
    out = fuse(("g",) * 100, ("g",) * 100, ring)  # words of up to 200 letters
    listed = sort_words(out, ring)
    assert sorted(rendered) == ["1", "g"]
    assert listed == sorted(out.items(), key=lambda kv: (
        len(kv[0]), tuple(render(a) for a in kv[0])))


def test_central_char_poly():
    # chi of (g,g) is X^2 - X evaluated at N (even coefficients in X)
    assert central_char_poly(("g", "g"), Z2) == (0, -1, 1)
    assert central_char_poly((), Z2) == (1,)
    assert central_char_poly(("1",), Z2) == (-1, 1)
    assert central_char_poly(("g",), Z2) == (0, 1)
    for n in (4, 9, 16):
        val = sum(c * n ** i
                  for i, c in enumerate(central_char_poly(("g", "g"), Z2)))
        assert val == dim_wreath(("g", "g"), Z2, n)


def test_quantum_permutation_fusion():
    q4 = QuantumPermutationFusion(4)
    assert [q4.dim(m) for m in range(4)] == [1, 3, 5, 7]
    q9 = QuantumPermutationFusion(9)
    assert q9.dim(1) == 8 and q9.dim(2) == 55
    assert q4.tensor(1, 1) == {0: 1, 1: 1, 2: 1}
    assert q4.tensor(2, 1) == {1: 1, 2: 1, 3: 1}
    with pytest.raises(ValueError):
        QuantumPermutationFusion(3)
    assert [QuantumPermutationFusion(5).dim(m) for m in range(6)] == \
        [1, 4, 11, 29, 76, 199]


def test_quantum_permutation_dims_match_qnum(cheb_qnum):
    for s in (4, 5, 7):
        qs = QuantumPermutationFusion(s)
        for m in range(9):
            assert (qs.dim(m), 0) == cheb_qnum(2 * m, s)


def test_json_round_trip(tmp_path):
    text = group_dual_json(cyclic_names(3), cyclic_product(3))
    fd = fusion_from_json(text)
    assert fd.labels() == Z3.labels()
    assert fd.tensor("g", "g2") == Z3.tensor("g", "g2")
    fd.validate()
    path = tmp_path / "z3.json"
    path.write_text(text)
    assert load_fusion_file(str(path)).labels() == Z3.labels()


def test_json_malformed():
    with pytest.raises(ValueError):
        fusion_from_json("not json")
    doc = json.loads(Z2_JSON)
    del doc["tensor"]["g,g"]
    with pytest.raises(ValueError):
        fusion_from_json(json.dumps(doc))
    doc2 = json.loads(Z2_JSON)
    doc2["irreps"] = [{"label": "1"}]
    with pytest.raises(ValueError):
        fusion_from_json(json.dumps(doc2))
    # wrong JSON types: each used to crash or be truncated by int()
    edits = (
        lambda d: d.update(tensor=[]),
        lambda d: d["tensor"].update({"1,1": 5}),
        lambda d: d["tensor"]["g,g"].update({"1": None}),
        lambda d: d["tensor"]["g,g"].update({"1": 1.5}),
        lambda d: d["irreps"][1].update(dim=1.7),
        lambda d: d["conj"].update(g=["g"]),
    )
    for edit in edits:
        doc3 = json.loads(Z2_JSON)
        edit(doc3)
        with pytest.raises(ValueError):
            fusion_from_json(json.dumps(doc3))
    with pytest.raises(ValueError):
        fusion_from_json("null")


def test_fusion_from_uri(tmp_path):
    assert fusion_from_uri("builtin:trivial").labels() == ("1",)
    assert fusion_from_uri("builtin:cyclic:3").labels() == Z3.labels()
    assert fusion_from_uri("builtin:integers").labels() is None
    path = tmp_path / "fd.json"
    path.write_text(Z2_JSON)
    assert fusion_from_uri(f"file:{path}").labels() == Z2.labels()
    with pytest.raises(ValueError):
        fusion_from_uri("builtin:nope")


def test_group_dual_matches_cyclic():
    # the tables built from g^i x g^j = g^(i+j mod s) are the duals of Z/s
    # that a fusion file gives, read from addition mod s and fully checked
    for s in range(1, 13):
        fd = fusion_from_json(group_dual_json(cyclic_names(s),
                                              cyclic_product(s)))
        cyc = cyclic_fusion(s)
        labels = fd.labels()
        assert cyc.labels() == labels and cyc.trivial() == fd.trivial()
        for a in labels:
            assert (cyc.dim(a), cyc.conj(a)) == (fd.dim(a), fd.conj(a))
            for b in labels:
                assert cyc.tensor(a, b) == fd.tensor(a, b)


def test_table_refuses_unlisted_dimension():
    # a file: table takes its dimensions from the label list; a table built
    # in code may list more
    labels = Z2.labels()
    tensor = {(a, b): Z2.tensor(a, b) for a in labels for b in labels}
    conj = {a: Z2.conj(a) for a in labels}
    with pytest.raises(ValueError, match="^dimension for 'zz' names an "
                                         "unlisted label$"):
        TableFusion(labels, {"1": 1, "g": 1, "zz": 2}, "1", conj, tensor)


def test_table_refuses_a_repeated_label():
    # a table built in code is held to the rule of a file: labels are unique
    tensor = {(a, b): Z2.tensor(a, b) for a in "1g" for b in "1g"}
    with pytest.raises(ValueError, match="^duplicate irrep label 'g'$"):
        TableFusion(("1", "g", "g"), {"1": 1, "g": 1}, "1",
                    {"1": "1", "g": "g"}, tensor)


class _Unchecked(TableFusion):
    """A table built without validate, for the triple-loop oracle."""

    def validate(self):
        pass


def _triple_loop_refusal(fd):
    """The former validate, Frobenius over every label triple: the oracle.

    Returns None for an accepted table, else "pair" or "frobenius" for the
    loop that refuses it.
    """
    labels, triv = fd.labels(), fd.trivial()
    try:
        if triv not in labels or fd.conj(triv) != triv:
            return "pair"
        for a in labels:
            if (fd.dim(a) < 1 or fd.conj(fd.conj(a)) != a
                    or fd.dim(fd.conj(a)) != fd.dim(a)):
                return "pair"
        for a in labels:
            for b in labels:
                prod = fd.tensor(a, b)
                if any(c not in labels or m < 0 for c, m in prod.items()):
                    return "pair"
                if (sum(m * fd.dim(c) for c, m in prod.items())
                        != fd.dim(a) * fd.dim(b)):
                    return "pair"
                if prod.get(triv, 0) != (1 if b == fd.conj(a) else 0):
                    return "pair"
    except ValueError:
        return "pair"
    for a in labels:
        for b in labels:
            prod = fd.tensor(a, b)
            for c in labels:
                if prod.get(c, 0) != \
                        fd.tensor(b, fd.conj(c)).get(fd.conj(a), 0):
                    return "frobenius"
    return None


def _products(dims, total):
    """Every multiplicity dict over the labels with dimension count total."""
    labels = list(dims)
    for mults in itertools.product(*(range(total // dims[c] + 1)
                                     for c in labels)):
        if sum(m * dims[c] for m, c in zip(mults, labels)) == total:
            yield {c: m for c, m in zip(labels, mults) if m}


def _commutative_tables(dims):
    """Every commutative tensor table with these dimensions."""
    pairs = list(itertools.combinations_with_replacement(dims, 2))
    for choice in itertools.product(*(list(_products(dims, dims[a] * dims[b]))
                                      for a, b in pairs)):
        tensor = {}
        for (a, b), prod in zip(pairs, choice):
            tensor[(a, b)] = tensor[(b, a)] = prod
        yield tensor


def _one_entry_changed(fd):
    """fd's tensor table with one ordered pair's product replaced."""
    labels = fd.labels()
    dims = {a: fd.dim(a) for a in labels}
    base = {(a, b): fd.tensor(a, b) for a in labels for b in labels}
    for a, b in base:
        for prod in _products(dims, dims[a] * dims[b]):
            yield {**base, (a, b): prod}


# a loop of order 6 (a Latin square with identity 0) with two-sided inverses,
# not an inverse-property loop: 1 x 2 = 3 but 2 x conj(3) = 2 x 3 = 5, not 1
LOOP6 = ((0, 1, 2, 3, 4, 5), (1, 0, 3, 2, 5, 4), (2, 3, 4, 5, 0, 1),
         (3, 4, 5, 0, 1, 2), (4, 5, 0, 1, 2, 3), (5, 2, 1, 4, 3, 0))


def _frobenius_cases():
    """(labels, dims, trivial, conj, tensor) for every table in the check."""
    s3 = {a: S3.dim(a) for a in S3.labels()}
    for tensor in itertools.chain(_commutative_tables(s3),
                                  _one_entry_changed(S3)):
        yield S3.labels(), s3, "triv", {a: a for a in s3}, tensor
    z3 = {a: 1 for a in Z3.labels()}
    for conj in ({"1": "1", "g": "g2", "g2": "g"}, {a: a for a in z3}):
        for tensor in itertools.chain(_commutative_tables(z3),
                                      _one_entry_changed(Z3)):
            yield Z3.labels(), z3, "1", conj, tensor
    s3_dual = S3_DUAL  # not commutative
    for tensor in _one_entry_changed(s3_dual):
        yield (s3_dual.labels(), dict.fromkeys(s3_dual.labels(), 1), "123",
               {a: s3_dual.conj(a) for a in s3_dual.labels()}, tensor)
    labels = [str(a) for a in range(6)]
    inverse = {str(a): str(row.index(0)) for a, row in enumerate(LOOP6)}
    tensor = {(str(a), str(b)): {str(LOOP6[a][b]): 1}
              for a in range(6) for b in range(6)}
    yield labels, dict.fromkeys(labels, 1), "0", inverse, tensor


def test_validate_refuses_what_the_triple_loop_refuses():
    seen = {"s3": set(), "z3": set(), "s3_dual": set(), "loop": set()}
    for labels, dims, triv, conj, tensor in _frobenius_cases():
        expect = _triple_loop_refusal(
            _Unchecked(labels, dims, triv, conj, tensor))
        try:
            TableFusion(labels, dims, triv, conj, tensor)
            refused = None
        except ValueError as exc:
            refused = str(exc)
        assert (refused is None) == (expect is None), (conj, tensor, refused)
        if expect == "frobenius":
            assert refused.startswith("Frobenius symmetry fails"), refused
        family = {"triv": "s3", "1": "z3", "123": "s3_dual", "0": "loop"}[triv]
        seen[family].add(expect)
    # each family has tables refused by Frobenius alone; the others also
    # have accepted tables and ones refused by a pair check
    assert seen["loop"] == {"frobenius"}
    assert seen["s3"] == seen["z3"] == seen["s3_dual"] == {
        None, "pair", "frobenius"}


def _z1_table(**changes):
    """The table of the trivial group, one label "1", with some of its
    arguments replaced: built through TableFusion, so validate runs."""
    args = dict(labels=["1"], dims={"1": 1}, trivial="1", conj={"1": "1"},
                tensor={("1", "1"): {"1": 1}})
    args.update(changes)
    return TableFusion(**args)


def _z1_json(tensor_key: str) -> str:
    doc = json.loads(group_dual_json(["1"], lambda a, b: "1"))
    doc["tensor"] = {tensor_key: {"1": 1}}
    return json.dumps(doc)


@pytest.mark.parametrize("call, message", [
    (lambda: _z1_table(trivial="e"), "trivial label missing from label list"),
    (lambda: _z1_table(labels=["1", "g"], dims={"1": 1, "g": 1},
                       conj={"1": "g", "g": "1"},
                       tensor={(a, b): {"1": 1} for a in "1g" for b in "1g"}),
     "conjugate of the trivial label must be itself"),
    (lambda: _z1_table(dims={"1": 0}), "dimension of '1' must be positive"),
    (lambda: _z1_table(labels=["1", "a", "b"], dims={"1": 1, "a": 2, "b": 3},
                       conj={"1": "1", "a": "b", "b": "a"},
                       tensor={(x, y): {} for x in "1ab" for y in "1ab"}),
     "conjugate of 'a' has a different dimension"),
    (lambda: _z1_table(tensor={("1", "1"): {"1": -1}}),
     "bad tensor entry '1':-1 in '1'x'1'"),
    (lambda: _z1_table(tensor={("1", "1"): {"1": 2}}),
     "dimension count fails in '1'x'1': 2 != 1"),
    (lambda: fusion_from_json(_z1_json("1,1,1")),
     "bad tensor key '1,1,1', expected 'a,b'"),
    (lambda: cyclic_fusion(0), "order must be positive"),
    (lambda: fusion_from_uri("cyclic:3"),
     "cannot parse fusion locator 'cyclic:3'"),
    (lambda: rep_as_dict(Z2, {"1": 1, "g": -1}),
     "negative multiplicity for 'g'"),
    (lambda: QuantumPermutationFusion(4).dim(-1),
     "labels must be nonnegative"),
    (lambda: QuantumPermutationFusion(4).tensor(1, -2),
     "labels must be nonnegative"),
], ids=["trivial-missing", "trivial-conjugate", "dimension", "conjugate-dim",
        "tensor-entry", "dimension-count", "tensor-key", "cyclic-0", "locator",
        "multiplicity", "qperm-dim", "qperm-tensor"])
def test_fusion_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_dim_multiplicativity_names_the_first_failure(monkeypatch):
    # one word's dimension is off by one: the third pair drawn is the first
    # whose product reads it, and the report stops there and names it
    real = fusion.dim_wreath
    monkeypatch.setattr(fusion, "dim_wreath", lambda w, fd, n: real(
        w, fd, n) + (w == ("g", "g")))
    report = verify_dim_multiplicativity(Z3, 4, random.Random(1), 30)
    assert report.render() == (
        "verify dimension multiplicativity N=4: FAIL\n"
        "  FAIL: 30 random products have multiplicative dimension "
        "[first failure (('1',), ('1', 'g', 'g'), 72, 73)]")


class _OneLabel(fusion.FusionData):
    """The trivial ring through the base class's own label checks."""

    def trivial(self):
        return "1"

    def dim(self, label):
        return 1

    def conj(self, label):
        return label

    def tensor(self, a, b):
        return {"1": 1}

    def labels(self):
        return ("1",)


def test_finite_fusion_data_checks_its_labels():
    fd = _OneLabel()
    fd.check_label("1")
    with pytest.raises(ValueError) as info:
        fd.check_label("g")
    assert str(info.value) == "unknown irreducible label 'g'"


def test_quantum_permutation_labels_parse_as_integers():
    assert QuantumPermutationFusion(4).parse_label("12") == 12


@pytest.mark.parametrize("text", ["x", "g", "1.5"])
def test_integer_labels_refuse_a_non_integer(text):
    with pytest.raises(ValueError) as info:
        IntegersFusion().parse_label(text)
    assert str(info.value) == f"integer label expected, got {text!r}"
