import itertools
import json
import random

import pytest

from freewreath.fusion import (FiniteGroup, QuantumPermutationFusion,
                               ReducedWord, TableFusion,
                               central_char_poly, conj_word, cyclic_fusion,
                               cyclic_group, dim_wreath, expand_reduced, fuse,
                               fuse_direct, fuse_via_reduced, fusion_from_json,
                               fusion_from_uri, group_dual_fusion,
                               integers_fusion, load_fusion_file, parse_word,
                               reduce_word, render_word, sort_words,
                               symmetric_group_3, symmetric_group_3_fusion,
                               trivial_fusion)

Z2 = cyclic_fusion(2)
Z3 = cyclic_fusion(3)
S3 = symmetric_group_3_fusion()
ALL_FD = (trivial_fusion(), Z2, Z3, S3)


def test_finite_group_validation():
    g = cyclic_group(3)
    assert g.identity == "1"
    assert g.mult("g", "g2") == "1" and g.inverse("g2") == "g"
    with pytest.raises(ValueError):
        FiniteGroup(("1", "a"), {("1", "1"): "1"})       # incomplete table
    bad = {("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a", ("a", "a"): "a"}
    with pytest.raises(ValueError):
        FiniteGroup(("1", "a"), bad)                     # no inverse for a


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


def test_finite_group_refuses_non_associative_loops():
    # the former check over every triple is the oracle; the 4 loops of
    # order 4 are groups, of the 56 of order 5 only the 6 labellings of Z/5,
    # and LOOP6 is none
    accepted = 0
    for square in itertools.chain(_loops(4), _loops(5), [LOOP6]):
        n = len(square)
        labels = tuple(str(a) for a in range(n))
        table = {(str(a), str(b)): str(square[a][b])
                 for a in range(n) for b in range(n)}
        if all(square[square[a][b]][c] == square[a][square[b][c]]
               for a, b, c in itertools.product(range(n), repeat=3)):
            FiniteGroup(labels, table)
            accepted += 1
        else:
            with pytest.raises(ValueError, match="not associative"):
                FiniteGroup(labels, table)
    assert accepted == 4 + 6


def test_symmetric_group_3():
    g = symmetric_group_3()
    assert len(g.elements) == 6
    # a transposition squares to the identity, a 3-cycle does not
    tr = next(e for e in g.elements if g.mult(e, e) == g.identity
              and e != g.identity)
    assert g.inverse(tr) == tr
    cyc = next(e for e in g.elements if g.mult(e, e) != g.identity)
    assert g.mult(g.mult(cyc, cyc), cyc) == g.identity


def test_builtin_fusion_validates():
    for fd in ALL_FD + (integers_fusion(), QuantumPermutationFusion(4)):
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
            rw = reduce_word(w, fd)
            assert expand_reduced(rw, fd) == w
            # no nontrivial letter is lost
            assert [a for a in rw.letters] == \
                [a for a in w if a != fd.trivial()]


def test_reduced_word_validation():
    with pytest.raises(ValueError):
        ReducedWord((1,), ("g",))            # needs one more exponent than letters
    # a run of trivial letters reduces to a bare even exponent
    assert reduce_word(("1",), Z2) == ReducedWord((2,), ())
    with pytest.raises(ValueError):
        expand_reduced(ReducedWord((3,), ()), Z2)        # odd pure exponent
    with pytest.raises(ValueError):
        expand_reduced(ReducedWord((2, 2), ("g",)), Z2)  # even outer exponent
    with pytest.raises(ValueError):
        expand_reduced(ReducedWord((1, 1, 1), ("g", "g")), Z2)


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
                rw = reduce_word(w, fd)
                value = qnum_prod([(fd.dim(a), 0) for a in rw.letters]
                                  + [cheb_qnum(e, n) for e in rw.exponents], n)
                assert value == (dim_wreath(w, fd, n), 0), (w, n)


def test_sort_words_deterministic():
    out = fuse(("g",), ("g",), Z2)
    listed = sort_words(out, Z2)
    assert [render_word(w, Z2) for w, _ in listed] == ["()", "(1)", "(g,g)"]


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
    text = Z3.to_json()
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
    doc = json.loads(Z2.to_json())
    del doc["tensor"]["g,g"]
    with pytest.raises(ValueError):
        fusion_from_json(json.dumps(doc))
    doc2 = json.loads(Z2.to_json())
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
        doc3 = json.loads(Z2.to_json())
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
    path.write_text(Z2.to_json())
    assert fusion_from_uri(f"file:{path}").labels() == Z2.labels()
    with pytest.raises(ValueError):
        fusion_from_uri("builtin:nope")


def test_group_dual_matches_cyclic():
    fd = group_dual_fusion(cyclic_group(3))
    assert set(fd.labels()) == set(Z3.labels())
    assert fd.tensor("g", "g") == {"g2": 1}


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
    s3_dual = group_dual_fusion(symmetric_group_3())  # not commutative
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
