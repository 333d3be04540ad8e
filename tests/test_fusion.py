import json
import random

import pytest

from freewreath.fusion import (FiniteGroup, QuantumPermutationFusion,
                               ReducedWord,
                               central_char_poly, conj_word, cyclic_fusion,
                               cyclic_group, dim_wreath, expand_reduced, fuse,
                               fuse_via_reduced, fusion_from_json,
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
