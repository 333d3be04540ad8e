from fractions import Fraction

from freewreath.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fuse(capsys):
    code, out, _ = run(capsys, "fuse", "(g)", "(g)")
    assert code == 0
    assert out.splitlines() == ["() ×1", "(1) ×1", "(g,g) ×1"]


def test_fuse_free_product_method(capsys):
    a = run(capsys, "fuse", "(g,g)", "(g)", "--method", "direct")
    b = run(capsys, "fuse", "(g,g)", "(g)", "--method", "free-product")
    assert a == b and a[0] == 0


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "(g,g)", "--N", "4")
    assert code == 0 and out.strip() == "12"


def test_char_poly(capsys):
    code, out, _ = run(capsys, "char-poly", "(g,g)")
    assert code == 0 and out.strip() == "X^2 - X"


def test_hom_dim(capsys):
    code, out, _ = run(capsys, "hom-dim", "--up", "g,g", "--down", "g,g")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "hom-dim", "--up", "", "--down", "1,1",
                       "--method", "fusion")
    assert code == 0 and out.strip() == "2"


def test_char_law(capsys):
    code, out, _ = run(capsys, "char-law", "--rep", "g")
    assert code == 0
    values = [line.split(": ")[1] for line in out.splitlines()]
    assert values == ["0", "1", "0", "3"]


def test_char_law_eps(capsys):
    code, out, _ = run(capsys, "char-law", "--rep", "g", "--fusion",
                       "builtin:cyclic:3", "--eps", "1*1*")
    assert code == 0
    # admissible: {12|34}, {14|23}, and the full block g g2 g g2
    assert out.splitlines() == ["moment 1*1*: 3"]


def test_classical(capsys):
    code, out, _ = run(capsys, "classical", "--n", "3", "--k", "4")
    assert code == 0
    lines = out.splitlines()
    assert [l.split(": ")[1] for l in lines[:5]] == ["1", "1", "3", "11", "48"]
    assert lines[5] == "verified against the average over all 48 group elements"


def test_partial_trace(capsys):
    code, out, _ = run(capsys, "partial-trace", "--t", "1/2", "--k", "4")
    assert code == 0
    assert [l.split(": ")[1] for l in out.splitlines()] == \
        ["1/2", "3/4", "11/8", "45/16"]


def test_weingarten_gram(capsys):
    code, out, _ = run(capsys, "weingarten", "--k", "2", "--N", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index 0: outer {1|2} (k=0,l=2)  inner {1|2} (k=0,l=2)"
    assert lines[2:] == ["16 4", "4 4"]


def test_weingarten_invert(capsys):
    code, out, _ = run(capsys, "weingarten", "--k", "1", "--N", "5", "--invert")
    assert code == 0
    assert out.splitlines()[-1] == "1/5"


def test_weingarten_haar(capsys):
    code, out, _ = run(capsys, "weingarten", "--k", "1", "--N", "5",
                       "--haar", "1,1,2,3")
    assert code == 0 and out.strip() == "1/5"


def test_weingarten_haar_bad_length(capsys):
    code, _, err = run(capsys, "weingarten", "--k", "2", "--N", "4",
                       "--haar", "1,1")
    assert code == 1 and "4*k" in err


def test_tl_trace(capsys):
    code, out, _ = run(capsys, "tl", "trace", "TL(2,2): (1,3)(2,4)",
                       "--N", "4")
    assert code == 0 and out.strip() == "4"


def test_tl_collapse(capsys):
    code, out, _ = run(capsys, "tl", "collapse", "TL(2,2): (1,2)(3,4)")
    assert code == 0 and out.strip() == "{1|2} (k=1,l=1)"


def test_tl_phi(capsys):
    code, out, _ = run(capsys, "tl", "phi", "TL(2,0): (1,2)")
    assert code == 0 and out.strip() == "N^(-1/4) * {1} (k=1,l=0)"


def test_tl_verify(capsys):
    code, out, _ = run(capsys, "tl", "verify", "--max-points", "4")
    assert code == 0 and "pass" in out.lower()


def test_verify_category(capsys):
    code, out, _ = run(capsys, "verify", "category", "--N", "3",
                       "--max-points", "4")
    assert code == 0


def test_verify_conjugate(capsys):
    code, out, _ = run(capsys, "verify", "conjugate", "--k", "2", "--N", "3")
    assert code == 0


def test_verify_fusion_dim(capsys):
    code, out, _ = run(capsys, "verify", "fusion-dim", "--N", "4",
                       "--count", "50", "--seed", "1")
    assert code == 0


def test_verify_weingarten(capsys):
    code, out, _ = run(capsys, "verify", "weingarten", "--k", "2", "--s", "4")
    assert code == 0


def test_exit_code_cap(capsys):
    code, _, err = run(capsys, "weingarten", "--k", "20", "--N", "4")
    assert code == 2 and "cap" in err


def test_exit_code_domain_error(capsys):
    code, _, err = run(capsys, "dim", "(bogus)", "--N", "4")
    assert code == 1
    code2, _, _ = run(capsys, "dim", "(g)", "--N", "0")
    assert code2 == 1


def test_dim_below_four_refused(capsys):
    for word, n in (("(1,1)", "2"), ("(1,1,1)", "3")):
        code, out, err = run(capsys, "dim", word, "--N", n)
        assert code == 1 and out == "" and "Traceback" not in err
    code, out, _ = run(capsys, "verify", "fusion-dim", "--N", "3")
    assert code == 1 and out == ""


def test_dim_long_trivial_word(capsys):
    # one reduced exponent of 1200: A_1200(2) = 1201
    word = "(" + ",".join(["1"] * 600) + ")"
    code, out, _ = run(capsys, "dim", word, "--N", "4")
    assert code == 0 and out == "1201\n"


def test_exit_code_usage(capsys):
    code, _, _ = run(capsys, "dim", "(g)")            # missing --N
    assert code == 1
    code2, _, _ = run(capsys, "no-such-command")
    assert code2 == 1


def test_tl_crossing_rejected(capsys):
    code, _, err = run(capsys, "tl", "collapse", "TL(2,2): (1,4)(2,3)")
    assert code == 1 and "cross" in err
