import ast
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import freewreath
from freewreath import cli, homspaces, linmaps, partition, weingarten
from freewreath.cli import main
from freewreath.fusion import fusion_from_uri
from freewreath.homspaces import dim_hom_fusion, parse_star_list
from freewreath.report import VerificationReport
from freewreath.tl import tl_identity

SRC = str(Path(freewreath.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python(*argv, **env):
    """Run a fresh interpreter on src/ with extra environment variables."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env={**os.environ, **env,
                                          "PYTHONPATH": path})


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


def test_hom_dim_enumerates_no_partition(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the partition route enumerated partitions")

    monkeypatch.setattr(homspaces, "enumerate_partitions", never)
    monkeypatch.setattr(partition, "enumerate_partitions", never)
    z3 = fusion_from_uri("builtin:cyclic:3")
    up, down = "g,g2,g,1", "1,g,1,g2,g,g,g2,g2,g,1"  # 14 points, the cap
    expect = dim_hom_fusion(parse_star_list(up, z3),
                            parse_star_list(down, z3), z3)
    assert expect == 8337
    assert run(capsys, "hom-dim", "--up", up, "--down", down, "--fusion",
               "builtin:cyclic:3") == (0, f"{expect}\n", "")
    assert run(capsys, "hom-dim", "--up", up, "--down", down + ",1",
               "--fusion", "builtin:cyclic:3") == (
        2, "", "cap exceeded: enumeration over 15 points exceeds the cap "
               "of 14\n")


def test_char_law_empty_eps_refused(capsys):
    code, out, err = run(capsys, "char-law", "--rep", "g", "--eps", "")
    assert code == 1 and out == "" and err.startswith("error:")


def test_classical_out_of_range_refused(capsys):
    for n, k in (("-1", "3"), ("3", "-2")):
        code, out, err = run(capsys, "classical", "--n", n, "--k", k)
        assert code == 1 and out == "" and err.startswith("error:")


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


@pytest.mark.parametrize("diagram", ["TL(0,2): (1,2)", "TL(2,0): (1,2)"])
def test_tl_trace_non_square_refused(capsys, diagram):
    code, out, err = run(capsys, "tl", "trace", diagram, "--N", "4")
    assert code == 1 and out == "" and "square" in err
    assert "partial closing" not in err


def test_tl_trace_empty_diagram(capsys):
    assert run(capsys, "tl", "trace", "TL(0,0):", "--N", "4") == (0, "1\n", "")


def test_tl_trace_nonpositive_N_refused(capsys):
    for n in ("-3", "0"):
        code, out, err = run(capsys, "tl", "trace", "TL(2,2): (1,3)(2,4)",
                             "--N", n)
        assert code == 1 and out == "" and err.startswith("error:")


# tl trace of the identity of TL(e, e), whose Markov trace is sqrt(N)^e:
# (text, --float) for e = 0..9, pinned; 1, 4 and 9 are perfect squares
TRACE_TABLE = {
    1: [("1", "1.0")] * 10,
    2: [("1", "1.0"), ("0 + 1*sqrt(2)", "1.4142135623730951"), ("2", "2.0"),
        ("0 + 2*sqrt(2)", "2.8284271247461903"), ("4", "4.0"),
        ("0 + 4*sqrt(2)", "5.656854249492381"), ("8", "8.0"),
        ("0 + 8*sqrt(2)", "11.313708498984761"), ("16", "16.0"),
        ("0 + 16*sqrt(2)", "22.627416997969522")],
    3: [("1", "1.0"), ("0 + 1*sqrt(3)", "1.7320508075688772"), ("3", "3.0"),
        ("0 + 3*sqrt(3)", "5.196152422706632"), ("9", "9.0"),
        ("0 + 9*sqrt(3)", "15.588457268119894"), ("27", "27.0"),
        ("0 + 27*sqrt(3)", "46.76537180435968"), ("81", "81.0"),
        ("0 + 81*sqrt(3)", "140.29611541307906")],
    4: [("1", "1.0"), ("2", "2.0"), ("4", "4.0"), ("8", "8.0"), ("16", "16.0"),
        ("32", "32.0"), ("64", "64.0"), ("128", "128.0"), ("256", "256.0"),
        ("512", "512.0")],
    5: [("1", "1.0"), ("0 + 1*sqrt(5)", "2.23606797749979"), ("5", "5.0"),
        ("0 + 5*sqrt(5)", "11.180339887498949"), ("25", "25.0"),
        ("0 + 25*sqrt(5)", "55.90169943749474"), ("125", "125.0"),
        ("0 + 125*sqrt(5)", "279.5084971874737"), ("625", "625.0"),
        ("0 + 625*sqrt(5)", "1397.5424859373686")],
    6: [("1", "1.0"), ("0 + 1*sqrt(6)", "2.449489742783178"), ("6", "6.0"),
        ("0 + 6*sqrt(6)", "14.696938456699067"), ("36", "36.0"),
        ("0 + 36*sqrt(6)", "88.18163074019441"), ("216", "216.0"),
        ("0 + 216*sqrt(6)", "529.0897844411664"), ("1296", "1296.0"),
        ("0 + 1296*sqrt(6)", "3174.5387066469984")],
    7: [("1", "1.0"), ("0 + 1*sqrt(7)", "2.6457513110645907"), ("7", "7.0"),
        ("0 + 7*sqrt(7)", "18.520259177452136"), ("49", "49.0"),
        ("0 + 49*sqrt(7)", "129.64181424216494"), ("343", "343.0"),
        ("0 + 343*sqrt(7)", "907.4926996951547"), ("2401", "2401.0"),
        ("0 + 2401*sqrt(7)", "6352.448897866082")],
    8: [("1", "1.0"), ("0 + 1*sqrt(8)", "2.8284271247461903"), ("8", "8.0"),
        ("0 + 8*sqrt(8)", "22.627416997969522"), ("64", "64.0"),
        ("0 + 64*sqrt(8)", "181.01933598375618"), ("512", "512.0"),
        ("0 + 512*sqrt(8)", "1448.1546878700494"), ("4096", "4096.0"),
        ("0 + 4096*sqrt(8)", "11585.237502960395")],
    9: [("1", "1.0"), ("3", "3.0"), ("9", "9.0"), ("27", "27.0"),
        ("81", "81.0"), ("243", "243.0"), ("729", "729.0"), ("2187", "2187.0"),
        ("6561", "6561.0"), ("19683", "19683.0")],
    10: [("1", "1.0"), ("0 + 1*sqrt(10)", "3.1622776601683795"),
         ("10", "10.0"), ("0 + 10*sqrt(10)", "31.622776601683796"),
         ("100", "100.0"), ("0 + 100*sqrt(10)", "316.22776601683796"),
         ("1000", "1000.0"), ("0 + 1000*sqrt(10)", "3162.2776601683795"),
         ("10000", "10000.0"), ("0 + 10000*sqrt(10)", "31622.776601683796")],
    11: [("1", "1.0"), ("0 + 1*sqrt(11)", "3.3166247903554"), ("11", "11.0"),
         ("0 + 11*sqrt(11)", "36.4828726939094"), ("121", "121.0"),
         ("0 + 121*sqrt(11)", "401.31159963300337"), ("1331", "1331.0"),
         ("0 + 1331*sqrt(11)", "4414.427595963037"), ("14641", "14641.0"),
         ("0 + 14641*sqrt(11)", "48558.703555593405")],
    12: [("1", "1.0"), ("0 + 1*sqrt(12)", "3.4641016151377544"),
         ("12", "12.0"), ("0 + 12*sqrt(12)", "41.569219381653056"),
         ("144", "144.0"), ("0 + 144*sqrt(12)", "498.8306325798366"),
         ("1728", "1728.0"), ("0 + 1728*sqrt(12)", "5985.967590958039"),
         ("20736", "20736.0"), ("0 + 20736*sqrt(12)", "71831.61109149648")],
}


def test_tl_trace_table(capsys):
    for n, rows in TRACE_TABLE.items():
        for e, (text, shown) in enumerate(rows):
            argv = ("tl", "trace", tl_identity(e).render(), "--N", str(n))
            assert run(capsys, *argv) == (0, f"{text}\n", ""), (n, e)
            assert run(capsys, *argv, "--float") == (0, f"{shown}\n", ""), (n, e)


@pytest.mark.parametrize("argv", [
    # sqrt(10^71)^9 is 10^284 * sqrt(10^71): float(10^284) * 3e35 is inf
    ("tl", "trace", tl_identity(9).render(), "--N", str(10 ** 71)),
    # sqrt(10^72)^9 = 10^324 and 10^(40 * 10) do not convert to a float
    ("tl", "trace", tl_identity(9).render(), "--N", str(10 ** 72)),
    ("tl", "trace", tl_identity(20).render(), "--N", str(10 ** 40)),
    # the Gram entries N^b are past the float range; the index lines come first
    ("weingarten", "--k", "2", "--N", str(10 ** 400)),
])
def test_float_overflow_refused(capsys, argv):
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--float")
    assert (code, out) == (1, "") and err.startswith("error:")


def _huge(k):
    """A moment of order k that passes the float range from k = 2 on."""
    return Fraction(10) ** (200 * k)


@pytest.mark.parametrize("argv, patches", [
    (("classical", "--n", "4", "--k", "3"),
     {"classical_wreath_moment": lambda bm, n, k: _huge(k)}),
    (("partial-trace", "--t", "1/2", "--k", "3"),
     {"partial_trace_moments": lambda t, bm, k: _huge(k)}),
    (("char-law", "--rep", "g", "--order", "3"),
     {"character_moment_wreath": lambda fd, rep, eps: _huge(len(eps)),
      "free_cumulants_to_moments": lambda cumulants: {
          eps: _huge(len(eps)) for eps in cumulants}}),
])
def test_float_overflow_prints_nothing(capsys, monkeypatch, argv, patches):
    # no input within the caps reaches the float range in these commands, so
    # the moments are replaced by ones that do
    for name, fake in patches.items():
        monkeypatch.setattr(cli, name, fake)
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--float")
    assert (code, out) == (1, "") and err.startswith("error:")


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


@pytest.mark.parametrize("argv, message", [
    (("partial-trace", "--t", "2", "--k", "3"), "t must lie in [0, 1], got 2"),
    (("partial-trace", "--t", "-1", "--k", "3"), "t must lie in [0, 1], got -1"),
    (("partial-trace", "--t", "1/2", "--k", "-3"),
     "--k must be nonnegative, got -3"),
    (("char-law", "--rep", "g", "--order", "0"),
     "--order must be at least 1, got 0"),
    (("verify", "fusion-dim", "--N", "4", "--count", "-5"),
     "count must be nonnegative, got -5"),
    (("verify", "category", "--N", "4", "--max-points", "-1"),
     "max_points must be nonnegative, got -1"),
    (("tl", "verify", "--max-points", "-1"),
     "max_points must be nonnegative, got -1"),
    (("partial-trace", "--t", "1/0", "--k", "3"),
     "--t must be a fraction such as 1/2, got '1/0'"),
    (("partial-trace", "--t", "abc", "--k", "3"),
     "--t must be a fraction such as 1/2, got 'abc'"),
    (("partial-trace", "--t", "2", "--k", "0"), "t must lie in [0, 1], got 2"),
    (("verify", "category", "--N", "-40"), "dimension must be positive, got -40"),
])
def test_out_of_range_refused(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("partial-trace", "--t", "1/2", "--k", "6"),
    ("char-law", "--rep", "g", "--order", "6"),
    ("classical", "--n", "3", "--k", "6"),
])
def test_order_over_cap_prints_nothing(argv):
    done = python("-m", "freewreath.cli", *argv, FREEWREATH_ENUM_CAP="5")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("cap exceeded:")


def test_verify_category_over_cap_refused_before_any_work(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("called before the entry cap was checked")

    monkeypatch.setattr(linmaps, "_support", never)
    monkeypatch.setattr(linmaps, "enumerate_partitions", never)
    code, out, err = run(capsys, "verify", "category", "--N", "40")
    assert (code, out) == (2, "")
    assert err == ("cap exceeded: storing 4096000000 entries exceeds the cap "
                   "of 10000000\n")
    done = python("-m", "freewreath.cli", "verify", "category", "--N", "4",
                  "--max-points", "5", FREEWREATH_ENTRY_CAP="1000")
    assert (done.returncode, done.stdout) == (2, "")


def test_verify_category_caps_the_compose_pairs():
    # 6 points list 43,371 composable pairs; every map has at most 64 entries
    argv = ("-m", "freewreath.cli", "verify", "category", "--N", "2",
            "--max-points", "6")
    done = python(*argv, FREEWREATH_ENTRY_CAP="40000")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("cap exceeded: listing 43371 composable pairs "
                           "exceeds the cap of 40000\n")
    assert python(*argv, FREEWREATH_ENTRY_CAP="50000").returncode == 0


def test_weingarten_over_cap_refused_before_any_work(capsys, monkeypatch):
    # wg_table(9, ...) has at least Catalan(9)**2 = 23,639,044 Gram entries
    def never(*args, **kwargs):
        raise AssertionError("called before the entry cap was checked")

    monkeypatch.setattr(weingarten, "wg_indices", never)
    monkeypatch.setattr(weingarten, "enumerate_partitions", never)
    for argv in (("weingarten", "--k", "9", "--N", "4"),
                 ("verify", "weingarten", "--k", "9")):
        assert run(capsys, *argv) == (2, "", "cap exceeded: storing 23639044 "
                                      "entries exceeds the cap of 10000000\n")


def test_weingarten_caps_the_gram_entries():
    # k = 4 has Catalan(4)**2 = 196 entries at least; k = 3 has 25
    for argv in (("weingarten", "--k", "4", "--N", "4"),
                 ("verify", "weingarten", "--k", "4", "--s", "4")):
        done = python("-m", "freewreath.cli", *argv, FREEWREATH_ENTRY_CAP="195")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == ("cap exceeded: storing 196 entries exceeds the "
                               "cap of 195\n")
    done = python("-m", "freewreath.cli", "weingarten", "--k", "3", "--N", "4",
                  FREEWREATH_ENTRY_CAP="25")
    assert done.returncode == 0 and done.stdout


def test_dim_below_four_refused(capsys):
    for word, n in (("(1,1)", "2"), ("(1,1,1)", "3")):
        code, out, err = run(capsys, "dim", word, "--N", n)
        assert code == 1 and out == "" and "Traceback" not in err
    code, out, _ = run(capsys, "verify", "fusion-dim", "--N", "3")
    assert code == 1 and out == ""


def test_hom_dim_unknown_letter_refused(capsys):
    for method in ("partition", "fusion"):
        code, out, err = run(capsys, "hom-dim", "--up", "g", "--down", "g,g3",
                             "--fusion", "builtin:cyclic:3", "--method", method)
        assert (code, out) == (1, "")
        assert err == "error: unknown irreducible label 'g3'\n"


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


def test_classical_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brute_force_z2_s3_moments",
                        lambda rep, k: [0] * (k + 1))
    assert run(capsys, "classical", "--n", "3") == (
        3, "", "brute-force group average disagrees\n")


def test_char_law_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "character_moment_wreath",
                        lambda fd, rep, eps: -1)
    assert run(capsys, "char-law", "--rep", "g") == (
        3, "", "internal disagreement at 1: -1 vs 0\n")
    assert run(capsys, "char-law", "--rep", "g", "--eps", "1*") == (
        3, "", "internal disagreement at 1*: -1 vs 1\n")


def test_failing_report_exits_3(capsys, monkeypatch):
    report = VerificationReport("collapsing isomorphism")
    report.add("a check that fails", False, "1 failure")
    monkeypatch.setattr(cli, "verify_phi", lambda max_points: report)
    assert run(capsys, "tl", "verify") == (3, report.render() + "\n", "")


@pytest.mark.parametrize("argv", [
    ("weingarten", "--k", "2", "--N", "4", "--haar", "1,1"),
    ("verify", "fusion-dim", "--N", "4", "--fusion", "builtin:integers"),
])
def test_command_refusal_prints_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("error:")


def test_only_main_prints():
    # the commands return lines or a report; main prints them and exits
    tree = ast.parse(inspect.getsource(cli))
    printers = {fn.name for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn)
                if isinstance(node, ast.Name) and node.id in ("print", "sys")}
    assert printers == {"main", "error"}


def test_tl_crossing_rejected(capsys):
    code, _, err = run(capsys, "tl", "collapse", "TL(2,2): (1,4)(2,3)")
    assert code == 1 and "cross" in err


def test_malformed_fusion_file_refused(capsys, tmp_path):
    path = tmp_path / "fd.json"
    path.write_text('{"irreps": [{"label": "1", "dim": 1}], "trivial": "1", '
                    '"conj": {"1": "1"}, "tensor": {"1,1": 5}}')
    code, out, err = run(capsys, "fuse", "(1)", "(1)", "--fusion",
                         f"file:{path}")
    assert code == 1 and out == "" and err.startswith("error:")


def test_bad_cap_variable_refused():
    cases = (
        ("FREEWREATH_ENUM_CAP", "abc",
         "error: FREEWREATH_ENUM_CAP must be an integer, got 'abc'\n"),
        ("FREEWREATH_ENUM_CAP", "0",
         "error: FREEWREATH_ENUM_CAP must be positive, got 0\n"),
        ("FREEWREATH_ENTRY_CAP", "1e7",
         "error: FREEWREATH_ENTRY_CAP must be an integer, got '1e7'\n"),
    )
    for name, value, message in cases:
        done = python("-m", "freewreath.cli", "dim", "(g)", "--N", "4",
                      **{name: value})
        assert (done.returncode, done.stdout, done.stderr) == (1, "", message)
    assert python("-c", "import freewreath",
                  FREEWREATH_ENUM_CAP="abc").returncode == 0


def test_cli_imports_stdlib_only():
    done = python("-c", "import sys, freewreath.cli; "
                        "assert 'numpy' not in sys.modules")
    assert done.returncode == 0, done.stderr
