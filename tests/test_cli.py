import ast
import inspect
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import freewreath
from builders import cyclic_names, cyclic_product, group_dual_json, tl_identity
from freewreath import (cli, config, freeprob, fusion, homspaces, linmaps,
                        partition, tl, weingarten)
from freewreath.cli import main
from freewreath.config import CATEGORIES
from freewreath.fusion import fusion_from_uri, parse_star_list
from freewreath.homspaces import dim_hom_fusion
from freewreath.report import VerificationReport

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
        # the message names the input that is out of range, as given
        bad = "--n" if n.startswith("-") else "--k"
        value = n if bad == "--n" else k
        assert err == f"error: {bad} must be nonnegative, got {value}\n"


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


def test_weingarten_invert_prints_from_wnum(capsys):
    # W is printed row by row from wnum / wden
    code, out, _ = run(capsys, "weingarten", "--k", "3", "--N", "4", "--s",
                       "3", "--invert")
    assert code == 0
    table = weingarten.wg_table(3, 4, 3)
    assert out.splitlines()[len(table.indices):] == [
        " ".join(str(Fraction(x, table.wden)) for x in row)
        for row in table.wnum]


def test_weingarten_haar(capsys):
    code, out, _ = run(capsys, "weingarten", "--k", "1", "--N", "5",
                       "--haar", "1,1,2,3")
    assert code == 0 and out.strip() == "1/5"


def test_weingarten_haar_bad_length(capsys):
    code, _, err = run(capsys, "weingarten", "--k", "2", "--N", "4",
                       "--haar", "1,1")
    assert code == 1 and "4*k" in err


def test_weingarten_haar_non_integer(capsys):
    code, out, err = run(capsys, "weingarten", "--k", "2", "--N", "4",
                         "--haar", "1,1,a,1,1,1,1,1")
    assert (code, out) == (1, "")
    assert err == "error: --haar entries must be integers, got 'a'\n"


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
     {"classical_wreath_moments": lambda bm, n, k: list(map(_huge,
                                                             range(k + 1)))}),
    (("partial-trace", "--t", "1/2", "--k", "3"),
     {"partial_trace_law": lambda t, bm, k: list(map(_huge, range(k + 1)))}),
    (("char-law", "--rep", "g", "--order", "3"),
     {"plain_character_moments": lambda fd, rep, k: list(map(_huge,
                                                              range(k + 1))),
      "compound_poisson_law": lambda fd, rep: freeprob._Memo(
          lambda eps: _huge(len(eps)))}),
])
def test_float_overflow_prints_nothing(capsys, monkeypatch, argv, patches):
    # no input within the caps reaches the float range in these commands, so
    # the moments are replaced by ones that do
    for name, fake in patches.items():
        monkeypatch.setattr(freeprob, name, fake)
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
    # 3**14 entries per tensor product pass the cap; the check itself walks
    # the 3**7 support positions of T_r
    assert run(capsys, "verify", "conjugate", "--k", "7", "--N", "3") == (
        0, "verify conjugate equations k=7, N=3: PASS\n"
           "  ok: (T_r* tensor id) . (id tensor T_r) = id\n"
           "  ok: (id tensor T_r*) . (T_r tensor id) = id\n", "")


def test_verify_fusion_dim(capsys):
    code, out, _ = run(capsys, "verify", "fusion-dim", "--N", "4",
                       "--count", "50", "--seed", "1")
    assert code == 0


def test_verify_fusion_dim_caps_its_count(capsys, monkeypatch):
    argv = ("-m", "freewreath.cli", "verify", "fusion-dim", "--N", "4",
            "--count")
    done = python(*argv, "51", FREEWREATH_ENTRY_CAP="50")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("cap exceeded: checking 51 random products "
                           "exceeds the cap of 50\n")
    done = python(*argv, "50", FREEWREATH_ENTRY_CAP="50")
    assert done.returncode == 0
    assert "ok: 50 random products" in done.stdout

    def never(*args, **kwargs):
        raise AssertionError("a product was fused before the cap was checked")

    monkeypatch.setattr(fusion, "fuse", never)
    assert run(capsys, "verify", "fusion-dim", "--N", "4", "--count",
               "1000000000") == \
        (2, "", "cap exceeded: checking 1000000000 random products exceeds "
                "the cap of 10000000\n")


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
def test_order_over_cap_prints_nothing(capsys, monkeypatch, argv):
    # the work of order 6 is over an entry cap of 100, and order 6 is over
    # no enumeration cap
    done = python("-m", "freewreath.cli", *argv, FREEWREATH_ENTRY_CAP="100",
                  FREEWREATH_ENUM_CAP="5")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("cap exceeded: ")
    assert done.stderr.endswith(" steps for the moments to order 6 exceeds "
                                "the cap of 100\n")
    monkeypatch.setattr(config, "caps", lambda: (5, 10 ** 7))
    code, out, _ = run(capsys, *argv)
    assert (code, len(out.splitlines())) == (0, 6 + (argv[0] == "classical") * 2)


def _recording_block_moments(monkeypatch, name):
    """Patch freeprob's block-moment factory ``name``; returns the list of
    the block moments its functions are asked for."""
    asked = []
    factory = getattr(freeprob, name)

    def recorded(*args):
        fn = factory(*args)
        return lambda s: asked.append(s) or fn(s)

    monkeypatch.setattr(freeprob, name, recorded)
    return asked


def test_partial_trace_cap_names_the_typed_k(capsys, monkeypatch):
    asked = _recording_block_moments(monkeypatch, "rep_block_moment")
    assert run(capsys, "partial-trace", "--t", "1/2", "--k", "100000") == \
        (2, "", "cap exceeded: 976761774043502734 steps for the moments to "
                "order 100000 exceeds the cap of 10000000\n")
    # the count is that of the solver's integers at five bits per order
    assert freeprob._plain_work(10 ** 5, 5) == 976761774043502734
    # t was checked, but no block moment came before the refusal
    assert asked == []
    assert run(capsys, "partial-trace", "--t", "2", "--k", "100000") == \
        (1, "", "error: t must lie in [0, 1], got 2\n")
    # a denominator of 10**6 digits is over the cap from order 3 on
    code, out, err = run(capsys, "partial-trace", "--t", "1e-1000000", "--k",
                         "3")
    assert (code, out, asked) == (2, "", [])
    assert err.endswith("steps for the moments to order 3 exceeds the cap of "
                        "10000000\n")


def test_exact_value_past_the_digit_limit_is_refused(capsys):
    # t = 10^-5000 has a 5001-digit denominator, past Python's int-to-string
    # limit: a cap refusal that prints nothing, where --float prints it
    limit = sys.get_int_max_str_digits()
    assert run(capsys, "partial-trace", "--t", "1e-5000", "--k", "1") == \
        (2, "", f"cap exceeded: printing an exact value of more than {limit} "
                f"digits exceeds the cap of {limit}; --float prints it "
                "approximately\n")
    assert run(capsys, "partial-trace", "--t", "1e-5000", "--k", "1",
               "--float") == (0, "k=1: 0.0\n", "")
    # a value within the limit prints in full
    code, out, _ = run(capsys, "partial-trace", "--t", f"1e-{limit - 1}",
                       "--k", "1")
    assert (code, len(out)) == (0, len(f"k=1: 1/1{'0' * (limit - 1)}\n"))


def test_partial_trace_runs_one_transform(capsys, monkeypatch):
    laws, solvers = [], []
    law, solver = freeprob.partial_trace_law, freeprob._plain_moments

    def recorded(t, bm, k):
        laws.append(law(t, bm, k))
        return laws[-1]

    monkeypatch.setattr(freeprob, "partial_trace_law", recorded)
    monkeypatch.setattr(freeprob, "_plain_moments",
                        lambda cumulant: solvers.append(1) or solver(cumulant))
    code, out, _ = run(capsys, "partial-trace", "--t", "1/2", "--k", "5")
    assert code == 0 and len(out.splitlines()) == 5
    # one law per call, from one run of the solver, holding the moments of
    # every order up to --k
    assert len(laws) == len(solvers) == 1
    assert out.splitlines() == [f"k={k}: {laws[0][k]}" for k in range(1, 6)]
    assert len(laws[0]) == 6 and laws[0][0] == 1


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
    # 6 points list 43,371 composable pairs, whose products have 91,396 rows
    # at N = 2; every map has at most 64 entries
    argv = ("-m", "freewreath.cli", "verify", "category", "--N", "2",
            "--max-points", "6")
    done = python(*argv, FREEWREATH_ENTRY_CAP="91395")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("cap exceeded: comparing 91396 product rows "
                           "exceeds the cap of 91395\n")
    assert python(*argv, FREEWREATH_ENTRY_CAP="91396").returncode == 0


def test_verify_category_row_cap_refused_before_any_pair(capsys, monkeypatch):
    # N^max_points passes the entry cap in both, but the compose check would
    # compare 53,710,806 and 18,012,011 rows
    def never(*args, **kwargs):
        raise AssertionError("pairs listed before the row cap was checked")

    with monkeypatch.context() as patched:
        patched.setattr(linmaps, "_category_pairs", never)
        patched.setattr(linmaps, "_bit_rows", never)
        for n, p, rows in (("5", "7", 53710806), ("3000", "2", 18012011)):
            assert run(capsys, "verify", "category", "--N", n,
                       "--max-points", p) == \
                (2, "", f"cap exceeded: comparing {rows} product rows "
                        "exceeds the cap of 10000000\n")
    code, out, _ = run(capsys, "verify", "category", "--N", "300",
                       "--max-points", "2")
    assert code == 0 and "on 17 stacked pairs [0 failures]" in out


def test_tl_verify_caps_its_pairs():
    # 6 points: 219 composed, 85 tensor and 115 trace pairs
    argv = ("-m", "freewreath.cli", "tl", "verify", "--max-points", "6")
    done = python(*argv, FREEWREATH_ENTRY_CAP="418")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("cap exceeded: listing 419 composable pairs "
                           "exceeds the cap of 418\n")
    assert python(*argv, FREEWREATH_ENTRY_CAP="419").returncode == 0


def test_cyclic_table_over_cap_refused():
    # builtin:cyclic:s stores an s x s multiplication table
    argv = ("-m", "freewreath.cli", "fuse", "(g)", "(g)", "--fusion")
    done = python(*argv, "builtin:cyclic:11", FREEWREATH_ENTRY_CAP="100")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("cap exceeded: storing 121 entries exceeds the cap "
                           "of 100\n")
    done = python(*argv, "builtin:cyclic:10", FREEWREATH_ENTRY_CAP="100")
    assert (done.returncode, done.stdout) == (0, "(g2) ×1\n(g,g) ×1\n")


@pytest.mark.parametrize("s, cap, refusal", [
    (5, 24, "storing 25 entries exceeds the cap of 24"),
    (5, 100, "checking associativity on 125 label triples exceeds the cap "
             "of 100"),
    (4, 100, None),
])
def test_fusion_file_counted_before_it_is_built(capsys, monkeypatch, tmp_path,
                                                s, cap, refusal):
    # the |Irr|^2 tensor entries before the table is built, the |Irr|^3
    # label triples before associativity is checked
    path = tmp_path / "z.json"
    path.write_text(group_dual_json(cyclic_names(s), cyclic_product(s)))
    monkeypatch.setattr(config, "caps", lambda: (14, cap))
    built, checked = [], []
    table, associative = fusion.TableFusion, fusion._check_associative
    monkeypatch.setattr(fusion, "TableFusion",
                        lambda *args: built.append(s) or table(*args))
    monkeypatch.setattr(fusion, "_check_associative",
                        lambda fd: checked.append(s) or associative(fd))
    got = run(capsys, "fuse", "(g)", "(g)", "--fusion", f"file:{path}")
    if refusal is None:
        assert got == (0, "(g2) ×1\n(g,g) ×1\n", "")
        assert built == checked == [s]
    else:
        assert got == (2, "", f"cap exceeded: {refusal}\n")
        assert built == ([] if "entries" in refusal else [s])
        assert checked == []


def test_verify_conjugate_over_cap_refused_before_any_work(capsys,
                                                          monkeypatch):
    # the two products of k = 6 at N = 10 have 10**12 entries to compare
    def never(*args, **kwargs):
        raise AssertionError("called before the entry cap was checked")

    monkeypatch.setattr(linmaps, "_support", never)
    assert run(capsys, "verify", "conjugate", "--k", "6", "--N", "10") == \
        (2, "", "cap exceeded: comparing 1000000000000 entries of the two "
                "products exceeds the cap of 10000000\n")


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


def test_weingarten_caps_the_exact_index_count(capsys, monkeypatch):
    # Catalan(7)**2 = 184,041 passes the pre-check, but "noncrossing" at
    # k = 7 has 7752 indices, so 60,093,504 Gram entries
    def never(*args, **kwargs):
        raise AssertionError("indices listed before the entry cap was checked")

    monkeypatch.setattr(weingarten, "wg_indices", never)
    for argv in (("weingarten", "--k", "7", "--N", "4", "--s", "2"),
                 ("verify", "weingarten", "--k", "7", "--s", "2")):
        assert run(capsys, *argv) == (2, "", "cap exceeded: storing 60093504 "
                                      "entries exceeds the cap of 10000000\n")


def test_category_choices_are_the_weingarten_categories(capsys):
    # the partition layer also knows "pairings"; the command line does not
    # offer it for the Weingarten calculus
    for argv in (("weingarten", "--k", "2", "--N", "4"),
                 ("verify", "weingarten", "--k", "2")):
        code, out, err = run(capsys, *argv, "--category", "pairings")
        assert (code, out) == (1, "")
        assert "invalid choice: 'pairings'" in err
        assert "[--category {" + ",".join(CATEGORIES) + "}]" in err


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
    # the N check precedes the count's, so no count escapes it
    for count in ("200", "0", "1000000000"):
        assert run(capsys, "verify", "fusion-dim", "--N", "3", "--count",
                   count) == (
            1, "", "error: word dimensions need N >= 4, got N=3\n")


def test_hom_dim_unknown_letter_refused(capsys):
    for method in ("partition", "fusion"):
        code, out, err = run(capsys, "hom-dim", "--up", "g", "--down", "g,g3",
                             "--fusion", "builtin:cyclic:3", "--method", method)
        assert (code, out) == (1, "")
        assert err == "error: unknown irreducible label 'g3'\n"


def test_a_starred_letter_reads_as_its_conjugate_in_every_command(capsys):
    # over Z/3 the conjugate of g is g2, wherever a letter is typed
    z3 = ("--fusion", "builtin:cyclic:3")
    for starred, plain in (
            (("fuse", "(g*)", "(g)"), ("fuse", "(g2)", "(g)")),
            (("dim", "(g*,1)", "--N", "5"), ("dim", "(g2,1)", "--N", "5")),
            (("char-poly", "(g*)"), ("char-poly", "(g2)")),
            (("char-law", "--rep", "g*", "--order", "4"),
             ("char-law", "--rep", "g2", "--order", "4")),
            (("partial-trace", "--t", "1/2", "--k", "4", "--rep", "g*"),
             ("partial-trace", "--t", "1/2", "--k", "4", "--rep", "g2"))):
        expect = run(capsys, *plain, *z3)
        assert expect[0] == 0 and expect[1] and expect[2] == ""
        assert run(capsys, *starred, *z3) == expect, starred
    # g* x g holds the empty word, which g x g does not
    assert "() ×1" in run(capsys, "fuse", "(g*)", "(g)", *z3)[1]
    assert "() ×1" not in run(capsys, "fuse", "(g)", "(g)", *z3)[1]
    # the label before the star is checked, so the refusal names 'h'
    assert run(capsys, "dim", "(h*)", "--N", "4", *z3) == (
        1, "", "error: unknown irreducible label 'h'\n")


def test_hom_dim_over_cap_refused_by_both_methods(capsys):
    # 15 points, one past the enumeration cap, whichever route counts them
    for method in ("partition", "fusion"):
        assert run(capsys, "hom-dim", "--up", ",".join(["g"] * 8), "--down",
                   ",".join(["g2"] * 7), "--fusion", "builtin:cyclic:3",
                   "--method", method) == (
            2, "", "cap exceeded: enumeration over 15 points exceeds the cap "
                   "of 14\n")


def test_dim_long_trivial_word(capsys):
    # one reduced exponent of 2l: A_2l(2) = 2l + 1
    for letters in (600, 20000):
        word = "(" + ",".join(["1"] * letters) + ")"
        code, out, _ = run(capsys, "dim", word, "--N", "4")
        assert code == 0 and out == f"{2 * letters + 1}\n"


def test_exit_code_usage(capsys):
    code, _, _ = run(capsys, "dim", "(g)")            # missing --N
    assert code == 1
    code2, _, _ = run(capsys, "no-such-command")
    assert code2 == 1


def test_classical_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(freeprob, "brute_force_z2_s3_moments",
                        lambda rep, k: [0] * (k + 1))
    assert run(capsys, "classical", "--n", "3") == (
        3, "", "brute-force group average disagrees\n")


def test_char_law_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(freeprob, "plain_character_moments",
                        lambda fd, rep, k: [-1] * (k + 1))
    monkeypatch.setattr(freeprob, "character_moment_wreath",
                        lambda fd, rep, eps: -1)
    assert run(capsys, "char-law", "--rep", "g") == (
        3, "", "internal disagreement at 1: -1 vs 0\n")
    assert run(capsys, "char-law", "--rep", "g", "--eps", "1*") == (
        3, "", "internal disagreement at 1*: -1 vs 1\n")


def test_failing_report_exits_3(capsys, monkeypatch):
    report = VerificationReport("collapsing isomorphism")
    report.add("a check that fails", False, "1 failure")
    monkeypatch.setattr(tl, "verify_phi", lambda max_points: report)
    assert run(capsys, "tl", "verify") == (3, report.render() + "\n", "")


@pytest.mark.parametrize("argv", [
    ("weingarten", "--k", "2", "--N", "4", "--haar", "1,1"),
    ("verify", "fusion-dim", "--N", "4", "--fusion", "builtin:integers"),
])
def test_command_refusal_prints_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("error:")


def test_verify_refusals_name_the_typed_input(capsys):
    assert run(capsys, "verify", "conjugate", "--k", "-1", "--N", "2") == (
        1, "", "error: k must be nonnegative, got -1\n")
    assert run(capsys, "verify", "weingarten", "--k", "2", "--s", "0") == (
        1, "", "error: s must be positive, got 0\n")


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


def _steiner_loop_table() -> dict:
    """The Steiner loop of the affine plane AG(2,3) as a fusion file: labels e
    and nine points pXY, x.x = e and x.y = -(x+y) mod 3 coordinatewise.  It
    passes every semiring check but associativity."""
    def mult(a, b):
        if "e" in (a, b):
            return b if a == "e" else a
        if a == b:
            return "e"
        return "p" + "".join(str(-(int(u) + int(v)) % 3)
                             for u, v in zip(a[1:], b[1:]))
    labels = ["e"] + [f"p{x}{y}" for x in range(3) for y in range(3)]
    return {"irreps": [{"label": a, "dim": 1} for a in labels],
            "trivial": "e", "conj": {a: a for a in labels},
            "tensor": {f"{a},{b}": {mult(a, b): 1}
                       for a in labels for b in labels}}


def test_non_associative_fusion_file_refused(capsys, tmp_path):
    path = tmp_path / "steiner.json"
    path.write_text(json.dumps(_steiner_loop_table()))
    # both routes refuse, before either can answer from the table
    for method in ("partition", "fusion"):
        code, out, err = run(capsys, "hom-dim", "--up", "p20,p10", "--down",
                             "p21,p01,p20", "--method", method, "--fusion",
                             f"file:{path}")
        assert code == 1 and out == "" and err.startswith("error:")
        assert "not associative" in err


def test_duplicate_irrep_label_refused(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "irreps": [{"label": a, "dim": 1} for a in ("1", "g", "g")],
        "trivial": "1", "conj": {"1": "1", "g": "g"},
        "tensor": {"1,1": {"1": 1}, "1,g": {"g": 1}, "g,1": {"g": 1},
                   "g,g": {"1": 1}}}))
    code, out, err = run(capsys, "fuse", "(g)", "(g)", "--fusion",
                         f"file:{path}")
    assert (code, out, err) == (1, "", "error: duplicate irrep label 'g'\n")


def _z2_table_with(edit) -> str:
    doc = json.loads(group_dual_json(cyclic_names(2), cyclic_product(2)))
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["tensor"].update({"g,zz": {"g": 1}}),
     "tensor entry for 'g','zz' names an unlisted label"),
    (lambda d: d["conj"].update(zz="zz"),
     "conjugate for 'zz' names an unlisted label"),
    (lambda d: d["tensor"].pop("g,g"), "missing tensor entry for 'g','g'"),
    (lambda d: d["conj"].pop("g"), "missing conjugate for 'g'"),
])
def test_fusion_file_keys_are_exactly_its_labels(capsys, tmp_path, edit,
                                                 message):
    path = tmp_path / "fd.json"
    path.write_text(_z2_table_with(edit))
    assert run(capsys, "fuse", "(g)", "(g)", "--fusion", f"file:{path}") == \
        (1, "", f"error: {message}\n")


@pytest.mark.parametrize("label", ["g*", "", " g", "(g)", "g,h"])
def test_fusion_file_labels_are_spellable(capsys, tmp_path, label):
    # a word cannot spell a label that its parsers would split, strip or
    # read as a conjugate, so the file is refused while its irreps are read
    path = tmp_path / "fd.json"
    path.write_text(json.dumps({
        "irreps": [{"label": a, "dim": 1} for a in ("1", label)],
        "trivial": "1", "conj": {"1": "1", label: label},
        "tensor": {"1,1": {"1": 1}, f"1,{label}": {label: 1},
                   f"{label},1": {label: 1}, f"{label},{label}": {"1": 1}}}))
    assert run(capsys, "fuse", "(1)", "(1)", "--fusion", f"file:{path}") == \
        (1, "", f"error: irrep label {label!r} cannot be spelled in a word: "
                "it must be nonempty, with no surrounding whitespace and no "
                "',', '(', ')' or '*'\n")


def test_char_law_cap_checked_before_any_star_word(capsys, monkeypatch):
    # the work of the typed order, or the enumeration of the typed star
    # word, is refused before any word is built or any moment taken
    built = []
    plain_eps = freeprob.plain_eps
    monkeypatch.setattr(freeprob, "plain_eps",
                        lambda k: built.append(k) or plain_eps(k))

    def never(*args):
        raise AssertionError("a moment came before the cap was checked")

    monkeypatch.setattr(freeprob, "character_moment_wreath", never)
    monkeypatch.setattr(freeprob, "plain_character_moments", never)
    monkeypatch.setattr(freeprob, "compound_poisson_law", never)
    assert run(capsys, "char-law", "--rep", "g", "--order", "100000") == \
        (2, "", "cap exceeded: 977095122376852734 steps for the moments to "
                "order 100000 exceeds the cap of 10000000\n")
    assert run(capsys, "char-law", "--rep", "g", "--eps", "1" * 15) == \
        (2, "", "cap exceeded: enumeration over 15 points exceeds the cap "
                "of 14\n")
    assert built == []


def test_classical_cap_names_the_typed_k(capsys, monkeypatch):
    asked = _recording_block_moments(monkeypatch, "z2_block_moment")
    assert run(capsys, "classical", "--n", "3", "--k", "100000") == \
        (2, "", "cap exceeded: 375115626118748 steps for the moments to "
                "order 100000 exceeds the cap of 10000000\n")
    assert asked == []
    code, out, _ = run(capsys, "classical", "--n", "3", "--k", "60")
    assert code == 0 and out.splitlines()[-1] == \
        "verified against the average over all 48 group elements"


_NO_TRACEBACK_CHILD = """
import json, sys, traceback
from freewreath.cli import main
results = []
for argv in json.loads(sys.stdin.read()):
    try:
        results.append([argv, main(argv), None])
    except BaseException:
        results.append([argv, None, traceback.format_exc()])
print(json.dumps(results))
"""


def test_no_typed_input_ends_in_a_traceback(tmp_path):
    # one child under a 1 GiB address-space limit and low caps calls main on
    # extreme and malformed inputs; each must end in an exit code, never in
    # an exception (a MemoryError included) that escapes main
    resource = pytest.importorskip("resource")
    big = str(10 ** 30)
    stray = tmp_path / "stray.json"
    stray.write_text(_z2_table_with(
        lambda d: d["tensor"].update({"g,zz": {"g": 1}})))
    big_table = tmp_path / "z50.json"  # 125,000 label triples
    big_table.write_text(group_dual_json(cyclic_names(50), cyclic_product(50)))
    haar = ("weingarten", "--k", "2", "--N", "4", "--haar")
    cases = [
        ("char-law", "--rep", "g", "--order", big),
        ("char-law", "--rep", "g", "--order", "50000"),
        ("char-law", "--rep", "g", "--eps", "1" * 100),
        ("char-law", "--rep", "g", "--eps", "1x"),
        ("char-law", "--rep", "zz"),
        ("classical", "--n", big, "--k", "3"),
        ("classical", "--n", "3", "--k", big),
        ("classical", "--n", big, "--k", "100000"),
        ("partial-trace", "--t", "1/2", "--k", big),
        ("partial-trace", "--t", "1e400", "--k", "3"),
        ("partial-trace", "--t", "nan", "--k", "3"),
        ("partial-trace", "--t", "1/" + "7" * 3000, "--k", "3"),
        ("partial-trace", "--t", "1e-5000", "--k", "1"),
        ("weingarten", "--k", "9", "--N", "4"),
        ("weingarten", "--k", "2", "--N", big, "--float"),
        ("weingarten", "--k", "2", "--N", "0"),
        (*haar, "1,1"), (*haar, "a,b,c,d,e,f,g,h"),
        (*haar, "9,9,9,9,9,9,9,9"), (*haar, "-1,1,1,1,1,1,1,1"),
        ("verify", "category", "--N", big),
        ("verify", "category", "--N", "5", "--max-points", "7"),
        ("verify", "conjugate", "--k", "40", "--N", "2"),
        ("verify", "fusion-dim", "--N", big, "--count", "3"),
        ("verify", "fusion-dim", "--count", "1000000000"),
        ("tl", "verify", "--max-points", "20"),
        ("tl", "trace", "TL(2,2): (1,2)(3,4)", "--N", big, "--float"),
        ("tl", "collapse", "garbage"),
        ("tl", "phi", "TL(1,1): (1,3)"),
        ("tl", "collapse", "TL(-1,2): (1,2)"),
        ("tl", "collapse", "TL(100000,100000): (1,2)"),
        ("hom-dim", "--up", "g,g,g,g,g", "--down", "g,g,g,g"),
        ("hom-dim", "--up", "g,g,g,g,g", "--down", "g,g,g,g", "--method",
         "fusion"),
        ("hom-dim", "--up", "g**,g", "--down", ""),
        ("hom-dim", "--up", "g,,g", "--down", ""),
        ("fuse", "(g)", "(g)", "--fusion", "builtin:cyclic:1000"),
        ("fuse", "(g)", "(g)", "--fusion", f"builtin:cyclic:{big}"),
        ("fuse", "(g)", "(g)", "--fusion", "builtin:cyclic:0"),
        ("fuse", "(g)", "(g)", "--fusion", "nope"),
        ("fuse", "(g)", "(g)", "--fusion", "file:"),
        ("fuse", "(g)", "(g)", "--fusion", f"file:{tmp_path}"),
        ("fuse", "(g)", "(g)", "--fusion", f"file:{stray}"),
        ("fuse", "(g)", "(g)", "--fusion", f"file:{big_table}"),
        ("fuse", "g", "(g)"),
        ("fuse", "(g", "(g)"),
        ("fuse", "(zz)", "(g)"),
        ("dim", "(,)", "--N", "4"),
        ("dim", "(g)", "--N", big),
        ("char-poly", "(1.5)", "--fusion", "builtin:integers"),
    ]

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _NO_TRACEBACK_CHILD], input=json.dumps(cases),
        capture_output=True, text=True, preexec_fn=limit_memory, timeout=300,
        env={**os.environ, "PYTHONPATH": path, "FREEWREATH_ENUM_CAP": "8",
             "FREEWREATH_ENTRY_CAP": "100000"})
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.splitlines()[-1])
    assert len(results) == len(cases)
    assert [(argv, tb) for argv, _, tb in results if tb] == []
    assert all(code in (0, 1, 2, 3) for _, code, _ in results)
    assert results[0][1] == results[1][1] == 2  # the huge orders
    codes = {tuple(argv): code for argv, code, _ in results}
    assert codes["classical", "--n", big, "--k", "100000"] == 2
    assert codes["partial-trace", "--t", "1/" + "7" * 3000, "--k", "3"] == 2
    assert codes["fuse", "(g)", "(g)", "--fusion", f"file:{big_table}"] == 2


def _readme_examples() -> list[tuple[list[str], str]]:
    """The `$ freewreath ...` examples of README.md with their output: the
    lines after each command up to the next blank line or closing fence."""
    lines = (Path(SRC).parent / "README.md").read_text().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ freewreath "):
            end = next(j for j in range(i + 1, len(lines))
                       if lines[j] in ("", "```"))
            examples.append((shlex.split(line)[2:],
                             "".join(f"{out}\n" for out in lines[i + 1:end])))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_examples_found():
    text = (Path(SRC).parent / "README.md").read_text()
    assert len(README_EXAMPLES) == text.count("\n$ freewreath ") > 0


@pytest.mark.parametrize("argv, expected", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_example(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")


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


# stdlib modules that no command of the paper's main results needs at start-up
HEAVY = ("dataclasses", "inspect", "json", "fractions", "decimal", "numpy")

# runs each argv through main in one fresh interpreter and prints, as the last
# line, the modules each call has loaded so far beyond the interpreter's own
LOADS = """
import sys
before = set(sys.modules)
from freewreath.cli import main
loaded = []
for argv in {argvs!r}:
    assert main(argv) == 0, argv
    loaded.append(sorted(m for m in set(sys.modules) - before
                         if m.startswith("freewreath.") or m in {heavy!r}))
print(loaded)
"""


def test_cli_imports_stdlib_only(tmp_path):
    done = python("-c", "import sys, freewreath.cli; "
                        "assert 'numpy' not in sys.modules")
    assert done.returncode == 0, done.stderr
    # each command imports only what it runs, without timing it: the paper's
    # results load no dataclasses, json or fractions and no other layer
    path = tmp_path / "z2.json"
    path.write_text(group_dual_json(cyclic_names(2), cyclic_product(2)))
    argvs = [["dim", "(g,1,g)", "--N", "4"], ["fuse", "(g)", "(g)"],
             ["char-poly", "(1)"], ["hom-dim", "--up", "g", "--down", "g"],
             ["dim", "(g)", "--N", "4", "--fusion", f"file:{path}"]]
    done = python("-c", LOADS.format(argvs=argvs, heavy=HEAVY))
    assert done.returncode == 0, done.stderr
    *words, hom, table = ast.literal_eval(done.stdout.splitlines()[-1])
    layers = {f"freewreath.{m}" for m in ("cli", "config", "fusion", "qnum")}
    for modules in words:
        assert set(modules) <= layers
    assert set(hom) <= layers | {"freewreath.homspaces", "freewreath.partition"}
    assert set(table) - set(hom) == {"json"}
    # the records these commands build are NamedTuples, not dataclasses
    records = [["weingarten", "--k", "2", "--N", "4"],
               ["verify", "fusion-dim", "--N", "4"],
               ["tl", "verify", "--max-points", "2"]]
    done = python("-c", LOADS.format(argvs=records, heavy=HEAVY))
    assert done.returncode == 0, done.stderr
    loaded = ast.literal_eval(done.stdout.splitlines()[-1])
    assert len(loaded) == 3 and "freewreath.report" in loaded[0]
    assert not any("dataclasses" in modules for modules in loaded)
