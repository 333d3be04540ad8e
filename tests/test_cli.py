import os
import subprocess
import sys
from pathlib import Path

import pytest

import freewreath
from freewreath import homspaces, linmaps, partition, weingarten
from freewreath.cli import main
from freewreath.fusion import fusion_from_uri
from freewreath.homspaces import dim_hom_fusion, parse_star_list

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


def test_tl_trace_nonpositive_N_refused(capsys):
    for n in ("-3", "0"):
        code, out, err = run(capsys, "tl", "trace", "TL(2,2): (1,3)(2,4)",
                             "--N", n)
        assert code == 1 and out == "" and err.startswith("error:")


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

    monkeypatch.setattr(linmaps, "build_tp", never)
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
