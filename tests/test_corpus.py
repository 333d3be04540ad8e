"""Recorded command-line outputs, replayed through ``cli.main`` in process.

Each file under ``corpus/`` holds one group of calls: the source commit it
was recorded at, and for every argument vector the exit code, stdout and
stderr it gave there; ``corpus/tables/`` holds the fusion tables that the
``files`` group reads.  Every call runs at the default caps, from the
repository root.  The replay compares call by call, so a failure names the first call whose output
differs.  An intended change of output rewrites its group with
``PYTHONPATH=src python tests/test_corpus.py COMMIT [GROUP ...]`` and is
named, with its reason, in the changelog.
"""

import contextlib
import io
import itertools
import json
import os
import shlex
import sys
from pathlib import Path
from unittest import mock

import pytest

from freewreath.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "corpus"
README = ROOT / "README.md"
TABLES = "file:tests/corpus/tables/"  # read from the repository root
CATEGORY_OPTIONS = ([], ["--category", "noncrossing"], ["--category", "all"],
                    ["--category", "singletons"])


def hom_dim_calls() -> list[list[str]]:
    """Both Hom routes on every split of every word of up to 3 letters over
    Z/3 and of up to 6 letters over the trivial group, then the refusals:
    15 points (exit 2), an unknown label and a doubled star (exit 1)."""
    calls = []
    for fusion, labels, longest in (("builtin:cyclic:3", ("1", "g", "g2"), 3),
                                    ("builtin:trivial", ("1",), 6)):
        for n in range(longest + 1):
            for word in itertools.product(labels, repeat=n):
                for k, method in itertools.product(range(n + 1),
                                                   ("partition", "fusion")):
                    calls.append(["hom-dim", "--up", ",".join(word[:k]),
                                  "--down", ",".join(word[k:]),
                                  "--fusion", fusion, "--method", method])
    for up, down in ((",".join(["g"] * 8), ",".join(["g2"] * 7)),
                     ("g", "g,g3"), ("g**,g", "")):
        for method in ("partition", "fusion"):
            calls.append(["hom-dim", "--up", up, "--down", down,
                          "--fusion", "builtin:cyclic:3", "--method", method])
    return calls


def readme_calls() -> list[list[str]]:
    """Every `$ freewreath ...` example of README.md, in its order."""
    return [shlex.split(line)[2:]
            for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("$ freewreath ")]


def _words(labels, longest: int) -> list[str]:
    return ["(" + ",".join(word) + ")" for n in range(longest + 1)
            for word in itertools.product(labels, repeat=n)]


def word_calls() -> list[list[str]]:
    """`fuse` by both methods on every pair of words of up to 2 letters, and
    `dim` at N = 3, 4, 5 and `char-poly` on every word of up to 3 letters,
    over Z/2 and Z/3, starred letters included."""
    calls = []
    for fusion, labels in (("builtin:cyclic:2", ("1", "g")),
                           ("builtin:cyclic:3", ("1", "g", "g2", "g*"))):
        fz = ["--fusion", fusion]
        for x, y in itertools.product(_words(labels, 2), repeat=2):
            for method in ("direct", "free-product"):
                calls.append(["fuse", x, y, *fz, "--method", method])
        for x in _words(labels, 3):
            calls += [["dim", x, *fz, "--N", str(n)] for n in (3, 4, 5)]
            calls.append(["char-poly", x, *fz])
    return calls


def law_calls() -> list[list[str]]:
    """`char-law` by `--order` and `--eps`, `partial-trace` and `classical`
    at small orders."""
    calls = []
    for fusion, reps in (("builtin:trivial", ("1",)),
                         ("builtin:cyclic:2", ("1", "g")),
                         ("builtin:cyclic:3", ("g", "g*", "g2"))):
        for rep in reps:
            base = ["char-law", "--rep", rep, "--fusion", fusion]
            calls += [[*base, "--order", str(k)] for k in range(0, 6)]
            calls += [[*base, "--eps", eps]
                      for eps in ("1", "*", "1*", "*1", "11", "1*1*", "11**",
                                  "1*11*")]
            calls += [["partial-trace", "--t", t, "--k", str(k), "--fusion",
                       fusion, "--rep", rep]
                      for t in ("1/2", "1/3", "1", "0") for k in (0, 3)]
    calls += [["char-law", "--rep", "g", "--order", "5", "--float"],
              ["partial-trace", "--t", "2/3", "--k", "6"],
              ["partial-trace", "--t", "2/3", "--k", "6", "--float"],
              ["partial-trace", "--t", "3/2", "--k", "2"]]
    for n, k, rep in itertools.product(range(5), (0, 4), ("regular", "sign")):
        calls.append(["classical", "--n", str(n), "--k", str(k), "--rep", rep])
    calls += [["classical", "--n", "3", "--k", "6", "--float"],
              ["classical", "--n", "-1"],
              ["classical", "--n", "2", "--k", "-1"]]
    return calls


def weingarten_calls() -> list[list[str]]:
    """`weingarten` at k = 1..3, s = 1..3 and N = 1, 4, 5 under every
    `--category`, with and without `--invert`, a few `--haar` queries, and
    `verify weingarten` at k = 1..3, s = 1..3 under every `--category`."""
    calls = []
    for k, s, n, category, invert in itertools.product(
            range(1, 4), range(1, 4), (1, 4, 5), CATEGORY_OPTIONS,
            ([], ["--invert"])):
        calls.append(["weingarten", "--k", str(k), "--N", str(n), "--s",
                      str(s), *category, *invert])
    for k, s, haar in ((1, 1, "1,1,1,1"), (1, 1, "1,1,2,2"), (1, 2, "1,2,1,2"),
                       (2, 1, "1,1,1,1,1,2,1,2"), (2, 2, "1,2,1,2,3,3,4,4"),
                       (2, 3, "1,3,3,1,2,2,5,5")):
        calls.append(["weingarten", "--k", str(k), "--N", "5", "--s", str(s),
                      "--haar", haar])
    for k, s, category in itertools.product(range(1, 4), range(1, 4),
                                            CATEGORY_OPTIONS):
        calls.append(["verify", "weingarten", "--k", str(k), "--s", str(s),
                      *category])
    return calls


def _matchings(points: list[int]):
    """The noncrossing perfect matchings of the points, as pair lists."""
    if not points:
        yield []
        return
    for j in range(1, len(points), 2):
        for inner in _matchings(points[1:j]):
            for outer in _matchings(points[j + 1:]):
                yield [(points[0], points[j]), *inner, *outer]


def tl_calls() -> list[list[str]]:
    """`tl trace` at N = 1, 4 (and 2 with `--float`), `tl collapse` and
    `tl phi` on every diagram of up to 4 points, and `tl verify` with
    `--max-points` 0..8."""
    calls = []
    for a in range(5):
        for b in range(5 - a):
            # the points in their order around the box: upper 1..a left to
            # right, then lower a+b..a+1 right to left
            boundary = [*range(1, a + 1), *range(a + b, a, -1)]
            for pairs in _matchings(boundary):
                diagram = f"TL({a},{b}): " + "".join(
                    f"({i},{j})" for i, j in sorted(map(sorted, pairs)))
                calls += [["tl", "trace", diagram, "--N", "1"],
                          ["tl", "trace", diagram, "--N", "4"],
                          ["tl", "trace", diagram, "--N", "2", "--float"],
                          ["tl", "collapse", diagram],
                          ["tl", "phi", diagram]]
    calls += [["tl", "verify", "--max-points", str(m)] for m in range(9)]
    return calls


def verify_calls() -> list[list[str]]:
    """`verify category` for N = 1..5 at up to 5 points and for N = 2 at 6,
    `verify conjugate` at k = 0..3, N = 1..3, and `verify fusion-dim` over
    Z/2, Z/3 and the integers."""
    calls = [["verify", "category", "--N", str(n), "--max-points", str(m)]
             for n in range(1, 6) for m in range(6)]
    calls.append(["verify", "category", "--N", "2"])
    calls += [["verify", "conjugate", "--k", str(k), "--N", str(n)]
              for k in range(4) for n in range(1, 4)]
    for fusion, n, count, seed in itertools.product(
            ("builtin:cyclic:2", "builtin:cyclic:3", "builtin:integers"),
            (3, 4, 5),
            (0, 10), (0, 1)):
        calls.append(["verify", "fusion-dim", "--fusion", fusion, "--N",
                      str(n), "--count", str(count), "--seed", str(seed)])
    return calls


def refusal_calls() -> list[list[str]]:
    """The typed inputs of the no-traceback test that exit 1 or 2 at once at
    the default caps; its `file:` tables are left out."""
    big = str(10 ** 30)
    haar = ["weingarten", "--k", "2", "--N", "4", "--haar"]
    long_g = "(" + ",".join(["g"] * 3000) + ")"
    return [
        ["char-law", "--rep", "g", "--order", big],
        ["char-law", "--rep", "g", "--order", "50000"],
        ["char-law", "--rep", "g", "--eps", "1" * 100],
        ["char-law", "--rep", "g", "--eps", "1x"],
        ["char-law", "--rep", "zz"],
        ["classical", "--n", "3", "--k", big],
        ["classical", "--n", big, "--k", "100000"],
        ["partial-trace", "--t", "1/2", "--k", big],
        ["partial-trace", "--t", "1e400", "--k", "3"],
        ["partial-trace", "--t", "nan", "--k", "3"],
        ["partial-trace", "--t", "1/" + "7" * 3000, "--k", "3"],
        ["partial-trace", "--t", "1e-5000", "--k", "1"],
        ["weingarten", "--k", "9", "--N", "4"],
        ["weingarten", "--k", "2", "--N", "0"],
        ["weingarten", "--k", "2", "--N", "4", "--s", "3", "--category",
         "singletons"],
        ["verify", "weingarten", "--k", "1", "--s", "3", "--category",
         "singletons"],
        [*haar, "1,1"], [*haar, "a,b,c,d,e,f,g,h"],
        [*haar, "9,9,9,9,9,9,9,9"], [*haar, "-1,1,1,1,1,1,1,1"],
        ["verify", "category", "--N", big],
        ["verify", "category", "--N", "5", "--max-points", "7"],
        ["verify", "conjugate", "--k", "40", "--N", "2"],
        ["verify", "fusion-dim", "--count", "1000000000"],
        ["tl", "verify", "--max-points", "20"],
        ["tl", "collapse", "garbage"],
        ["tl", "phi", "TL(1,1): (1,3)"],
        ["tl", "collapse", "TL(-1,2): (1,2)"],
        ["tl", "collapse", "TL(100000,100000): (1,2)"],
        ["hom-dim", "--up", "g**,g", "--down", ""],
        ["hom-dim", "--up", "g,,g", "--down", ""],
        ["fuse", "(g)", "(g)", "--fusion", f"builtin:cyclic:{big}"],
        ["fuse", "(g)", "(g)", "--fusion", "builtin:cyclic:0"],
        ["fuse", "(g)", "(g)", "--fusion", "nope"],
        ["fuse", "g", "(g)"],
        ["fuse", "(g", "(g)"],
        ["fuse", "(zz)", "(g)"],
        ["dim", "(,)", "--N", "4"],
        ["char-poly", "(1.5)", "--fusion", "builtin:integers"],
        ["fuse", long_g, long_g],
        ["char-poly", long_g],
    ]


def file_calls() -> list[list[str]]:
    """The committed `file:` tables.  Over the dual of S3: `fuse` by both
    methods on every pair of words of up to one letter and on two
    noncommuting pairs, `dim` at N = 4, 5 on every word of up to two
    letters, both Hom routes on every split of those words, and `verify
    fusion-dim`.  Over the dual of Z/50 one call of each command.  Then the
    refusals: the Z/2 table with a stray tensor key, a directory and a
    missing file under each command, an unknown and a doubly starred
    letter, and N = 3."""
    s3 = ["--fusion", TABLES + "s3_dual.json"]
    letters = ("123", "213", "231", "312*", "321")
    pairs = [*itertools.product(_words(letters, 1), repeat=2),
             ("(213,231)", "(231,213)"), ("(231,213)", "(213,231)")]
    calls = [["fuse", x, y, *s3, "--method", method] for x, y in pairs
             for method in ("direct", "free-product")]
    calls += [["dim", x, *s3, "--N", str(n)] for x in _words(letters, 2)
              for n in (4, 5)]
    for n in range(3):
        for word in itertools.product(letters, repeat=n):
            for k, method in itertools.product(range(n + 1),
                                               ("partition", "fusion")):
                calls.append(["hom-dim", "--up", ",".join(word[:k]), "--down",
                              ",".join(word[k:]), *s3, "--method", method])
    calls += [["verify", "fusion-dim", *s3, "--N", str(n), "--count", "10",
               "--seed", str(seed)] for n in (4, 5) for seed in (0, 1)]
    z50 = ["--fusion", TABLES + "z50.json"]
    calls += [["fuse", "(g2,g3)", "(g47,g48)", *z50],
              ["dim", "(g,g25)", *z50, "--N", "4"],
              ["hom-dim", "--up", "g,g2", "--down", "g3", *z50],
              ["verify", "fusion-dim", *z50, "--N", "4", "--count", "10"]]
    for fusion in ("z2_stray.json", "", "none.json"):
        fz = ["--fusion", TABLES + fusion]
        calls += [["fuse", "(g)", "(g)", *fz], ["dim", "(g)", *fz, "--N", "4"],
                  ["hom-dim", "--up", "g", "--down", "g", *fz],
                  ["verify", "fusion-dim", *fz, "--N", "4"]]
    calls += [["fuse", "(g)", "(123)", *s3],
              ["dim", "(213**)", *s3, "--N", "4"],
              ["dim", "(213)", *s3, "--N", "3"],
              ["hom-dim", "--up", "g", "--down", "", *s3],
              ["verify", "fusion-dim", *s3, "--N", "3"]]
    return calls


GROUPS = {"hom_dim": hom_dim_calls, "readme": readme_calls,
          "words": word_calls, "laws": law_calls,
          "weingarten": weingarten_calls, "tl": tl_calls,
          "verify": verify_calls, "refusals": refusal_calls,
          "files": file_calls}


def replay(argv: list[str]) -> dict:
    # argparse wraps its usage text to COLUMNS, and the `file:` tables are
    # named from the repository root, so the width and the directory are
    # pinned
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load(group: str) -> dict:
    return json.loads((CORPUS / f"{group}.json").read_text(encoding="utf-8"))


def check_replays(group: str) -> None:
    corpus = load(group)
    assert [call["argv"] for call in corpus["calls"]] == GROUPS[group]()
    for call in corpus["calls"]:
        expected = {key: call[key] for key in ("code", "stdout", "stderr")}
        assert replay(call["argv"]) == expected, call["argv"]


def test_hom_dim_corpus_replays():
    check_replays("hom_dim")


@pytest.mark.parametrize("group", [name for name in GROUPS
                                   if name != "hom_dim"])
def test_corpus_replays(group):
    check_replays(group)


def write(group: str, source: str) -> None:
    """Record a group from the library on the path, one call a line."""
    lines = [json.dumps({"argv": argv, **replay(argv)}, ensure_ascii=False)
             for argv in GROUPS[group]()]
    text = (f'{{"source": {json.dumps(source)}, "calls": [\n'
            + ",\n".join(lines) + "\n]}\n")
    (CORPUS / f"{group}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    for name in sys.argv[2:] or GROUPS:
        write(name, sys.argv[1])
