"""Recorded command-line outputs, replayed through ``cli.main`` in process.

Each file under ``corpus/`` holds one group of calls: the source commit it
was recorded at, and for every argument vector the exit code, stdout and
stderr it gave there.  The replay compares call by call, so a failure names
the first call whose output differs.  An intended change of output rewrites
the group with ``PYTHONPATH=src python tests/test_corpus.py COMMIT`` and is
named, with its reason, in the changelog.
"""

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

from freewreath.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus"


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


GROUPS = {"hom_dim": hom_dim_calls}


def replay(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load(group: str) -> dict:
    return json.loads((CORPUS / f"{group}.json").read_text(encoding="utf-8"))


def test_hom_dim_corpus_replays():
    corpus = load("hom_dim")
    assert [call["argv"] for call in corpus["calls"]] == hom_dim_calls()
    for call in corpus["calls"]:
        expected = {key: call[key] for key in ("code", "stdout", "stderr")}
        assert replay(call["argv"]) == expected, call["argv"]


def write(group: str, source: str) -> None:
    """Record a group from the library on the path, one call a line."""
    lines = [json.dumps({"argv": argv, **replay(argv)}, ensure_ascii=False)
             for argv in GROUPS[group]()]
    text = (f'{{"source": {json.dumps(source)}, "calls": [\n'
            + ",\n".join(lines) + "\n]}\n")
    (CORPUS / f"{group}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    for name in GROUPS:
        write(name, sys.argv[1])
