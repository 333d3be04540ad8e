"""The ``cli`` workload: a seeded sequence of ``freewreath`` command calls.

Each call is its own process, so start-up (interpreter, ``import
freewreath.cli`` and numpy with it) is the bulk of the cost here and nowhere
else.  The sequence mixes four kinds of call:

* ``readme``: the README examples, compared with their frozen output;
* ``seeded``: ``dim``/``fuse``/``char-poly``/``hom-dim`` over
  ``builtin:cyclic:2|3``, compared with a second route computed by the library
  in a separate process (:func:`expected_outputs`);
* ``refusal``: malformed or out-of-range input that must exit 1, or 2 for a
  cap, with no traceback;
* ``defect``: probes of known defects (wrong numbers below N = 4, recursion
  limits), each expecting the correct behaviour.  They are reported on their
  own and kept out of the failure count, because the current program fails
  them; see the README of this directory.

Building the calls needs no import of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

SEEDED_PER_COMMAND = 5

README = [
    (["fuse", "(g)", "(g)", "--fusion", "builtin:cyclic:2"],
     "() ×1\n(1) ×1\n(g,g) ×1\n"),
    (["dim", "(g,1,g)", "--fusion", "builtin:cyclic:2", "--N", "4"], "20\n"),
    (["char-poly", "(1)"], "X - 1\n"),
    (["hom-dim", "--up", "", "--down", "1,1", "--fusion", "builtin:trivial"], "2\n"),
    (["char-law", "--rep", "g", "--fusion", "builtin:cyclic:2", "--order", "4"],
     "moment 1: 0\nmoment 11: 1\nmoment 111: 0\nmoment 1111: 3\n"),
    (["classical", "--n", "3", "--k", "4"],
     "k=0: 1\nk=1: 1\nk=2: 3\nk=3: 11\nk=4: 48\n"
     "verified against the average over all 48 group elements\n"),
    (["partial-trace", "--t", "1/2", "--k", "4"],
     "k=1: 1/2\nk=2: 3/4\nk=3: 11/8\nk=4: 45/16\n"),
    (["weingarten", "--k", "2", "--N", "4"],
     "index 0: outer {1|2} (k=0,l=2)  inner {1|2} (k=0,l=2)\n"
     "index 1: outer {1,2} (k=0,l=2)  inner {1|2} (k=0,l=2)\n16 4\n4 4\n"),
    (["weingarten", "--k", "2", "--N", "4", "--invert"],
     "index 0: outer {1|2} (k=0,l=2)  inner {1|2} (k=0,l=2)\n"
     "index 1: outer {1,2} (k=0,l=2)  inner {1|2} (k=0,l=2)\n"
     "1/12 -1/12\n-1/12 1/3\n"),
    (["weingarten", "--k", "1", "--N", "5", "--haar", "1,1,2,3"], "1/5\n"),
    (["tl", "trace", "TL(2,2): (1,3)(2,4)", "--N", "4"], "4\n"),
    (["tl", "collapse", "TL(2,2): (1,2)(3,4)"], "{1|2} (k=1,l=1)\n"),
    (["tl", "phi", "TL(2,0): (1,2)"], "N^(-1/4) * {1} (k=1,l=0)\n"),
]

REFUSALS = [
    (["dim", "g,g", "--N", "4"], 1),                          # unparenthesized word
    (["dim", "(g,h)", "--fusion", "builtin:cyclic:2", "--N", "4"], 1),
    (["fuse", "(g)", "(g)", "--fusion", "builtin:nosuch"], 1),
    (["weingarten", "--k", "1", "--N", "5", "--haar", "1,1,2"], 1),
    (["hom-dim", "--up", "", "--down", ",".join(["1"] * 15),
      "--fusion", "builtin:trivial"], 2),                     # enumeration cap
]

# the correct behaviour (ROADMAP item 4); the seed prints -1 for the first two
# and dies with a RecursionError on the third
DEFECTS = [
    (["dim", "(1,1)", "--N", "2"], 1, None),
    (["dim", "(1,1,1)", "--N", "3"], 1, None),
    (["dim", "(" + ",".join(["1"] * 600) + ")", "--N", "4"], 0, "1201\n"),
]


@dataclass
class Call:
    kind: str
    argv: list[str]
    code: int = 0
    stdout: str | None = None        # None: any output
    oracle: tuple | None = None      # seeded calls: what the second route computes

    def check(self, code: int, stdout: str, stderr: str) -> bool:
        if "Traceback" in stderr or code != self.code:
            return False
        return self.stdout is None or stdout == self.stdout


def _word(rng, labels, lo, hi):
    return tuple(rng.choice(labels) for _ in range(rng.randint(lo, hi)))


def _lit(word):
    return "(" + ",".join(word) + ")"


def calls(seed: int) -> list[Call]:
    rng = random.Random(seed)
    out = [Call("readme", argv, 0, text) for argv, text in README]
    out += [Call("refusal", argv, code, "") for argv, code in REFUSALS]
    out += [Call("defect", argv, code, text) for argv, code, text in DEFECTS]
    for _ in range(SEEDED_PER_COMMAND):
        for command in ("dim", "fuse", "char-poly", "hom-dim"):
            s = rng.choice((2, 3))
            labels = ["1", "g"] + (["g2"] if s == 3 else [])
            ring = f"builtin:cyclic:{s}"
            if command == "dim":
                word, n = _word(rng, labels, 0, 5), rng.randint(4, 9)
                argv = ["dim", _lit(word), "--fusion", ring, "--N", str(n)]
                oracle = ("dim", s, word, n)
            elif command == "fuse":
                x, y = _word(rng, labels, 0, 4), _word(rng, labels, 0, 4)
                argv = ["fuse", _lit(x), _lit(y), "--fusion", ring]
                oracle = ("fuse", s, x, y)
            elif command == "char-poly":
                word = _word(rng, labels, 0, 5)
                argv = ["char-poly", _lit(word), "--fusion", ring]
                oracle = ("char-poly", s, word)
            else:
                up, down = _word(rng, labels, 0, 2), _word(rng, labels, 0, 3)
                star = [a + "*" if rng.random() < 0.3 else a for a in down]
                argv = ["hom-dim", "--up", ",".join(up), "--down", ",".join(star),
                        "--fusion", ring]
                oracle = ("hom-dim", s, up, tuple(star))
            out.append(Call("seeded", argv, 0, None, oracle))
    rng.shuffle(out)
    return out


def expected_outputs(oracles: list[tuple]) -> list[str]:
    """Expected stdout of the seeded calls, each by a route the CLI does not use.

    ``dim`` evaluates the central character polynomial, ``fuse`` uses the
    free-product route, ``char-poly`` interpolates the polynomial through
    dimensions, ``hom-dim`` pairs fusion decompositions.
    """
    from freewreath import fusion, homspaces, qnum

    out = []
    for kind, s, *args in oracles:
        fd = fusion.cyclic_fusion(s)
        if kind == "dim":
            word, n = args
            poly = fusion.central_char_poly(word, fd)
            out.append(f"{sum(c * n ** i for i, c in enumerate(poly))}\n")
        elif kind == "fuse":
            x, y = args
            prod = fusion.fuse(x, y, fd, method="free-product")
            out.append("".join(f"{fusion.render_word(w, fd)} ×{m}\n"
                               for w, m in fusion.sort_words(prod, fd)))
        elif kind == "char-poly":
            (word,) = args
            points = [(n, fusion.dim_wreath(word, fd, n))
                      for n in range(4, 5 + len(word))]
            out.append(qnum.render_poly(qnum.poly_trim(_interpolate(points))) + "\n")
        else:
            up, star = args
            down = tuple(fd.conj(a[:-1]) if a.endswith("*") else a for a in star)
            out.append(f"{homspaces.dim_hom_wreath(up, down, fd, 'fusion')}\n")
    return out


def _interpolate(points) -> tuple[int, ...]:
    """Integer coefficients, low degree first, of the polynomial through points."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [Fraction(0)] + basis
                for d in range(len(basis) - 1):
                    basis[d] -= xj * basis[d + 1]
                denom *= xi - xj
        for d, b in enumerate(basis):
            coeffs[d] += yi * b / denom
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError(f"non-integer interpolation through {points}")
    return tuple(int(c) for c in coeffs)
