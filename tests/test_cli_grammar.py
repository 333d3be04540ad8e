"""A grammar fuzzer over ``cli.main``: commands and options drawn from small
pools of letters, words, integers and malformed text, run in process under
low caps.  Every call must end in exit code 0..3, print nothing on stdout
when it exits 1 or 2, and let no exception escape ``main``.
"""

import contextlib
import io
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from freewreath import config
from freewreath.cli import main

INTEGERS = st.sampled_from(["-1", "0", "1", "2", "4", "10", str(10 ** 30),
                            "x"])
LETTERS = st.sampled_from(["1", "g", "g2", "g*", "g**", "zz", "", "-2", "3"])
LETTER_LISTS = st.lists(LETTERS, max_size=6).map(",".join)
WORDS = st.one_of(LETTER_LISTS.map("({})".format), LETTER_LISTS,
                  st.sampled_from(["(", "()", "(g", "(1.5)", "((g))"]))
FUSIONS = st.sampled_from(["builtin:trivial", "builtin:cyclic:2",
                           "builtin:cyclic:3", "builtin:integers",
                           "builtin:cyclic:0", f"builtin:cyclic:{10 ** 30}",
                           "builtin:nope", "nope"])
DIAGRAMS = st.sampled_from(["TL(0,0): ", "TL(2,0): (1,2)", "TL(1,1): (1,2)",
                            "TL(2,2): (1,2)(3,4)", "TL(2,2): (1,3)(2,4)",
                            "TL(2,2): (1,4)(2,3)", "TL(1,1): (1,3)",
                            "TL(3,1): (1,4)(2,3)", "TL(-1,2): (1,2)",
                            "garbage"])
STAR_WORDS = st.sampled_from(["1", "*", "1*", "1*1*", "", "1x",
                              "1" * 12])
FRACTIONS = st.sampled_from(["1/2", "0", "1", "2/3", "3/2", "-1/2", "nan",
                             "1e400", "1/0", "x"])

CATEGORIES = st.sampled_from(["noncrossing", "all", "singletons", "x"])

# each command: its words, its required options, then its other options,
# each with the values it draws; a flag draws None
COMMANDS = {
    ("fuse",): ([WORDS, WORDS], {}, {
        "--fusion": FUSIONS,
        "--method": st.sampled_from(["direct", "free-product", "x"])}),
    ("dim",): ([WORDS], {"--N": INTEGERS}, {"--fusion": FUSIONS}),
    ("char-poly",): ([WORDS], {}, {"--fusion": FUSIONS}),
    ("hom-dim",): ([], {"--up": LETTER_LISTS, "--down": LETTER_LISTS}, {
        "--fusion": FUSIONS,
        "--method": st.sampled_from(["partition", "fusion", "x"])}),
    ("char-law",): ([], {"--rep": LETTERS}, {
        "--fusion": FUSIONS, "--order": INTEGERS, "--eps": STAR_WORDS,
        "--float": st.none()}),
    ("classical",): ([], {"--n": INTEGERS}, {
        "--k": INTEGERS, "--float": st.none(),
        "--rep": st.sampled_from(["regular", "sign", "x"])}),
    ("partial-trace",): ([], {"--t": FRACTIONS, "--k": INTEGERS}, {
        "--rep": LETTERS, "--fusion": FUSIONS, "--float": st.none()}),
    ("weingarten",): ([], {"--k": INTEGERS, "--N": INTEGERS}, {
        "--s": INTEGERS, "--category": CATEGORIES, "--invert": st.none(),
        "--haar": LETTER_LISTS, "--float": st.none()}),
    ("tl", "trace"): ([DIAGRAMS], {"--N": INTEGERS}, {"--float": st.none()}),
    ("tl", "collapse"): ([DIAGRAMS], {}, {}),
    ("tl", "phi"): ([DIAGRAMS], {}, {}),
    ("tl", "verify"): ([], {}, {"--max-points": INTEGERS}),
    ("verify", "category"): ([], {"--N": INTEGERS},
                             {"--max-points": INTEGERS}),
    ("verify", "conjugate"): ([], {"--k": INTEGERS, "--N": INTEGERS}, {}),
    ("verify", "fusion-dim"): ([], {"--N": INTEGERS}, {
        "--fusion": FUSIONS, "--count": INTEGERS, "--seed": INTEGERS}),
    ("verify", "weingarten"): ([], {"--k": INTEGERS},
                               {"--s": INTEGERS, "--category": CATEGORIES}),
}


@st.composite
def argvs(draw) -> list[str]:
    """A command with its words and required options, then some of its
    other options; now and then a required option is left out."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    words, required, optional = COMMANDS[command]
    argv = list(command) + [draw(word) for word in words]
    chosen = [name for name in required if draw(st.integers(0, 9))]
    if optional:
        chosen += draw(st.lists(st.sampled_from(sorted(optional)),
                                unique=True))
    for name in chosen:
        value = draw({**required, **optional}[name])
        argv += [name] if value is None else [name, value]
    return argv


@settings(max_examples=300)
@given(argvs())
def test_every_drawn_call_keeps_the_exit_contract(argv):
    # low caps keep each call small: 8 points, 10**5 entries or steps
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(config, "caps", lambda: (8, 10 ** 5)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    if code in (1, 2):
        assert out.getvalue() == "", argv
