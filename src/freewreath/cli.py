"""Command line interface.

Each subcommand is one function from the parsed arguments to its output: a
list of lines, or a verification report.  ``main`` alone prints that output
and picks the exit code: 0 success, 1 bad input or mathematical domain error,
2 an enumeration or entry cap was exceeded, or an exact value has more
digits than Python converts an int to, 3 a verification suite reported
failures or a second route to the same values disagreed.

Each subcommand imports the layer functions it calls in its own body, so a
call loads only the modules its command runs: ``dim`` never loads the
Weingarten or Temperley-Lieb layers, nor ``fractions``.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache
from sys import get_int_max_str_digits

from .config import (CATEGORIES, CapExceededError, caps, check_enum_cap,
                     check_work_cap)


class _Parser(argparse.ArgumentParser):
    # bad usage is a domain error here, not the argparse default of 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class Disagreement(Exception):
    """Two routes to the same values disagree: exit 3, nothing on stdout."""


def _shown(args, value) -> str:
    """value as printed: exact, or with --float a float, each refused where
    it cannot print: past the float range, or past the digits that Python
    converts an int to (``get_int_max_str_digits``)."""
    if args.float:
        shown = float(value)  # a huge exact value raises OverflowError here
        if math.isinf(shown):
            raise OverflowError("the value exceeds the float range")
        return str(shown)
    try:
        return str(value)
    except ValueError:  # an int or Fraction raises it only past that limit
        limit = get_int_max_str_digits()
        raise CapExceededError(
            f"printing an exact value of more than {limit} digits exceeds "
            f"the cap of {limit}; --float prints it approximately") from None


def cmd_fuse(args) -> list[str]:
    from .fusion import (fuse, fused_letters, fusion_from_uri, parse_word,
                         render_word, sort_words)

    fd = fusion_from_uri(args.fusion)
    x, y = parse_word(args.x, fd), parse_word(args.y, fd)
    check_work_cap(fused_letters(x, y, fd),
                   "building {} letters of the product's words")
    result = fuse(x, y, fd, method=args.method)
    return [f"{render_word(word, fd)} ×{mult}"
            for word, mult in sort_words(result, fd)]


def cmd_dim(args) -> list[str]:
    from .fusion import dim_wreath, fusion_from_uri, parse_word

    fd = fusion_from_uri(args.fusion)
    return [str(dim_wreath(parse_word(args.x, fd), fd, args.N))]


def cmd_char_poly(args) -> list[str]:
    from .fusion import (central_char_poly, char_poly_products,
                         fusion_from_uri, parse_word)
    from .qnum import render_poly

    fd = fusion_from_uri(args.fusion)
    word = parse_word(args.x, fd)
    check_work_cap(char_poly_products(word, fd),
                   "taking {} coefficient products for the character polynomial")
    return [render_poly(central_char_poly(word, fd))]


def cmd_hom_dim(args) -> list[str]:
    from .fusion import fusion_from_uri, parse_star_list
    from .homspaces import dim_hom_wreath

    fd = fusion_from_uri(args.fusion)
    up = parse_star_list(args.up, fd)
    down = parse_star_list(args.down, fd)
    return [str(dim_hom_wreath(up, down, fd, method=args.method))]


def cmd_char_law(args) -> list[str]:
    from .freeprob import (char_law_work, character_moment_wreath,
                           compound_poisson_law, parse_eps, partial_trace_law,
                           plain_character_moments, plain_eps, render_eps,
                           rep_block_moment)
    from .fusion import fusion_from_uri, parse_letter

    fd = fusion_from_uri(args.fusion)
    rep = parse_letter(args.rep, fd)
    # the cap on the typed word or order, before any moment; each word comes
    # with its moment by the Hom route and by the free compound Poisson law
    if args.eps is not None:
        eps = parse_eps(args.eps)
        if not eps:
            raise ValueError("--eps needs a star word of at least one letter")
        check_enum_cap(len(eps))  # its first-block sum
        rows = [(eps, character_moment_wreath(fd, rep, eps),
                 compound_poisson_law(fd, rep)[eps])]
    elif args.order < 1:
        raise ValueError(f"--order must be at least 1, got {args.order}")
    else:
        k = args.order
        check_work_cap(char_law_work(fd, rep, k),
                       f"{{}} steps for the moments to order {k}")
        # every order from one Hom-route run on the longest word, against
        # one run of the law's plain-word solver at rate 1
        rows = zip(map(plain_eps, range(1, k + 1)),
                   plain_character_moments(fd, rep, k)[1:],
                   partial_trace_law(1, rep_block_moment(fd, rep), k)[1:])
    lines = []
    for eps, value, predicted in rows:
        if value != predicted:
            raise Disagreement(f"internal disagreement at {render_eps(eps)}: "
                               f"{value} vs {predicted}")
        lines.append(f"moment {render_eps(eps)}: {_shown(args, value)}")
    return lines


def cmd_classical(args) -> list[str]:
    from .freeprob import (brute_force_z2_s3_moments, classical_wreath_moments,
                           z2_block_moment)

    if args.n < 0:
        raise ValueError(f"--n must be nonnegative, got {args.n}")
    if args.k < 0:
        raise ValueError(f"--k must be nonnegative, got {args.k}")
    values = classical_wreath_moments(z2_block_moment(args.rep), args.n,
                                      args.k)
    lines = [f"k={k}: {_shown(args, value)}" for k, value in enumerate(values)]
    if args.n == 3:
        # the group average's 48 (k+1) powers: fewer than the products of
        # the recursion's capped count from k = 24 on, and 1152 at most below
        if brute_force_z2_s3_moments(args.rep, args.k) != values:
            raise Disagreement("brute-force group average disagrees")
        lines.append("verified against the average over all 48 group elements")
    return lines


def cmd_partial_trace(args) -> list[str]:
    from fractions import Fraction

    from .freeprob import partial_trace_law, rep_block_moment
    from .fusion import fusion_from_uri, parse_letter

    fd = fusion_from_uri(args.fusion)
    rep = parse_letter(args.rep, fd) if args.rep is not None else fd.trivial()
    try:
        t = Fraction(args.t)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--t must be a fraction such as 1/2, "
                         f"got {args.t!r}") from None
    if args.k < 0:
        raise ValueError(f"--k must be nonnegative, got {args.k}")
    # the law checks t, even at --k 0, then its cap, before any moment
    moments = partial_trace_law(t, rep_block_moment(fd, rep), args.k)
    return [f"k={k}: {_shown(args, moments[k])}" for k in range(1, args.k + 1)]


def cmd_weingarten(args) -> list[str]:
    from fractions import Fraction

    from .weingarten import haar_state, wg_table

    table = wg_table(args.k, args.N, args.s, args.category)
    k = args.k
    if args.haar is not None:
        flat = []
        for x in args.haar.split(","):
            try:
                flat.append(int(x))
            except ValueError:
                raise ValueError(f"--haar entries must be integers, "
                                 f"got {x!r}") from None
        if len(flat) != 4 * k:
            raise ValueError(f"--haar needs 4*k = {4 * k} comma-separated "
                             f"indices (inner row, inner col, outer row, "
                             f"outer col)")
        value = haar_state(table, tuple(flat[:k]), tuple(flat[k:2 * k]),
                           tuple(flat[2 * k:3 * k]), tuple(flat[3 * k:]))
        return [_shown(args, value)]
    lines = [f"index {t}: outer {p.render()}  inner {a.render()}"
             for t, (p, a) in enumerate(table.indices)]
    rows = ((Fraction(x, table.wden) for x in row) for row in table.wnum)
    for row in rows if args.invert else table.gram:
        lines.append(" ".join(_shown(args, x) for x in row))
    return lines


def cmd_tl_trace(args) -> list[str]:
    from .tl import markov_trace_exponent, parse_tl, sqrt_power

    diagram = parse_tl(args.diagram)
    value = sqrt_power(args.N, markov_trace_exponent(diagram), args.float)
    return [_shown(args, value)]


def cmd_tl_collapse(args) -> list[str]:
    from .tl import collapse, parse_tl

    return [collapse(parse_tl(args.diagram)).render()]


def cmd_tl_phi(args) -> list[str]:
    from .tl import parse_tl, phi, render_scaled

    return [render_scaled(*phi(parse_tl(args.diagram)))]


def cmd_tl_verify(args):
    from .tl import verify_phi

    return verify_phi(max_points=args.max_points)


def cmd_verify_category(args):
    from .linmaps import verify_category_relations

    return verify_category_relations(args.N, max_points=args.max_points)


def cmd_verify_conjugate(args):
    from .linmaps import verify_conjugate_equations

    return verify_conjugate_equations(args.k, args.N)


def cmd_verify_fusion_dim(args):
    import random

    from .fusion import fusion_from_uri, verify_dim_multiplicativity

    return verify_dim_multiplicativity(fusion_from_uri(args.fusion), args.N,
                                       random.Random(args.seed), args.count)


def cmd_verify_weingarten(args):
    from .weingarten import wg_certify_asymptotics

    return wg_certify_asymptotics(args.k, args.s, args.category)


def _option(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


@cache  # parsing leaves the parser as it was, so main reuses one
def build_parser() -> _Parser:
    fusion = _option("--fusion", default="builtin:cyclic:2")
    as_float = _option("--float", action="store_true")
    n = _option("--N", type=int, required=True)
    max_points = _option("--max-points", type=int, default=6)
    category = _option("--category", default=None, choices=CATEGORIES)

    parser = _Parser(prog="freewreath",
                     description="Representation combinatorics of free wreath "
                                 "product quantum groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", parents=[fusion],
                       help="tensor decomposition of two words")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--method", choices=("direct", "free-product"),
                   default="direct")
    p.set_defaults(run=cmd_fuse)

    p = sub.add_parser("dim", parents=[fusion, n],
                       help="dimension of a word representation")
    p.add_argument("x")
    p.set_defaults(run=cmd_dim)

    p = sub.add_parser("char-poly", parents=[fusion],
                       help="central character polynomial of a word")
    p.add_argument("x")
    p.set_defaults(run=cmd_char_poly)

    p = sub.add_parser("hom-dim", parents=[fusion],
                       help="dimension of an intertwiner space between "
                            "tensor products of basic representations")
    p.add_argument("--up", required=True,
                   help="comma-separated letters, * marks conjugates")
    p.add_argument("--down", required=True)
    p.add_argument("--method", choices=("partition", "fusion"),
                   default="partition")
    p.set_defaults(run=cmd_hom_dim)

    p = sub.add_parser("char-law", parents=[fusion, as_float],
                       help="moments of the character of a basic representation")
    p.add_argument("--rep", required=True)
    p.add_argument("--eps", help="a star word over '1' and '*'")
    p.add_argument("--order", type=int, default=4)
    p.set_defaults(run=cmd_char_law)

    p = sub.add_parser("classical", parents=[as_float],
                       help="character moments of the classical wreath "
                            "product Z/2 wr S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--rep", choices=("sign", "regular"), default="regular")
    p.set_defaults(run=cmd_classical)

    # the only --fusion with another default, so declared on its own
    p = sub.add_parser("partial-trace",
                       parents=[_option("--fusion", default="builtin:trivial"),
                                as_float],
                       help="moments of the truncated character law")
    p.add_argument("--t", required=True, help="truncation ratio, e.g. 1/2")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rep", default=None)
    p.set_defaults(run=cmd_partial_trace)

    p = sub.add_parser("weingarten", parents=[n, category, as_float],
                       help="Gram and Weingarten matrices, Haar states")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--invert", action="store_true")
    p.add_argument("--haar",
                   help="4*k comma-separated indices: inner row, inner col, "
                        "outer row, outer col")
    p.set_defaults(run=cmd_weingarten)

    p = sub.add_parser("tl", help="Temperley-Lieb diagram operations")
    tsub = p.add_subparsers(dest="tl_command", required=True)
    t = tsub.add_parser("trace", parents=[n, as_float],
                        help="Markov trace of a diagram")
    t.add_argument("diagram")
    t.set_defaults(run=cmd_tl_trace)
    t = tsub.add_parser("collapse", help="collapse a diagram to a partition")
    t.add_argument("diagram")
    t.set_defaults(run=cmd_tl_collapse)
    t = tsub.add_parser("phi", help="image of a diagram under the collapsing "
                                    "isomorphism, with its power of sqrt(N)")
    t.add_argument("diagram")
    t.set_defaults(run=cmd_tl_phi)
    t = tsub.add_parser("verify", parents=[max_points],
                        help="check the collapsing isomorphism")
    t.set_defaults(run=cmd_tl_verify)

    p = sub.add_parser("verify", help="verification suites")
    vsub = p.add_subparsers(dest="verify_command", required=True)
    v = vsub.add_parser("category", parents=[n, max_points],
                        help="tensor/compose/involution relations of the "
                             "partition maps")
    v.set_defaults(run=cmd_verify_category)
    v = vsub.add_parser("conjugate", parents=[n], help="conjugate equations")
    v.add_argument("--k", type=int, required=True)
    v.set_defaults(run=cmd_verify_conjugate)
    v = vsub.add_parser("fusion-dim", parents=[fusion, n],
                        help="dimension multiplicativity on random words")
    v.add_argument("--count", type=int, default=200)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(run=cmd_verify_fusion_dim)
    v = vsub.add_parser("weingarten", parents=[category],
                        help="Weingarten asymptotics")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--s", type=int, default=1)
    v.set_defaults(run=cmd_verify_weingarten)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        caps()  # refuse a bad cap variable even where no cap is checked
        result = args.run(args)
        if not isinstance(result, list):  # a verification report
            print(result.render())
            return 0 if result.passed else 3
        for line in result:
            print(line)
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except Disagreement as exc:
        print(exc, file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
