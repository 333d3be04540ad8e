"""Command line interface.

Exit codes: 0 success, 1 bad input or mathematical domain error, 2 an
enumeration or entry cap was exceeded, 3 a verification suite reported
failures.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .config import CapExceededError, caps
from .fusion import (central_char_poly, dim_multiplicativity_failures,
                     dim_wreath, fuse, fusion_from_uri, parse_word,
                     render_word, sort_words)
from .freeprob import (brute_force_z2_s3_moments, character_moment_wreath,
                       classical_wreath_moment, compound_poisson_moments,
                       parse_eps, partial_trace_moments, plain_eps,
                       rep_block_moment, render_eps, z2_block_moment)
from .homspaces import dim_hom_wreath, parse_star_list
from .linmaps import verify_category_relations, verify_conjugate_equations
from .qnum import render_poly
from .tl import collapse, markov_trace, parse_tl, phi, verify_phi
from .weingarten import haar_state, wg_certify_asymptotics, wg_table


class _Parser(argparse.ArgumentParser):
    # bad usage is a domain error here, not the argparse default of 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fusion(args):
    return fusion_from_uri(args.fusion)


def _print_report(report) -> int:
    print(report.render())
    return 0 if report.passed else 3


def cmd_fuse(args) -> int:
    fd = _fusion(args)
    x = parse_word(args.x, fd)
    y = parse_word(args.y, fd)
    result = fuse(x, y, fd, method=args.method)
    for word, mult in sort_words(result, fd):
        print(f"{render_word(word, fd)} ×{mult}")
    return 0


def cmd_dim(args) -> int:
    fd = _fusion(args)
    word = parse_word(args.x, fd)
    print(dim_wreath(word, fd, args.N))
    return 0


def cmd_char_poly(args) -> int:
    fd = _fusion(args)
    word = parse_word(args.x, fd)
    print(render_poly(central_char_poly(word, fd)))
    return 0


def cmd_hom_dim(args) -> int:
    fd = _fusion(args)
    up = parse_star_list(args.up, fd)
    down = parse_star_list(args.down, fd)
    print(dim_hom_wreath(up, down, fd, method=args.method))
    return 0


def cmd_char_law(args) -> int:
    fd = _fusion(args)
    rep = fd.parse_label(args.rep)
    fd.check_label(rep)
    if args.eps is not None:
        eps_list = [parse_eps(args.eps)]
        if not eps_list[0]:
            raise ValueError("--eps needs a star word of at least one letter")
    elif args.order < 1:
        raise ValueError(f"--order must be at least 1, got {args.order}")
    else:
        eps_list = [plain_eps(k) for k in range(1, args.order + 1)]
    max_len = max(len(e) for e in eps_list)
    predicted = compound_poisson_moments(fd, rep, max_len)
    for eps in eps_list:
        value = character_moment_wreath(fd, rep, eps)
        if value != predicted[eps]:
            print(f"internal disagreement at {render_eps(eps)}: "
                  f"{value} vs {predicted[eps]}", file=sys.stderr)
            return 3
        shown = float(value) if args.float else value
        print(f"moment {render_eps(eps)}: {shown}")
    return 0


def cmd_classical(args) -> int:
    if args.group != "z2":
        print(f"unknown group {args.group!r}", file=sys.stderr)
        return 1
    if args.k < 0:
        raise ValueError(f"--k must be nonnegative, got {args.k}")
    bm = z2_block_moment(args.rep)
    values = [classical_wreath_moment(bm, args.n, k) for k in range(args.k + 1)]
    for k, value in enumerate(values):
        shown = float(value) if args.float else value
        print(f"k={k}: {shown}")
    if args.n == 3:
        brute = brute_force_z2_s3_moments(args.rep, args.k)
        if brute != values:
            print("brute-force group average disagrees", file=sys.stderr)
            return 3
        print("verified against the average over all 48 group elements")
    return 0


def cmd_partial_trace(args) -> int:
    fd = _fusion(args)
    rep = fd.parse_label(args.rep) if args.rep is not None else fd.trivial()
    fd.check_label(rep)
    t = Fraction(args.t)
    if args.k < 0:
        raise ValueError(f"--k must be nonnegative, got {args.k}")
    bm = rep_block_moment(fd, rep)
    for k in range(1, args.k + 1):
        value = partial_trace_moments(t, bm, k)
        shown = float(value) if args.float else value
        print(f"k={k}: {shown}")
    return 0


def cmd_weingarten(args) -> int:
    table = wg_table(args.k, args.N, args.s, args.category)
    if args.haar is not None:
        flat = [int(x) for x in args.haar.split(",")]
        if len(flat) != 4 * args.k:
            print(f"--haar needs 4*k = {4 * args.k} comma-separated indices "
                  f"(inner row, inner col, outer row, outer col)",
                  file=sys.stderr)
            return 1
        k = args.k
        value = haar_state(table, tuple(flat[:k]), tuple(flat[k:2 * k]),
                           tuple(flat[2 * k:3 * k]), tuple(flat[3 * k:]))
        print(float(value) if args.float else value)
        return 0
    for t, (p, a) in enumerate(table.indices):
        print(f"index {t}: outer {p.render()}  inner {a.render()}")
    matrix = table.winv if args.invert else table.gram
    for row in matrix:
        if args.float:
            print(" ".join(str(float(x)) for x in row))
        else:
            print(" ".join(str(x) for x in row))
    return 0


def cmd_tl(args) -> int:
    if args.tl_command == "verify":
        return _print_report(verify_phi(max_points=args.max_points))
    diagram = parse_tl(args.diagram)
    if args.tl_command == "trace":
        value = markov_trace(diagram, args.N)
        print(float(value) if args.float else value.render())
    elif args.tl_command == "collapse":
        print(collapse(diagram).render())
    elif args.tl_command == "phi":
        print(phi(diagram).render())
    return 0


def cmd_verify(args) -> int:
    which = args.verify_command
    if which == "category":
        return _print_report(verify_category_relations(args.N,
                                                       max_points=args.max_points))
    if which == "conjugate":
        return _print_report(verify_conjugate_equations(args.k, args.N))
    if which == "iso":
        return _print_report(verify_phi(max_points=args.max_points))
    if which == "weingarten":
        return _print_report(wg_certify_asymptotics(args.k, args.s,
                                                    args.category))
    if which == "fusion-dim":
        import random

        from .report import VerificationReport
        fd = fusion_from_uri(args.fusion)
        if fd.labels() is None:
            print("fusion-dim needs a finite fusion table", file=sys.stderr)
            return 1
        bad = dim_multiplicativity_failures(
            fd, args.N, random.Random(args.seed), args.count)
        report = VerificationReport(f"dimension multiplicativity N={args.N}")
        report.add(f"{args.count} random products have multiplicative dimension",
                   not bad, f"first failure {bad[0]}" if bad else "")
        return _print_report(report)
    raise ValueError(f"unknown verification {which!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="freewreath",
                     description="Representation combinatorics of free wreath "
                                 "product quantum groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", parents=[], help="tensor decomposition of two words")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--fusion", default="builtin:cyclic:2")
    p.add_argument("--method", choices=("direct", "free-product"),
                   default="direct")
    p.set_defaults(run=cmd_fuse)

    p = sub.add_parser("dim", help="dimension of a word representation")
    p.add_argument("x")
    p.add_argument("--fusion", default="builtin:cyclic:2")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(run=cmd_dim)

    p = sub.add_parser("char-poly",
                       help="central character polynomial of a word")
    p.add_argument("x")
    p.add_argument("--fusion", default="builtin:cyclic:2")
    p.set_defaults(run=cmd_char_poly)

    p = sub.add_parser("hom-dim",
                       help="dimension of an intertwiner space between "
                            "tensor products of basic representations")
    p.add_argument("--up", required=True,
                   help="comma-separated letters, * marks conjugates")
    p.add_argument("--down", required=True)
    p.add_argument("--fusion", default="builtin:cyclic:2")
    p.add_argument("--method", choices=("partition", "fusion"),
                   default="partition")
    p.set_defaults(run=cmd_hom_dim)

    p = sub.add_parser("char-law",
                       help="moments of the character of a basic representation")
    p.add_argument("--rep", required=True)
    p.add_argument("--fusion", default="builtin:cyclic:2")
    p.add_argument("--eps", help="a star word over '1' and '*'")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--float", action="store_true")
    p.set_defaults(run=cmd_char_law)

    p = sub.add_parser("classical",
                       help="character moments of a classical wreath product")
    p.add_argument("--group", default="z2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--rep", choices=("sign", "regular"), default="regular")
    p.add_argument("--float", action="store_true")
    p.set_defaults(run=cmd_classical)

    p = sub.add_parser("partial-trace",
                       help="moments of the truncated character law")
    p.add_argument("--t", required=True, help="truncation ratio, e.g. 1/2")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--fusion", default="builtin:trivial")
    p.add_argument("--rep", default=None)
    p.add_argument("--float", action="store_true")
    p.set_defaults(run=cmd_partial_trace)

    p = sub.add_parser("weingarten",
                       help="Gram and Weingarten matrices, Haar states")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--category", default=None,
                   choices=("noncrossing", "all", "singletons"))
    p.add_argument("--invert", action="store_true")
    p.add_argument("--haar",
                   help="4*k comma-separated indices: inner row, inner col, "
                        "outer row, outer col")
    p.add_argument("--float", action="store_true")
    p.set_defaults(run=cmd_weingarten)

    p = sub.add_parser("tl", help="Temperley-Lieb diagram operations")
    tsub = p.add_subparsers(dest="tl_command", required=True)
    t = tsub.add_parser("trace", help="Markov trace of a diagram")
    t.add_argument("diagram")
    t.add_argument("--N", type=int, required=True)
    t.add_argument("--float", action="store_true")
    t = tsub.add_parser("collapse", help="collapse a diagram to a partition")
    t.add_argument("diagram")
    t = tsub.add_parser("phi", help="image of a diagram under the collapsing "
                                    "isomorphism, with its power of sqrt(N)")
    t.add_argument("diagram")
    t = tsub.add_parser("verify", help="check the collapsing isomorphism")
    t.add_argument("--max-points", type=int, default=6)
    p.set_defaults(run=cmd_tl)

    p = sub.add_parser("verify", help="verification suites")
    vsub = p.add_subparsers(dest="verify_command", required=True)
    v = vsub.add_parser("category", help="tensor/compose/involution relations "
                                         "of the partition maps")
    v.add_argument("--N", type=int, required=True)
    v.add_argument("--max-points", type=int, default=6)
    v = vsub.add_parser("conjugate", help="conjugate equations")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--N", type=int, required=True)
    v = vsub.add_parser("iso", help="collapsing isomorphism")
    v.add_argument("--max-points", type=int, default=6)
    v = vsub.add_parser("fusion-dim", help="dimension multiplicativity on "
                                           "random words")
    v.add_argument("--fusion", default="builtin:cyclic:2")
    v.add_argument("--N", type=int, required=True)
    v.add_argument("--count", type=int, default=200)
    v.add_argument("--seed", type=int, default=0)
    v = vsub.add_parser("weingarten", help="Weingarten asymptotics")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--s", type=int, default=1)
    v.add_argument("--category", default=None,
                   choices=("noncrossing", "all", "singletons"))
    p.set_defaults(run=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        caps()  # refuse a bad cap variable even where no cap is checked
        return args.run(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
