"""Command line front end.

Every pipeline is exposed as a subcommand with deterministic output in
either human or TSV form.  Exit codes: 0 success, 2 invalid input,
3 verification mismatch, 4 resource guard tripped.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .abelian import DEFAULT_MAX_ORDER, make_group
from .conjecture import predicted_decomposition, verify
from .errors import Sk1Error, TooLarge
from .genetic import genetic_basis_abelian
from .metacyclic import genetic_basis_metacyclic, make_metacyclic, sk1_metacyclic
from .ranks import rank_metacyclic, rank_square_abelian
from .sk1_abelian import EXHAUSTIVE, REPRESENTATIVES, sk1
from .snf import _format_multiplicities

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_GUARD = 4


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad orders list {text!r}") from None
    if not orders:
        raise argparse.ArgumentTypeError("orders list is empty")
    return orders


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _emit_multiplicities(mult: dict[int, int], fmt: str, prefix: str = "SK1") -> None:
    """Print cyclic order -> multiplicity, ascending.  Raises TooLarge, with
    nothing printed, when a number has more digits than Python prints."""
    try:
        if fmt == "tsv":
            text = "".join(f"{d}\t{m}\n" for d, m in mult.items())
        else:
            text = f"{prefix} = {_format_multiplicities(mult)}\n"
    except ValueError as exc:
        raise TooLarge(f"{prefix} cannot be printed: {exc}") from None
    print(text, end="")


def _guard_printable_power(p: int, x: int, what: str) -> None:
    """Raise TooLarge when p**x has more digits than Python prints, from p
    and x: p**x is never built, as at x = 10**7 that alone takes seconds."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    bound = 10**limit
    top = int(limit / math.log10(p))  # the largest t with p**t < bound, up to rounding
    while p**top >= bound:
        top -= 1
    while p ** (top + 1) < bound:
        top += 1
    if x > top:
        raise TooLarge(f"{what} holds {p}^{x}, more than the {limit} digits Python prints")


def _cmd_abelian(args) -> int:
    G = make_group(args.prime, args.orders)
    dec = sk1(G, strategy=args.strategy, max_order=args.max_order)
    _emit_multiplicities(dec.multiplicities(), args.format)
    return EXIT_OK


def _cmd_metacyclic(args) -> int:
    G = make_metacyclic(args.prime, args.n)
    dec = sk1_metacyclic(G, max_order=args.max_order)
    _emit_multiplicities(dec.multiplicities(), args.format)
    return EXIT_OK


def _cmd_conjecture(args) -> int:
    prediction = predicted_decomposition(args.prime, args.n)
    if not args.verify:
        # Its multiplicities grow like p^(n-2): one entry per factor could
        # not be listed.
        mult = {args.prime**i: m for i, m in prediction.multiplicities.items()}
        _emit_multiplicities(mult, args.format, prefix="predicted SK1")
        return EXIT_OK
    dec = sk1(make_group(args.prime, [args.prime**args.n] * 2))
    report = verify(args.prime, args.n, dec)
    if args.format == "human":
        print("i\tpredicted\tcomputed")
    for i in sorted(set(report.predicted) | set(report.computed)):
        print(f"{i}\t{report.predicted.get(i, 0)}\t{report.computed.get(i, 0)}")
    if args.format == "human":
        print("MATCH" if report.match else "MISMATCH")
    return EXIT_OK if report.match else EXIT_MISMATCH


def _cmd_rank(args) -> int:
    if args.family == "abelian":
        rank = rank_square_abelian(args.prime, args.n)
    else:
        rank = rank_metacyclic(args.prime, args.n)
    try:
        text = str(rank)
    except ValueError as exc:  # more digits than Python prints
        raise TooLarge(f"the rank cannot be printed: {exc}") from None
    print(text)
    return EXIT_OK


def _cmd_basis(args) -> int:
    if args.orders is not None:
        G = make_group(args.prime, args.orders)
        for S in genetic_basis_abelian(G):
            coeffs = ",".join(str(c) for c in S.coeffs)
            if args.format == "tsv":
                print(f"{S.index}\t{coeffs}")
            else:
                print(f"index {S.index}  tuple {coeffs}")
    else:
        G = make_metacyclic(args.prime, args.n)
        # The largest number listed is the index p^(n-1) of <b>.
        _guard_printable_power(G.prime, G.n - 1, f"the basis listing of {G}")
        for S in genetic_basis_metacyclic(G):
            # G/S for the normal members (1 for G itself); <b> has order p.
            index = S.quotient_order if S.normal else G.a_order
            if args.format == "tsv":
                print(f"{S.label}\t{index}\t{S.quotient_order}")
            else:
                print(f"index {index}  quotient {S.quotient_order}  {S.label}")
    return EXIT_OK


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["human", "tsv"], default="human")


def _add_guard(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-order",
        type=_positive_int,
        default=DEFAULT_MAX_ORDER,
        help="largest group order accepted (default %(default)s): every metacyclic "
        "call, and abelian with --strategy exhaustive",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sk1",
        description="Torsion parts of Whitehead groups of odd p-groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ab = sub.add_parser("abelian", help="SK1 of Z[G] for an abelian p-group")
    p_ab.add_argument("--prime", type=int, required=True)
    p_ab.add_argument(
        "--orders",
        type=_parse_orders,
        required=True,
        help="comma-separated cyclic factor orders, e.g. 27,27",
    )
    p_ab.add_argument(
        "--strategy", choices=[REPRESENTATIVES, EXHAUSTIVE], default=REPRESENTATIVES
    )
    _add_guard(p_ab)
    _add_format(p_ab)
    p_ab.set_defaults(func=_cmd_abelian)

    p_mc = sub.add_parser(
        "metacyclic", help="SK1 of Z[G] for the modular metacyclic group of order p^n"
    )
    p_mc.add_argument("--prime", type=int, required=True)
    p_mc.add_argument("--n", type=int, required=True)
    _add_guard(p_mc)
    _add_format(p_mc)
    p_mc.set_defaults(func=_cmd_metacyclic)

    p_cj = sub.add_parser(
        "conjecture", help="predicted SK1 for the square of C_{p^n}, optionally verified"
    )
    p_cj.add_argument("--prime", type=int, required=True)
    p_cj.add_argument("--n", type=int, required=True)
    p_cj.add_argument("--verify", action="store_true", help="compare against the computed SK1")
    _add_format(p_cj)
    p_cj.set_defaults(func=_cmd_conjecture)

    p_rk = sub.add_parser("rank", help="free rank of the Whitehead group")
    p_rk.add_argument("--family", choices=["abelian", "metacyclic"], required=True)
    p_rk.add_argument("--prime", type=int, required=True)
    p_rk.add_argument(
        "--n", type=int, required=True, help="abelian means the square of C_{p^n}"
    )
    p_rk.set_defaults(func=_cmd_rank)

    p_bs = sub.add_parser("basis", help="list the genetic basis")
    p_bs.add_argument("--prime", type=int, required=True)
    which = p_bs.add_mutually_exclusive_group(required=True)
    which.add_argument("--orders", type=_parse_orders, help="abelian group factor orders")
    which.add_argument("--n", type=int, help="modular metacyclic group of order p^n")
    _add_format(p_bs)
    p_bs.set_defaults(func=_cmd_basis)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses for the rest of the process.

    It holds no solver: each handler looks up ``sk1``, ``sk1_metacyclic``
    and ``verify`` among this module's globals when it runs, and argparse
    looks up ``sys.stdout`` and ``sys.stderr`` only when it prints.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (Sk1Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
