"""Command-line front end.

Commands:
  construct fig8 --p P --q Q --k A..B        build fig8-mode witnesses
  construct general --d D --xi EXPR [--x X] --k A..B
  verify PATH                                re-check a witness file
  residues --d D                             quadratic residue tables
  appendix                                   golden-table regression

Exit codes: 0 pass, 1 verification mismatch, 2 bad input,
3 internal failure (a failed consistency check, or a crash).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .circles import check_odd_prime, is_quadratic_nonresidue
from .pipeline import (FIG8, GENERAL, CompressionWitness, InvalidParams, Params,
                       construct_series, parse_witnesses, render_witnesses,
                       validate_fig8, validate_general, verify_witness)
from .psl2 import render_mat2
from .quadint import parse_quadint

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3


def parse_k_range(text: str) -> range:
    """Inclusive 'A..B' range; a bare 'A' means A..A."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise InvalidParams(f"cannot parse k range {text!r}")
    if a < 1 or b < a:
        raise InvalidParams(f"invalid k range {text!r}")
    return range(a, b + 1)


def _witness_summary(w: CompressionWitness) -> str:
    """One line; `construct_series` raises on a failed check, so it reads ok."""
    head = (f"p={w.p} q={w.q}" if w.mode == FIG8 else f"xi={w.xi} x={w.x}")
    return f"{w.mode} d={w.d} {head} k={w.k}: n_k={w.n_k} D_k={w.D_k} checks=ok"


def _emit(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_construct(args: argparse.Namespace) -> int:
    try:
        ks = parse_k_range(args.k)
        if args.submode == FIG8:
            params: Params = validate_fig8(args.p, args.q)
        else:
            check_odd_prime(args.d)  # first: an O_d test of a composite d is trial division
            xi = parse_quadint(args.xi, args.d)
            params = validate_general(args.d, xi, args.x)
    except ValueError as exc:  # InvalidParams is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    witnesses = construct_series(args.submode, params, ks)
    try:
        text = (render_witnesses(witnesses) if args.format == "machine"
                else "".join(_witness_summary(w) + "\n" for w in witnesses))
    except ValueError:  # rendering only formats ints, so only str(int) raises
        print(f"error: a witness integer exceeds the interpreter's int-to-str digit limit "
              f"({sys.get_int_max_str_digits()}; see PYTHONINTMAXSTRDIGITS)", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        _emit(text, args.out)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            witnesses = parse_witnesses(fh.read())
        if not witnesses:
            raise ValueError("no witness records found")
    except (OSError, ValueError) as exc:
        print(f"error: cannot read witness file: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    all_ok = True
    for w in witnesses:
        report = verify_witness(w)
        lines = [f"witness k={w.k} mode={w.mode}: {'PASS' if report.ok else 'FAIL'}"]
        lines += [f"  {name}: {'pass' if ok else 'fail'}" for name, ok in report.results.items()]
        try:  # flush now: a reader that stopped early (`| head -1`) raises here, not at exit
            print("\n".join(lines), flush=True)
        except BrokenPipeError:  # not a crash: the rest goes to os.devnull, the verdict stands
            sys.stdout = open(os.devnull, "w", encoding="utf-8")
        all_ok = all_ok and report.ok
    return EXIT_OK if all_ok else EXIT_MISMATCH


def cmd_residues(args: argparse.Namespace) -> int:
    d = args.d
    try:
        check_odd_prime(d)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    nonresidue = [is_quadratic_nonresidue(x, d) for x in range(1, d)]  # entry x-1 is x's
    print(f"d = {d}")
    print(f"quadratic residues: {[x for x, n in enumerate(nonresidue, 1) if not n]}")
    print(f"non-residues: {[x for x, n in enumerate(nonresidue, 1) if n]}")
    print(f"smallest non-residue: {nonresidue.index(True) + 1}")
    return EXIT_OK


def cmd_appendix(_args: argparse.Namespace) -> int:
    from . import golden  # here, as no other command reads the table
    params = validate_fig8(golden.GOLDEN_P, golden.GOLDEN_Q)
    witnesses = construct_series(FIG8, params, range(1, 11))
    h = witnesses[0].h
    if h != golden.golden_h():
        print(f"MISMATCH in h: got {render_mat2(h)}", file=sys.stderr)
        return EXIT_MISMATCH
    for w, row in zip(witnesses, golden.golden_rows()):
        if w.D_k != row.D_k:
            print(f"MISMATCH in D_{row.k}: got {w.D_k}, want {row.D_k}", file=sys.stderr)
            return EXIT_MISMATCH
        if w.g_k != row.g_k:
            print(f"MISMATCH in g_{row.k}", file=sys.stderr)
            return EXIT_MISMATCH
    print("appendix regression: all 10 rows and h match bit-exactly")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bianchicert",
        description="Certified construction of normal-closure elements in "
                    "co-compact circle stabilizers of Bianchi groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build compression witnesses")
    csub = construct.add_subparsers(dest="submode", required=True)
    fig8 = csub.add_parser(FIG8, help="figure-eight mode (d=3, slope p/q)")
    fig8.add_argument("--p", type=int, required=True)
    fig8.add_argument("--q", type=int, required=True)
    general = csub.add_parser(GENERAL, help="general mode (prime d >= 3)")
    general.add_argument("--d", type=int, required=True)
    general.add_argument("--xi", type=str, required=True,
                         help="translation, e.g. '20+14*sqrt(-3)' or '1+7*eta'")
    general.add_argument("--x", type=int, default=None,
                         help="quadratic non-residue mod d (default: smallest)")
    for p in (fig8, general):
        p.add_argument("--k", type=str, default="1..1", help="inclusive range A..B")
        p.add_argument("--format", choices=("text", "machine"), default="machine")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        p.set_defaults(func=cmd_construct)

    verify = sub.add_parser("verify", help="re-derive and check a witness file")
    verify.add_argument("path")
    verify.set_defaults(func=cmd_verify)

    residues = sub.add_parser("residues", help="quadratic residue tables mod d")
    residues.add_argument("--d", type=int, required=True)
    residues.set_defaults(func=cmd_residues)

    appendix = sub.add_parser("appendix", help="golden-table regression (p=20, q=7)")
    appendix.set_defaults(func=cmd_appendix)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # a crash is one line and exit 3, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
