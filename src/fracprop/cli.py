"""Command-line surface: evolve signals, identify symbols, run the
verification suite, classify exponent products.

All reports are JSON on stdout with floats printed at 17 significant digits,
so identical flags (and seed, where one applies) give byte-identical output.
Error paths exit nonzero without leaving partial output files.

Exit codes: 0 success; 1 verification failure; 2 usage/malformed input;
3 unresolvable band; 4 degenerate symbol; 5 inconsistent scaling pair;
6 model mismatch.
"""

import argparse
import functools
import json
import os
import sys
import tempfile

from .errors import (
    BandConfigError,
    DegenerateSymbolError,
    DomainError,
    FracpropError,
    InconsistentPairError,
    InvalidInputError,
    ModelMismatchError,
    SymbolRangeError,
    UnwrapResolutionError,
)
from .grids import BandSpec, load_signal_csv, save_signal_csv
from .identification import identify
from .operators import apply
from .semistability import SemistablePair
from .symbols import ClosedForm, load_symbol_csv
from .exponents import PhaseTerm, classify_product
from .verify import run_verification

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BAND = 3
EXIT_DEGENERATE = 4
EXIT_PAIR = 5
EXIT_MISMATCH = 6


def render_json(obj):
    """Deterministic JSON with floats at 17 significant digits."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {render_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite value in report: {obj}")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_atomic(path, writer):
    """Write via a sibling temp file + rename so failures leave nothing behind."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cmd_evolve(args):
    # evolve applies the single operator exp(i*beta*t*|xi|^alpha); beta = 0 is
    # the identity on the band, so no group-level validation applies here
    try:
        symbol = ClosedForm(args.alpha, args.beta * args.t)
    except InvalidInputError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if not os.path.exists(args.input):
        return _fail(f"input file not found: {args.input}", EXIT_USAGE)
    try:
        signal = load_signal_csv(args.input)
    except InvalidInputError as exc:
        return _fail(f"malformed signal file: {exc}", EXIT_USAGE)
    if args.grid_n is not None and args.grid_n != signal.grid.n:
        return _fail(
            f"--grid-n {args.grid_n} does not match the {signal.grid.n}-point input",
            EXIT_USAGE,
        )
    if args.x_max is not None and abs(args.x_max - signal.grid.x_max) > 1e-9 * signal.grid.x_max:
        return _fail(
            f"--x-max {args.x_max} does not match the input window {signal.grid.x_max}",
            EXIT_USAGE,
        )
    try:
        band = BandSpec(args.band)
        band.validate_for(signal.grid)
        evolved = apply(symbol, signal, band)
    except BandConfigError as exc:
        return _fail(str(exc), EXIT_BAND)
    except SymbolRangeError as exc:
        return _fail(str(exc), EXIT_BAND)
    except DomainError as exc:
        return _fail(str(exc), EXIT_USAGE)
    _write_atomic(args.output, lambda tmp: save_signal_csv(tmp, evolved))
    report = {
        "schema": 1,
        "tool": "fracprop-evolve",
        "alpha": float(args.alpha),
        "beta": float(args.beta),
        "t": float(args.t),
        "band": band.R,
        "n": signal.grid.n,
        "x_max": signal.grid.x_max,
        "norm_in": signal.norm(),
        "norm_out": evolved.norm(),
    }
    print(render_json(report))
    return EXIT_OK


def cmd_identify(args):
    if not os.path.exists(args.symbol):
        return _fail(f"symbol file not found: {args.symbol}", EXIT_USAGE)
    try:
        profile = load_symbol_csv(args.symbol)
        pair = SemistablePair(args.a, args.b)
    except (InvalidInputError, DomainError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    try:
        result = identify(profile, pair, tol=args.tol, pair_tol=args.pair_tol)
    except (DegenerateSymbolError, UnwrapResolutionError) as exc:
        return _fail(str(exc), EXIT_DEGENERATE)
    except InconsistentPairError as exc:
        return _fail(str(exc), EXIT_PAIR)
    except ModelMismatchError as exc:
        return _fail(str(exc), EXIT_MISMATCH)
    except FracpropError as exc:
        return _fail(str(exc), EXIT_USAGE)
    report = {"schema": 1, "tool": "fracprop-identify"}
    report.update(result.to_dict())
    print(render_json(report))
    return EXIT_OK


def cmd_verify(args):
    try:
        report = run_verification(args.alpha, args.beta, args.seed, fast=args.fast)
    except (DomainError, InvalidInputError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    print(render_json(report))
    if not report["pass"]:
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        print(f"error: failing checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_classify(args):
    if args.terms == "-":
        raw = sys.stdin.read()
    else:
        if not os.path.exists(args.terms):
            return _fail(f"terms file not found: {args.terms}", EXIT_USAGE)
        with open(args.terms, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        entries = json.loads(raw)
        terms = [PhaseTerm(e["alpha"], e["beta"]) for e in entries]
    except (ValueError, TypeError, KeyError) as exc:
        return _fail(f"malformed terms JSON: {exc}", EXIT_USAGE)
    try:
        verdict = classify_product(terms, alpha_tol=args.alpha_tol)
    except (DomainError, InvalidInputError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    report = {"schema": 1, "tool": "fracprop-classify"}
    report.update(verdict.to_dict())
    print(render_json(report))
    return EXIT_OK


@functools.cache
def build_parser():
    """The ``fracprop`` argument parser, built once per process; parsing
    leaves it unchanged, so every :func:`main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="fracprop",
        description="Band-limited spectral multiplier operators: evolve, identify, verify, classify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="apply exp(i*beta*t*|xi|^alpha) to a signal file")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--band", type=float, required=True, help="band parameter R")
    p.add_argument("--grid-n", type=int, default=None, help="expected sample count (consistency check)")
    p.add_argument("--x-max", type=float, default=None, help="expected window half-width (consistency check)")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("identify", help="recover (alpha, beta) from a tabulated symbol")
    p.add_argument("--symbol", required=True, help="CSV with header r,re,im")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--pair-tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("verify", help="run the property suite for a symbol family")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="decide whether a product of phase terms is 1")
    p.add_argument("--terms", required=True, help="JSON list of {alpha, beta}; '-' for stdin")
    p.add_argument("--alpha-tol", type=float, default=0.0)
    p.set_defaults(func=cmd_classify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.func(args)


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
