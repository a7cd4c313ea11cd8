"""Command-line surface: evolve signals, identify symbols, run the
verification suite, classify exponent products.

All reports are JSON on stdout with floats printed at 17 significant digits,
so identical flags (and seed, where one applies) give byte-identical output.
Error paths exit nonzero without leaving partial output files.

Exit codes: 0 success; 1 verification failure; 2 usage/malformed input;
3 unresolvable band; 4 degenerate symbol; 5 inconsistent scaling pair;
6 model mismatch.  Commands raise library errors; :func:`main` maps them to
codes 2 to 6 through ``_EXIT_CODES``.
"""

import argparse
import functools
import json
import os
import stat
import sys
import tempfile

from .errors import (
    BandConfigError,
    DegenerateSymbolError,
    FracpropError,
    InconsistentPairError,
    InvalidInputError,
    ModelMismatchError,
    SymbolRangeError,
    UnwrapResolutionError,
)
from .grids import BandSpec, _file_bytes, load_signal_csv, save_signal_csv
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


# Library errors in the order main tries them, most specific type first: an
# error exits with the code of the first entry it is an instance of.
_EXIT_CODES = (
    ((BandConfigError, SymbolRangeError), EXIT_BAND),
    ((DegenerateSymbolError, UnwrapResolutionError), EXIT_DEGENERATE),
    (InconsistentPairError, EXIT_PAIR),
    (ModelMismatchError, EXIT_MISMATCH),
    (FracpropError, EXIT_USAGE),
)


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def _output_mode(path):
    """The mode of the file at ``path``, or, for a new file, 0o666 less the
    umask, the mode ``open`` would give it."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _write_atomic(path, writer):
    """Write via a sibling temp file + rename so failures leave nothing
    behind; a path that cannot be written raises InvalidInputError.  The temp
    file takes :func:`_output_mode`, not ``mkstemp``'s 0600."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            os.fchmod(fd, _output_mode(path))
        finally:
            os.close(fd)
        writer(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        raise InvalidInputError(f"cannot write output file {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def cmd_evolve(args):
    # evolve applies the single operator exp(i*beta*t*|xi|^alpha); beta = 0 is
    # the identity on the band, so no group-level validation applies here
    symbol = ClosedForm(args.alpha, args.beta * args.t)
    signal = load_signal_csv(args.input)
    if args.grid_n is not None and args.grid_n != signal.grid.n:
        raise InvalidInputError(
            f"--grid-n {args.grid_n} does not match the {signal.grid.n}-point input")
    if args.x_max is not None and abs(args.x_max - signal.grid.x_max) > 1e-9 * signal.grid.x_max:
        raise InvalidInputError(
            f"--x-max {args.x_max} does not match the input window {signal.grid.x_max}")
    band = BandSpec(args.band)
    evolved = apply(symbol, signal, band)
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
    rendered = render_json(report)  # before the write, so a failure leaves no file
    _write_atomic(args.output, lambda tmp: save_signal_csv(tmp, evolved))
    print(rendered)
    return EXIT_OK


def cmd_identify(args):
    profile = load_symbol_csv(args.symbol)
    pair = SemistablePair(args.a, args.b)
    result = identify(profile, pair, tol=args.tol, pair_tol=args.pair_tol)
    report = {"schema": 1, "tool": "fracprop-identify"}
    report.update(result.to_dict())
    print(render_json(report))
    return EXIT_OK


def cmd_verify(args):
    report = run_verification(args.alpha, args.beta, args.seed, fast=args.fast)
    print(render_json(report))
    if not report["pass"]:
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        print(f"error: failing checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_classify(args):
    try:
        raw = (sys.stdin.read() if args.terms == "-"
               else _file_bytes(args.terms, "terms").decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"terms file is not UTF-8: {exc}") from exc
    try:
        terms = [PhaseTerm(e["alpha"], e["beta"]) for e in json.loads(raw)]
    except (ValueError, TypeError, KeyError) as exc:
        raise InvalidInputError(f"malformed terms JSON: {exc}") from exc
    verdict = classify_product(terms, alpha_tol=args.alpha_tol)
    report = {"schema": 1, "tool": "fracprop-classify"}
    report.update(verdict.to_dict())
    print(render_json(report))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise InvalidInputError, so
    :func:`main` prints them as one ``error:`` line like any library error."""

    def error(self, message):
        raise InvalidInputError(message)


def _is_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _glue_negative_numbers(argv):
    """``argv`` with each value that starts with ``-`` and reads as a float
    joined to the option before it (``--beta -1e-3`` -> ``--beta=-1e-3``):
    argparse would take ``-1e-3`` or ``-inf`` for an option.  No fracprop
    option is named like a number, so nothing else changes."""
    out = []
    for token in argv:
        if (token.startswith("-") and _is_float(token) and out
                and out[-1].startswith("--") and "=" not in out[-1]):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


@functools.cache
def build_parser():
    """The ``fracprop`` argument parser, built once per process; parsing
    leaves it unchanged, so every :func:`main` call shares it."""
    parser = _Parser(
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
    argv = _glue_negative_numbers(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code or 0
    except FracpropError as exc:
        return _fail(str(exc), next(code for types, code in _EXIT_CODES
                                    if isinstance(exc, types)))


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
