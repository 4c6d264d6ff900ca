"""Command-line front end.

Five subcommands: validate, direct, inverse, spring, roundtrip.  Exit
codes form a stable contract: 0 success, 1 usage error, parse or I/O
failure, 2 validation failure (input outside the admissible class, or
over the size caps), 3 a numerical decision could not be made safely.

Sizes are capped at N <= 64 and n <= 8 here (the library itself has no
caps), the range over which the inverse is tested and measured.  Inside
it, band Lanczos returns a matrix only when its conditioning gate puts
the answer within the accuracy bound; near the caps many inputs are
refused (exit 3).  Half bandwidth 1 returns 9 of 24 random matrices at
N = 32 and none from N = 48 on (README table).  `roundtrip` holds
a matrix to that same bound, ROUNDTRIP_TOL = 1e-8: a round trip that
comes back further off is a RoundTripDeviation (exit 3).

A process loads only what its subcommand runs: each library name is
imported from its home module on first use, so `validate` runs without
numpy.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys

from . import _HOME, fileio
from .errors import (
    InputError,
    NumericalDecisionError,
    RoundTripDeviation,
    ValidationError,
)

MAX_BANDWIDTH = 8
MAX_DIMENSION = 64
ROUNDTRIP_TOL = 1e-8

# A public library name is imported from its home module when a command
# first reads it through _this, then kept as a module attribute, where
# tests and the benchmark's tracer may replace it.
_this = sys.modules[__name__]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    home = "%s.%s" % (__package__, _HOME[name])
    __import__(home)  # logged by -X importtime, unlike importlib.import_module
    value = globals()[name] = getattr(sys.modules[home], name)
    return value


def _check_caps(n, N):
    if n > MAX_BANDWIDTH:
        raise ValidationError(
            "half-bandwidth n=%d exceeds the command-line cap %d"
            % (n, MAX_BANDWIDTH)
        )
    if N > MAX_DIMENSION:
        raise ValidationError(
            "dimension N=%d exceeds the command-line cap %d"
            % (N, MAX_DIMENSION)
        )


def _emit(text, path):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        fileio.write_file(path, text)
        print("wrote %s" % path)


def cmd_validate(args):
    A = fileio.read_file(args.matrix_file, "matrix")
    _check_caps(A.n, A.N)
    profile = _this.validate_band(A)
    print("m = [%s], j0 = %d"
          % (", ".join(str(v) for v in profile.m), profile.j0))
    for level in profile.empty_runs:
        print("warning: empty positive run before degeneration index m_%d"
              % level)


def cmd_direct(args):
    A = fileio.read_file(args.matrix_file, "matrix")
    _check_caps(A.n, A.N)
    sigma = _this.canonical_spectral_function(A)
    if args.tinit is not None:
        T = fileio.read_file(args.tinit, "tinit")
        sigma = _this.transform_spectral_function(sigma, T)
    _emit(fileio.dump_sigma(sigma), args.output)
    if args.summary:
        S = _this.jump_sum(sigma)
        print("jump sum (n x n):")
        for row in S:
            print("  [%s]" % ", ".join(repr(float(v)) for v in row))


def cmd_inverse(args):
    sigma = fileio.read_file(args.sigma_file, "sigma")
    _check_caps(sigma.n, sigma.N)
    rec = _this.reconstruct(sigma)
    _emit(fileio.dump_matrix(rec.matrix), args.output)
    if args.tinit_out is not None:
        _emit(fileio.dump_tinit(rec.tinit), args.tinit_out)
    from .reconstruct import GATE_BOUND  # loaded by now

    gs = rec.diagnostics
    n, N = sigma.n, sigma.N
    print("profile: m = [%s], j0 = %d"
          % (", ".join(str(v) for v in rec.profile.m), rec.profile.j0))
    print("generator heights: [%s]"
          % ", ".join(str(h) for h in gs.generator_heights))
    print("height sum: %d (expected %d)"
          % (sum(gs.generator_heights), N * n + n * (n - 1) // 2))
    print("candidates consumed: %d" % gs.iterations)
    print("condition estimate: %.3g (cond * eps = %.3g, bound %g)"
          % (gs.cond, gs.cond * sys.float_info.epsilon, GATE_BOUND))


def cmd_spring(args):
    chain = fileio.read_file(args.chain_file, "chain")
    _check_caps(2, chain.N)
    A = _this.build_spring_matrix(chain)
    if args.matrix:
        _emit(fileio.dump_matrix(A), args.output)
    if args.cf_check:
        interior = range(2, chain.N - 1)
        if len(interior) == 0:
            print("no interior indices to check (need N >= 4)")
        for j in interior:
            residual = _this.continued_fraction_check(chain, j)
            print("j = %d: residual = %r" % (j, residual))
    if args.frequencies or not (args.matrix or args.cf_check):
        print(", ".join(repr(w) for w in _this.frequencies(A)))


def cmd_roundtrip(args):
    import numpy as np

    A = fileio.read_file(args.matrix_file, "matrix")
    _check_caps(A.n, A.N)
    sigma = _this.canonical_spectral_function(A)
    if args.perturb != 0.0:
        alpha = sigma.alpha.copy()
        alpha[0, 0] += args.perturb
        sigma = _this.SpectralFunction(sigma.n, zip(sigma.x, alpha))
    rec = _this.reconstruct(sigma)
    dev = float(np.max(np.abs(np.concatenate(A.diags) - np.concatenate(rec.matrix.diags))))
    tdev = float(np.max(np.abs(np.subtract(rec.tinit.rows, np.eye(A.n)))))
    print("max matrix deviation = %r" % dev)
    print("max initial-value deviation from identity = %r" % tdev)
    if not (dev <= ROUNDTRIP_TOL and tdev <= ROUNDTRIP_TOL):
        raise RoundTripDeviation(
            "round trip deviation exceeds tol=%r" % ROUNDTRIP_TOL
        )
    print("round trip OK within tol=%r" % ROUNDTRIP_TOL)


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("%r is not a finite number" % text)
    return value


_finite.__name__ = "number"  # argparse's text: "invalid number value: 'abc'"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bandspec",
        description="Direct and inverse spectral analysis of band "
                    "symmetric matrices with degeneration structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check class membership and "
                       "report the degeneration profile")
    p.add_argument("matrix_file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("direct", help="matrix to spectral function")
    p.add_argument("matrix_file")
    p.add_argument("--tinit", metavar="FILE",
                   help="initial-value matrix (default: identity)")
    p.add_argument("-o", "--output", metavar="FILE", default="-",
                   help="output sigma file ('-' for stdout)")
    p.add_argument("--summary", action="store_true",
                   help="also print the sum of all jump matrices")
    p.set_defaults(func=cmd_direct)

    p = sub.add_parser("inverse", help="spectral function to matrix")
    p.add_argument("sigma_file")
    p.add_argument("-o", "--output", metavar="FILE", default="-",
                   help="output matrix file ('-' for stdout)")
    p.add_argument("--tinit-out", metavar="FILE",
                   help="also write the recovered initial-value matrix")
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("spring", help="mass-spring chain tools")
    p.add_argument("chain_file")
    p.add_argument("--frequencies", action="store_true",
                   help="print oscillation frequencies (default action)")
    p.add_argument("--matrix", action="store_true",
                   help="emit the mass-weighted stiffness matrix")
    p.add_argument("--cf-check", action="store_true",
                   help="print the continued-fraction residual at every "
                        "interior index")
    p.add_argument("-o", "--output", metavar="FILE", default="-",
                   help="output file for --matrix ('-' for stdout)")
    p.set_defaults(func=cmd_spring)

    p = sub.add_parser("roundtrip", help="direct then inverse, report "
                       "the deviation")
    p.add_argument("matrix_file")
    p.add_argument("--perturb", type=_finite, default=0.0, metavar="EPS",
                   help="debug: bump the first jump coefficient by EPS "
                        "between the two passes")
    p.set_defaults(func=cmd_roundtrip)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's exit 2 would read as a class violation
        return 1 if exc.code else 0
    try:
        args.func(args)
    except (InputError, ValidationError, NumericalDecisionError) as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return (1 if isinstance(exc, InputError)
                else 2 if isinstance(exc, ValidationError) else 3)
    return 0


def run():
    """Process entry point: :func:`main`, then exit with every object frozen out
    of the garbage collector, so that shutdown's full collections skip them."""
    code = main()
    gc.freeze()
    raise SystemExit(code)
