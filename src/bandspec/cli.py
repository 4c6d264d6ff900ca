"""Command-line front end.

Five subcommands: validate, direct, inverse, spring, roundtrip.  Exit
codes form a stable contract: 0 success, 1 usage error, parse or I/O
failure, 2 validation failure (input outside the admissible class, or
over the size caps), 3 a numerical decision could not be made safely.

Sizes are capped at N <= 64 and n <= 8 here (the library itself has no
caps), the range over which the inverse is tested and measured.  Inside
it, band Lanczos returns a matrix only when its conditioning gate puts
the answer within the accuracy bound; near the caps many inputs are
refused (exit 3), half bandwidth 1 from N = 32 on.

A process loads only what its subcommand runs: the library names below
are imported on first use, so `validate` runs without numpy, and only
the chosen subcommand's arguments are built.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys

from . import fileio
from .errors import (
    InputError,
    NumericalDecisionError,
    RoundTripDeviation,
    ValidationError,
)

MAX_BANDWIDTH = 8
MAX_DIMENSION = 64

# The library names the commands use, by home module.  Each is imported
# when a command first reads it through _this, then kept as a module
# attribute, where tests and the benchmark's tracer may replace it.
_HOMES = {
    "validate_band": "bandmat",
    "SpectralFunction": "spectral",
    "canonical_spectral_function": "spectral",
    "jump_sum": "spectral",
    "transform_spectral_function": "spectral",
    "GATE_BOUND": "reconstruct",
    "reconstruct": "reconstruct",
    "build_spring_matrix": "springchain",
    "continued_fraction_check": "springchain",
    "frequencies": "springchain",
}
_this = sys.modules[__name__]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    home = "%s.%s" % (__package__, _HOMES[name])
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
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError("cannot write %r: %s" % (path, exc)) from exc
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
        fileio.write_file(args.tinit_out, rec.tinit)
        print("wrote %s" % args.tinit_out)
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
          % (gs.cond, gs.cond * sys.float_info.epsilon, _this.GATE_BOUND))


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
    if not (dev <= args.tol and tdev <= args.tol):
        raise RoundTripDeviation(
            "round trip deviation exceeds tol=%r" % args.tol
        )
    print("round trip OK within tol=%r" % args.tol)


def _finite(least):
    def number(text):
        value = float(text)
        if not (math.isfinite(value) and value >= least):
            raise argparse.ArgumentTypeError("%r is not a finite number%s" % (
                text, " >= %g" % least if least > -math.inf else ""))
        return value
    return number


def _validate_arguments(p):
    p.add_argument("matrix_file")


def _direct_arguments(p):
    p.add_argument("matrix_file")
    p.add_argument("--tinit", metavar="FILE",
                   help="initial-value matrix (default: identity)")
    p.add_argument("-o", "--output", metavar="FILE", default="-",
                   help="output sigma file ('-' for stdout)")
    p.add_argument("--summary", action="store_true",
                   help="also print the sum of all jump matrices")


def _inverse_arguments(p):
    p.add_argument("sigma_file")
    p.add_argument("-o", "--output", metavar="FILE", default="-",
                   help="output matrix file ('-' for stdout)")
    p.add_argument("--tinit-out", metavar="FILE",
                   help="also write the recovered initial-value matrix")


def _spring_arguments(p):
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


def _roundtrip_arguments(p):
    p.add_argument("matrix_file")
    p.add_argument("--tol", type=_finite(0.0), default=1e-8,
                   help="acceptance threshold (default 1e-8)")
    p.add_argument("--perturb", type=_finite(-math.inf), default=0.0, metavar="EPS",
                   help="debug: bump the first jump coefficient by EPS "
                        "between the two passes")


# name, help, and the function that adds the arguments of cmd_<name>
_COMMANDS = (
    ("validate", "check class membership and report the degeneration profile",
     _validate_arguments),
    ("direct", "matrix to spectral function", _direct_arguments),
    ("inverse", "spectral function to matrix", _inverse_arguments),
    ("spring", "mass-spring chain tools", _spring_arguments),
    ("roundtrip", "direct then inverse, report the deviation", _roundtrip_arguments),
)


class _Subcommands(argparse._SubParsersAction):
    """Subparsers that get their arguments when argparse selects one, so a
    call builds the arguments of its own subcommand only."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pending = {}

    def __call__(self, parser, namespace, values, option_string=None):
        add_arguments = self.pending.pop(values[0], None)
        if add_arguments is not None:
            add_arguments(self.choices[values[0]])
        super().__call__(parser, namespace, values, option_string)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bandspec",
        description="Direct and inverse spectral analysis of band "
                    "symmetric matrices with degeneration structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True, action=_Subcommands)
    for name, help_text, add_arguments in _COMMANDS:
        # read when the parser is built, so a replaced command is the one run
        sub.add_parser(name, help=help_text).set_defaults(func=globals()["cmd_" + name])
        sub.pending[name] = add_arguments
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
