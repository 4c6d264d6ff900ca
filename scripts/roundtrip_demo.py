"""Round-trip demo: random band matrix -> spectral function -> matrix.

Draws an admissible instance, computes its canonical spectral
function, reconstructs the matrix and the initial-value triangle from
the jumps alone, and reports the deviations together with the
recovered degeneration data.

    python3 scripts/roundtrip_demo.py --seed 5 -n 3 -N 10 --cuts 2
"""

import argparse

import numpy as np

import bandspec as bs


def run_once(args):
    rng = np.random.default_rng(args.seed)
    A = bs.sampling.random_band_matrix(
        rng, args.bandwidth, args.dimension, j0=args.cuts)
    profile = bs.validate_band(A)
    print("instance: n = %d, N = %d, m = %s, j0 = %d"
          % (A.n, A.N, list(profile.m), profile.j0))

    sig = bs.canonical_spectral_function(A)
    print("spectral function: %d jumps on [%.4f, %.4f]"
          % (len(sig.jumps), sig.jumps[0].x, sig.jumps[-1].x))

    res = bs.reconstruct(sig, tol_zero=args.tol_zero)
    dev = np.max(np.abs(bs.to_dense(res.matrix) - bs.to_dense(A)))
    tdev = np.max(np.abs(res.tinit.dense() - np.eye(A.n)))
    gs = res.diagnostics
    print("recovered profile: m = %s, j0 = %d"
          % (list(res.profile.m), res.profile.j0))
    print("generator heights: %s (sum %d, expected %d)"
          % (list(gs.generator_heights), sum(gs.generator_heights),
             A.N * A.n + A.n * (A.n - 1) // 2))
    print("candidates consumed: %d for %d basis members"
          % (gs.iterations, len(gs.values)))
    print("max matrix deviation: %.3e" % dev)
    print("max initial-value deviation from identity: %.3e" % tdev)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-n", "--bandwidth", type=int, default=2)
    parser.add_argument("-N", "--dimension", type=int, default=8)
    parser.add_argument("--cuts", type=int, default=1,
                        help="number of genuine degeneration cuts")
    parser.add_argument("--tol-zero", type=float, default=1e-10,
                        help="zero-norm decision threshold")
    run_once(parser.parse_args())


if __name__ == "__main__":
    main()
