"""Fingerprint of every inverse-problem output on a fixed-seed grid.

Write mode runs the direct problem, the initial-value transform and
`reconstruct` on a grid of random admissible instances and writes one
JSON line per case holding the spectral function reconstructed from
(nodes and coefficient vectors) and every output field, floats as hex
so that two files compare bit for bit, or the refusal class and
message.  The vector polynomials are not written: they follow from
the matrix, the initial values and the profile through
`solve_recurrence`.  Compare mode reads two such files and prints, per field, how
many cases differ, plus the largest absolute difference in the matrix;
it exits 1 when any field differs in any case and 0 when the two files
agree in every field, so it is the bit-identity check on its own.

Grid, drawn from seed 0: n in 1..8, N in {8, 16, 32, 48, 64} (N > n),
every feasible number j0 of genuine cuts, each instance with identity
and with random initial values; tol_zero 1e-8, plus 1e-10 and 1e-12
when N <= 32 or n in {1, 2, 8}.  That is 796 cases.

    python3 scripts/inverse_fingerprint.py parent.jsonl
    python3 scripts/inverse_fingerprint.py change.jsonl
    python3 scripts/inverse_fingerprint.py --compare parent.jsonl change.jsonl
"""

import argparse
import json
from collections import Counter

import numpy as np

import bandspec as bs

SEED = 0


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def cases():
    for n in range(1, 9):
        for N in (8, 16, 32, 48, 64):
            if N <= n:
                continue
            tols = (1e-8, 1e-10, 1e-12) if N <= 32 or n in (1, 2, 8) else (1e-8,)
            for j0 in range(n if N >= n + 2 else 1):
                for with_t in (0, 1):
                    for tol in tols:
                        yield (SEED, n, N, j0, with_t), tol


def fingerprint(key, tol):
    _, n, N, j0, with_t = key
    rng = np.random.default_rng(key)
    A = bs.sampling.random_band_matrix(rng, n, N, j0=j0)
    row = {"case": "n=%d N=%d j0=%d T=%d tol=%g" % (n, N, j0, with_t, tol)}
    try:
        sigma = bs.canonical_spectral_function(A)
        if with_t:
            sigma = bs.transform_spectral_function(
                sigma, bs.sampling.random_tinit(rng, n))
        row["sigma"] = [hexes([j.x for j in sigma.jumps]),
                        hexes([j.alpha for j in sigma.jumps])]
        rec = bs.reconstruct(sigma, tol_zero=tol)
    except bs.errors.BandSpecError as exc:
        row["refusal"] = type(exc).__name__
        row["message"] = str(exc)
        return row
    gs = rec.diagnostics
    row.update(
        matrix=[hexes(d) for d in rec.matrix.diags],
        tinit=hexes(rec.tinit.rows),
        profile=[list(rec.profile.m), rec.profile.j0, list(rec.profile.empty_runs)],
        heights=[list(gs.basis_heights), list(gs.generator_heights)],
        iterations=gs.iterations,
        node_frame=hexes([gs.node_scale, gs.node_center]),
        values=hexes(gs.values),
    )
    return row


def write(path):
    with open(path, "w", encoding="utf-8") as fh:
        for key, tol in cases():
            fh.write(json.dumps(fingerprint(key, tol), sort_keys=True) + "\n")


def matrix_gap(a, b):
    gap = 0.0
    for da, db in zip(a, b):
        for x, y in zip(da, db):
            gap = max(gap, abs(float.fromhex(x) - float.fromhex(y)))
    return gap


def compare(path_a, path_b):
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        rows_a = [json.loads(line) for line in fa]
        rows_b = [json.loads(line) for line in fb]
    if [r["case"] for r in rows_a] != [r["case"] for r in rows_b]:
        raise SystemExit("the two files hold different case lists")
    fields = sorted({k for r in rows_a + rows_b for k in r} - {"case"})
    differ = Counter()
    gap = 0.0
    for ra, rb in zip(rows_a, rows_b):
        for f in fields:
            if ra.get(f) != rb.get(f):
                differ[f] += 1
        if "matrix" in ra and "matrix" in rb:
            gap = max(gap, matrix_gap(ra["matrix"], rb["matrix"]))
    refusals = sum("refusal" in r for r in rows_a), sum("refusal" in r for r in rows_b)
    print("%d cases, refusals %d / %d" % (len(rows_a), refusals[0], refusals[1]))
    for f in fields:
        print("  %-11s %4d cases differ" % (f, differ[f]))
    print("largest absolute matrix difference: %r" % gap)
    return sum(differ.values()) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("output", nargs="?", help="file to write the fingerprint to")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two fingerprint files instead")
    args = ap.parse_args()
    if args.compare:
        raise SystemExit(0 if compare(*args.compare) else 1)
    elif args.output:
        write(args.output)
    else:
        ap.error("give an output file or --compare A B")


if __name__ == "__main__":
    main()
