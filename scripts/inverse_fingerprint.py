"""Fingerprint of every inverse-problem output on a fixed-seed grid, and
of the direct side's grouping and verdicts on hand-built cases.

Write mode runs the direct problem, the initial-value transform and
`reconstruct` on a grid of random admissible instances and writes one
JSON line per case holding the spectral function reconstructed from
(nodes and coefficient vectors) and every output field, floats as hex
so that two files compare bit for bit, or the refusal class and
message.  Every case whose orthogonalization completes, a return or a
refusal after it such as `IllConditioned`, also holds the gate's
condition estimate `cond` of `gram_schmidt` in hex.  The vector
polynomials are not written: they follow from the matrix, the initial
values and the profile through `solve_recurrence`.  Compare mode reads
two such files and prints, per field, how many cases differ and the
names of the first SHOWN of them, then how many cases moved from each
refusal class (or "returned") to each other, plus the largest absolute
difference in the matrix; it exits 1 when any field
differs in any case and 0 when the two files agree in every field, so
it is the bit-identity check on its own.

Grid, drawn from seed 0: n in 1..8, N in {8, 16, 32, 48, 64} (N > n),
every feasible number j0 of genuine cuts, each instance with identity
and with random initial values.  That is 332 cases.

After the grid come 21 inverse cases off it, with the same fields.
For n in {2, 3, 5} and N in {8, 16, 32}, one generator seeded by (0,
5, n, N) draws sorted normal nodes, random coefficient vectors at them
(a matrix without cuts under random initial values, which `reconstruct`
returns), then vectors in an (n-1)-dimensional subspace at the same
nodes: their jump sum is singular, so they pass `validate_sigma` but
lie outside the class, and `reconstruct` refuses them.  Next is the
spectral function of a matrix (n = 1, N = 3) with entries of +-1e308,
whose nodes lie near the float limit.  The last two are matrices that
`reconstruct` returned further than 1e-8 from the input when they were
added, without refusing: `random_band_matrix(default_rng(236), 1, 25,
j0=0)` (1.88e-8 off, cond 1.85e7), and draw 93 (counted from 0) of
the scale probe that draws n = rng.integers(1, 5), N =
rng.integers(n + 2, 25) and `random_band_matrix(rng, n, N)` from one
`default_rng(3)`, under T = [[1/64]] (n = 1, N = 22; 1.78e-7 off,
cond 1.33e7).  A fix to the gate shows as these rows moving.  That
makes 353 inverse cases.

Then come 36 direct-side cases: hand-built spectral functions with
exact ties, near-tie chains, underflowing and overflowing weights,
lone and merged at one node, a non-finite entry, a pair of equal
infinite nodes, a NaN node, a zero jump, a dead component and a rank
deficit.
For each one the file holds the groups of `merged_jump_matrices` (node
and matrix in hex) and the `validate_sigma` verdict and message.

Last come 28 sampler cases: for N in {3, 8, 32, 128}, one generator
draws in turn `random_jacobi`, `random_band_matrix` (n = 2, random j0),
`random_tinit` (n = min(N, 8)) and `random_chain` with zero_kp_from
None, 1, N // 2 + 1 and N + 1, each written in hex, so a change to any
value a sampler draws, or to how many draws it takes, shows.

Last of all come 16 band cases: hand-built `BandMatrix` values with a
leading 0.0, -1.0 or NaN, n = 0, a negative entry at and past the cut,
a positive entry past the cut, a cut on the innermost level, an empty
run, every level forced, j0 = n - 1, NaN and -0.0 as cuts, +inf inside
a run and negative entries where the class leaves them free.  Each row
holds the `validate_band` verdict: [m, j0, empty_runs], or the error
class and message.  These rows need only `BandMatrix` and
`validate_band`.  That makes 433 cases in all.

With `--workloads SEEDS` (comma-separated) write mode writes, instead
of those cases, one inverse row per instance of the benchmark's
`roundtrip_desk` and `inverse_limit` workloads, as
`perfbench/workloads.build(name, seed, None, None)` draws them for each
seed in turn: the direct problem and the initial-value transform of the
instance, then the same fields as the inverse cases.  That is 446 rows
per seed, for a bit-for-bit check of every input the benchmark
reconstructs.

Only write mode imports `bandspec`; `--compare` runs without it.

    python3 scripts/inverse_fingerprint.py parent.jsonl
    python3 scripts/inverse_fingerprint.py change.jsonl
    python3 scripts/inverse_fingerprint.py --compare parent.jsonl change.jsonl
    python3 scripts/inverse_fingerprint.py --workloads 0,1,2 parent.jsonl
"""

import argparse
import collections
import json
import sys
from pathlib import Path

import numpy as np

SEED = 0
#: case names that compare mode lists under each field that differs
SHOWN = 12


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def cases():
    for n in range(1, 9):
        for N in (8, 16, 32, 48, 64):
            if N <= n:
                continue
            for j0 in range(n if N >= n + 2 else 1):
                for with_t in (0, 1):
                    yield SEED, n, N, j0, with_t


def fingerprint(key):
    _, n, N, j0, with_t = key
    rng = np.random.default_rng(key)
    A = bs.sampling.random_band_matrix(rng, n, N, j0=j0)
    T = bs.sampling.random_tinit(rng, n) if with_t else None
    return round_trip_fingerprint({"case": "n=%d N=%d j0=%d T=%d" % (n, N, j0, with_t)}, A, T)


def round_trip_fingerprint(row, A, T):
    """row with the refusal of the direct problem of A under T (None for
    the identity), or with inverse_fingerprint of its spectral function."""
    try:
        sigma = bs.canonical_spectral_function(A)
        if T is not None:
            sigma = bs.transform_spectral_function(sigma, T)
    except bs.errors.BandSpecError as exc:
        row["refusal"] = type(exc).__name__
        row["message"] = str(exc)
        return row
    return inverse_fingerprint(row, sigma)


def workload_rows(seeds):
    """One inverse row per instance of the roundtrip_desk and
    inverse_limit workloads at each seed, in the benchmark's timing
    order."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    for seed in seeds:
        for name in ("roundtrip_desk", "inverse_limit"):
            instances, _, _ = workloads.build(name, seed, None, None)
            for k, inst in enumerate(instances):
                row = {"case": "workload: %s seed=%d #%d %s" % (name, seed, k, inst.cell)}
                yield round_trip_fingerprint(row, inst.A, inst.T)


def inverse_fingerprint(row, sigma):
    """row with sigma and every output field of reconstruct(sigma), or its
    refusal and, if the orthogonalization completes, its cond."""
    row["sigma"] = [hexes([j.x for j in sigma.jumps]),
                    hexes([j.alpha for j in sigma.jumps])]
    try:
        rec = bs.reconstruct(sigma)
    except bs.errors.BandSpecError as exc:
        row["refusal"] = type(exc).__name__
        row["message"] = str(exc)
        try:
            row["cond"] = float(bs.gram_schmidt(sigma).cond).hex()
        except bs.errors.BandSpecError:
            pass
        return row
    gs = rec.diagnostics
    row.update(
        cond=float(gs.cond).hex(),
        matrix=[hexes(d) for d in rec.matrix.diags],
        tinit=hexes(rec.tinit.rows),
        profile=[list(rec.profile.m), rec.profile.j0, list(rec.profile.empty_runs)],
        heights=[list(gs.basis_heights), list(gs.generator_heights)],
        iterations=gs.iterations,
        node_frame=hexes([gs.node_scale, gs.node_center]),
        values=hexes(gs.values),
    )
    return row


def off_grid_cases():
    """Random coefficient vectors at distinct nodes, vectors in an
    (n-1)-dimensional subspace at the same nodes, the spectral function
    of a matrix with entries of +-1e308, then two that reconstruct
    returned past 1e-8 (see the module docstring)."""
    for n in (2, 3, 5):
        for N in (8, 16, 32):
            rng = np.random.default_rng((SEED, 5, n, N))
            x = np.sort(rng.standard_normal(N))
            yield ("random vectors n=%d N=%d" % (n, N),
                   bs.SpectralFunction(n, zip(x, rng.standard_normal((N, n)))))
            alpha = rng.standard_normal((N, n - 1)) @ rng.standard_normal((n - 1, n))
            yield ("vectors in a subspace n=%d N=%d" % (n, N),
                   bs.SpectralFunction(n, zip(x, alpha)))
    A = bs.BandMatrix(1, 3, ((1e308, -1e308, 1e308), (1e308, 1e308)))
    yield "entries +-1e308 n=1 N=3", bs.canonical_spectral_function(A)
    A = bs.sampling.random_band_matrix(np.random.default_rng(236), 1, 25, j0=0)
    yield "default_rng(236) n=1 N=25 j0=0", bs.canonical_spectral_function(A)
    rng = np.random.default_rng(3)
    for _ in range(94):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(n + 2, 25))
        A = bs.sampling.random_band_matrix(rng, n, N)
    yield ("scale probe draw 93 n=1 N=22 T=1/64", bs.transform_spectral_function(
        bs.canonical_spectral_function(A), bs.TriangularInit(1, ((1 / 64,),))))


def chain(x, factors):
    """x, then each node the given number of merge windows above the
    last."""
    nodes = [x]
    for f in factors:
        nodes.append(nodes[-1] + f * bs.spectral.NODE_MERGE_TOL * (1.0 + abs(nodes[-1])))
    return nodes


def direct_cases():
    r = 1.0 / np.sqrt(2.0)
    rot = [(0.6, 0.8), (0.8, -0.6), (1.0, 0.0), (0.0, 1.0), (r, r)]
    gap = 1e-10 + 5e-21
    canonical = bs.canonical_spectral_function(
        bs.sampling.random_band_matrix(np.random.default_rng((SEED, 3)), 3, 12, j0=1))
    yield "canonical n=3 N=12", canonical.jumps
    yield "exact tie", [(1.0, rot[0]), (1.0, rot[1]), (2.0, rot[2])]
    yield "exact tie, three at one node", [(0.0, rot[2]), (0.0, rot[3]), (0.0, rot[4])]
    yield "gap of one window from 0", [(0.0, rot[0]), (1e-10, rot[1]), (1.0, rot[4])]
    yield "gap measured from the lower node", [(-gap, rot[0]), (0.0, rot[1]), (1.0, rot[4])]
    for factors in ((0.5, 0.5, 0.5), (0.5, 1.0, 1.5), (1.5, 1.0, 0.5), (1.0, 1.0)):
        for x in (0.0, -1.0, 3.0):
            nodes = chain(x, factors)
            yield ("near-tie chain from %r by %r" % (x, factors),
                   [(v, rot[k % len(rot)]) for k, v in enumerate(nodes)])
    for w in (1e-150, 1e-160, 1e-170):
        yield "entry %g" % w, [(0.0, (w, 0.0)), (1.0, rot[0]), (2.0, rot[1])]
        yield "entries %g" % w, [(0.0, (w, w)), (1.0, rot[0]), (2.0, rot[1])]
    yield "entries 1e+154, weight overflows", [(0.0, (1e154, 1e154)), (1.0, rot[0]), (2.0, rot[1])]
    yield "entry 1e+160, matrix overflows", [(0.0, (1e160, 0.0)), (1.0, rot[0]), (2.0, rot[1])]
    for name, pair in (("independent 1e-170 pair", ((1e-170, 0.0), (0.0, 1e-170))),
                       ("1e+160 plus a unit vector", ((1e160, 0.0), (0.0, 1.0))),
                       ("1e-170 plus 1e-180", ((1e-170, 0.0), (0.0, 1e-180))),
                       ("1e+154 pair", ((1e154, 1e154), (1e154, -1e154))),
                       ("non-finite entry", ((float("inf"), 0.0), (0.0, 1.0)))):
        yield "merged " + name, [(0.0, pair[0]), (0.0, pair[1]), (1.0, rot[0]), (2.0, rot[1])]
    inf, nan = float("inf"), float("nan")
    yield "equal infinite nodes", [(0.0, rot[2]), (0.0, rot[3]), (inf, rot[0]), (inf, rot[1])]
    yield "NaN node", [(0.0, rot[0]), (nan, rot[1]), (1.0, rot[2])]
    yield "subnormal entry", [(0.0, (5e-324, 1.0)), (1.0, rot[0]), (2.0, rot[2])]
    yield "zero jump", [(0.0, (0.0, 0.0)), (1.0, rot[0]), (2.0, rot[1])]
    yield "dead component", [(0.0, (0.6, 0.0)), (1.0, (0.8, 0.0)), (2.0, (1.0, 0.0))]
    yield "rank deficit", [(1.0, (0.6, 0.3)), (1.0, (1.2, 0.6)), (2.0, rot[1])]


def direct_fingerprint(name, jumps):
    sigma = bs.SpectralFunction(len(jumps[0][1]), jumps)
    row = {"case": "direct: " + name,
           "groups": [[float(x).hex(), hexes(M)]
                      for x, M in bs.merged_jump_matrices(sigma)]}
    try:
        bs.validate_sigma(sigma)
        row["verdict"] = "admissible"
    except bs.errors.ValidationError as exc:
        row["verdict"] = type(exc).__name__
        row["message"] = str(exc)
    return row


def sampler_rows():
    for N in (3, 8, 32, 128):
        rng = np.random.default_rng((SEED, 4, N))
        draws = [("random_jacobi", bs.sampling.random_jacobi(rng, N).diags),
                 ("random_band_matrix n=2", bs.sampling.random_band_matrix(rng, 2, N).diags),
                 ("random_tinit", bs.sampling.random_tinit(rng, min(N, 8)).rows)]
        for cut in (None, 1, N // 2 + 1, N + 1):
            c = bs.sampling.random_chain(rng, N, zero_kp_from=cut)
            draws.append(("random_chain zero_kp_from=%s" % cut, (c.masses, c.k, c.kp)))
        for name, values in draws:
            yield {"case": "sampler: %s N=%d" % (name, N),
                   "draws": [hexes(v) for v in values]}


def band_cases():
    nan, inf = float("nan"), float("inf")
    z5, z6, z8 = (0.0,) * 5, (0.0,) * 6, (0.0,) * 8
    p4, p5 = (0.5,) * 4, (0.5,) * 5
    yield "leading 0.0", 2, 5, (z5, p4, (0.0, 1.0, 1.0))
    yield "leading -1.0", 2, 5, (z5, p4, (-1.0, 1.0, 1.0))
    yield "leading NaN", 2, 5, (z5, p4, (nan, 0.0, 0.0))
    yield "n = 0", 0, 3, ((1.0, 2.0, 3.0),)
    yield "negative at the cut", 2, 5, (z5, p4, (1.0, -0.2, 1.0))
    yield "negative past the cut", 2, 6, (z6, p5, (1.0, 0.0, -0.3, 0.0))
    yield "positive past the cut", 2, 5, (z5, p4, (1.0, 0.0, 1.0))
    yield "cut on the innermost level", 2, 5, (z5, (0.5, 0.5, 0.0, 0.0), (1.0, 0.0, 0.0))
    yield "empty run, n = 3", 3, 8, (z8, (0.3, -0.2, 0.1, 0.6, 0.6, 0.6, 0.6),
                                     (0.4, 0.2, 0.0, 0.0, 0.0, 0.0), (0.9, 0.0, 0.0, 0.0, 0.0))
    yield "every level forced", 3, 7, ((0.0,) * 7, (0.5,) * 6, p5, p4)
    yield "j0 = n - 1", 3, 7, ((0.4, -1.1, 0.0, 2.0, -0.3, 0.9, 1.5),
                               (0.1, -0.4, 0.0, 0.2, -0.9, 0.7),
                               (-0.2, 0.5, 0.0, 0.8, 0.0), (1.0, 1.3, 0.0, 0.0))
    yield "NaN as the cut", 2, 6, (z6, p5, (1.0, nan, 0.0, 0.0))
    yield "NaN past the cut", 2, 6, (z6, p5, (1.0, 0.0, nan, 0.0))
    yield "-0.0 as the cut", 2, 6, (z6, p5, (1.0, 1.0, -0.0, 0.0))
    yield "+inf inside a run", 2, 6, (z6, p5, (1.0, inf, 0.0, 0.0))
    yield "negative unconstrained entries", 2, 6, ((-1.0,) * 6, (-0.7, -0.4, 0.5, 0.5, 0.5),
                                                   (1.0, 0.0, 0.0, 0.0))


def band_fingerprint(name, n, N, diags):
    row = {"case": "band: " + name}
    try:
        prof = bs.validate_band(bs.BandMatrix(n, N, diags))
        row["verdict"] = [list(prof.m), prof.j0, list(prof.empty_runs)]
    except bs.errors.ValidationError as exc:
        row["verdict"] = type(exc).__name__
        row["message"] = str(exc)
    return row


def write(path, seeds=None):
    global bs
    import bandspec as bs
    with open(path, "w", encoding="utf-8") as fh:
        if seeds is not None:
            for row in workload_rows(seeds):
                fh.write(json.dumps(row, sort_keys=True) + "\n")
            return
        for key in cases():
            fh.write(json.dumps(fingerprint(key), sort_keys=True) + "\n")
        for name, sigma in off_grid_cases():
            row = inverse_fingerprint({"case": "inverse: " + name}, sigma)
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        for name, jumps in direct_cases():
            fh.write(json.dumps(direct_fingerprint(name, jumps), sort_keys=True) + "\n")
        for row in sampler_rows():
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        for case in band_cases():
            fh.write(json.dumps(band_fingerprint(*case), sort_keys=True) + "\n")


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
    differ = {f: [] for f in fields}
    gap = 0.0
    for ra, rb in zip(rows_a, rows_b):
        for f in fields:
            if ra.get(f) != rb.get(f):
                differ[f].append(ra["case"])
        if "matrix" in ra and "matrix" in rb:
            gap = max(gap, matrix_gap(ra["matrix"], rb["matrix"]))
    refusals = sum("refusal" in r for r in rows_a), sum("refusal" in r for r in rows_b)
    print("%d cases, refusals %d / %d" % (len(rows_a), refusals[0], refusals[1]))
    for f in fields:
        print("  %-11s %4d cases differ" % (f, len(differ[f])))
        for case in differ[f][:SHOWN]:
            print("      " + case)
        if len(differ[f]) > SHOWN:
            print("      ... and %d more" % (len(differ[f]) - SHOWN))
    moves = collections.Counter(
        (ra.get("refusal", "returned"), rb.get("refusal", "returned"))
        for ra, rb in zip(rows_a, rows_b) if ra.get("refusal") != rb.get("refusal"))
    print("refusal class changes: %d" % sum(moves.values()))
    for (a, b), count in sorted(moves.items()):
        print("  %s -> %s: %d" % (a, b, count))
    print("largest absolute matrix difference: %r" % gap)
    return not any(differ.values())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("output", nargs="?", help="file to write the fingerprint to")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two fingerprint files instead")
    ap.add_argument("--workloads", metavar="SEEDS",
                    type=lambda text: [int(v) for v in text.split(",")],
                    help="write the benchmark's inverse workload instances at "
                         "these comma-separated seeds instead of the fixed cases")
    args = ap.parse_args()
    if args.compare:
        raise SystemExit(0 if compare(*args.compare) else 1)
    elif args.output:
        write(args.output, args.workloads)
    else:
        ap.error("give an output file or --compare A B")


if __name__ == "__main__":
    main()
