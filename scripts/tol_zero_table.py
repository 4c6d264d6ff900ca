"""How far `reconstruct` gets at each tol_zero: the README table.

For N in {8, 12, 16, 24, 32, 48, 64} it draws 24 random band matrices
(`random_band_matrix` with random j0) with half bandwidth 1, and 24
with half bandwidth drawn uniformly from 1..min(8, N-2), and runs
`reconstruct` on each canonical spectral function at tol_zero 1e-8,
1e-10 and 1e-12.  A run counts when it returns the input matrix within
1e-8 and its exact profile.  Prints the counts as a markdown table,
then every run that returned a wrong matrix without refusing.

    python3 scripts/tol_zero_table.py
"""

import numpy as np

import bandspec as bs

SIZES = (8, 12, 16, 24, 32, 48, 64)
TOLS = ("1e-8", "1e-10", "1e-12")
DRAWS = 24


def outcome(mixed, N, rep, tol):
    """Return None for a correct run, the refusal class, or the deviation."""
    rng = np.random.default_rng((N, rep, mixed))
    n = int(rng.integers(1, min(8, N - 2) + 1)) if mixed else 1
    A = bs.sampling.random_band_matrix(rng, n, N)
    try:
        rec = bs.reconstruct(bs.canonical_spectral_function(A), tol_zero=float(tol))
    except bs.errors.BandSpecError as exc:
        return type(exc).__name__
    dev = float(np.max(np.abs(bs.to_dense(rec.matrix) - bs.to_dense(A))))
    if dev < 1e-8 and rec.profile == bs.validate_band(A):
        return None
    return dev


def main():
    heads = ["%s, %s" % (fam, tol) for fam in ("n=1", "mixed") for tol in TOLS]
    print("| N  | " + " | ".join(heads) + " |")
    print("|----|" + "|".join("-" * (len(h) + 2) for h in heads) + "|")
    wrong = []
    for N in SIZES:
        row = []
        for mixed in (0, 1):
            for tol in TOLS:
                ok = 0
                for rep in range(DRAWS):
                    res = outcome(mixed, N, rep, tol)
                    if res is None:
                        ok += 1
                    elif isinstance(res, float):
                        wrong.append((N, rep, mixed, tol, res))
                row.append(str(ok))
        print("| %-2d | " % N + " | ".join(c.ljust(len(h)) for c, h in zip(row, heads)) + " |")
    runs = len(SIZES) * 2 * len(TOLS) * DRAWS
    print("\n%d of %d runs returned a wrong matrix without refusing" % (len(wrong), runs))
    for N, rep, mixed, tol, dev in wrong:
        print("  seed (%d, %d, %d)  tol_zero %s  deviation %.3g" % (N, rep, mixed, tol, dev))


if __name__ == "__main__":
    main()
