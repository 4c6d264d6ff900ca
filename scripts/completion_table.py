"""How far `reconstruct` gets with N: the README completion table.

For N in {8, 12, 16, 24, 32, 48, 64} it draws 24 random band matrices
(`random_band_matrix` with random j0) with half bandwidth 1, and 24
with half bandwidth drawn uniformly from 1..min(8, N-2), and runs
`reconstruct` on each canonical spectral function.  A run counts when
it returns the input matrix within 1e-8 and its exact profile.  Prints
the counts as a markdown table, then every run that returned a wrong
matrix without refusing.

    python3 scripts/completion_table.py
"""

import numpy as np

import bandspec as bs

SIZES = (8, 12, 16, 24, 32, 48, 64)
FAMILIES = ("n=1", "mixed")
DRAWS = 24


def outcome(mixed, N, rep):
    """Return None for a correct run, the refusal class, or the deviation."""
    rng = np.random.default_rng((N, rep, mixed))
    n = int(rng.integers(1, min(8, N - 2) + 1)) if mixed else 1
    A = bs.sampling.random_band_matrix(rng, n, N)
    try:
        rec = bs.reconstruct(bs.canonical_spectral_function(A))
    except bs.errors.BandSpecError as exc:
        return type(exc).__name__
    dev = float(np.max(np.abs(bs.to_dense(rec.matrix) - bs.to_dense(A))))
    if dev < 1e-8 and rec.profile == bs.validate_band(A):
        return None
    return dev


def main():
    print("| N  | " + " | ".join(FAMILIES) + " |")
    print("|----|" + "|".join("-" * (len(h) + 2) for h in FAMILIES) + "|")
    wrong = []
    for N in SIZES:
        row = []
        for mixed in (0, 1):
            ok = 0
            for rep in range(DRAWS):
                res = outcome(mixed, N, rep)
                if res is None:
                    ok += 1
                elif isinstance(res, float):
                    wrong.append((N, rep, mixed, res))
            row.append(str(ok))
        print("| %-2d | " % N + " | ".join(c.ljust(len(h)) for c, h in zip(row, FAMILIES)) + " |")
    runs = len(SIZES) * len(FAMILIES) * DRAWS
    print("\n%d of %d runs returned a wrong matrix without refusing" % (len(wrong), runs))
    for N, rep, mixed, dev in wrong:
        print("  seed (%d, %d, %d)  deviation %.3g" % (N, rep, mixed, dev))


if __name__ == "__main__":
    main()
