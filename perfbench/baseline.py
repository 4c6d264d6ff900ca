#!/usr/bin/env python3
"""Report only: recompute the ROADMAP "Baseline" inverse success table.

Not a workload and not timed.  For each N in {8, 16, 32, 48, 64} it
draws 18 admissible matrices with n mixed over 1..8 (N > n), takes the
canonical spectral function and reconstructs it at tol_zero = 1e-8,
1e-10 and 1e-12.  A draw succeeds when any of the three gives a verified
answer (matrix and initial values within 1e-8, profile equal).  Answers
returned without error that fail the check are counted per tol_zero,
since a looser best-of rule would hide them.  Jacobi matrices at N = 32
and 64 are reported the same way.

    python3 perfbench/baseline.py --seed 0

The table is printed and written to perfbench/out/baseline-seed<seed>.json.
"""

import argparse
import json
import sys
from collections import Counter

from run import OUT, SRC, stamp

TOLS = (1e-8, 1e-10, 1e-12)
SIZES = (8, 16, 32, 48, 64)
DRAWS = 18
# the ROADMAP figures this pass reproduces or corrects
ROADMAP = {8: "18/18", 16: "18/18", 32: "15/18", 48: "7/18", 64: "2/18"}


def outcomes(inst, errors, bs):
    """Outcome kind per tol_zero for one instance (canonical sigma)."""
    import verify as V

    sigma = bs.canonical_spectral_function(inst.A)
    kinds = {}
    for tol in TOLS:
        try:
            rec = bs.reconstruct(sigma, tol_zero=tol)
        except errors.BandSpecError as exc:
            kinds[tol] = V.exception_outcome(exc, errors)
        else:
            kinds[tol] = inst.judge(rec)
    return kinds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bandspec" / "__init__.py").is_file():
        print("error: no bandspec sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import bandspec as bs
    from bandspec import errors
    import workloads as W

    rng = np.random.default_rng([args.seed, 1409])
    rows = []
    for N in SIZES:
        top = min(8, N - 1)
        per_tol = {tol: Counter() for tol in TOLS}
        best = 0
        worst_wrong = 0.0
        for k in range(DRAWS):
            inst = W.RoundTrip(rng, 1 + k % top, N, None, with_T=False)
            kinds = outcomes(inst, errors, bs)
            best += any(o.kind == "verified" for o in kinds.values())
            for tol, o in kinds.items():
                per_tol[tol][o.kind] += 1
                if o.kind == "wrong":
                    worst_wrong = max(worst_wrong, o.dev, o.tdev)
        rows.append({"N": N, "label": "mixed n=1..%d" % top, "success": best, "draws": DRAWS,
                     "roadmap": ROADMAP[N], "worst_wrong_dev": worst_wrong,
                     "per_tol": {"%g" % t: dict(c) for t, c in per_tol.items()}})
    for N in (32, 64):
        inst = W.RoundTrip(rng, 1, N, 0, with_T=False)
        kinds = outcomes(inst, errors, bs)
        rows.append({"N": N, "label": "jacobi", "success": int(any(
            o.kind == "verified" for o in kinds.values())), "draws": 1, "roadmap": "",
            "worst_wrong_dev": 0.0,
            "per_tol": {"%g" % t: {"%s %s" % (o.kind, o.cls): 1} for t, o in kinds.items()}})

    print("inverse success, best of tol_zero in {1e-8, 1e-10, 1e-12}, seed %d" % args.seed)
    print("%4s %-15s %8s %8s   %s" % ("N", "draws", "success", "ROADMAP", "per tol_zero"))
    for r in rows:
        print("%4d %-15s %8s %8s   %s" % (
            r["N"], r["label"], "%d/%d" % (r["success"], r["draws"]), r["roadmap"],
            "; ".join("%s: %s" % (t, ", ".join("%s %d" % kv for kv in sorted(c.items())))
                      for t, c in r["per_tol"].items())))
    OUT.mkdir(exist_ok=True)
    path = OUT / ("baseline-seed%d.json" % args.seed)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"stamp": stamp(args.seed), "rows": rows}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
