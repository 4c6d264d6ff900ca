#!/usr/bin/env python3
"""bandspec benchmark: seeded workloads, verified answers, traced layers.

    python3 perfbench/run.py --workload roundtrip_desk --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; the library is imported from its
``src`` directory.  Load is closed-loop: one caller, one operation at a
time, one BLAS thread, one CPU.  Each run sets up its instances
SETUP_REPS times (setup_s is the median), then times operations until
--seconds have passed, calibration included, and every instance has run
at least once.  Times are scaled to a reference speed (see refclock.py).
An input's latency is the median of its timed repeats, and the latency
and throughput metrics are taken over inputs, so a partly finished last
cycle does not change what they are taken over.  `attempted` and
`failed` count distinct inputs, and repeat exactly at a fixed seed.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the traced
subset of the instances twice, untraced and then traced, and prints the
per-layer metrics and the tracing overhead.  Either way the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; a fuller report goes to perfbench/out/.
"""

import os

# One caller doing one operation at a time: one BLAS thread, set before
# numpy is first imported, here and in every subprocess.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("roundtrip_desk", "inverse_limit", "direct_batch", "cli_files")
SETUP_REPS = 3
LATENCY_TAIL = 10   # timed samples required beyond the reported tail percentile
WALL_CAP_S = 120.0  # stop cycling even mid-pass, so a run ends in time
IMPORT_REPS = 5

END_TO_END = {
    "setup_s": "s",
    "solved_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "verified_frac": "ratio",
    "not_wrong_frac": "ratio",
    "not_misclassified_frac": "ratio",
}

REFUSAL_CLASSES = ("AmbiguousNorm", "IterationCapExceeded", "BandViolation",
                   "ProfileMismatch", "NotTriangular")
CLI_SUBCOMMANDS = ("validate", "direct", "inverse", "spring", "roundtrip")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    from spans import SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[name + ".calls"] = "count"
        units[name + ".self_ms"] = "ms"
    for sub in CLI_SUBCOMMANDS:
        units["cli.cmd_%s.total_ms" % sub] = "ms"
    for code in range(4):
        units["cli.exit.%d" % code] = "count"
    units["cli.import_ms"] = "ms"
    units["fileio.read_file.bytes"] = "B"
    units["fileio.write_file.bytes"] = "B"
    units["reconstruct.candidates"] = "count"
    for cls in REFUSAL_CLASSES + ("other",):
        units["reconstruct.refused." + cls] = "count"
    units["spectral.canonical_spectral_function.refused"] = "count"
    units["reconstruct.dev_max"] = "abs"
    units["reconstruct.tdev_max"] = "abs"
    units["trace.spans"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


# ------------------------------------------------------------ measuring

def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def attempt(fn, inst, crashes):
    """Run one operation; returns its outcome and its duration in s."""
    import workloads as W

    t = time.perf_counter()
    try:
        result, exc = fn(), None
    except Exception as e:  # the loop must go on; the outcome records it
        result, exc = None, e
    dt = time.perf_counter() - t
    out = W.judged(inst, result, exc)
    if exc is not None and out.family == "crash" and len(crashes) < 3:
        crashes.append("".join(traceback.format_exception(exc)))
    return out, dt


def speed_for(name, env, workdir):
    """The calibration that follows the workload's kind of work: a
    subprocess start for the CLI, the in-process kernel otherwise."""
    from refclock import StartSpeed, speed_factor

    return StartSpeed(env, workdir) if name == "cli_files" else speed_factor


def setup(name, seed, workdir, env, quick, speed):
    """Build the instances SETUP_REPS times, each followed by a short
    warm-up; returns the last build and the raw and scaled time of each
    build, scaled by the mean of the speed factors measured before and
    after it."""
    import workloads as W

    raw, scaled = [], []
    before = speed()
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        instances, traced, warmup = W.build(name, seed, workdir, env, quick)
        for inst in warmup:
            attempt(inst.run, inst, [])
        raw.append(time.perf_counter() - t)
        after = speed()
        scaled.append(raw[-1] * 0.5 * (before + after))
        before = after
    return instances, traced, (raw, scaled)


def timed_loop(instances, seconds, crashes, speed):
    """Closed loop over the instances in order, cycling, until `seconds`
    have passed, calibration included, and each instance has run once."""
    from refclock import RefClock

    K = len(instances)
    first = [None] * K
    clock = RefClock(speed)
    index = []
    busy = 0.0
    inconsistent = 0
    start = time.perf_counter()
    i = 0
    while True:
        inst = instances[i % K]
        out, dt = attempt(inst.run, inst, crashes)
        clock.add(dt)
        index.append(i % K)
        busy += dt
        if i < K:
            first[i] = out
        elif out.kind != first[i % K].kind:
            inconsistent += 1
        i += 1
        elapsed = time.perf_counter() - start
        if (i >= K and elapsed >= seconds) or elapsed > WALL_CAP_S:
            break
    clock.finish()
    return dict(first=first, clock=clock, index=index, busy=busy,
                wall=time.perf_counter() - start,
                inconsistent=inconsistent, cycles=i / K)


def per_input(durations, index, K):
    """Each input's latency, the median of its timed repeats (None if it
    was never reached), and its repeat count."""
    samples = [[] for _ in range(K)]
    for dt, k in zip(durations, index):
        samples[k].append(dt)
    return [statistics.median(v) if v else None for v in samples], [len(v) for v in samples]


def outcome_fractions(outcomes):
    kinds = Counter(o.kind for o in outcomes)
    n = len(outcomes)
    return {"attempted": n,
            "fail_frac": 1.0 - kinds["verified"] / n,
            "wrong_frac": kinds["wrong"] / n,
            "misclassified_frac": kinds["misclassified"] / n}


def taxonomy(outcomes):
    """Refusals and failures by kind, exception class and exit family."""
    table = {}
    for o in outcomes:
        if o.kind != "verified":
            key = "%s (exit %s)" % (o.cls or "-", o.family)
            table.setdefault(o.kind, Counter())[key] += 1
    return {k: dict(sorted(v.items())) for k, v in sorted(table.items())}


def cell_report(instances, outcomes, latencies=None):
    """Per (n, N) cell or call kind: outcome counts, refusal classes,
    max matrix and initial-value deviation over returned answers, and
    the median latency of its inputs in ms."""
    cells = {}
    for k, (inst, o) in enumerate(zip(instances, outcomes)):
        if o is None:
            continue
        c = cells.setdefault(inst.cell, {"attempted": 0, "verified": 0, "wrong": 0,
                                         "refused": Counter(), "misclassified": Counter(),
                                         "dev_max": 0.0, "tdev_max": 0.0, "latency_ms": []})
        c["attempted"] += 1
        if latencies is not None:
            c["latency_ms"].append(1e3 * latencies[k])
        if o.kind in ("verified", "wrong"):
            c[o.kind] += 1
            for key, v in (("dev_max", o.dev), ("tdev_max", o.tdev)):
                if not math.isnan(v):
                    c[key] = max(c[key], v)
        else:
            c[o.kind][o.cls] += 1
    for c in cells.values():
        c["refused"] = dict(c["refused"])
        c["misclassified"] = dict(c["misclassified"])
        c["latency_ms"] = statistics.median(c["latency_ms"]) if c["latency_ms"] else None
    return dict(sorted(cells.items(), key=lambda kv: [
        int(t) if t.isdigit() else t for t in re.split(r"(\d+)", kv[0])]))


def hd_quantile(values, q, grid=20000):
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics, weighted by a Beta(q(n+1), (1-q)(n+1)) distribution
    (Harrell and Davis, Biometrika 69, 1982).  On a few dozen inputs it
    is much steadier than the one or two order statistics nearest q."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    t = (np.arange(grid) + 0.5) / grid
    logpdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(logpdf - logpdf.max()))))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, grid + 1), cdf)
    return float(np.diff(edges) @ x)


def tail_quantile(n_samples):
    """0.90, or the highest quantile with LATENCY_TAIL samples beyond it."""
    return max(0.5, min(0.90, 1.0 - LATENCY_TAIL / n_samples))


def timing_metrics(latencies, verified, q):
    """Throughput of one pass over the inputs at their latencies, and
    the latency percentiles over inputs."""
    import numpy as np

    latencies = [v for v in latencies if v is not None]
    lat_ms = [1e3 * v for v in latencies]
    return {"solved_per_s": verified / sum(latencies),
            "latency_p50_ms": float(np.median(lat_ms)),
            "latency_p90_ms": hd_quantile(lat_ms, q)}


def end_to_end(loop, setup_times, import_s):
    """End-to-end metrics, times at reference speed; raw ones in detail."""
    reached = [o for o in loop["first"] if o is not None]
    fr = outcome_fractions(reached)
    verified = sum(o.kind == "verified" for o in reached)
    clock = loop["clock"]
    K = len(loop["first"])
    scaled, repeats = per_input(clock.scaled, loop["index"], K)
    raw_lat, _ = per_input(clock.raw, loop["index"], K)
    repeats = [r for r in repeats if r]
    q = tail_quantile(len(clock.raw))
    metrics = dict(timing_metrics(scaled, verified, q),
                   setup_s=import_s[1] + statistics.median(setup_times[1]))
    metrics.update({
        "verified_frac": 1.0 - fr["fail_frac"],
        "not_wrong_frac": 1.0 - fr["wrong_frac"],
        "not_misclassified_frac": 1.0 - fr["misclassified_frac"],
    })
    raw = dict(timing_metrics(raw_lat, verified, q),
               setup_s=import_s[0] + statistics.median(setup_times[0]))
    factors = clock.factors
    detail = dict(fr, raw_metrics=raw, import_s=import_s,
                  setup_times_s=setup_times[0], setup_times_scaled_s=setup_times[1],
                  speed_factor={"median": statistics.median(factors), "min": min(factors),
                                "max": max(factors), "bursts": len(factors)},
                  latency_inputs=len(repeats), latency_samples=len(clock.raw),
                  repeats={"min": min(repeats), "median": statistics.median(repeats),
                           "max": max(repeats)},
                  latency_tail_quantile=q,
                  busy_s=loop["busy"], wall_s=loop["wall"], cycles=loop["cycles"],
                  first_cycle_complete=len(reached) == len(loop["first"]),
                  inconsistent_repeats=loop["inconsistent"])
    return metrics, detail, scaled


def import_ms(env):
    """Time `import bandspec` adds to a bare interpreter, in ms (median
    of IMPORT_REPS alternating pairs of subprocesses)."""
    def once(code):
        t = time.perf_counter()
        # pipes keep the timeout from rounding the time up (see StartSpeed)
        subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT),
                       capture_output=True, check=True, timeout=60)
        return time.perf_counter() - t

    bare, full = [], []
    for _ in range(IMPORT_REPS):
        bare.append(once("pass"))
        full.append(once("import bandspec"))
    return 1e3 * (statistics.median(full) - statistics.median(bare))


def traced_run(traced, env, crashes, spans_path):
    """The traced subset untraced, then traced; per-layer metrics."""
    from refclock import RefClock
    from spans import Tracer

    def local(inst):
        return getattr(inst, "run_inprocess", inst.run)

    untraced, traced_clock = RefClock(), RefClock()
    for inst in traced:
        untraced.add(attempt(local(inst), inst, crashes)[1])
    untraced.finish()
    tracer = Tracer()
    outcomes = []
    with tracer:
        for k, inst in enumerate(traced):
            tracer.op_id = k
            out, dt = attempt(local(inst), inst, crashes)
            outcomes.append(out)
            traced_clock.add(dt)
    traced_clock.finish()
    untraced_s, traced_s = sum(untraced.scaled), sum(traced_clock.scaled)
    if spans_path is not None:
        tracer.save(spans_path)
    summary = tracer.summary()
    units = per_layer_units()
    m = {}
    for name, s in summary.items():
        m[name + ".calls"] = s["calls"]
        m[name + ".self_ms"] = s["self_ms"]
    for sub in CLI_SUBCOMMANDS:
        m["cli.cmd_%s.total_ms" % sub] = summary["cli.cmd_" + sub]["total_ms"]
    for code in range(4):
        m["cli.exit.%d" % code] = tracer.counts["cli.exit.%d" % code]
    m["cli.import_ms"] = import_ms(env)
    for f in ("read_file", "write_file"):
        m["fileio.%s.bytes" % f] = tracer.counts["fileio.%s.bytes" % f]
    m["reconstruct.candidates"] = tracer.counts["reconstruct.candidates"]
    refused = Counter({cls: c for (span, cls), c in tracer.raised.items()
                       if span == "reconstruct.reconstruct"})
    for cls in REFUSAL_CLASSES:
        m["reconstruct.refused." + cls] = refused.pop(cls, 0)
    m["reconstruct.refused.other"] = sum(refused.values())
    m["spectral.canonical_spectral_function.refused"] = sum(
        c for (span, _), c in tracer.raised.items()
        if span == "spectral.canonical_spectral_function")
    answers = [o for inst, o in zip(traced, outcomes)
               if inst.reconstructs and o.kind in ("verified", "wrong")]
    m["reconstruct.dev_max"] = max((o.dev for o in answers), default=0.0)
    m["reconstruct.tdev_max"] = max((o.tdev for o in answers), default=0.0)
    m["trace.spans"] = len(tracer.names)
    m["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    assert set(m) == set(units), sorted(set(m) ^ set(units))
    detail = dict(untraced_s=untraced_s, traced_s=traced_s,
                  raised={"%s %s" % k: v for k, v in sorted(tracer.raised.items())})
    return m, outcomes, detail


def stamp(seed):
    """Where and on what the numbers were measured."""
    import numpy as np

    commit = None
    try:
        p = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=str(ROOT),
                           capture_output=True, text=True, timeout=30)
        lines = p.stdout.split()
        if p.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "bandspec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "load": "closed loop, 1 caller, 1 operation at a time",
        "times": "scaled to the reference speed of perfbench/refclock.py (StartSpeed for "
                 "cli_files, the kernel otherwise); raw times in detail",
    }


def run_workload(name, seed, seconds, trace, quick=False, import_s=(0.0, 0.0),
                 spans_path=None):
    """Measure one workload; returns (result line, full report)."""
    import workloads as W

    env = subprocess_env()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-%s-" % name, dir=str(OUT))
    crashes = []
    try:
        speed = speed_for(name, env, workdir)
        instances, traced, setup_times = setup(name, seed, workdir, env, quick, speed)
        if trace:
            metrics, outcomes, detail = traced_run(traced, env, crashes, spans_path)
            units = per_layer_units()
            repeated = 0
            cells = cell_report(traced, outcomes)
            attempted = len(outcomes)
            verified = sum(o.kind == "verified" for o in outcomes)
            detail.update(outcome_fractions(outcomes))
        else:
            loop = timed_loop(instances, seconds, crashes, speed)
            metrics, detail, latencies = end_to_end(loop, setup_times, import_s)
            units = END_TO_END
            repeated = loop["inconsistent"]
            outcomes = [o for o in loop["first"] if o is not None]
            cells = cell_report(instances, loop["first"], latencies)
            attempted = len(outcomes)
            verified = sum(o.kind == "verified" for o in outcomes)
        caught = W.planted_errors_caught()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = {
        "correct": bool(caught and repeated == 0),
        "attempted": attempted,
        "failed": attempted - verified,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report = {
        "workload": name, "trace": trace, "seconds": seconds,
        "stamp": stamp(seed),
        "result": line,
        "detail": detail,
        "planted_errors_caught": caught,
        "taxonomy": taxonomy(outcomes),
        "cells": cells,
        "crashes": crashes,
    }
    return line, report


# ------------------------------------------------------------ printing

def print_human(name, report):
    line = report["result"]
    d = report["detail"]
    print("== %s  seed %s  trace %d" % (name, report["stamp"]["seed"], report["trace"]))
    for k, v in line["metrics"].items():
        print("  %-48s %14.6g %s" % (k, v["value"], v["unit"]))
    if not report["trace"]:
        print("  raw (unscaled): %s; speed factor median %.3f over %d bursts"
              % (", ".join("%s %.6g" % kv for kv in d["raw_metrics"].items()),
                 d["speed_factor"]["median"], d["speed_factor"]["bursts"]))
        print("  latency over %d inputs from %d samples (repeats per input %d to %d); "
              "latency_p90_ms is the p%.1f"
              % (d["latency_inputs"], d["latency_samples"], d["repeats"]["min"],
                 d["repeats"]["max"], 100 * d["latency_tail_quantile"]))
        print("  fail_frac %.4f  wrong_frac %.4f  misclassified_frac %.4f  over %d inputs"
              % (d["fail_frac"], d["wrong_frac"], d["misclassified_frac"], d["attempted"]))
    for kind, classes in report["taxonomy"].items():
        print("  %s: %s" % (kind, ", ".join("%s x%d" % kv for kv in classes.items())))
    print("  %-22s %5s %5s %5s %5s %5s %10s %10s %9s"
          % ("cell", "att", "ok", "wrong", "ref", "mis", "dev_max", "tdev_max", "lat_ms"))
    for cell, c in report["cells"].items():
        lat = "-" if c["latency_ms"] is None else "%.3g" % c["latency_ms"]
        print("  %-22s %5d %5d %5d %5d %5d %10.2e %10.2e %9s"
              % (cell, c["attempted"], c["verified"], c["wrong"], sum(c["refused"].values()),
                 sum(c["misclassified"].values()), c["dev_max"], c["tdev_max"], lat))


def run_all(args):
    """Each workload in its own process, then one table of all metrics."""
    lines = {}
    for name in WORKLOADS:
        p = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           capture_output=True, text=True, timeout=900)
        sys.stdout.write(p.stdout.rsplit("\n", 2)[0] + "\n")
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            return p.returncode
        lines[name] = json.loads(p.stdout.strip().splitlines()[-1])
    names = list(lines[WORKLOADS[0]]["metrics"])
    print("%-48s" % "metric" + "".join("%16s" % w for w in WORKLOADS))
    for k in names:
        print("%-48s" % k + "".join("%16.6g" % lines[w]["metrics"][k]["value"]
                                    for w in WORKLOADS))
    combined = {
        "correct": all(v["correct"] for v in lines.values()),
        "attempted": sum(v["attempted"] for v in lines.values()),
        "failed": sum(v["failed"] for v in lines.values()),
        "metrics": {"%s.%s" % (w, k): v for w in WORKLOADS
                    for k, v in lines[w]["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bandspec" / "__init__.py").is_file():
        print("error: no bandspec sources under %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # the caller and its subprocesses share one CPU, the one the
    # calibration bursts measure
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import bandspec  # noqa: F401  (numpy comes with it: users pay both)
    raw_import = time.perf_counter() - t
    from refclock import speed_factor
    import_s = (raw_import, raw_import * statistics.median(speed_factor() for _ in range(3)))
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    line, report = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                import_s=import_s,
                                spans_path=OUT / ("spans-%s.npz" % stem) if args.trace else None)
    with open(OUT / ("%s.json" % stem), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print_human(args.workload, report)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
