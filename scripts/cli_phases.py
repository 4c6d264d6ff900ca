"""Where a `bandspec` process spends its wall time: start-up and shutdown.

Writes a band matrix (n = 2, N = 32), its spectral function, an
initial-value matrix and a spring chain from a fixed seed into a
temporary directory. Then it runs K interleaved rounds of these
processes and prints the median wall time of each, in milliseconds:

* `python -c pass`, `python -c "import numpy"`,
  `python -c "import bandspec.cli"` and
  `python -c "import bandspec.cli, numpy.random"` (`reconstruct`
  imports `numpy.random` when it runs);
* for each subcommand, the whole `python -m bandspec <command>`
  (`total_ms`), and its shutdown (`shutdown_ms`): the time at which
  this script sees the process exit minus the time the child records
  when the entry point raises `SystemExit`. The child runs the real
  entry through `runpy.run_module`, as `python -m` does, so any
  checkout can be measured. At that moment the child also records
  what the subcommand loaded: the `bandspec` modules (`modules`) and
  whether `numpy` and `numpy.random` were imported;
* for each subcommand, the cold `build_parser().parse_args(argv)`
  (`parse_ms`), timed in a fresh interpreter after `import
  bandspec.cli`.

Set PYTHONPATH to the `src` directory of the checkout to measure; the
children import bandspec from the same directory as this script does.
Output is JSON in the style of `bandspec.fileio` (fixed field order,
indent 1):

    PYTHONPATH=src python3 scripts/cli_phases.py --runs 15
"""

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import bandspec as bs
from bandspec import fileio

IMPORTS = {
    "pass": "pass",
    "numpy": "import numpy",
    "bandspec.cli": "import bandspec.cli",
    "bandspec.cli+numpy.random": "import bandspec.cli, numpy.random",
}
COMMANDS = {
    "validate": ["validate", "A.json"],
    "direct": ["direct", "A.json", "--tinit", "T.json", "-o", "S.json"],
    "inverse": ["inverse", "sigma.json", "-o", "B.json", "--tinit-out", "TB.json"],
    "spring": ["spring", "chain.json", "--cf-check", "--frequencies"],
    "roundtrip": ["roundtrip", "A.json"],
}
# wall clock, not a per-process clock: both sides of the shutdown
# interval have to read the same one
CHILD = """\
import runpy, sys, time
stamp = sys.argv.pop(1)
try:
    runpy.run_module("bandspec", run_name="__main__", alter_sys=True)
except SystemExit:
    t = time.time()
    loaded = sorted(m for m in sys.modules if m.startswith("bandspec"))
    with open(stamp, "w") as fh:
        fh.write(repr([t, loaded, "numpy" in sys.modules, "numpy.random" in sys.modules]))
    raise
"""
PARSE = """\
import sys, time
import bandspec.cli
t = time.perf_counter()
bandspec.cli.build_parser().parse_args(sys.argv[1:])
print(time.perf_counter() - t)
"""


def write_inputs(directory, seed):
    rng = np.random.default_rng(seed)
    A = bs.sampling.random_band_matrix(rng, 2, 32)
    docs = {
        "A.json": fileio.dump_matrix(A),
        "sigma.json": fileio.dump_sigma(bs.canonical_spectral_function(A)),
        "T.json": fileio.dump_tinit(bs.sampling.random_tinit(rng, 2)),
        "chain.json": fileio.dump_chain(bs.sampling.random_chain(rng, 16)),
    }
    for name, text in docs.items():
        (directory / name).write_text(text, encoding="utf-8")


def timed(argv, cwd, env):
    t = time.perf_counter()
    p = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=120)
    return time.perf_counter() - t, p.returncode


def shutdown(argv, cwd, env):
    """The shutdown time, and what the process loaded."""
    stamp = cwd / "stamp.txt"
    subprocess.run([sys.executable, "-c", CHILD, str(stamp)] + argv, cwd=cwd,
                   env=env, capture_output=True, timeout=120)
    end = time.time()
    t, modules, numpy, numpy_random = ast.literal_eval(stamp.read_text())
    return end - t, {"modules": modules, "numpy": numpy, "numpy.random": numpy_random}


def parse(argv, cwd, env):
    p = subprocess.run([sys.executable, "-c", PARSE] + argv, cwd=cwd, env=env,
                       capture_output=True, text=True, timeout=120, check=True)
    return float(p.stdout)


def measure(runs, seed):
    env = dict(os.environ, PYTHONPATH=str(Path(bs.__file__).resolve().parents[1]))
    imports = {k: [] for k in IMPORTS}
    totals = {k: [] for k in COMMANDS}
    downs = {k: [] for k in COMMANDS}
    parses = {k: [] for k in COMMANDS}
    codes, loads = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        write_inputs(cwd, seed)
        for _ in range(runs):
            for name, code in IMPORTS.items():
                imports[name].append(timed([sys.executable, "-c", code], cwd, env)[0])
            for name, argv in COMMANDS.items():
                wall, codes[name] = timed([sys.executable, "-m", "bandspec"] + argv,
                                          cwd, env)
                totals[name].append(wall)
                down, loads[name] = shutdown(argv, cwd, env)
                downs[name].append(down)
                parses[name].append(parse(argv, cwd, env))

    def ms(values, digits=1):
        return round(1e3 * statistics.median(values), digits)

    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "runs": runs,
        "seed": seed,
        "imports_ms": {k: ms(v) for k, v in imports.items()},
        "commands": {
            k: {"argv": " ".join(COMMANDS[k]), "exit": codes[k],
                "total_ms": ms(totals[k]), "shutdown_ms": ms(downs[k]),
                "parse_ms": ms(parses[k], 2), **loads[k]}
            for k in COMMANDS
        },
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=15, help="rounds (default 15)")
    ap.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    args = ap.parse_args()
    doc = measure(args.runs, args.seed)
    sys.stdout.write(json.dumps(doc, indent=1, allow_nan=False) + "\n")


if __name__ == "__main__":
    main()
