"""What a CLI process loads, and the text it prints before it runs a
command.

The package imports its submodules lazily and the CLI imports each
library name on first use, so a subcommand loads only the modules it
runs; these tests pin those sets in fresh processes, the package's
laziness and its `reconstruct` name, and the help and usage texts, which
must not change.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import bandspec as bs
from bandspec import fileio
from bandspec.cli import main

SRC = str(Path(bs.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")

# (argv, exit code, stdout, stderr), captured from `python -m bandspec`
# with COLUMNS=80 under Python 3.11
TEXTS = [
    ([], 1,
     "",
     ('usage: bandspec [-h] {validate,direct,inverse,spring,roundtrip} ...\n'
      'bandspec: error: the following arguments are required: command\n')),
    (['--help'], 0,
     ('usage: bandspec [-h] {validate,direct,inverse,spring,roundtrip} ...\n'
      '\n'
      'Direct and inverse spectral analysis of band symmetric matrices with\n'
      'degeneration structure.\n'
      '\n'
      'positional arguments:\n'
      '  {validate,direct,inverse,spring,roundtrip}\n'
      '    validate            check class membership and report the degeneration\n'
      '                        profile\n'
      '    direct              matrix to spectral function\n'
      '    inverse             spectral function to matrix\n'
      '    spring              mass-spring chain tools\n'
      '    roundtrip           direct then inverse, report the deviation\n'
      '\n'
      'options:\n'
      '  -h, --help            show this help message and exit\n'),
     ""),
    (['validate', '--help'], 0,
     ('usage: bandspec validate [-h] matrix_file\n'
      '\n'
      'positional arguments:\n'
      '  matrix_file\n'
      '\n'
      'options:\n'
      '  -h, --help   show this help message and exit\n'),
     ""),
    (['direct', '--help'], 0,
     ('usage: bandspec direct [-h] [--tinit FILE] [-o FILE] [--summary] matrix_file\n'
      '\n'
      'positional arguments:\n'
      '  matrix_file\n'
      '\n'
      'options:\n'
      '  -h, --help            show this help message and exit\n'
      '  --tinit FILE          initial-value matrix (default: identity)\n'
      '  -o FILE, --output FILE\n'
      "                        output sigma file ('-' for stdout)\n"
      '  --summary             also print the sum of all jump matrices\n'),
     ""),
    (['inverse', '--help'], 0,
     ('usage: bandspec inverse [-h] [-o FILE] [--tinit-out FILE] sigma_file\n'
      '\n'
      'positional arguments:\n'
      '  sigma_file\n'
      '\n'
      'options:\n'
      '  -h, --help            show this help message and exit\n'
      '  -o FILE, --output FILE\n'
      "                        output matrix file ('-' for stdout)\n"
      '  --tinit-out FILE      also write the recovered initial-value matrix\n'),
     ""),
    (['spring', '--help'], 0,
     ('usage: bandspec spring [-h] [--frequencies] [--matrix] [--cf-check] [-o FILE]\n'
      '                       chain_file\n'
      '\n'
      'positional arguments:\n'
      '  chain_file\n'
      '\n'
      'options:\n'
      '  -h, --help            show this help message and exit\n'
      '  --frequencies         print oscillation frequencies (default action)\n'
      '  --matrix              emit the mass-weighted stiffness matrix\n'
      '  --cf-check            print the continued-fraction residual at every\n'
      '                        interior index\n'
      '  -o FILE, --output FILE\n'
      "                        output file for --matrix ('-' for stdout)\n"),
     ""),
    (['roundtrip', '--help'], 0,
     ('usage: bandspec roundtrip [-h] [--perturb EPS] matrix_file\n'
      '\n'
      'positional arguments:\n'
      '  matrix_file\n'
      '\n'
      'options:\n'
      '  -h, --help     show this help message and exit\n'
      '  --perturb EPS  debug: bump the first jump coefficient by EPS between the two\n'
      '                 passes\n'),
     ""),
    (['frobnicate'], 1,
     "",
     ('usage: bandspec [-h] {validate,direct,inverse,spring,roundtrip} ...\n'
      "bandspec: error: argument command: invalid choice: 'frobnicate' (choose from 'validate', 'direct', 'inverse', 'spring', 'roundtrip')\n")),
    (['--bogus', 'validate', 'x.json'], 1,
     "",
     ('usage: bandspec [-h] {validate,direct,inverse,spring,roundtrip} ...\n'
      'bandspec: error: unrecognized arguments: --bogus\n')),
    (['inverse', 's.json', '--tol-zero', '1e-10'], 1,
     "",
     ('usage: bandspec [-h] {validate,direct,inverse,spring,roundtrip} ...\n'
      'bandspec: error: unrecognized arguments: --tol-zero 1e-10\n')),
    (['validate'], 1,
     "",
     ('usage: bandspec validate [-h] matrix_file\n'
      'bandspec validate: error: the following arguments are required: matrix_file\n')),
    (['roundtrip'], 1,
     "",
     ('usage: bandspec roundtrip [-h] [--perturb EPS] matrix_file\n'
      'bandspec roundtrip: error: the following arguments are required: matrix_file\n')),
    # roundtrip checks the fixed bound 1e-8; --tol is gone like --tol-zero
    (['roundtrip', 'x.json', '--tol', 'abc'], 1,
     "",
     ('usage: bandspec [-h] {validate,direct,inverse,spring,roundtrip} ...\n'
      'bandspec: error: unrecognized arguments: --tol abc\n')),
    (['roundtrip', 'x.json', '--perturb', 'abc'], 1,
     "",
     ('usage: bandspec roundtrip [-h] [--perturb EPS] matrix_file\n'
      "bandspec roundtrip: error: argument --perturb: invalid number value: 'abc'\n")),
]


@pytest.mark.parametrize("argv, code, out, err", TEXTS, ids=lambda v: (
    " ".join(v) or "no command") if isinstance(v, list) else "")
def test_help_and_usage_text(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    got = main(argv)
    captured = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "bandspec"] + argv, env=ENV,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (got, captured.out, captured.err)
    if sys.version_info[:2] == (3, 11):  # argparse's layout differs between versions
        assert (got, captured.out, captured.err) == (code, out, err)


def fresh(code, *args, cwd=None):
    """Run code in a fresh interpreter; it prints one JSON document."""
    p = subprocess.run([sys.executable, "-c", code] + list(args), env=ENV, cwd=cwd,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


# runs the real entry, as `python -m bandspec` does, and reports the
# modules loaded when the entry exits
ENTRY = """\
import runpy, sys
try:
    runpy.run_module("bandspec", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    import json
    loaded = sorted(m for m in sys.modules if m.startswith("bandspec"))
    print(json.dumps([exc.code, loaded, "numpy" in sys.modules,
                      "numpy.random" in sys.modules, "scipy" in sys.modules]))
"""

LIBRARY = {"bandmat", "cli", "errors", "fileio", "reconstruct", "recurrence",
           "sampling", "spectral", "springchain", "vecpoly"}
# subcommand: argv, the bandspec submodules it loads, numpy, numpy.random,
# scipy (the runtime is numpy-only, though scipy may be installed)
IMPORT_SETS = {
    "validate": (["A.json"], {"cli", "errors", "fileio", "bandmat"}, False, False, False),
    "direct": (["A.json", "--tinit", "T.json", "-o", "S.json"],
               {"cli", "errors", "fileio", "bandmat", "spectral"}, True, False, False),
    "inverse": (["sigma.json", "-o", "B.json", "--tinit-out", "TB.json"],
                {"cli", "errors", "fileio", "bandmat", "spectral", "reconstruct",
                 "vecpoly"}, True, True, False),
    "roundtrip": (["A.json"], {"cli", "errors", "fileio", "bandmat", "spectral",
                               "reconstruct", "vecpoly"}, True, True, False),
    "spring": (["chain.json", "--cf-check"],
               {"cli", "errors", "fileio", "bandmat", "springchain"},
               False, False, False),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(0)
    A = bs.sampling.random_band_matrix(rng, 2, 12)
    for name, text in (
            ("A.json", fileio.dump_matrix(A)),
            ("sigma.json", fileio.dump_sigma(bs.canonical_spectral_function(A))),
            ("T.json", fileio.dump_tinit(bs.sampling.random_tinit(rng, 2))),
            ("chain.json", fileio.dump_chain(bs.sampling.random_chain(rng, 8)))):
        (directory / name).write_text(text, encoding="utf-8")
    return directory


@pytest.mark.parametrize("command", sorted(IMPORT_SETS))
def test_subcommand_loads_only_what_it_runs(inputs, command):
    argv, want, numpy, numpy_random, scipy = IMPORT_SETS[command]
    code, loaded, got_numpy, got_random, got_scipy = fresh(ENTRY, command, *argv, cwd=inputs)
    assert code == 0
    assert set(loaded) == {"bandspec"} | {"bandspec." + m for m in want}
    assert (got_numpy, got_random, got_scipy) == (numpy, numpy_random, scipy)
    assert want <= LIBRARY


def test_import_bandspec_loads_no_submodule_and_no_numpy():
    assert fresh("""\
import json, sys
import bandspec
print(json.dumps([m for m in sys.modules if m.startswith(("bandspec.", "numpy"))]))
""") == []


def test_first_public_name_loads_the_library():
    # the benchmark's tracer finds every traced module in sys.modules
    # after one public name, whichever it is; the library is numpy-only
    loaded, scipy = fresh("""\
import json, sys
import bandspec
bandspec.validate_band
print(json.dumps([sorted(m for m in sys.modules if m.startswith("bandspec.")),
                  "scipy" in sys.modules]))
""")
    assert set(loaded) == {"bandspec." + m for m in LIBRARY - {"cli", "fileio"}}
    assert scipy is False


def test_submodule_alone_imports_no_more_than_it_needs():
    # reconstruct runs `from . import vecpoly` while it is half imported;
    # the package must then import vecpoly alone, not the whole library
    loaded = fresh("""\
import json, sys
import bandspec.reconstruct
print(json.dumps(sorted(m for m in sys.modules if m.startswith("bandspec."))))
""")
    assert set(loaded) == {"bandspec." + m for m in ("errors", "vecpoly", "bandmat",
                                                     "spectral", "reconstruct")}


@pytest.mark.parametrize("name", ["fileio", "cli"])
def test_command_line_submodule_name_imports_it_alone(name):
    assert fresh("""\
import json, sys
import bandspec
module = getattr(bandspec, sys.argv[1])
try:
    bandspec.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([module is sys.modules["bandspec." + sys.argv[1]], "numpy" in sys.modules,
                  unknown]))
""", name) == [True, False, "module 'bandspec' has no attribute 'no_such_name'"]


RECONSTRUCT_NAME = """\
import json, sys
%s
import bandspec
module = sys.modules["bandspec.reconstruct"]
print(json.dumps([bandspec.reconstruct is module.reconstruct,
                  type(module).__name__, callable(bandspec.reconstruct)]))
"""


@pytest.mark.parametrize("first", [
    "import bandspec.reconstruct",
    "from bandspec.reconstruct import gram_schmidt",
    "import bandspec.cli; bandspec.cli.main(['inverse', sys.argv[1], '-o', sys.argv[2]])",
])
def test_reconstruct_names_the_function(inputs, tmp_path, first):
    assert fresh(RECONSTRUCT_NAME % first, str(inputs / "sigma.json"),
                 str(tmp_path / "B.json")) == [True, "module", True]


def test_every_public_name_resolves():
    assert fresh("""\
import json
import bandspec
missing = [n for n in bandspec.__all__ if getattr(bandspec, n, None) is None]
print(json.dumps([missing, sorted(set(bandspec.__all__) - set(dir(bandspec)))]))
""") == [[], []]
    assert bs.reconstruct.__module__ == "bandspec.reconstruct"
    assert isinstance(sys.modules["bandspec.reconstruct"], types.ModuleType)


def test_cli_binds_library_names_as_attributes():
    cli = sys.modules["bandspec.cli"]
    assert cli.reconstruct is sys.modules["bandspec.reconstruct"].reconstruct
    assert vars(cli)["reconstruct"] is cli.reconstruct
    with pytest.raises(AttributeError):
        cli.no_such_name
