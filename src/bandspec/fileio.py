"""Strict JSON file formats for the command-line tools.

Four document types, all plain JSON objects with a fixed field order
on output:

* matrix:  {"n": int, "N": int, "diags": [[...], ...]}
* sigma:   {"n": int, "N": int, "jumps": [{"x": num, "alpha": [...]}]}
* chain:   {"masses": [...], "k": [...], "kp": [...]}
* tinit:   {"n": int, "rows": [[...], ...]} (square, upper triangular)

Numbers are written in shortest round-trip decimal form, so writing a
value and reading it back is bit-exact.  Non-finite numbers, literal or
overflowing, are rejected on input and never produced on output.

Reading a matrix or initial values needs no numpy: the loaders of the
other two kinds import their classes when they run.
"""

from __future__ import annotations

import json
import math

from .bandmat import BandMatrix, TriangularInit
from .errors import InputError


def _reject_constant(name):
    raise InputError("non-finite number %r is not allowed" % name)


def _loads(text, what):
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise InputError("%s file is not valid JSON: %s" % (what, exc)) from exc
    if not isinstance(doc, dict):
        raise InputError("%s file must contain a JSON object" % what)
    return doc


def _num(doc_name, field, v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InputError("%s: %s must be a number, got %r" % (doc_name, field, v))
    try:
        if math.isfinite(float(v)):
            return float(v)
    except OverflowError:
        pass
    raise InputError("%s: %s is out of the float range" % (doc_name, field))


def _int(doc_name, field, v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise InputError("%s: %s must be an integer, got %r" % (doc_name, field, v))
    return v


def _field(doc_name, doc, name):
    if name not in doc:
        raise InputError("%s: missing field %r" % (doc_name, name))
    return doc[name]


def _num_list(doc_name, field, v):
    if not isinstance(v, list):
        raise InputError("%s: %s must be an array" % (doc_name, field))
    return tuple(_num(doc_name, field, x) for x in v)


def load_matrix(text):
    doc = _loads(text, "matrix")
    n = _int("matrix", "n", _field("matrix", doc, "n"))
    N = _int("matrix", "N", _field("matrix", doc, "N"))
    raw = _field("matrix", doc, "diags")
    if not isinstance(raw, list):
        raise InputError("matrix: diags must be an array of arrays")
    diags = tuple(_num_list("matrix", "diags[%d]" % j, d) for j, d in enumerate(raw))
    return BandMatrix(n, N, diags)


def dump_matrix(A):
    doc = {"n": A.n, "N": A.N, "diags": [list(d) for d in A.diags]}
    return json.dumps(doc, indent=1, allow_nan=False) + "\n"


def load_sigma(text):
    from .spectral import SpectralFunction

    doc = _loads(text, "sigma")
    n = _int("sigma", "n", _field("sigma", doc, "n"))
    N = _int("sigma", "N", _field("sigma", doc, "N"))
    raw = _field("sigma", doc, "jumps")
    if not isinstance(raw, list):
        raise InputError("sigma: jumps must be an array")
    if len(raw) != N:
        raise InputError("sigma: N=%d but %d jumps present" % (N, len(raw)))
    pairs = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise InputError("sigma: jumps[%d] must be an object" % i)
        x = _num("sigma", "jumps[%d].x" % i, _field("sigma", item, "x"))
        alpha = _num_list("sigma", "jumps[%d].alpha" % i, _field("sigma", item, "alpha"))
        if len(alpha) != n:
            raise InputError(
                "sigma: jumps[%d].alpha has %d entries, expected n=%d"
                % (i, len(alpha), n)
            )
        pairs.append((x, alpha))
    return SpectralFunction(n, pairs)


def dump_sigma(sigma):
    doc = {
        "n": sigma.n,
        "N": sigma.N,
        "jumps": [{"x": j.x, "alpha": list(j.alpha)} for j in sigma.jumps],
    }
    return json.dumps(doc, indent=1, allow_nan=False) + "\n"


def load_chain(text):
    from .springchain import SpringChain

    doc = _loads(text, "chain")
    masses = _num_list("chain", "masses", _field("chain", doc, "masses"))
    k = _num_list("chain", "k", _field("chain", doc, "k"))
    kp = _num_list("chain", "kp", _field("chain", doc, "kp"))
    return SpringChain(masses, k, kp)


def dump_chain(chain):
    doc = {"masses": list(chain.masses), "k": list(chain.k), "kp": list(chain.kp)}
    return json.dumps(doc, indent=1, allow_nan=False) + "\n"


def load_tinit(text):
    doc = _loads(text, "tinit")
    n = _int("tinit", "n", _field("tinit", doc, "n"))
    raw = _field("tinit", doc, "rows")
    if not isinstance(raw, list):
        raise InputError("tinit: rows must be an array of arrays")
    rows = tuple(_num_list("tinit", "rows[%d]" % i, r) for i, r in enumerate(raw))
    return TriangularInit(n, rows)


def dump_tinit(T):
    doc = {"n": T.n, "rows": [list(r) for r in T.rows]}
    return json.dumps(doc, indent=1, allow_nan=False) + "\n"


_LOADERS = {
    "matrix": load_matrix,
    "sigma": load_sigma,
    "chain": load_chain,
    "tinit": load_tinit,
}
# by class name: writing a value imports no module of another kind
_DUMPERS = {
    "BandMatrix": dump_matrix,
    "SpectralFunction": dump_sigma,
    "SpringChain": dump_chain,
    "TriangularInit": dump_tinit,
}


def read_file(path, kind):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("cannot read %s file %r: %s" % (kind, path, exc)) from exc
    return _LOADERS[kind](text)


def write_file(path, value):
    """Write a value of one of the four kinds, or text already dumped."""
    text = value if isinstance(value, str) else _DUMPERS[type(value).__name__](value)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError("cannot write %r: %s" % (path, exc)) from exc
