"""Span tracer that wraps bandspec's public functions from outside.

The tracer replaces each traced function in every ``bandspec`` module
namespace that binds it, because callers look functions up where they
imported them: ``reconstruct.py`` and ``bandmat.py`` hold their own
``linear_combine`` binding, ``cli.py`` its own ``reconstruct``.  Modules
come from ``sys.modules``; the package attribute ``bandspec.reconstruct``
is the function, which shadows the submodule of the same name.

Each call records one span (name, start, end, parent span, op id) in
flat in-memory arrays, which are written out once at the end.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

# (module, function) pairs, named in metrics as "<module>.<function>"
TRACED = (
    ("bandmat", ("validate_band", "to_dense", "shrink_band")),
    ("vecpoly", ("linear_combine", "basis_vector", "trim_small", "height")),
    ("spectral", ("eig_symmetric", "canonical_spectral_function",
                  "transform_spectral_function", "validate_sigma",
                  "merged_jump_matrices")),
    ("reconstruct", ("reconstruct", "gram_schmidt", "matrix_from_basis",
                     "initial_conditions", "height_degeneration_indices")),
    ("springchain", ("build_spring_matrix", "frequencies",
                     "continued_fraction_check")),
    ("fileio", ("read_file", "write_file", "dump_sigma", "dump_matrix")),
    ("cli", ("main", "cmd_validate", "cmd_direct", "cmd_inverse",
             "cmd_spring", "cmd_roundtrip")),
)

SPAN_NAMES = tuple("%s.%s" % (mod, fn) for mod, fns in TRACED for fn in fns)

# bytes moved by the file layer: the size of the file a call read or wrote
_BYTES_ARG = {"fileio.read_file": 0, "fileio.write_file": 0}


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.names = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.op_id = -1
        self.raised = Counter()   # (span name, exception class) -> count
        self.counts = Counter()   # extra per-layer counts
        self._stack = []
        self._saved = []

    def _wrap(self, name_id, fn):
        name = SPAN_NAMES[name_id]
        bytes_arg = _BYTES_ARG.get(name)
        starts, ends, names = self.starts, self.ends, self.names
        parents, ops, stack = self.parents, self.ops, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                self.raised[name, type(exc).__name__] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if bytes_arg is not None:
                self.counts[name + ".bytes"] += os.path.getsize(args[bytes_arg])
            if name == "reconstruct.reconstruct":
                self.counts["reconstruct.candidates"] += result.diagnostics.iterations
            elif name == "cli.main":
                self.counts["cli.exit.%d" % result] += 1
            return result

        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "bandspec" or key.startswith("bandspec."))]
        for mod, fns in TRACED:
            home = sys.modules["bandspec." + mod]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(SPAN_NAMES.index("%s.%s" % (mod, fn)), original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((m, attr, original))
                            setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()
        return False

    def summary(self):
        """Per span name: calls, inclusive ms and self ms."""
        import numpy as np

        names = np.frombuffer(self.names, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        has_parent = parents >= 0
        child_s = np.bincount(parents[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=dur - child_s, minlength=k)
        return {SPAN_NAMES[i]: {"calls": int(calls[i]),
                                "total_ms": 1e3 * float(total[i]),
                                "self_ms": 1e3 * float(self_s[i])}
                for i in range(k)}

    def save(self, path):
        """Write every span as arrays to a compressed .npz file."""
        import numpy as np

        np.savez_compressed(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.names, dtype=np.int32),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            op=np.frombuffer(self.ops, dtype=np.int32),
        )
