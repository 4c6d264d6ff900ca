"""The four seeded workloads.

Each workload is a list of instances drawn from a seed.  An instance
holds generated inputs and its reference answer; ``run()`` is the one
operation the benchmark times and ``judge(result)`` turns its result
into an Outcome.  Instances are grouped in passes, each a fresh draw
over the workload's full grid, and the list is shuffled so that a
partly finished cycle does not favour cheap cells.

Why these workloads (each stresses another layer):

roundtrip_desk
    direct then ``reconstruct`` at desk sizes; the inverse, and in it
    ``vecpoly.linear_combine``, does almost all the work.
inverse_limit
    the same pipeline at N = 48 and 64, where most instances end in the
    refusal path; robustness changes move its outcome fractions.
direct_batch
    the direct problem only (eigendecomposition, ``validate_sigma``,
    ``bandmat``), including Jacobi matrices above the CLI cap and spring
    chains; no inverse work at all.
cli_files
    ``python -m bandspec`` subprocesses on files, so interpreter and
    import cost, ``fileio``, argument parsing and the exit-code contract
    are measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import zlib

import numpy as np

import bandspec as bs
from bandspec import cli, errors, fileio, sampling

import verify as V

WORKLOADS = ("roundtrip_desk", "inverse_limit", "direct_batch", "cli_files")


def grid(ns, Ns):
    """(n, N, j0) with N > n and j0 cycling through every feasible value."""
    return [(n, N, j0) for N in Ns for n in ns if N > n
            for j0 in range(n if N >= n + 2 else 1)]


def judged(instance, result, exc):
    """Outcome of one attempt: the verdict on its result, or on what it raised."""
    if exc is not None:
        return V.exception_outcome(exc, errors)
    return instance.judge(result)


class RoundTrip:
    """Direct then inverse at library defaults; the answer must give back
    the generating matrix, initial values and profile."""

    reconstructs = True

    def __init__(self, rng, n, N, j0, with_T):
        self.cell = "n=%d N=%d" % (n, N)
        self.A = sampling.random_band_matrix(rng, n, N, j0=j0)
        self.T = sampling.random_tinit(rng, n) if with_T else None
        self.m = bs.validate_band(self.A).m
        self.want_T = np.array(self.T.rows) if self.T else np.eye(n)

    def run(self):
        sigma = bs.canonical_spectral_function(self.A)
        if self.T is not None:
            sigma = bs.transform_spectral_function(sigma, self.T)
        return bs.reconstruct(sigma)

    def judge(self, rec):
        return V.judge_inverse(self.A.diags, self.want_T, self.m, self.A.n,
                               rec.matrix.diags, rec.tinit.rows, rec.profile.m)


class Direct:
    """Matrix to spectral function, optionally for initial values T."""

    reconstructs = False

    def __init__(self, cell, A, T=None):
        self.cell = cell
        self.A, self.T = A, T
        self.ref_eigs = np.linalg.eigvalsh(V.dense(A.n, A.N, A.diags))
        self.ref_S = V.jump_sum_reference(T.rows) if T else np.eye(A.n)

    def run(self):
        sigma = bs.canonical_spectral_function(self.A)
        if self.T is not None:
            sigma = bs.transform_spectral_function(sigma, self.T)
        return sigma

    def judge(self, sigma):
        return V.judge_direct(self.ref_eigs, self.ref_S,
                              [j.x for j in sigma.jumps],
                              [j.alpha for j in sigma.jumps])


class Spring:
    """Chain to matrix, shrunk band, spectral function, frequencies and
    the continued-fraction identity at every interior index."""

    reconstructs = False

    def __init__(self, cell, chain):
        self.cell = cell
        self.chain = chain
        self.ref_eigs = np.linalg.eigvalsh(V.chain_matrix(chain.masses, chain.k, chain.kp))
        # the outer diagonal holds kp_2 .. kp_{N-1}; all zero shrinks it away
        self.n = 2 if any(chain.kp[1:chain.N - 1]) else 1

    def run(self):
        A = bs.shrink_band(bs.build_spring_matrix(self.chain))
        sigma = bs.canonical_spectral_function(A)
        freqs = bs.frequencies(A)
        residuals = [bs.continued_fraction_check(self.chain, j)
                     for j in range(2, self.chain.N - 1)]
        return sigma, freqs, residuals

    def judge(self, out):
        sigma, freqs, residuals = out
        d = V.judge_direct(self.ref_eigs, np.eye(self.n),
                           [j.x for j in sigma.jumps], [j.alpha for j in sigma.jumps])
        c = V.judge_chain(self.ref_eigs, self.chain.N - 3, freqs, residuals)
        kind = V.VERIFIED if d.kind == c.kind == V.VERIFIED else V.WRONG
        return V.Outcome(kind, dev=max(d.dev, c.dev), tdev=max(d.tdev, c.tdev))


_M_LINE = re.compile(r"m = \[([0-9, ]*)\], j0 = (\d+)")


def _ints(text):
    return tuple(int(v) for v in text.split(",") if v.strip())


class CliCall:
    """One ``bandspec`` subcommand on files written during set-up."""

    def __init__(self, cell, argv, env, workdir, expect):
        self.cell = cell
        self.argv = argv
        self.env = env
        self.workdir = workdir
        self.expect = expect
        self.reconstructs = argv[0] in ("inverse", "roundtrip")

    def run(self):
        p = subprocess.run([sys.executable, "-m", "bandspec"] + self.argv,
                           env=self.env, cwd=self.workdir, capture_output=True,
                           text=True, timeout=120)
        return p.returncode, p.stdout, p.stderr

    def run_inprocess(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def judge(self, raw):
        code, out, err = raw
        if code != 0:
            return V.exit_outcome(code, err)
        try:
            return getattr(self, "_judge_" + self.argv[0])(out)
        except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError):
            return V.Outcome(V.WRONG, "unparsable output")

    def _judge_validate(self, out):
        m, j0 = _M_LINE.search(out).groups()
        ok = (_ints(m), int(j0)) == (self.expect["m"], self.expect["j0"])
        return V.Outcome(V.VERIFIED if ok else V.WRONG)

    def _judge_direct(self, out):
        with open(self.expect["out"], encoding="utf-8") as fh:
            doc = json.load(fh)
        return V.judge_direct(self.expect["eigs"], self.expect["S"],
                              [j["x"] for j in doc["jumps"]],
                              [j["alpha"] for j in doc["jumps"]])

    def _judge_inverse(self, out):
        with open(self.expect["out"], encoding="utf-8") as fh:
            mat = json.load(fh)
        with open(self.expect["tinit_out"], encoding="utf-8") as fh:
            tin = json.load(fh)
        m = _ints(re.search(r"profile: m = \[([0-9, ]*)\]", out).group(1))
        return V.judge_inverse(self.expect["diags"], self.expect["T"], self.expect["m"],
                               self.expect["n"], mat["diags"], tin["rows"], m)

    def _judge_roundtrip(self, out):
        dev = float(re.search(r"max matrix deviation = (\S+)", out).group(1))
        tdev = float(re.search(r"from identity = (\S+)", out).group(1))
        ok = dev <= V.TOL and tdev <= V.TOL
        return V.Outcome(V.VERIFIED if ok else V.WRONG, dev=dev, tdev=tdev)

    def _judge_spring(self, out):
        residuals = [float(v) for v in re.findall(r"residual = (\S+)", out)]
        freqs = [float(v) for v in out.strip().splitlines()[-1].split(",")]
        return V.judge_chain(self.expect["eigs"], self.expect["interior"], freqs, residuals)


# ---------------------------------------------------------------- builders

def _pipeline_pass(rng, cells):
    return [RoundTrip(rng, n, N, j0, with_T=k % 2 == 1)
            for k, (n, N, j0) in enumerate(cells)]


def _direct_pass(rng, quick):
    out = []
    for k, (n, N, j0) in enumerate(grid((1, 2, 3, 4, 8), (8, 16, 32, 48, 64))):
        A = sampling.random_band_matrix(rng, n, N, j0=j0)
        T = sampling.random_tinit(rng, n) if k % 2 else None
        out.append(Direct("n=%d N=%d" % (n, N), A, T))
    for N in (96, 128):
        for _ in range(1 if quick else 6):
            out.append(Direct("jacobi N=%d" % N, sampling.random_jacobi(rng, N)))
    for N in (8, 16, 32, 64):
        for kind, cut in (("full", None), ("truncated", int(rng.integers(3, N))),
                          ("none", 1)):
            chain = sampling.random_chain(rng, N, zero_kp_from=cut)
            out.append(Spring("chain-%s N=%d" % (kind, N), chain))
    return out


CLI_SIZES = {8: (1, 3), 32: (2, 4), 64: (2, 6)}


def _cli_pass(rng, p, workdir, env, quick):
    out = []
    sizes = {8: CLI_SIZES[8]} if quick else CLI_SIZES
    for k, (N, ns) in enumerate(sizes.items()):
        for n in ns:
            tag = "p%d-n%d-N%d" % (p, n, N)
            A = sampling.random_band_matrix(rng, n, N)
            T = sampling.random_tinit(rng, n)
            profile = bs.validate_band(A)
            eigs = np.linalg.eigvalsh(V.dense(n, N, A.diags))
            files = {k: os.path.join(workdir, "%s-%s.json" % (tag, k))
                     for k in ("matrix", "tinit", "sigma", "d", "dt", "i", "it")}
            fileio.write_file(files["matrix"], A)
            fileio.write_file(files["tinit"], T)
            cell = "n=%d N=%d" % (n, N)

            def call(argv, **expect):
                return CliCall(argv[0] + " " + cell, argv, env, workdir, expect)

            out.append(call(["validate", files["matrix"]], m=profile.m, j0=profile.j0))
            out.append(call(["direct", files["matrix"], "-o", files["d"]],
                            out=files["d"], eigs=eigs, S=np.eye(n)))
            out.append(call(["direct", files["matrix"], "--tinit", files["tinit"],
                             "-o", files["dt"]],
                            out=files["dt"], eigs=eigs, S=V.jump_sum_reference(T.rows)))
            out.append(call(["roundtrip", files["matrix"]]))
            try:
                sigma = bs.transform_spectral_function(bs.canonical_spectral_function(A), T)
            except errors.BandSpecError:
                # no sigma file can be written; the direct calls above
                # already count this matrix's failure
                continue
            fileio.write_file(files["sigma"], sigma)
            out.append(call(["inverse", files["sigma"], "-o", files["i"],
                             "--tinit-out", files["it"]],
                            out=files["i"], tinit_out=files["it"], n=n,
                            diags=A.diags, T=np.array(T.rows), m=profile.m))
        # skip springs truncated on every other chain
        cut = int(rng.integers(3, N)) if (p + k) % 2 else None
        chain = sampling.random_chain(rng, N, zero_kp_from=cut)
        name = os.path.join(workdir, "p%d-N%d-chain.json" % (p, N))
        fileio.write_file(name, chain)
        eigs = np.linalg.eigvalsh(V.chain_matrix(chain.masses, chain.k, chain.kp))
        out.append(CliCall("spring N=%d" % N, ["spring", name, "--cf-check", "--frequencies"],
                           env, workdir, dict(eigs=eigs, interior=N - 3)))
    return out


# passes per run, passes in the traced run
PLAN = {
    "roundtrip_desk": (5, 2),
    "inverse_limit": (3, 1),
    "direct_batch": (12, 6),
    "cli_files": (1, 1),
}


def build(name, seed, workdir, env, quick=False):
    """Instances of one workload in timing order, the traced subset, and
    the warm-up instances: the first ones of the first pass before the
    shuffle, the smallest cells, so warm-up cost does not vary with the
    seed.

    ``quick`` makes one small pass for the benchmark's own tests.
    """
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    passes, trace_passes = (1, 1) if quick else PLAN[name]
    tagged = []
    for p in range(passes):
        if name == "roundtrip_desk":
            batch = _pipeline_pass(rng, grid((1, 2, 3, 4, 8), (8, 16, 32)))
        elif name == "inverse_limit":
            cells = grid((8,), (48,)) if quick else grid(range(1, 9), (48, 64))
            batch = _pipeline_pass(rng, cells)
        elif name == "direct_batch":
            batch = _direct_pass(rng, quick)
        else:
            batch = _cli_pass(rng, p, workdir, env, quick)
        tagged += [(p, inst) for inst in batch]
    warmup = [inst for _, inst in tagged[:2]]
    order = rng.permutation(len(tagged))
    tagged = [tagged[i] for i in order]
    instances = [inst for _, inst in tagged]
    traced = [inst for p, inst in tagged if p < trace_passes]
    return instances, traced, warmup


def planted_errors_caught():
    """Whether the verifiers reject answers known to be wrong: a sigma
    with its first jump coefficient bumped by 1e-3 must not reconstruct
    to a verified answer, and a node moved by 1e-3 must fail the direct
    check."""
    rng = np.random.default_rng(20140913)
    inst = RoundTrip(rng, 2, 8, 1, with_T=False)
    sigma = bs.canonical_spectral_function(inst.A)
    first = sigma.jumps[0]
    bumped = bs.Jump(first.x, (first.alpha[0] + 1e-3,) + first.alpha[1:])
    sigma = bs.SpectralFunction(sigma.n, (bumped,) + sigma.jumps[1:])
    try:
        inverse_caught = inst.judge(bs.reconstruct(sigma)).kind != V.VERIFIED
    except errors.BandSpecError:
        inverse_caught = True
    d = Direct("planted", inst.A)
    jumps = d.run().jumps
    xs = [j.x for j in jumps]
    xs[-1] += 1e-3
    alphas = [j.alpha for j in jumps]
    direct_caught = V.judge_direct(d.ref_eigs, d.ref_S, xs, alphas).kind != V.VERIFIED
    return inverse_caught and direct_caught
