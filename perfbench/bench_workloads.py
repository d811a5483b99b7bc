"""Seeded inputs and closed-loop rounds of the three workloads.

One caller issues every command and starts the next only after the
previous one returns.  A round is the workload's fixed command sequence;
its inputs come from (workload seed, round number) alone.  Only the user
calls are timed; each output is then checked by bench_checks, and an
operation whose call fails or whose check fails counts as failed.
"""

from __future__ import annotations

import os
import random
import time
import traceback
from collections import defaultdict

import numpy as np

import bench_checks as checks
from trikoorn import cli
from trikoorn import operators as tk_operators
from trikoorn.koornwinder import TriParams
from trikoorn.operators import CoeffVec

VERIFY_SUITES = ("jacobi", "ladders", "operators", "appendix", "eigen")

# The 17 builder names README.md documents for `build-op`.
OPERATOR_NAMES = (
    "diff_x",
    "diff_y",
    "diff_z",
    "weighted_diff_x",
    "weighted_diff_y",
    "weighted_diff_z",
    "conv_a",
    "conv_b",
    "conv_c",
    "mult_x",
    "mult_y",
    "mult_z",
    "mult_same_x",
    "mult_same_y",
    "mult_same_z",
    "eigen_k",
    "eigen_n",
)
COMPOSED_NAMES = ("mult_same_x", "mult_same_y", "mult_same_z")

# Degrees.  N = 200 is absent on purpose: today's dense points x basis
# table there is 6.6 GB and the process is OOM-killed on a 7 GB machine.
EXPAND_N = 100
SOLVE_N = 60
SOLVE_GRID = 200
EDGE_N = 20
OPERATOR_N = 150
# Applies per built operator: the two trial vectors that the program's own
# operator sweep (cli.sweep_operator_equivalence, ntrials=2) applies to each
# operator it builds.
APPLY_VECTORS = 2
# Grid rows of each solve output checked against pointwise evaluation.
GRID_SAMPLE = 16

# Parameter grids.  Transform parameters keep b + c > -1.75 so both Jacobi
# tables take the recurrence.  The edge family has b = c = -0.9, so
# b + c < -1.75 and the second-factor table drops to the explicit sum; its
# cost varies by about 10% across EDGE_A, against 40% once b or c moves to
# -0.875.  Operator builders need a, b, c > 0 for mult_same_*, and d = 0
# throughout.
TRANSFORM_A = (0.0, 0.5, 1.0, 1.5, 2.0)
TRANSFORM_BC = (-0.5, 0.0, 0.5, 1.0, 1.5)
EDGE_A = (-0.5, 0.0, 0.5, 1.0)
EDGE_BC = -0.9
OPERATOR_ABC = (0.5, 1.0, 1.5, 2.0, 2.5)

# Per workload: which timed kind feeds each generic end-to-end slot.
SLOTS = {
    "verify": {"call_a_s": "jacobi", "call_b_s": "ladders", "call_c_s": "appendix"},
    "transform": {"call_a_s": "expand", "call_b_s": "solve", "call_c_s": "expand_edge"},
    "operators": {"call_a_s": "build_op", "call_b_s": "apply", "call_c_s": "build_op_composed"},
}
# Kinds scaled by bench_speed's stream probe instead of its interpreter
# probe, because memory traffic bounds them.  expand and solve sweep tables
# of hundreds of MB: per call over a minute, the interpreter probe widened
# their spread from 0.13-0.18 to 0.18-0.24, the stream probe narrowed it to
# 0.07-0.14.  apply_op scatters over arrays of a few MB: over seven runs its
# spread was 0.14 raw, 0.16 by the interpreter probe and 0.013 by the
# stream probe.
STREAM_KINDS = ("expand", "solve", "apply")
# Kinds whose samples copy another kind's; they stay out of round totals.
COPIED_KINDS = ("build_op_composed",)

# The clock of every timed call: CPU time of this process (user + system).
# The run is one thread with one BLAS thread, so CPU time is the call's cost
# without the time the process spends descheduled on a shared host.  The
# probes of bench_speed use the same clock.
CLOCK = time.process_time

# Rounds of a traced run: a fixed amount of work, so its counts repeat.
TRACED_ROUNDS = {"verify": 1, "transform": 2, "operators": 1}


def _rng(workload, seed, r):
    # str seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{r}")


def verify_inputs(seed, r):
    # the workload seed is the verify seed, as a user would pass it; later
    # rounds (runs longer than one pass) take the following seeds
    return {"seed": seed + r}


def _abc(rng, a_grid, bc_grid):
    return {"a": rng.choice(a_grid), "b": rng.choice(bc_grid), "c": rng.choice(bc_grid)}


def transform_inputs(seed, r):
    rng = _rng("transform", seed, r)
    expand = _abc(rng, TRANSFORM_A, TRANSFORM_BC)
    n = rng.randrange(EXPAND_N + 1)
    expand["poly"] = (n, rng.randrange(n + 1))
    solve = _abc(rng, TRANSFORM_A, TRANSFORM_BC)
    # every eigenvalue -n(n+a+b+c+2) is <= 0, so lambda > 0 is never resonant
    solve["lam"] = round(rng.uniform(0.5, 20.0), 3)
    npts = (SOLVE_GRID + 1) * (SOLVE_GRID + 2) // 2
    solve["grid_rows"] = sorted(rng.sample(range(npts), GRID_SAMPLE))
    # rounds cycle through EDGE_A from a seeded offset, so every run of a few
    # rounds meets each edge parameter about equally often
    offset = _rng("transform", seed, "edge").randrange(len(EDGE_A))
    edge = {"a": EDGE_A[(offset + r) % len(EDGE_A)], "b": EDGE_BC, "c": EDGE_BC}
    n = rng.randrange(EDGE_N + 1)
    edge["poly"] = (n, rng.randrange(n + 1))
    return {"expand": expand, "solve": solve, "edge": edge}


def operators_inputs(seed, r):
    rng = _rng("operators", seed, r)
    return {
        "a": rng.choice(OPERATOR_ABC),
        "b": rng.choice(OPERATOR_ABC),
        "c": rng.choice(OPERATOR_ABC),
        "rebuild": sorted(rng.sample(OPERATOR_NAMES, 2)),
        "vectors": rng.randrange(2**32),
    }


class Recorder:
    """Timed samples per kind, plus attempted and failed operation counts.

    ``samples[kind]`` holds the CPU time of every call.  With a
    ``bench_speed.Sampler``, each call's probes are taken out of its time,
    and ``round_means[kind]`` is scaled to the nominal host speed (see
    bench_speed), by the stream probe if the kind is in STREAM_KINDS.
    ``round_means[kind]`` is the mean time per call of each round, which is
    steadier where one kind mixes several operators of different cost;
    ``round_s`` is the round's total over all calls, each kind scaled so.
    """

    def __init__(self, tracer=None, sampler=None):
        self.tracer = tracer
        self.sampler = sampler
        self.samples = defaultdict(list)
        self.round_means = defaultdict(list)
        self.round_s = []
        self.round_raw_s = []
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, kind, fn, *args):
        """Time one user call; returns (result, error text or None)."""
        out, err = None, None
        sampler = self.sampler
        if sampler is not None:
            sampler.tag = kind
            probed = sampler.spent
        t0 = CLOCK()
        try:
            if self.tracer is None:
                out = fn(*args)
            else:
                with self.tracer.recording():
                    out = fn(*args)
        except Exception:
            err = traceback.format_exc(limit=3)
        dt = CLOCK() - t0
        if sampler is not None:
            sampler.tag = None
            dt -= sampler.spent - probed
        self.samples[kind].append(dt)
        self.busy_s += dt
        return out, err

    def end_round(self, done, busy, probes):
        """Close a round that began with `done` samples per kind, `busy` s and `probes` probes."""
        total = 0.0
        for kind, s in list(self.samples.items()):
            new = s[done.get(kind, 0) :]
            if not new:
                continue
            scale = 1.0
            if self.sampler is not None:
                scale = self.sampler.scale(probes, kind, stream=kind in STREAM_KINDS)
            self.round_means[kind].append(scale * sum(new) / len(new))
            if kind not in COPIED_KINDS:
                total += scale * sum(new)
        self.round_s.append(total)
        self.round_raw_s.append(self.busy_s - busy)

    def outcome(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _checked(check, *args):
    """Run a check; an exception while reading an output is a failed check."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{check.__name__}: {exc}"]


def _cli(rec, kind, argv):
    rc, err = rec.call(kind, cli.main, argv)
    if err is not None:
        return [f"{' '.join(argv[:3])}: raised\n{err}"]
    return [] if rc == 0 else [f"{' '.join(argv)}: exit {rc}"]


def _params_argv(p):
    return ["--a", repr(p["a"]), "--b", repr(p["b"]), "--c", repr(p["c"])]


def verify_round(rec, inp, work):
    for suite in VERIFY_SUITES:
        out = os.path.join(work, f"verify-{suite}")
        problems = _cli(rec, suite, ["verify", "--suite", suite, "--seed", str(inp["seed"]), "--out", out])
        rec.outcome(problems or _checked(checks.verify_report, out + ".json", suite))


def _poly_check(p, N, work):
    """Expand a seeded basis element with the CLI and expect its unit vector.

    N is the degree of the timed call, so the check runs the same rule and
    table sizes as the call it vouches for.
    """
    n, k = p["poly"]
    out = os.path.join(work, "poly.csv")
    rc = cli.main(["expand", "--name", f"poly:{n},{k}", "--N", str(N), *_params_argv(p), "--out", out])
    if rc != 0:
        return [f"expand poly:{n},{k}: exit {rc}"]
    return _checked(checks.unit_vector_file, out, N, n, k)


def _solve_check(p, u_path, work):
    f_path = os.path.join(work, "solve-rhs.csv")
    argv = ["expand", "--name", "runge", "--N", str(SOLVE_N), *_params_argv(p), "--out", f_path]
    if cli.main(argv) != 0:
        return ["expand of the solve right-hand side failed"]

    def modes():
        u = checks.read_coeffs(u_path, SOLVE_N)
        f = checks.read_coeffs(f_path, SOLVE_N)
        return checks.solve_modes(u, f, SOLVE_N, p["lam"], p["a"], p["b"], p["c"])

    def grid():
        u = checks.read_coeffs(u_path, SOLVE_N)
        vals = checks.read_grid(u_path + ".grid.csv", SOLVE_GRID)
        return checks.grid_values(u, vals, p["grid_rows"], SOLVE_GRID, SOLVE_N, p["a"], p["b"], p["c"])

    return _checked(modes) + _checked(grid)


def transform_round(rec, inp, work):
    p = inp["expand"]
    out = os.path.join(work, "expand.csv")
    problems = _cli(rec, "expand", ["expand", "--name", "runge", "--N", str(EXPAND_N), *_params_argv(p), "--out", out])
    rec.outcome(problems or _checked(checks.coeffs_file, out, EXPAND_N) or _poly_check(p, EXPAND_N, work))

    p = inp["solve"]
    out = os.path.join(work, "solve.csv")
    argv = ["solve", "--lambda", repr(p["lam"]), "--rhs", "runge", "--N", str(SOLVE_N)]
    argv += ["--grid", str(SOLVE_GRID), *_params_argv(p), "--out", out]
    problems = _cli(rec, "solve", argv)
    rec.outcome(problems or _solve_check(p, out, work))

    p = inp["edge"]
    out = os.path.join(work, "edge.csv")
    problems = _cli(rec, "expand_edge", ["expand", "--name", "runge", "--N", str(EDGE_N), *_params_argv(p), "--out", out])
    rec.outcome(problems or _checked(checks.coeffs_file, out, EDGE_N) or _poly_check(p, EDGE_N, work))


def _operator_file_check(name, path, inp, parsed):
    """Parse one build-op output; compare it with closed forms and rebuilds."""
    desc, *entries = checks.read_matrix_market(path)
    parsed[name] = (desc, entries)
    a, b, c = inp["a"], inp["b"], inp["c"]
    if desc["name"] != name or [float(desc[f"domain.{x}"]) for x in "abcd"] != [a, b, c, 0.0]:
        return [f"{name}: descriptor names {desc['name']} at the wrong parameters"]
    problems = []
    if name in ("eigen_k", "eigen_n"):
        problems += checks.eigen_diagonal(entries, name, OPERATOR_N, a, b, c)
    if name in inp["rebuild"]:
        built = tk_operators.OP_BUILDERS[name](OPERATOR_N, TriParams(a, b, c, 0.0))
        problems += checks.same_operator(entries, built)
    if name == COMPOSED_NAMES[-1]:
        problems += checks.partition_of_unity(*(parsed[n][1] for n in COMPOSED_NAMES), OPERATOR_N)
    return problems


def operators_round(rec, inp, work):
    """Each build-op is checked, reloaded and applied to seeded vectors, before the next.

    The operator is applied as a user gets it after `build-op --out`: read
    back with the library's own loader (untimed).  The benchmark's
    independent parse of the same file is the reference for each result.
    Interleaving spreads the apply calls over the whole round.
    """
    abc = {k: inp[k] for k in "abc"}
    vec_rng = np.random.default_rng(inp["vectors"])
    parsed = {}
    for name in OPERATOR_NAMES:
        path = os.path.join(work, f"{name}.mtx")
        argv = ["build-op", "--name", name, "--N", str(OPERATOR_N), *_params_argv(abc), "--out", path]
        problems = _cli(rec, "build_op", argv)
        if name in COMPOSED_NAMES:
            rec.samples["build_op_composed"].append(rec.samples["build_op"][-1])
        rec.outcome(problems or _checked(_operator_file_check, name, path, inp, parsed))
        if name not in parsed:
            continue
        op = tk_operators.load_matrix_market(path)
        rows, cols, vals = parsed[name][1]
        for _ in range(APPLY_VECTORS):
            vec = CoeffVec(op.domain, vec_rng.standard_normal(op.domain.size))
            out, err = rec.call("apply", tk_operators.apply_op, op, vec)
            if err is not None:
                rec.outcome([f"apply_op {name}: raised\n{err}"])
            else:
                rec.outcome(checks.apply_result(rows, cols, vals, vec.values, out.values))


WORKLOADS = {
    "verify": (verify_inputs, verify_round),
    "transform": (transform_inputs, transform_round),
    "operators": (operators_inputs, operators_round),
}


def run_rounds(rec, workload, seed, work, rounds=None, seconds=None):
    """Run whole rounds: a fixed number, or rounds started until `seconds` have passed.

    With `seconds`, a round starts while the time is not yet up and then
    runs to its end, checks included, so a run does at least one round.
    """
    inputs, one_round = WORKLOADS[workload]
    start = time.perf_counter()
    r = 0
    while r < (rounds or 1) or (rounds is None and time.perf_counter() - start < seconds):
        done = {kind: len(s) for kind, s in rec.samples.items()}
        busy = rec.busy_s
        probes = len(rec.sampler.times) if rec.sampler is not None else 0
        one_round(rec, inputs(seed, r), work)
        rec.end_round(done, busy, probes)
        r += 1
