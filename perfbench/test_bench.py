"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

Run from the repository root with ``python -m pytest perfbench``.  The
workload rounds run here at small degrees, so the whole file takes seconds.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bench_checks as checks  # noqa: E402
import bench_speed  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as wl  # noqa: E402
from trikoorn import cli  # noqa: E402
from trikoorn import operators as tk_operators  # noqa: E402
from trikoorn.koornwinder import TriParams  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink every degree so whole rounds run in well under a second."""
    for name, value in (
        ("EXPAND_N", 8),
        ("SOLVE_N", 6),
        ("SOLVE_GRID", 8),
        ("EDGE_N", 5),
        ("OPERATOR_N", 6),
        ("APPLY_VECTORS", 2),
    ):
        monkeypatch.setattr(wl, name, value)


@pytest.mark.parametrize("inputs", [wl.verify_inputs, wl.transform_inputs, wl.operators_inputs])
def test_inputs_are_deterministic_in_the_seed(inputs):
    first = [inputs(seed, r) for seed in (0, 1, 2**40) for r in range(4)]
    again = [inputs(seed, r) for seed in (0, 1, 2**40) for r in range(4)]
    assert first == again
    assert [inputs(7, r) for r in range(4)] != [inputs(8, r) for r in range(4)]


def test_transform_inputs_stay_in_their_families():
    for r in range(50):
        inp = wl.transform_inputs(3, r)
        for key in ("expand", "solve"):
            assert inp[key]["b"] + inp[key]["c"] > -1.75
        assert inp["edge"]["b"] + inp["edge"]["c"] < -1.75
        assert inp["solve"]["lam"] > 0


@pytest.mark.parametrize("workload", ["transform", "operators"])
def test_rounds_pass_their_checks(small, tmp_path, workload):
    rec = wl.Recorder()
    wl.run_rounds(rec, workload, 5, str(tmp_path), rounds=2)
    assert rec.failed == 0, rec.problems
    assert rec.attempted == len(rec.round_s) * (3 if workload == "transform" else 17 * (1 + wl.APPLY_VECTORS))


def test_verify_report_check_rejects_a_changed_case_count(tmp_path):
    out = str(tmp_path / "eigen")
    assert cli.main(["verify", "--suite", "eigen", "--seed", "3", "--out", out]) == 0
    assert checks.verify_report(out + ".json", "eigen") == []
    with open(out + ".json") as fh:
        rep = json.load(fh)
    rep["suites"][0]["cases"] += 1
    with open(out + ".json", "w") as fh:
        json.dump(rep, fh)
    assert checks.verify_report(out + ".json", "eigen")
    rep["suites"][0]["cases"] -= 1
    rep["overall"] = "fail"
    with open(out + ".json", "w") as fh:
        json.dump(rep, fh)
    assert checks.verify_report(out + ".json", "eigen")


def _expand(tmp_path, name, N, params, fname):
    out = str(tmp_path / fname)
    argv = ["expand", "--name", name, "--N", str(N), "--a", "0.5", "--b", params[0], "--c", params[1], "--out", out]
    assert cli.main(argv) == 0
    return out


def test_unit_vector_check_rejects_a_wrong_coefficient(tmp_path):
    out = _expand(tmp_path, "poly:3,1", 5, ("-0.9", "-0.9"), "p.csv")
    vals = checks.read_coeffs(out, 5)
    assert checks.unit_vector(vals, 3, 1) == []
    vals[4] += 1e-6
    assert checks.unit_vector(vals, 3, 1)


def test_solve_check_rejects_a_wrong_coefficient(tmp_path):
    out = str(tmp_path / "u.csv")
    argv = ["solve", "--lambda", "2.5", "--rhs", "runge", "--N", "6", "--grid", "4", "--a", "0.5", "--b", "1.0"]
    assert cli.main(argv + ["--out", out]) == 0
    u = checks.read_coeffs(out, 6)
    f = checks.read_coeffs(_expand(tmp_path, "runge", 6, ("1.0", "0.0"), "f.csv"), 6)
    assert checks.solve_modes(u, f, 6, 2.5, 0.5, 1.0, 0.0) == []
    vals = checks.read_grid(out + ".grid.csv", 4)
    assert checks.grid_values(u, vals, range(len(vals)), 4, 6, 0.5, 1.0, 0.0) == []
    u[7] *= 1 + 1e-9
    assert checks.solve_modes(u, f, 6, 2.5, 0.5, 1.0, 0.0)


def test_grid_check_rejects_a_wrong_value(tmp_path):
    out = str(tmp_path / "u.csv")
    argv = ["solve", "--lambda", "2.5", "--rhs", "runge", "--N", "6", "--grid", "4", "--a", "0.5", "--b", "1.0"]
    assert cli.main(argv + ["--out", out]) == 0
    u = checks.read_coeffs(out, 6)
    vals = checks.read_grid(out + ".grid.csv", 4)
    vals[9] *= 1 + 1e-9
    assert checks.grid_values(u, vals, [0, 9, 14], 4, 6, 0.5, 1.0, 0.0)
    assert checks.grid_values(u, vals, [0, 14], 4, 6, 0.5, 1.0, 0.0) == []


def _corrupt_at(monkeypatch, fn_name, degree_of):
    """Make cli's `fn_name` return a wrong first value, only at one degree."""
    original = getattr(cli, fn_name)

    def wrong(*args):
        out = original(*args)
        if degree_of(*args) == wrong.degree:
            if hasattr(out, "values"):
                out.values[0] += 1e-6
            else:
                out[0] += 1e-6
        return out

    monkeypatch.setattr(cli, fn_name, wrong)
    return wrong


@pytest.mark.parametrize("slot", ["expand", "expand_edge"])
def test_transform_round_catches_an_error_only_at_the_timed_degree(small, monkeypatch, tmp_path, slot):
    wrong = _corrupt_at(monkeypatch, "analyze", lambda f, N, *rest: N)
    wrong.degree = wl.EXPAND_N if slot == "expand" else wl.EDGE_N
    rec = wl.Recorder()
    wl.run_rounds(rec, "transform", 5, str(tmp_path), rounds=1)
    assert rec.failed == 1, rec.problems
    assert "unit vector" in rec.problems[0]


def test_transform_round_catches_a_wrong_synthesis(small, monkeypatch, tmp_path):
    wrong = _corrupt_at(monkeypatch, "synthesize", lambda vec, pts: vec.basis.maxdeg)
    wrong.degree = wl.SOLVE_N
    monkeypatch.setattr(wl, "GRID_SAMPLE", 45)  # every row of the grid
    rec = wl.Recorder()
    wl.run_rounds(rec, "transform", 5, str(tmp_path), rounds=1)
    assert rec.failed == 1, rec.problems
    assert "pointwise" in rec.problems[0]


def _build(tmp_path, name, N=6, abc=("0.5", "1.5", "2.5")):
    out = str(tmp_path / f"{name}.mtx")
    argv = ["build-op", "--name", name, "--N", str(N), "--a", abc[0], "--b", abc[1], "--c", abc[2], "--out", out]
    assert cli.main(argv) == 0
    return out


def _drop_entry(path, line_no):
    with open(path) as fh:
        lines = fh.read().splitlines()
    del lines[line_no]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_operator_checks_reject_a_dropped_entry(tmp_path):
    q = TriParams(0.5, 1.5, 2.5, 0.0)
    parsed = {}
    for name in wl.COMPOSED_NAMES:
        _, *entries = checks.read_matrix_market(_build(tmp_path, name))
        parsed[name] = entries
        assert checks.same_operator(entries, tk_operators.OP_BUILDERS[name](6, q)) == []
    assert checks.partition_of_unity(*parsed.values(), 6) == []

    parsed["mult_same_y"] = [np.delete(part, 5) for part in parsed["mult_same_y"]]
    assert checks.same_operator(parsed["mult_same_y"], tk_operators.OP_BUILDERS["mult_same_y"](6, q))
    assert checks.partition_of_unity(*parsed.values(), 6)

    # a file missing a line no longer matches its own header
    path = _build(tmp_path, "diff_x")
    _drop_entry(path, 4)
    with pytest.raises(ValueError):
        checks.read_matrix_market(path)


def test_eigen_check_rejects_a_wrong_entry(tmp_path):
    _, *entries = checks.read_matrix_market(_build(tmp_path, "eigen_n"))
    assert checks.eigen_diagonal(entries, "eigen_n", 6, 0.5, 1.5, 2.5) == []
    entries[2][3] += 1.0
    assert checks.eigen_diagonal(entries, "eigen_n", 6, 0.5, 1.5, 2.5)


def test_apply_check_rejects_a_wrong_output():
    op = tk_operators.OP_BUILDERS["mult_same_y"](6, TriParams(0.5, 1.5, 2.5, 0.0))
    vec = tk_operators.CoeffVec(op.domain, np.random.default_rng(0).standard_normal(op.domain.size))
    out = tk_operators.apply_op(op, vec).values
    assert checks.apply_result(op.rows, op.cols, op.vals, vec.values, out) == []
    out[3] += 1e-9
    assert checks.apply_result(op.rows, op.cols, op.vals, vec.values, out)


def _traced_counts(workload, tmp_path):
    tracer = bench_trace.Tracer()
    undo = bench_trace.install(tracer)
    try:
        rec = wl.Recorder(tracer)
        wl.run_rounds(rec, workload, 11, str(tmp_path), rounds=2)
    finally:
        bench_trace.uninstall(undo)
    assert rec.failed == 0, rec.problems
    metrics = bench_trace.layer_metrics(tracer, 0.0)
    assert list(metrics) == bench_trace.metric_names()
    return {k: v for k, v in metrics.items() if v[1] in ("count", "MB")}


@pytest.mark.parametrize("workload", ["transform", "operators"])
def test_traced_counts_repeat_exactly(small, tmp_path, workload):
    first = _traced_counts(workload, tmp_path)
    assert first == _traced_counts(workload, tmp_path)
    assert first["trace.spans"][0] > 0
    key = "koornwinder.table_mb" if workload == "transform" else "operators.nnz"
    assert first[key][0] > 0


def test_uninstall_restores_every_binding():
    from trikoorn import jacobi, koornwinder

    before = (jacobi._shifted_table, koornwinder._shifted_table, cli._shifted_table, dict(cli._SUITE_FUNCS))
    undo = bench_trace.install(bench_trace.Tracer())
    assert cli._shifted_table is not before[2]
    assert cli._shifted_table is jacobi._shifted_table is koornwinder._shifted_table
    assert tk_operators.OP_BUILDERS["diff_x"].__wrapped__ is tk_operators.build_diff_x.__wrapped__
    bench_trace.uninstall(undo)
    assert (jacobi._shifted_table, koornwinder._shifted_table, cli._shifted_table, dict(cli._SUITE_FUNCS)) == before


def test_self_time_excludes_child_spans():
    tracer = bench_trace.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    with tracer.recording():
        outer()
    per = tracer.summary()
    assert per["inner"][0] == 2 and per["outer"][0] == 1
    total = tracer.ends[0] - tracer.starts[0]
    assert per["outer"][1] + per["inner"][1] == pytest.approx(total)
    assert per["outer"][1] < total


def test_speed_scale_prefers_a_kinds_own_probes():
    sampler = bench_speed.Sampler()
    sampler.tags = [None, "a", "a", "b"] + ["a"] * 4 + [None] * 3
    sampler.times = [9.0, 1.0, 1.0, 4.0] + [1.0] * 4 + [2.0] * 3
    nominal = bench_speed.NOMINAL_S
    assert sampler.scale(0, "a") == nominal / 1.0
    # "b" has too few probes of its own: the median of the whole round stands in
    assert sampler.scale(0, "b") == sampler.scale(0) == nominal / 1.0
    assert sampler.scale(8) == nominal / 2.0
    sampler.stream_times = [4.0] * 8 + [8.0] * 3
    assert sampler.scale(0, "a", stream=True) == bench_speed.STREAM_NOMINAL_S / 4.0


def test_sampler_probes_are_taken_out_of_the_call_time():
    def busy():
        t0 = time.process_time()
        while time.process_time() - t0 < 0.8:
            pass

    with bench_speed.Sampler(stream=True) as sampler:
        rec = wl.Recorder(sampler=sampler)
        t0 = time.process_time()
        rec.call("busy", busy)
        total = time.process_time() - t0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert sampler.tags.count("busy") >= bench_speed.MIN_PROBES
    assert len(sampler.stream_times) == len(sampler.times) == len(sampler.tags)
    assert rec.samples["busy"][0] == pytest.approx(total - sampler.spent, abs=1e-3)
    rec.end_round({}, 0.0, 0)
    assert rec.round_means["busy"] == [pytest.approx(rec.samples["busy"][0] * sampler.scale(0, "busy"))]


def test_benchmark_json_lists_every_metric_the_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == bench_trace.metric_names()
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "peak_rss_mb", "round_s", *wl.SLOTS["verify"]}
    assert all(set(slots) == set(wl.SLOTS["verify"]) for slots in wl.SLOTS.values())
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transform", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
