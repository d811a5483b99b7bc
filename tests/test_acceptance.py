"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion is checked at its stated tolerance; the expensive sweeps are
shared across criteria through session-scoped fixtures so the whole gate
stays well inside the runtime budgets it asserts.
"""

import json
import time

import numpy as np
import pytest

import trikoorn as tk
import trikoorn.cli as cli


# (cases, skipped) per suite of `verify --suite all --seed 0`: a sweep that
# drops or duplicates cases changes these, whatever its residuals
SEED0_COUNTS = {
    "jacobi": (12600, 0),
    "ladders": (485812, 75980),
    "operators": (131, 19),
    "appendix": (33792, 0),
    "eigen": (171, 0),
}


def _report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _blocks_by_name(blocks):
    return {b.name: b for b in blocks}


@pytest.fixture(scope="session")
def jacobi_sweep():
    t0 = time.perf_counter()
    blocks = cli.sweep_jacobi_ladders(0)
    return _blocks_by_name(blocks), time.perf_counter() - t0


@pytest.fixture(scope="session")
def triangle_sweep():
    t0 = time.perf_counter()
    blocks = cli.sweep_triangle_ladders(0)
    return _blocks_by_name(blocks), time.perf_counter() - t0


@pytest.fixture(scope="session")
def operator_sweep():
    return _blocks_by_name(cli.sweep_operator_equivalence(0))


@pytest.fixture(scope="session")
def eigen_sweep():
    return _blocks_by_name(cli.sweep_eigen(0))


def test_criterion_01_interval_ladder_relations(jacobi_sweep):
    blocks, elapsed = jacobi_sweep
    b = blocks["interval_ladders"]
    ok = b.max_residual <= 1e-10 and elapsed < 10.0 and b.cases > 0
    _report(
        1,
        "12 interval ladder relations",
        ok,
        f"max residual {b.max_residual:.3e} <= 1e-10 over {b.cases} cases, {elapsed:.1f}s",
    )


def test_criterion_02_shifted_ladder_relations(jacobi_sweep):
    blocks, elapsed = jacobi_sweep
    b = blocks["shifted_ladders"]
    ok = b.max_residual <= 1e-10 and elapsed < 10.0 and b.cases > 0
    _report(
        2,
        "12 shifted ladder relations",
        ok,
        f"max residual {b.max_residual:.3e} <= 1e-10 over {b.cases} cases, {elapsed:.1f}s",
    )


def test_criterion_03_triangle_ladder_relations(triangle_sweep):
    blocks, elapsed = triangle_sweep
    b = blocks["triangle_ladders"]
    ok = b.max_residual <= 1e-9 and elapsed < 60.0 and b.cases > 0
    _report(
        3,
        "24 triangle ladder relations",
        ok,
        f"max residual {b.max_residual:.3e} <= 1e-9 over {b.cases} cases "
        f"({b.skipped} skipped), {elapsed:.1f}s",
    )


def test_criterion_04_composed_identities(triangle_sweep):
    blocks, _ = triangle_sweep
    b = blocks["composition_identities"]
    ok = b.max_residual <= 1e-9 and b.cases > 0
    _report(
        4,
        "13 composed identities",
        ok,
        f"max residual {b.max_residual:.3e} <= 1e-9 over {b.cases} cases "
        f"({b.skipped} degenerate skips)",
    )


def test_criterion_05_chain_rule_links():
    t0 = time.perf_counter()
    blocks = _blocks_by_name(cli.sweep_product_links(0))
    elapsed = time.perf_counter() - t0
    b = blocks["product_links"]
    ok = b.max_residual <= 1e-10 and b.cases > 0
    _report(
        5,
        "two-route chain-rule links",
        ok,
        f"max residual {b.max_residual:.3e} <= 1e-10 over {b.cases} cases, {elapsed:.1f}s",
    )


def test_criterion_06_operator_equivalence(operator_sweep):
    blocks = operator_sweep
    exact = blocks["exact_equivalence"]
    deriv = blocks["derivative_equivalence"]
    struct = blocks["structure"]
    ok = (
        exact.max_residual <= 1e-10
        and deriv.max_residual <= 1e-7
        and struct.max_residual <= 1e-12
        and exact.cases > 0
        and deriv.cases > 0
    )
    _report(
        6,
        "coefficient-space operator suite",
        ok,
        f"conversion/multiplication {exact.max_residual:.3e} <= 1e-10, "
        f"differentiation {deriv.max_residual:.3e} <= 1e-7, "
        f"structure {struct.max_residual:.3e} <= 1e-12",
    )


def test_criterion_07_orthogonality():
    N, m = 10, 12
    psets = [
        (0.0, 0.0, 0.0, 0.0),
        (1.0, 1.0, 1.0, 0.0),
        (0.5, 1.5, 2.5, 0.0),
        (1.0, 0.0, 2.0, 0.5),
    ]
    worst = 0.0
    for pset in psets:
        G = tk.gram_matrix(N, tk.TriParams(*pset), m)
        diag = np.diag(G)
        off = np.max(np.abs(G - np.diag(diag)))
        worst = max(worst, off / np.max(diag))
    G0 = tk.gram_matrix(N, tk.TriParams(0, 0, 0, 0), m)
    unit = abs(G0[0, 0] - 0.5)
    ok = worst <= 1e-10 and unit <= 1e-12
    _report(
        7,
        "weighted orthogonality",
        ok,
        f"relative off-diagonal {worst:.3e} <= 1e-10 over {len(psets)} parameter sets, "
        f"constant-mode norm error {unit:.3e} <= 1e-12",
    )


def test_criterion_08_diagonal_eigen_operators(eigen_sweep):
    blocks = eigen_sweep
    point = blocks["second_order_pointwise"]
    solve = blocks["solve_residual"]
    ok = (
        point.max_residual <= 1e-5
        and solve.max_residual <= 1e-5
        and point.cases > 0
        and solve.cases == 3
    )
    _report(
        8,
        "diagonal eigen-operators and solve",
        ok,
        f"pointwise {point.max_residual:.3e} <= 1e-5 over {point.cases} cases, "
        f"solve residual {solve.max_residual:.3e} <= 1e-5 over {solve.cases} pairs",
    )


def test_criterion_09_partition_of_unity():
    N = 8
    worst = 0.0
    for pset in [(1.0, 1.0, 1.0), (0.5, 1.5, 2.5), (2.0, 0.5, 1.0)]:
        q = tk.TriParams(*pset, 0.0)
        total = (
            tk.to_dense(tk.build_mult_same_x(N, q))
            + tk.to_dense(tk.build_mult_same_y(N, q))
            + tk.to_dense(tk.build_mult_same_z(N, q))
        )
        eye = np.zeros((tk.basis_size(N + 1), tk.basis_size(N)))
        eye[: tk.basis_size(N), :] = np.eye(tk.basis_size(N))
        worst = max(worst, float(np.max(np.abs(total - eye))))
    ok = worst <= 1e-12
    _report(
        9,
        "partition-of-unity operator identity",
        ok,
        f"entrywise deviation {worst:.3e} <= 1e-12 at N = {N}",
    )


def test_criterion_10_end_to_end_cli(tmp_path):
    first = tmp_path / "run1.txt"
    second = tmp_path / "run2.txt"
    t0 = time.perf_counter()
    code1 = cli.main(["verify", "--suite", "all", "--seed", "0", "--out", str(first)])
    code2 = cli.main(["verify", "--suite", "all", "--seed", "0", "--out", str(second)])
    elapsed = time.perf_counter() - t0
    identical = (
        first.read_bytes() == second.read_bytes()
        and (tmp_path / "run1.txt.json").read_bytes()
        == (tmp_path / "run2.txt.json").read_bytes()
    )
    report = json.loads((tmp_path / "run1.txt.json").read_text())
    counts = {s["suite"]: (s["cases"], s["skipped"]) for s in report["suites"]}
    ok = (
        code1 == 0
        and code2 == 0
        and identical
        and elapsed / 2.0 < 180.0
        and report["overall"] == "pass"
        and counts == SEED0_COUNTS
    )
    _report(
        10,
        "end-to-end verification command",
        ok,
        f"exit 0, all 5 suites pass, {elapsed / 2.0:.0f}s per run < 180s, "
        f"byte-identical reports across equal-seed runs, case/skip counts {counts}",
    )
