"""Span tracer for the benchmark's traced runs.

A traced run wraps the functions each trikoorn module exposes to the
others.  Every call records one span (name, start, end, parent) in memory;
the spans are written out once, when the run ends.  Self time of a span is
its duration minus the time its child spans cover, so a boundary's
``self_s`` holds its own work plus that of any untraced helper it calls.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager

# Boundary functions per layer (module).  A name is wrapped in every trikoorn
# namespace and module-level dict that binds it, because cli and koornwinder
# import the underscore helpers directly and cli dispatches through dicts.
BOUNDARIES = {
    "jacobi": (
        "_shifted_table",
        "_homog_table",
        "jacobi_ladder_step",
        "shifted_ladder_step",
        "jacobi_ladder_pointwise",
        "shifted_ladder_pointwise",
        "jacobi_eval",
        "shifted_jacobi_eval",
        "homog_shifted_eval",
    ),
    "koornwinder": (
        "_tri_tables",
        "basis_eval_all",
        "tri_eval",
        "tri_eval_jet",
        "jjp_residual",
        "jpj_residual",
    ),
    "ladders": ("ladder_step", "ladder_pointwise", "composition_residual"),
    # CSV writers only: no workload reads a CSV (solve and expand take
    # built-in functions), so the readers would always count zero.
    "transform": (
        "gauss_jacobi_rule",
        "duffy_rule",
        "analyze",
        "synthesize",
        "save_coeffs_csv",
        "save_values_csv",
    ),
    "operators": (
        "build_diff_x",
        "build_diff_y",
        "build_diff_z",
        "build_weighted_diff_x",
        "build_weighted_diff_y",
        "build_weighted_diff_z",
        "build_conv_a",
        "build_conv_b",
        "build_conv_c",
        "build_mult_x",
        "build_mult_y",
        "build_mult_z",
        "build_mult_same_x",
        "build_mult_same_y",
        "build_mult_same_z",
        "build_eigen_k",
        "build_eigen_n",
        "compose",
        "apply_op",
        "matrix_market_text",
        "save_matrix_market",
    ),
    "cli": (
        "main",
        "run_suite",
        "sweep_jacobi_ladders",
        "sweep_triangle_ladders",
        "sweep_operator_equivalence",
        "sweep_product_links",
        "sweep_eigen",
    ),
}

# cli boundaries are called a fixed, trivial number of times per command, so
# only their self time (loop and residual overhead) is reported.
_SELF_ONLY_LAYERS = ("cli",)


def _count_table(tracer, out):
    tracer.table_bytes_max = max(tracer.table_bytes_max, out[0].nbytes)


def _count_nnz(tracer, out):
    tracer.nnz += out.nnz


def _hook(layer, name):
    if layer == "koornwinder" and name == "_tri_tables":
        return _count_table
    if layer == "operators" and name.startswith("build_"):
        return _count_nnz
    return None


class Tracer:
    """Records spans around wrapped calls while ``active`` is true."""

    def __init__(self):
        self.names = []
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.active = False
        self.table_bytes_max = 0
        self.nnz = 0
        self._stack = []

    def wrap(self, name, fn, on_return=None):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends, stack = self.name_ids, self.parents, self.starts, self.ends, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def recording(self):
        """Record spans inside the block only (checks and set-up stay out)."""
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    def summary(self):
        """Per boundary: exact call count and self time in seconds."""
        cover = array("d", bytes(8 * len(self.starts)))
        for p, s, e in zip(self.parents, self.starts, self.ends):
            if p >= 0:
                cover[p] += e - s
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for nid, s, e, c in zip(self.name_ids, self.starts, self.ends, cover):
            calls[nid] += 1
            self_s[nid] += e - s - c
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def write(self, path):
        """Write every span: a JSON header line, then the four raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "arrays": [
                ["name_id", self.name_ids.typecode],
                ["parent", self.parents.typecode],
                ["start_s", self.starts.typecode],
                ["end_s", self.ends.typecode],
            ],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def install(tracer):
    """Wrap every boundary wherever a loaded trikoorn namespace binds it.

    Returns the undo list for :func:`uninstall`.
    """
    wrapped = {}
    for layer, names in BOUNDARIES.items():
        mod = sys.modules[f"trikoorn.{layer}"]
        for name in names:
            fn = getattr(mod, name)
            wrapped[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn, _hook(layer, name)))
    modules = [m for key, m in sorted(sys.modules.items()) if key == "trikoorn" or key.startswith("trikoorn.")]
    undo = []
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if id(val) in wrapped and wrapped[id(val)][0] is val:
                setattr(mod, key, wrapped[id(val)][1])
                undo.append((vars(mod), key, val))
            elif isinstance(val, dict):
                for k2, v2 in list(val.items()):
                    if id(v2) in wrapped and wrapped[id(v2)][0] is v2:
                        val[k2] = wrapped[id(v2)][1]
                        undo.append((val, k2, v2))
    return undo


def uninstall(undo):
    for namespace, key, original in reversed(undo):
        namespace[key] = original


def metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []
    for layer, names in BOUNDARIES.items():
        for name in names:
            if layer not in _SELF_ONLY_LAYERS:
                out.append(f"{layer}.{name}.calls")
            out.append(f"{layer}.{name}.self_s")
        out.append(f"{layer}.self_s")
    out += [
        "koornwinder.table_mb",
        "operators.nnz",
        "trace.spans",
        "trace.overhead_s",
    ]
    return out


def layer_metrics(tracer, overhead_s):
    """Per-layer metrics of a finished traced run, keyed as metric_names()."""
    per = tracer.summary()
    out = {}
    for layer, names in BOUNDARIES.items():
        total = 0.0
        for name in names:
            calls, self_s = per[f"{layer}.{name}"]
            total += self_s
            if layer not in _SELF_ONLY_LAYERS:
                out[f"{layer}.{name}.calls"] = (calls, "count")
            out[f"{layer}.{name}.self_s"] = (self_s, "s")
        out[f"{layer}.self_s"] = (total, "s")
    out["koornwinder.table_mb"] = (tracer.table_bytes_max / 1e6, "MB")
    out["operators.nnz"] = (tracer.nnz, "count")
    out["trace.spans"] = (len(tracer.starts), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
