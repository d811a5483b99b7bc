"""Argument checks of the public API: each raises its exception with a message."""

import numpy as np
import pytest

import trikoorn as tk

_Q = tk.TriParams(0.5, 0.5, 0.5, 0.0)


def _op_file(tmp_path, edit):
    """Path of a saved diff_y operator after edit(path) changed its files."""
    path = tmp_path / "op.mtx"
    tk.save_matrix_market(tk.build_diff_y(2, _Q), path)
    edit(path)
    return path


def _replace_line(path, i, line):
    lines = path.read_text().splitlines()
    lines[i] = line
    path.write_text("\n".join(lines) + "\n")


def _values_csv(tmp_path, text):
    path = tmp_path / "v.csv"
    path.write_text(text)
    return path


# (id, call(tmp_path), exception type, a fragment of its message)
_RAISES = [
    ("linear_to_index", lambda p: tk.linear_to_index(-1), ValueError, "linear index must be a nonnegative integer"),
    ("point_shape", lambda p: tk.basis_eval_all(2, _Q, np.zeros((3, 3))), ValueError, "points must have shape (npts, 2)"),
    ("basis_degree", lambda p: tk.basis_eval_all(-1, _Q, np.zeros((3, 2))), ValueError, "maximum degree must be nonnegative"),
    ("two_routes_x1", lambda p: tk.jjp_residual(tk.TriIndex(2, 1), _Q, tk.TriPoint(1.0, 0.0)), ValueError,
     "left route requires x < 1"),
    ("ladder_axis", lambda p: tk.LadderId("z", 1), ValueError, "axis must be 'x' or 'y'"),
    ("ladder_label", lambda p: tk.LadderId("y", 7), ValueError, "label must be in 1..6"),
    ("ladder_dagger", lambda p: tk.LadderId("y", 1, 1), ValueError, "dagger must be a bool"),
    ("composition_id", lambda p: tk.composition_residual("dx", tk.TriIndex(1, 0), _Q, tk.TriPoint(0.3, 0.3)),
     ValueError, "unknown composition id"),
    ("basis_maxdeg", lambda p: tk.BasisTag(_Q, False, -1), ValueError, "maxdeg must be a nonnegative integer"),
    ("weighted_d", lambda p: tk.BasisTag(tk.TriParams(0.5, 0.5, 0.5, 0.5), True, 2), ValueError,
     "weighted bases require d = 0"),
    ("coeff_length", lambda p: tk.CoeffVec(tk.BasisTag(_Q, False, 1), np.zeros(2)), ValueError,
     "coefficient vector must have length 3"),
    ("triplet_column", lambda p: tk.SparseOp.from_triplets(
        tk.BasisTag(_Q, False, 1), tk.BasisTag(_Q, False, 1), [0], [3], [1.0]), ValueError, "column index out of range"),
    ("build_degree", lambda p: tk.build_diff_x(2.5, _Q), ValueError, "maximum degree must be a nonnegative integer"),
    ("matrix_header", lambda p: tk.load_matrix_market(_op_file(p, lambda f: _replace_line(f, 0, "%%MatrixMarket"))),
     ValueError, "unsupported matrix header"),
    ("matrix_sizes", lambda p: tk.load_matrix_market(_op_file(p, lambda f: _replace_line(f, 1, "6 6 3"))),
     ValueError, "matrix dimensions do not match the descriptor basis sizes"),
    ("sampled_values", lambda p: tk.analyze(np.zeros(5), 2, _Q), ValueError, "sampled values must match the rule nodes"),
    ("values_header", lambda p: tk.load_values_csv(_values_csv(p, "x,y,u\n0.1,0.2,1.0\n")), ValueError,
     "expected header 'x,y,value'"),
]


@pytest.mark.parametrize("call, error, fragment", [case[1:] for case in _RAISES], ids=[case[0] for case in _RAISES])
def test_public_calls_raise_with_a_message(call, error, fragment, tmp_path):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert fragment in str(info.value)


def test_derived_coordinates_take_their_values():
    # z = 1 - x - y, and uz = uy - ux is the derivative along the third direction
    assert tk.TriPoint(0.25, 0.5).z == 0.25
    np.testing.assert_array_equal(tk.TriPoint(np.array([0.5, 0.0]), [0.25, 1.0]).z, [0.25, 0.0])
    assert tk.Jet2(1.0, 0.5, -0.25).uz == -0.75
