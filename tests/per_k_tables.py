"""The per-k oracle of a family's triangle tables, shared by the table and CLI tests."""

import numpy as np

from trikoorn.jacobi import _homog_table, _shifted_table
from trikoorn.koornwinder import basis_size


def tri_tables_per_k(N, params, x, y, partials):
    """(U, UX, UY) of every element of degree <= N at the points, (U, None, None) without partials.

    The per-k loop the batched tables replaced: one first-factor table per
    k, decided on its own degree N - k, and one row product per (n, k).
    """
    U = np.empty((basis_size(N), x.size))
    UX = np.empty_like(U)
    UY = np.empty_like(U)
    H, Hy, Hs = _homog_table(N, params.c, params.b, y, 1.0 - x, partials=partials)
    for k in range(N + 1):
        A = 2 * k + params.b + params.c + params.d + 1
        Ftab = _shifted_table(N - k, A, params.a, x, nderiv=1 if partials else 0)
        for n in range(k, N + 1):
            i = n * (n + 1) // 2 + k
            U[i] = Ftab[0, n - k] * H[k]
            if partials:
                UX[i] = Ftab[1, n - k] * H[k] - Ftab[0, n - k] * Hs[k]
                UY[i] = Ftab[0, n - k] * Hy[k]
    return (U, UX, UY) if partials else (U, None, None)
