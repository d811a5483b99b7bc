"""Orthogonal polynomials on the reference triangle.

Four-parameter orthogonal polynomial basis on the triangle
x >= 0, y >= 0, x + y <= 1, with parameter-shifting ladder operators,
sparse coefficient-space operators, and collapsed-coordinate quadrature
transforms.
"""

__version__ = "0.1.0"

from . import jacobi, koornwinder, ladders, operators, transform
from .jacobi import *
from .koornwinder import *
from .ladders import *
from .operators import *
from .transform import *

__all__ = [
    "__version__",
    *jacobi.__all__,
    *koornwinder.__all__,
    *ladders.__all__,
    *operators.__all__,
    *transform.__all__,
]
