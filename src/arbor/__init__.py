"""Exact isoperimetry and amenability analysis for locally finite trees.

The package is organized around one loop: explore a tree through a neighbor
oracle, iterate the leaf-removal operator locally, and either produce finite
subsets witnessing small boundary ratios or certify a positive lower bound
from declared structure bounds. A statistics layer samples random trees and
checks the survival dichotomy numerically. All ratios are exact fractions;
all randomness is seeded.

Each library module lists its public names in its own ``__all__``; the
package surface is their concatenation, after ``__version__``.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .trees import *
from .subsets import *
from .exploration import *
from .fixtures import *
from .trimming import *
from .amenability import *
from .galton_watson import *
from .errors import *

__all__ = [
    "__version__",
    *trees.__all__,
    *subsets.__all__,
    *exploration.__all__,
    *fixtures.__all__,
    *trimming.__all__,
    *amenability.__all__,
    *galton_watson.__all__,
    *errors.__all__,
]
