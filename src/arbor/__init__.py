"""Exact isoperimetry and amenability analysis for locally finite trees.

The package is organized around one loop: explore a tree through a neighbor
oracle, iterate the leaf-removal operator locally, and either produce finite
subsets witnessing small boundary ratios or certify a positive lower bound
from declared structure bounds. A statistics layer samples random trees and
checks the survival dichotomy numerically. All ratios are exact fractions;
all randomness is seeded.

Each library module lists its public names in its own ``__all__``; the
package surface is their concatenation, after ``__version__``.

The statistics layer, ``galton_watson``, is the only module that needs
numpy, and the criterion for a given tree never calls it. So its part of the
surface loads on first read: reading any of its names, or
``arbor.galton_watson`` itself, imports the module and binds all of its
names here. ``dir(arbor)`` lists them without the import, and ``import
arbor`` or a ``classify``, ``trim``, ``cheeger`` or ``fixtures`` command does
not pay for numpy.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .trees import *
from .subsets import *
from .exploration import *
from .fixtures import *
from .trimming import *
from .amenability import *
from .errors import *

# galton_watson.__all__, restated so that reading the surface loads nothing
_GALTON_WATSON = (
    "GWSpec",
    "GWSample",
    "sample",
    "event_path_prob",
    "event_sary_prob",
    "MonteCarloEventResult",
    "monte_carlo_event",
    "GrowthReport",
    "generation_growth_check",
    "DichotomyReport",
    "verify_dichotomy",
)

__all__ = [
    "__version__",
    *trees.__all__,
    *subsets.__all__,
    *exploration.__all__,
    *fixtures.__all__,
    *trimming.__all__,
    *amenability.__all__,
    *_GALTON_WATSON,
    *errors.__all__,
]


def __getattr__(name: str):
    if name != "galton_watson" and name not in _GALTON_WATSON:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # ``from . import galton_watson`` would ask this hook for the name again

    module = importlib.import_module(f"{__name__}.galton_watson")
    globals().update((n, getattr(module, n)) for n in _GALTON_WATSON)
    return globals()[name]


def __dir__():
    return sorted({*globals(), "galton_watson", *_GALTON_WATSON})
