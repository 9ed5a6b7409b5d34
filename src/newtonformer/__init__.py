"""Linear-attention transformers that run Newton-type solvers in-context.

The package provides the numerical iterations (matrix inversion by
Newton-Schulz and its higher-order family, damped Newton on the
regularized logistic loss), mechanical weight constructions that
realize them as linear-attention layers with ReLU feed-forward blocks,
and a reproducible experiment harness.

Each library module's ``__all__`` is the one declaration of its public
names; the package re-exports all of them.  ``cli``, the command-line
front end, stays out.
"""

from . import (builders, datagen, errors, harness, inversion, linalg,
               logistic, pwl, transformer)
from .builders import *
from .datagen import *
from .errors import *
from .harness import *
from .inversion import *
from .linalg import *
from .logistic import *
from .pwl import *
from .transformer import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (builders, datagen, errors, harness, inversion, linalg,
                   logistic, pwl, transformer)
    for name in module.__all__
]
