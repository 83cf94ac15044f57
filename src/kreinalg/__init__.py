"""Finite-dimensional Krein C*-algebras.

Rank-one model, function algebras over finite point sets, graded matrix
algebras with a fundamental symmetry, their spectrum of characters and the
Gelfand transform, plus a CLI that verifies the axioms numerically.  The
package re-exports the ``__all__`` names of its three library modules.
"""

from .kalgebra import *
from .finite_krein import *
from .spectrum import *

__version__ = "0.1.0"
