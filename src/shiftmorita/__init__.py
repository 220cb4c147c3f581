"""Labelled-graph Morita invariant for inverse hulls of Markov shifts.

The package exports the pipeline of the README's library-use section; every
other name lives in its submodule.
"""

from .decide import decide_morita
from .labelled_graph import build_graph
from .shift import InvariantViolation, MatrixFormatError, parse_matrix

__all__ = [
    "InvariantViolation",
    "MatrixFormatError",
    "build_graph",
    "decide_morita",
    "parse_matrix",
]
