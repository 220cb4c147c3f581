"""Labelled-graph Morita invariant for inverse hulls of Markov shifts."""

from .core_order import CoreOrder, build_order, check_meet_identity, core_of
from .decide import Verdict, decide_morita, graphs_isomorphic_ordered
from .hull import (
    HullIdempotent,
    covers_below,
    dclass_rep,
    idem_leq,
    idem_product,
    make_idem,
)
from .labelled_graph import LabelledGraph, build_graph, to_dot
from .lgis import LgisEngine, check_resolving, run_axiom_suite
from .oracle import Oracle
from .shift import (
    MatrixFormatError,
    TransitionMatrix,
    f_classes,
    follower_of,
    natural_leq,
    parse_matrix,
    word_allowed,
)
from .smorita import CDSet, build_cd, cd_isomorphic, coherent_check

__all__ = [
    "CDSet",
    "CoreOrder",
    "HullIdempotent",
    "LabelledGraph",
    "LgisEngine",
    "MatrixFormatError",
    "Oracle",
    "TransitionMatrix",
    "Verdict",
    "build_cd",
    "build_graph",
    "build_order",
    "cd_isomorphic",
    "check_meet_identity",
    "check_resolving",
    "coherent_check",
    "core_of",
    "covers_below",
    "dclass_rep",
    "decide_morita",
    "f_classes",
    "follower_of",
    "graphs_isomorphic_ordered",
    "idem_leq",
    "idem_product",
    "make_idem",
    "natural_leq",
    "parse_matrix",
    "run_axiom_suite",
    "to_dot",
    "word_allowed",
]
