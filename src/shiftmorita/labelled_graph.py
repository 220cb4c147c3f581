"""The labelled graph of a Markov-shift inverse hull.

Vertices are the nonzero D-classes.  For each vertex a and each cover f of
its representative that is not itself a representative of a class below a,
there is one edge into a from every vertex below f's class, all carrying
the label (a, f).  So a graph is fixed by its class order: ``LabelledGraph``
stores only the order and derives its labels and its edges on first use,
the labels from the covers with their guard (``CoreOrder.label_covers``),
one fan of edges per label, each edge's range being its label's vertex.
Equal labels therefore have equal ranges by construction, which is the
strongly-right-resolving property the path algebra relies on.  The covers
and each fan's sources (the bits of ``CoreOrder.down`` at the cover's
class) are read off the class order's bitsets in order, so the labels come
out in ``Label.key`` order and the edges in (label, source) order without
a sort.  ``Label`` and ``Edge`` are named tuples, built, hashed and ordered
as plain tuples.  The combinatorial data's guarded covers are these
labels, and its check takes the witness.

A decision reads the labels only through the class order's counts on
pairs (range vertex, cover class), ``CoreOrder.label_counts``, which the
same rule computes; it builds the ``Label`` tuples only on an EQUIVALENT
verdict, for the witness, and never an edge (``decide`` has the proofs).
The edges are built only for ``to_dot``, the CLI's JSON and
``reference.raw_of``.

``cached_graph`` keeps the graph of each recent matrix, so that repeated
decisions against one matrix build its graph once.  A graph is shared by
every caller that gets it from the cache and is never mutated.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .core_order import CoreOrder, cached_order
from .hull import HullIdempotent, dclass_rep, fmt_idem
from .shift import CACHE_MAXSIZE, TransitionMatrix, _bits

GREEK = "αβγδζηθικλμνξπρστυφχψω"


class Label(NamedTuple):
    """(vertex, cover) pair; the cover's class fixes the source set."""

    vertex: int
    cover: HullIdempotent

    @property
    def src_class(self) -> int:
        return dclass_rep(self.cover)

    def key(self) -> tuple:
        return (self.vertex, self.cover.key())


class Edge(NamedTuple):
    range: int
    label: Label
    source: int


class LabelledGraph:
    """Immutable labelled graph of a class order, whose labels and edges
    are derived from it."""

    def __init__(self, order: CoreOrder):
        self.matrix: TransitionMatrix = order.matrix
        self.order = order
        self.vertices: tuple[int, ...] = order.classes

    @cached_property
    def labels(self) -> tuple[Label, ...]:
        """(a, f) for each class a and each cover f that labels it
        (``CoreOrder.label_covers``), in class order; built on first use."""
        order = self.order
        return tuple(Label(a, f) for a in order.classes for f in order.label_covers(a))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """One edge into each label's vertex from every vertex at or below
        its cover's class (the bits of ``CoreOrder.down`` there), in
        (label, source) order; built on first use."""
        classes, index, down = self.order.classes, self.order.index, self.order.down
        return tuple(
            Edge(lab.vertex, lab, classes[b])
            for lab in self.labels
            for b in _bits(down[index[lab.src_class]])
        )

    @cached_property
    def label_names(self) -> MappingProxyType:
        """Read-only {label: name}: Greek letters in label order, then L<i>."""
        return MappingProxyType(
            {
                lab: (GREEK[i] if i < len(GREEK) else f"L{i}")
                for i, lab in enumerate(self.labels)
            }
        )

    def b_set(self, v: int) -> tuple[int, ...]:
        """B_v: every vertex at or below v in the class order."""
        if v not in self.vertices:
            raise ValueError(f"unknown vertex {v}")
        return self.order.below(v)

    def vertex_name(self, v: int) -> str:
        return self.matrix.fmt_vec(v)


def build_graph(T: TransitionMatrix) -> LabelledGraph:
    return LabelledGraph(cached_order(T))


@lru_cache(maxsize=CACHE_MAXSIZE)
def cached_graph(T: TransitionMatrix) -> LabelledGraph:
    """``build_graph(T)``, built once per matrix while it stays among the
    most recently used."""
    return build_graph(T)


def fmt_label(T: TransitionMatrix, lab: Label) -> str:
    return f"({T.fmt_vec(lab.vertex)},{fmt_idem(T, lab.cover)})"


def _dot_quoted(text: str) -> str:
    """A DOT quoted string: ``"`` escaped.  Every text quoted here ends in
    ``}`` or ``)``, so no backslash comes just before the closing quote."""
    return '"' + text.replace('"', '\\"') + '"'


def to_dot(G: LabelledGraph) -> str:
    """Deterministic DOT text: sorted vertices, edges sorted by label then
    source, labels shown as (class, cover) pairs."""
    out = ["digraph hull {"]
    for v in G.vertices:
        out.append(f"  {_dot_quoted(G.vertex_name(v))};")
    for e in G.edges:
        name = G.label_names[e.label]
        src, rng = _dot_quoted(G.vertex_name(e.source)), _dot_quoted(G.vertex_name(e.range))
        text = _dot_quoted(f"{name}={fmt_label(G.matrix, e.label)}")
        out.append(f"  {src} -> {rng} [label={text}];")
    out.append("}")
    return "\n".join(out) + "\n"
