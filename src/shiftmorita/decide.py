"""Morita equivalence of two Markov shifts via labelled-graph isomorphism.

Two inverse hulls are Morita equivalent exactly when their labelled graphs
are isomorphic with the vertex map an order isomorphism.  Since equal
labels force equal ranges and every label's edge fan covers the down-set
of its cover's class, a vertex bijection extends to a full isomorphism iff
it matches the order relation and, for every pair (vertex, class), the
number of labels at the vertex whose cover lies in that class.

``order_isomorphisms`` enumerates those bijections between two class
orders, pruned by vertex profiles and checked on down-sets only; it reads
the counts that each order computes once (``CoreOrder.label_counts``).  The
first bijection it yields decides: ``_extend_witness`` zips the two
graphs' label groups along it, and every such map extends to a witness, so
a failure to extend is an ``InvariantViolation``.

A decision reads the graphs' counts only off their class orders: one
comparison of the sorted profiles gates the search, and the certificate
reads the vertex, label and edge counts off the same profiles
(``order_isomorphisms`` and ``_INVARIANTS`` have the proofs).  So
the ``Label`` tuples are built only on an EQUIVALENT verdict, for the
witness, and no decision builds an edge.  The witness is re-verified fan
by fan: the edges are exactly one fan per label, from the down-set of its
cover class into its vertex, so once the vertex map carries each down-set
onto the down-set of its image, a label's fan goes onto its image's fan
exactly when the vertex map takes the label's vertex and cover class to
those of the image (``verify_witness`` has the proof).

``decide_morita`` first compares the two class counts, ``len(f_classes(T))``,
and a difference decides with no order, graph or CD built.  The verdict is
exact: ``build_order`` takes ``classes = f_classes(T)`` and
``LabelledGraph.vertices`` is ``order.classes``, so the count is the graph's
vertex count, the first invariant the certificate reads, and the search
rejects on it too.  It reads nothing the order computes, so it leaves no
check of the order unmade; those run on every matrix in
``sweeps.sweep_order`` and the acceptance tests.  When the counts agree it
takes both graphs from ``labelled_graph.cached_graph``, so that comparing
many matrices against a few builds each graph once.  Under
``cross_check`` the witness is carried on to the combinatorial data
(``smorita``): its vertex map moves the class representatives, its label
map the guarded covers, and the map must pass the full product table.
A negative verdict carries the first invariant that differs, read off
the counts that each class order computes once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

# f_classes is looked up on core_order at each call, where bench/spans.py
# wraps it
from . import core_order
from .core_order import CoreOrder
# build_graph stays a module attribute here, where bench/spans.py wraps it
from .labelled_graph import Label, LabelledGraph, build_graph, cached_graph
from .shift import InvariantViolation, TransitionMatrix, _bits


@dataclass(frozen=True)
class IsoWitness:
    """Vertex and label bijections, as tuple-pair maps.  An edge is the
    triple (range, label, source), so its image is read off the two."""

    vertex_map: tuple[tuple[int, int], ...]
    label_map: tuple[tuple[Label, Label], ...]


@dataclass(frozen=True)
class Verdict:
    equivalent: bool
    witness: "IsoWitness | None"
    certificate: "str | None"


def order_isomorphisms(o1: CoreOrder, o2: CoreOrder) -> Iterator[dict[int, int]]:
    """The count-preserving order isomorphisms, depth-first with an
    explicit stack.  Class i of o1 is fixed at depth i; its candidates, the
    classes of o2 with its profile, are tried in index order and kept when
    the down-sets and the counts agree with every class fixed so far.

    The down-sets alone make the map an order isomorphism.  ``build_order``
    lists every class after the classes below it (it checks this as
    triangularity), so when class i is fixed its whole down-set is fixed.
    The map is injective and the profiles carry |down|, so the images of
    ``o1.down[i]`` equal ``o2.down[j]`` on the fixed classes exactly when
    they equal ``o2.down[j]``.  So each
    down-set goes onto a down-set, a <= b exactly when sigma a <= sigma b,
    and the up-sets need no check of their own.

    Orders whose sorted profiles differ are refused before the search: such
    a map carries each class's profile onto its image's, so their
    multisets agree.  Then both orders have k classes and every profile of
    o1 has a candidate.  The multisets carry the vertex, label and edge
    counts (``_INVARIANTS``), so no count is compared apart.
    """
    if o1.sorted_profile != o2.sorted_profile:
        return
    c1, c2 = o1.label_counts, o2.label_counts
    by_profile: dict[tuple, list[int]] = {}
    for j, p in enumerate(c2.profile):
        by_profile.setdefault(p, []).append(j)
    cands = [by_profile[p] for p in c1.profile]
    k = len(cands)
    # perm[i]: the s2 class of s1's class i, -1 while unfixed
    perm = [-1] * k
    fixed = 0

    def fits(i: int, j: int) -> bool:
        got = 0
        for c in _bits(o1.down[i]):
            got |= 1 << perm[c]
        return got == o2.down[j] and all(
            {perm[c]: n for c, n in r1 if c <= i}
            == {w: n for w, n in r2 if w == j or fixed >> w & 1}
            for r1, r2 in ((c1.at[i], c2.at[j]), (c1.into[i], c2.into[j]))
        )

    stack = [iter(cands[0])]
    while stack:
        i = len(stack) - 1
        if perm[i] >= 0:
            fixed ^= 1 << perm[i]
        for j in stack[-1]:
            perm[i] = j
            if not fixed >> j & 1 and fits(i, j):
                fixed |= 1 << j
                break
        else:
            perm[i] = -1
            stack.pop()
            continue
        if i + 1 == k:
            yield {o1.classes[a]: o2.classes[b] for a, b in enumerate(perm)}
        else:
            stack.append(iter(cands[i + 1]))


def _extend_witness(
    G1: LabelledGraph, G2: LabelledGraph, pi0: dict[int, int]
) -> IsoWitness:
    """The forced label bijection over a count-preserving order
    isomorphism of the vertices, in G1's (key) order, verified.

    Such a map always extends.  The labels at (a, c) and at (pi0 a, pi0 c)
    are equally many, so the groups, each in label order, zip into a label
    bijection that keeps ranges and source classes.  A label's edges come
    from the down-set of its source class, and pi0 carries down-sets onto
    down-sets, so the edges correspond too.

    Sorting G1's labels by the image of their pair (range, cover class)
    and G2's by their pair, both stably, lines each group up with the group
    at its image.  When two such groups differ in size, some label is
    paired with one of another pair, and ``verify_witness`` refuses the
    map.  Either failure is an ``InvariantViolation``.
    """
    mine = sorted(G1.labels, key=lambda lab: (pi0[lab.vertex], pi0[lab.src_class]))
    theirs = sorted(G2.labels, key=lambda lab: (lab.vertex, lab.src_class))
    if len(mine) != len(theirs):
        raise InvariantViolation("an order isomorphism's label groups differ in size")
    pi2 = dict(zip(mine, theirs))
    witness = IsoWitness(
        tuple(sorted(pi0.items())),
        tuple((lab, pi2[lab]) for lab in G1.labels),
    )
    if not verify_witness(G1, G2, witness):
        raise InvariantViolation("an order isomorphism failed to extend to a witness")
    return witness


def verify_witness(G1: LabelledGraph, G2: LabelledGraph, w: IsoWitness) -> bool:
    """Full independent re-verification of all isomorphism conditions: the
    vertex and label maps are bijections, the vertex map carries each
    down-set onto the down-set of the image, and each label's fan goes onto
    its image's fan, without building an edge.

    The edges are exactly the fans: one edge into a label's vertex from
    each class of the down-set of its cover class.  Given the down-set
    check, pi0 carries that down-set onto the down-set of its image, and
    down-sets are equal only for equal classes.  So the images (pi0 range,
    pi2 label, pi0 source) of a label's fan are exactly the fan of its
    image when, and only when, pi0 takes the label's vertex and cover
    class to those of the image (each fan is nonempty, as its cover class
    lies in it).  If that holds for every label, the image fans cover G2's
    edges, as pi2 is a bijection, and all images are distinct, as pi0 and
    pi2 are injective.  Conversely, if the images are exactly G2's edges,
    the edges of G2 with a label's image on them, its image's fan, are the
    images of that label's fan, since no other edge maps to that label.
    So this is the test that the edge images are distinct and are exactly
    G2's edges."""
    pi0 = dict(w.vertex_map)
    pi2 = dict(w.label_map)
    if sorted(pi0) != sorted(G1.vertices) or sorted(pi0.values()) != sorted(
        G2.vertices
    ):
        return False
    images = set(pi2.values())
    if not len(pi2) == len(G1.labels) == len(images) == len(G2.labels):
        return False
    if pi2.keys() != set(G1.labels) or images != set(G2.labels):
        return False
    o1, o2 = G1.order, G2.order
    image_bit = [1 << o2.index[pi0[a]] for a in o1.classes]
    for i, a in enumerate(o1.classes):
        image = 0
        for c in _bits(o1.down[i]):
            image |= image_bit[c]
        if image != o2.down[o2.index[pi0[a]]]:
            return False
    return all(
        pi0[a.vertex] == b.vertex and pi0[a.src_class] == b.src_class
        for a, b in pi2.items()
    )


def graphs_isomorphic_ordered(
    G1: LabelledGraph, G2: LabelledGraph
) -> "IsoWitness | None":
    """The verified witness over the first count-preserving order
    isomorphism of the vertices, or None when there is none.  The first one
    decides: every such map extends (``_extend_witness``).  The graphs'
    counts are compared only as the orders' sorted profiles, which the
    search compares first."""
    pi0 = next(order_isomorphisms(G1.order, G2.order), None)
    return None if pi0 is None else _extend_witness(G1, G2, pi0)


# The invariants a certificate names, in order, each read off the counts
# that the class order computes once.  There is one profile per vertex, and
# profile[3] holds one |down(c)| per label at its vertex, so the lengths sum
# to the label count.  profile[2] counts the edges out of its vertex, one
# from each class below a label's cover class, so those sum to the edge count.
_INVARIANTS = (
    ("vertex count", lambda G: len(G.vertices)),
    ("label count", lambda G: sum(len(p[3]) for p in G.order.label_counts.profile)),
    ("edge count", lambda G: sum(p[2] for p in G.order.label_counts.profile)),
    ("vertex profiles", lambda G: G.order.sorted_profile),
)


def _certificate(G1: LabelledGraph, G2: LabelledGraph) -> str:
    """First invariant that distinguishes the graphs, checked in order and
    each computed only once the ones before it agree."""
    for name, measure in _INVARIANTS:
        x, y = measure(G1), measure(G2)
        if x != y:
            return _differs(name, x, y)
    return "no order-compatible vertex bijection extends to an isomorphism"


def _differs(name: str, x, y) -> str:
    return f"{name} differs: {x} vs {y}"


def decide_morita(
    T1: TransitionMatrix, T2: TransitionMatrix, cross_check: bool = False
) -> Verdict:
    """Decide on the class counts when they differ, with no order or
    graph built, and otherwise on the two labelled graphs, each built at
    most once per matrix (``cached_graph``).  With ``cross_check``, an
    EQUIVALENT verdict's witness must also give an isomorphism of the
    combinatorial data that keeps the full product table
    (``smorita._assemble_and_verify``, an ``InvariantViolation`` when it
    does not); a NOT EQUIVALENT one builds no CD.  The graphs are shared
    with later calls and only read."""
    k1, k2 = len(core_order.f_classes(T1)), len(core_order.f_classes(T2))
    if k1 != k2:
        return Verdict(False, None, _differs("vertex count", k1, k2))
    G1, G2 = cached_graph(T1), cached_graph(T2)
    witness = graphs_isomorphic_ordered(G1, G2)
    if witness is None:
        return Verdict(False, None, _certificate(G1, G2))
    if cross_check:
        from .smorita import _assemble_and_verify, build_cd

        _assemble_and_verify(build_cd(T1), build_cd(T2), witness)
    return Verdict(True, witness, None)
