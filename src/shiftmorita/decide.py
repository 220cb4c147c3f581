"""Morita equivalence of two Markov shifts via labelled-graph isomorphism.

Two inverse hulls are Morita equivalent exactly when their labelled graphs
are isomorphic with the vertex map an order isomorphism.  Since equal
labels force equal ranges and every label's edge fan covers the down-set
of its cover's class, a vertex bijection extends to a full isomorphism iff
it matches the order relation and, for every pair (vertex, class), the
number of labels at the vertex whose cover lies in that class.

``order_isomorphisms`` enumerates those bijections between two
``CountedOrder``s, pruned by vertex profiles and checked on down-sets
only; each graph's ``counted_order`` is built once per graph.  The first
bijection it yields decides: ``CountedOrder.carry`` takes the label groups
along it, and every such map extends to a witness, re-verified with each
edge's image derived from the vertex and label maps, so a failure to
extend is an ``InvariantViolation``.

``decide_morita`` takes both graphs from ``labelled_graph.cached_graph``, so
that comparing many matrices against a few builds each graph once.  Under
``cross_check`` the witness is carried on to the combinatorial data
(``smorita``): its vertex map moves the class representatives, its label
map the guarded covers, and the map must pass the full product table.
A negative verdict carries the first invariant that differs; the vertex
profiles behind it are built only when the vertex, label and edge
counts agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core_order import CountedOrder
# build_graph stays a module attribute here, where bench/spans.py wraps it
from .labelled_graph import Edge, Label, LabelledGraph, build_graph, cached_graph
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


def order_isomorphisms(
    s1: CountedOrder, s2: CountedOrder
) -> Iterator[dict[int, int]]:
    """The count-preserving order isomorphisms, depth-first with an
    explicit stack.  Class i of s1 is fixed at depth i; its candidates, the
    classes of s2 with its profile, are tried in index order and kept when
    the down-sets and the counts agree with every class fixed so far.

    The down-sets alone make the map an order isomorphism.  ``CountedOrder``
    lists every class after the classes below it, so when class i is fixed
    its whole down-set is fixed.  The map is injective and the profiles
    carry |down|, so the images of ``s1.down[i]`` equal ``s2.down[j]`` on
    the fixed classes exactly when they equal ``s2.down[j]``.  So each
    down-set goes onto a down-set, a <= b exactly when sigma a <= sigma b,
    and the up-sets need no check of their own.
    """
    by_profile: dict[tuple, list[int]] = {}
    for j, p in enumerate(s2.profile):
        by_profile.setdefault(p, []).append(j)
    cands = [by_profile.get(p, []) for p in s1.profile]
    k = len(cands)
    if k != len(s2.classes) or not all(cands):
        return
    # perm[i]: the s2 class of s1's class i, -1 while unfixed
    perm = [-1] * k
    fixed = 0

    def fits(i: int, j: int) -> bool:
        got = 0
        for c in _bits(s1.down[i]):
            got |= 1 << perm[c]
        return got == s2.down[j] and all(
            {perm[c]: n for c, n in r1 if c <= i}
            == {w: n for w, n in r2 if w == j or fixed >> w & 1}
            for r1, r2 in ((s1.at[i], s2.at[j]), (s1.into[i], s2.into[j]))
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
            yield {s1.classes[a]: s2.classes[b] for a, b in enumerate(perm)}
        else:
            stack.append(iter(cands[i + 1]))


def _extend_witness(
    G1: LabelledGraph, G2: LabelledGraph, pi0: dict[int, int]
) -> IsoWitness:
    """The forced label bijection over a count-preserving order
    isomorphism of the vertices, in G1's (key) order, verified.

    Such a map always extends.  The labels at (a, c) and at (pi0 a, pi0 c)
    are equally many, so the groups zip into a label bijection that keeps
    ranges and source classes.  A label's edges come from the down-set of
    its source class, and pi0 carries down-sets onto down-sets, so the
    edges correspond too.  A failure is an ``InvariantViolation``.
    """
    pi2 = G1.counted_order.carry(G2.counted_order, pi0)
    witness = IsoWitness(
        tuple(sorted(pi0.items())),
        tuple((lab, pi2[lab]) for lab in G1.labels),
    )
    if not verify_witness(G1, G2, witness):
        raise InvariantViolation("an order isomorphism failed to extend to a witness")
    return witness


def verify_witness(G1: LabelledGraph, G2: LabelledGraph, w: IsoWitness) -> bool:
    """Full independent re-verification of all isomorphism conditions: the
    vertex and label maps are bijections, the edge images (pi0 range,
    pi2 label, pi0 source) are distinct and are exactly G2's edges, and the
    vertex map carries each down-set onto the down-set of the image."""
    pi0 = dict(w.vertex_map)
    pi2 = dict(w.label_map)
    if sorted(pi0) != sorted(G1.vertices) or sorted(pi0.values()) != sorted(
        G2.vertices
    ):
        return False
    if sorted(pi2, key=Label.key) != list(G1.labels) or sorted(
        pi2.values(), key=Label.key
    ) != list(G2.labels):
        return False
    images = {Edge(pi0[e.range], pi2[e.label], pi0[e.source]) for e in G1.edges}
    if len(images) != len(G1.edges) or images != set(G2.edges):
        return False
    o1, o2 = G1.order, G2.order
    image_bit = [1 << o2.index[pi0[a]] for a in o1.classes]
    for i, a in enumerate(o1.classes):
        image = 0
        for c in _bits(o1.down[i]):
            image |= image_bit[c]
        if image != o2.down[o2.index[pi0[a]]]:
            return False
    return True


def graphs_isomorphic_ordered(
    G1: LabelledGraph, G2: LabelledGraph
) -> "IsoWitness | None":
    """The verified witness over the first count-preserving order
    isomorphism of the vertices, or None when there is none.  The first one
    decides: every such map extends (``_extend_witness``)."""
    if len(G1.vertices) != len(G2.vertices):
        return None
    if len(G1.labels) != len(G2.labels) or len(G1.edges) != len(G2.edges):
        return None
    pi0 = next(order_isomorphisms(G1.counted_order, G2.counted_order), None)
    return None if pi0 is None else _extend_witness(G1, G2, pi0)


def _certificate(G1: LabelledGraph, G2: LabelledGraph) -> str:
    """First invariant that distinguishes the graphs, checked in order and
    each computed only once the ones before it agree."""
    checks = (
        ("vertex count", lambda G: len(G.vertices)),
        ("label count", lambda G: len(G.labels)),
        ("edge count", lambda G: len(G.edges)),
        (
            "vertex profiles",
            lambda G: sorted(G.counted_order.profile),
        ),
    )
    for name, measure in checks:
        x, y = measure(G1), measure(G2)
        if x != y:
            return f"{name} differs: {x} vs {y}"
    return "no order-compatible vertex bijection extends to an isomorphism"


def decide_morita(
    T1: TransitionMatrix, T2: TransitionMatrix, cross_check: bool = False
) -> Verdict:
    """Decide on the two labelled graphs, each built at most once per
    matrix (``cached_graph``).  With ``cross_check``, an EQUIVALENT
    verdict's witness must also give an isomorphism of the combinatorial
    data that keeps the full product table
    (``smorita._assemble_and_verify``, an ``InvariantViolation`` when it
    does not); a NOT EQUIVALENT one builds no CD.  The graphs are shared
    with later calls and only read."""
    G1, G2 = cached_graph(T1), cached_graph(T2)
    witness = graphs_isomorphic_ordered(G1, G2)
    if witness is None:
        return Verdict(False, None, _certificate(G1, G2))
    if cross_check:
        from .smorita import _assemble_and_verify, build_cd

        _assemble_and_verify(build_cd(T1), build_cd(T2), witness)
    return Verdict(True, witness, None)
