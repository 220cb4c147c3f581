"""Morita equivalence of two Markov shifts via labelled-graph isomorphism.

Two inverse hulls are Morita equivalent exactly when their labelled graphs
are isomorphic with the vertex map an order isomorphism.  Since equal
labels force equal ranges and every label's edge fan covers the down-set
of its cover's class, a vertex bijection extends to a full isomorphism iff
it matches the order relation and, for every pair (vertex, class), the
number of labels at the vertex whose cover lies in that class.

``order_isomorphisms`` enumerates those bijections, pruned by vertex
profiles.  The graph search here and the CD search in ``smorita`` share it;
each keeps its own finisher: the edge-level witness, re-verified edge by
edge, or the full product table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from .core_order import CoreOrder
from .labelled_graph import Edge, Label, LabelledGraph, build_graph
from .shift import InvariantViolation, TransitionMatrix

# {(vertex, class): n}: n labels at the vertex have their cover in the class
Counts = dict[tuple[int, int], int]


@dataclass(frozen=True)
class IsoWitness:
    """Vertex, edge and label bijections, as tuple-pair maps."""

    vertex_map: tuple[tuple[int, int], ...]
    label_map: tuple[tuple[Label, Label], ...]
    edge_map: tuple[tuple[Edge, Edge], ...]


@dataclass(frozen=True)
class Verdict:
    equivalent: bool
    witness: "IsoWitness | None"
    certificate: "str | None"


def _label_groups(G: LabelledGraph) -> dict[tuple[int, int], list[Label]]:
    """Labels per (range vertex, cover class), each group sorted."""
    groups: dict[tuple[int, int], list[Label]] = {}
    for lab in G.labels:
        groups.setdefault((lab.vertex, lab.src_class), []).append(lab)
    for group in groups.values():
        group.sort(key=Label.key)
    return groups


def _label_counts(G: LabelledGraph) -> Counts:
    """#labels per (range vertex, cover class)."""
    return {key: len(group) for key, group in _label_groups(G).items()}


class _Side:
    """One side of the search.  For each vertex v, four maps {vertex:
    multiplicity}: the classes below v, the classes above v, the labels at
    v by cover class, and the labels whose cover lies in v by vertex; and
    v's profile, an invariant of every count-preserving order isomorphism."""

    def __init__(self, order: CoreOrder, counts: Counts):
        rel = {v: ({}, {}, {}, {}) for v in order.classes}
        for lo, hi in order.pairs:
            rel[hi][0][lo] = rel[lo][1][hi] = 1
        for (v, c), n in counts.items():
            rel[v][2][c] = rel[c][3][v] = n
        self.relations = rel
        # (below, above, edges out of v, |down(class)| of each label at v)
        self.profile = {
            v: (
                len(down),
                len(up),
                sum(sum(rel[c][3].values()) for c in up),
                tuple(sorted(len(rel[c][0]) for c, n in at.items() for _ in range(n))),
            )
            for v, (down, up, at, _) in rel.items()
        }


def order_isomorphisms(
    o1: CoreOrder, counts1: Counts, o2: CoreOrder, counts2: Counts
) -> Iterator[dict[int, int]]:
    """Yield each order isomorphism sigma with counts2[(sigma a, sigma c)]
    == counts1[(a, c)] for all classes a, c, depth-first with an explicit
    stack.  Classes are fixed in ``o1.classes`` order; their candidates,
    the classes of equal profile, are tried in ``o2.classes`` order and
    kept when the order and the counts agree with every class fixed so far.
    """
    s1, s2 = _Side(o1, counts1), _Side(o2, counts2)
    by_profile: dict[tuple, list[int]] = {}
    for v in o2.classes:
        by_profile.setdefault(s2.profile[v], []).append(v)
    cands = [by_profile.get(s1.profile[a], []) for a in o1.classes]
    if len(o1.classes) != len(o2.classes) or not all(cands):
        return
    sigma: dict[int, int] = {}
    inverse: dict[int, int] = {}

    def fits(a: int, v: int) -> bool:
        return all(
            {sigma[b]: n for b, n in r1.items() if b in sigma}
            == {w: n for w, n in r2.items() if w in inverse}
            for r1, r2 in zip(s1.relations[a], s2.relations[v])
        )

    stack = [iter(cands[0])]
    while stack:
        a = o1.classes[len(stack) - 1]
        if a in sigma:
            del inverse[sigma.pop(a)]
        for v in stack[-1]:
            if v not in inverse:
                sigma[a], inverse[v] = v, a
                if fits(a, v):
                    break
                del sigma[a], inverse[v]
        else:
            stack.pop()
            continue
        if len(sigma) == len(cands):
            yield dict(sigma)
        else:
            stack.append(iter(cands[len(sigma)]))


def _extend_witness(
    G1: LabelledGraph, G2: LabelledGraph, pi0: dict[int, int]
) -> "IsoWitness | None":
    """Build the forced label/edge bijections over a vertex bijection,
    or None when the label groups do not match."""
    by_key_2 = _label_groups(G2)
    pi2: dict[Label, Label] = {}
    for (a, c), group in sorted(_label_groups(G1).items()):
        partners = by_key_2.get((pi0[a], pi0[c]), [])
        if len(partners) != len(group):
            return None
        pi2.update(zip(group, partners))
    if len(pi2) != len(G2.labels):
        return None
    pi1: dict[Edge, Edge] = {
        e: Edge(pi0[e.range], pi2[e.label], pi0[e.source]) for e in G1.edges
    }
    witness = IsoWitness(
        tuple(sorted(pi0.items())),
        tuple(sorted(pi2.items(), key=lambda p: p[0].key())),
        tuple(sorted(pi1.items(), key=lambda p: p[0].label.key() + (p[0].source,))),
    )
    return witness if verify_witness(G1, G2, witness) else None


def verify_witness(G1: LabelledGraph, G2: LabelledGraph, w: IsoWitness) -> bool:
    """Full independent re-verification of all isomorphism conditions."""
    pi0 = dict(w.vertex_map)
    pi2 = dict(w.label_map)
    pi1 = dict(w.edge_map)
    if sorted(pi0) != sorted(G1.vertices) or sorted(pi0.values()) != sorted(
        G2.vertices
    ):
        return False
    if sorted(pi2, key=Label.key) != list(G1.labels) or sorted(
        pi2.values(), key=Label.key
    ) != list(G2.labels):
        return False
    if len(pi1) != len(G1.edges) or len(set(pi1.values())) != len(G2.edges):
        return False
    if set(pi1) != set(G1.edges) or set(pi1.values()) != set(G2.edges):
        return False
    for a in G1.vertices:
        for b in G1.vertices:
            if G1.order.leq(a, b) != G2.order.leq(pi0[a], pi0[b]):
                return False
    for e, f in pi1.items():
        if f.source != pi0[e.source]:
            return False
        if f.range != pi0[e.range]:
            return False
        if f.label != pi2[e.label]:
            return False
    return True


def graphs_isomorphic_ordered(
    G1: LabelledGraph, G2: LabelledGraph
) -> "IsoWitness | None":
    """The first count-preserving order isomorphism of the vertices that
    extends to a verified witness, or None."""
    if len(G1.vertices) != len(G2.vertices):
        return None
    if len(G1.labels) != len(G2.labels) or len(G1.edges) != len(G2.edges):
        return None
    for pi0 in order_isomorphisms(
        G1.order, _label_counts(G1), G2.order, _label_counts(G2)
    ):
        witness = _extend_witness(G1, G2, pi0)
        if witness is not None:
            return witness
    return None


def brute_force_isomorphic(G1: LabelledGraph, G2: LabelledGraph) -> bool:
    """Try every vertex bijection; for each, check the order relation and
    the per-(vertex, class) label counts, then confirm the first survivor
    by building and verifying the full witness.  The desk-scale oracle the
    pruned search is measured against."""
    n = len(G1.vertices)
    if n != len(G2.vertices):
        return False
    if len(G1.labels) != len(G2.labels) or len(G1.edges) != len(G2.edges):
        return False
    o1, o2 = G1.order, G2.order
    counts1 = _label_counts(G1)
    counts2 = _label_counts(G2)
    v1, v2 = G1.vertices, G2.vertices
    for perm in permutations(range(n)):
        pi0 = {v1[i]: v2[perm[i]] for i in range(n)}
        if any(
            o1.leq(a, b) != o2.leq(pi0[a], pi0[b]) for a in v1 for b in v1
        ):
            continue
        if any(
            counts2.get((pi0[a], pi0[d]), 0) != c
            for (a, d), c in counts1.items()
        ):
            continue
        # equal totals plus matching per-key counts force a full witness
        witness = _extend_witness(G1, G2, pi0)
        if witness is None:
            raise InvariantViolation(
                "surviving bijection failed full witness construction"
            )
        return True
    return False


def _certificate(G1: LabelledGraph, G2: LabelledGraph) -> str:
    """First invariant profile that distinguishes the graphs."""
    checks = [
        ("vertex count", len(G1.vertices), len(G2.vertices)),
        ("label count", len(G1.labels), len(G2.labels)),
        ("edge count", len(G1.edges), len(G2.edges)),
        (
            "vertex profiles",
            sorted(_Side(G1.order, _label_counts(G1)).profile.values()),
            sorted(_Side(G2.order, _label_counts(G2)).profile.values()),
        ),
    ]
    for name, x, y in checks:
        if x != y:
            return f"{name} differs: {x} vs {y}"
    return "no order-compatible vertex bijection extends to an isomorphism"


def decide_morita(
    T1: TransitionMatrix, T2: TransitionMatrix, cross_check: bool = False
) -> Verdict:
    """Build both labelled graphs and decide; optionally cross-check the
    graph verdict against the combinatorial-data isomorphism search and
    fail hard on disagreement."""
    G1, G2 = build_graph(T1), build_graph(T2)
    witness = graphs_isomorphic_ordered(G1, G2)
    if cross_check:
        from .smorita import build_cd, cd_isomorphic

        cd_w = cd_isomorphic(build_cd(T1), build_cd(T2))
        if (witness is None) != (cd_w is None):
            raise InvariantViolation(
                "graph isomorphism and CD isomorphism verdicts disagree"
            )
    if witness is not None:
        return Verdict(True, witness, None)
    return Verdict(False, None, _certificate(G1, G2))
