"""Reference implementations: the paper's objects computed literally.

Each function here computes, by its definition, something the production
kernels compute faster, and the tests and sweeps check the two against
each other.  Nothing on the decision path imports this module.

- ``covers_below_at`` is the covering relation on canonical idempotents,
  by maximality among the candidates; ``CoreOrder.covers`` reads the same
  covers off the class order's bitsets.
- ``core_of_at`` is the core of any canonical idempotent, by closure rules
  (2)-(4) on ``HullIdempotent`` sets; ``build_order`` runs rules (2) and
  (3) at depth 0 over class indices.  It also takes the cores in
  conjugated corners, which validates the depth-0 restriction of the class
  order instead of assuming it.
- ``check_meet_identity`` scans ``CoreOrder.pairs`` for greatest lower
  bounds and checks them against ``CoreOrder.meet``.
- ``brute_force_isomorphic`` tries every vertex bijection, where
  ``decide.order_isomorphisms`` prunes.
- The raw-edge LGIS (``RawGraph`` and the functions on it) takes relative
  sources over edge lists of arbitrary hashable pieces, where
  ``LgisEngine`` reads them off the vertex order; ``check_resolving`` works
  on raw edges, as bitmasks, so that hand-built counterexample graphs can
  be analysed too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, permutations
from typing import Hashable, Sequence

from .core_order import CoreOrder
from .decide import _extend_witness
from .hull import HullIdempotent, idem_leq, idem_product, make_idem
from .labelled_graph import LabelledGraph
from .shift import InvariantViolation, TransitionMatrix, Word, f_classes


def covers_below_at(
    T: TransitionMatrix, word: Word, vec: int
) -> tuple[HullIdempotent, ...]:
    """All idempotents immediately below (word, vec).

    Candidates are the same-word idempotents with strictly smaller vectors
    and the one-letter extensions (word+b, row(b)) for b in vec; anything
    with a longer extension sits strictly below one of those, so maximality
    within the candidate set is the covering relation.
    """
    if vec not in f_classes(T):
        raise ValueError(f"vector {vec:b} is not a follower class")
    if word and (T.rows[word[-1]] & vec) != vec:
        raise ValueError("vector not contained in followers of final letter")
    cands: list[HullIdempotent] = [
        HullIdempotent(tuple(word), u)
        for u in f_classes(T)
        if u & vec == u and u != vec
    ]
    cands += [
        HullIdempotent(tuple(word) + (b,), T.rows[b])
        for b in range(T.n)
        if vec >> b & 1
    ]
    maximal = [
        c
        for c in cands
        if not any(d != c and idem_leq(c, d) for d in cands)
    ]
    return tuple(sorted(maximal, key=HullIdempotent.key))


def covers_below(T: TransitionMatrix, vec: int) -> tuple[HullIdempotent, ...]:
    """Covers of the depth-0 idempotent of a follower class: the reference
    that ``CoreOrder.covers`` is checked against."""
    return covers_below_at(T, (), vec)


def core_of_at(
    T: TransitionMatrix,
    word: Word,
    vec: int,
    rule_order: tuple[int, int, int] = (2, 3, 4),
) -> frozenset[HullIdempotent]:
    """Least closed subset of (word, vec)'s down-set containing it.

    Rule (3) quantifies over all covers of current members; a trigger that
    would admit an idempotent with a longer word than the seed contradicts
    the containment of cores in the F-class layer and is a hard error.
    """
    seed = make_idem(T, word, vec)
    if seed is None:
        raise ValueError("cannot take the core of zero")
    members: set[HullIdempotent] = {seed}

    def rule_products() -> set[HullIdempotent]:
        new = set()
        for f, g in combinations_with_replacement(sorted(members, key=HullIdempotent.key), 2):
            p = idem_product(f, g)
            if p is not None and p not in members:
                new.add(p)
        return new

    def rule_covers() -> set[HullIdempotent]:
        new = set()
        cover_sets = [covers_below_at(T, h.word, h.vec) for h in members]
        for cs1 in cover_sets:
            for cs2 in cover_sets:
                for f in cs1:
                    for g in cs2:
                        if f == g or (f in members and g in members):
                            continue
                        if idem_leq(f, g) or idem_leq(g, f):
                            continue
                        if idem_product(f, g) is None:
                            continue
                        for x in (f, g):
                            if x not in members:
                                if len(x.word) != len(seed.word):
                                    raise InvariantViolation(
                                        "core rule (3) produced an idempotent "
                                        "outside the seed layer"
                                    )
                                new.add(x)
        return new

    def rule_intervals() -> set[HullIdempotent]:
        # only same-word idempotents can sit strictly inside a same-word
        # interval: anything deeper misses the short words of the lower end
        new = set()
        for e1 in members:
            for e2 in members:
                if e1 == e2 or not idem_leq(e1, e2):
                    continue
                for u in f_classes(T):
                    g = make_idem(T, e1.word, u)
                    if g is None or g in members:
                        continue
                    if g != e1 and g != e2 and idem_leq(e1, g) and idem_leq(g, e2):
                        new.add(g)
        return new

    rules = {2: rule_products, 3: rule_covers, 4: rule_intervals}
    changed = True
    while changed:
        changed = False
        for r in rule_order:
            new = rules[r]()
            if new:
                members |= new
                changed = True
    return frozenset(members)


def check_meet_identity(T: TransitionMatrix, order: CoreOrder) -> bool:
    """``order.meet`` is the greatest common lower bound found by a scan over
    ``order.pairs`` (None when there is none), and e_a e_b = e_{a^b}: the
    meet is the AND class whenever it is nonzero, and a zero meet of two
    classes with a common upper bound forces a zero product."""
    below: dict[int, set[int]] = {v: set() for v in order.classes}
    for lo, hi in order.pairs:
        below[hi].add(lo)
    for a in order.classes:
        for b in order.classes:
            m = order.meet(a, b)
            lower = below[a] & below[b]
            if lower:
                glb = [c for c in lower if lower <= below[c]]
                if glb != [m] or a & b != m:
                    return False
            elif m is not None:
                return False
            elif any(
                order.leq(a, c) and order.leq(b, c) for c in order.classes
            ):
                if a & b != 0:
                    return False
    return True


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
    counts2 = Counter((lab.vertex, lab.src_class) for lab in G2.labels)
    v1, v2 = G1.vertices, G2.vertices
    for perm in permutations(range(n)):
        pi0 = {v1[i]: v2[perm[i]] for i in range(n)}
        if any(
            o1.leq(a, b) != o2.leq(pi0[a], pi0[b]) for a in v1 for b in v1
        ):
            continue
        if Counter((pi0[lab.vertex], pi0[lab.src_class]) for lab in G1.labels) != counts2:
            continue
        # matching per-key counts force a full witness
        _extend_witness(G1, G2, pi0)
        return True
    return False


@dataclass(frozen=True)
class RawGraph:
    """Minimal labelled-graph data for the representative-based oracle:
    edges are (range, label, source) over arbitrary hashable pieces."""

    vertices: tuple[Hashable, ...]
    edges: tuple[tuple[Hashable, Hashable, Hashable], ...]
    bfamily: tuple[frozenset, ...]

    def labels(self) -> tuple[Hashable, ...]:
        return tuple(sorted({lab for _, lab, _ in self.edges}, key=repr))


def raw_of(G: LabelledGraph) -> RawGraph:
    edges = tuple((e.range, e.label, e.source) for e in G.edges)
    bfam = (frozenset(), *(frozenset(G.b_set(v)) for v in G.vertices))
    return RawGraph(tuple(G.vertices), edges, bfam)


def relative_source_raw(
    raw: RawGraph, A: frozenset, alpha: Sequence[Hashable]
) -> frozenset:
    """s(A, alpha) = sources of representatives of alpha with range in A,
    computed by walking the edge list letter by letter."""
    frontier = frozenset(A)
    for lab in alpha:
        frontier = frozenset(s for r, l, s in raw.edges if l == lab and r in frontier)
    return frontier


def labelled_paths_raw(raw: RawGraph, maxlen: int) -> list[tuple]:
    """All label sequences of length 1..maxlen having a representative."""
    out: list[tuple] = []
    all_v = frozenset(raw.vertices)
    level: list[tuple] = [()]
    for _ in range(maxlen):
        level = [
            p + (lab,) for p in level for lab in raw.labels()
            if relative_source_raw(raw, all_v, p + (lab,))
        ]
        out.extend(level)
    return out


def check_resolving(raw: RawGraph, pathlen: int = 3) -> tuple[bool, bool]:
    """(weakly, strongly) right resolving.

    Strong is the edge-wise label/range check; weak compares relative
    sources of intersections against intersections of relative sources for
    all pairs from the B family and all labelled paths up to ``pathlen``.
    Vertex sets are int bitmasks, and the sources along a path extend those
    along its prefix by one letter, as in ``relative_source_raw``.
    """
    ranges: dict[Hashable, Hashable] = {}
    strong = all(ranges.setdefault(lab, r) == r for r, lab, _ in raw.edges)
    bit: dict[Hashable, int] = {}
    for v in chain(raw.vertices, *raw.bfamily, *(e[::2] for e in raw.edges)):
        bit.setdefault(v, 1 << len(bit))
    moves = [
        [(bit[r], bit[s]) for r, l, s in raw.edges if l == lab] for lab in raw.labels()
    ]
    fam = [sum(bit[v] for v in B) for B in raw.bfamily]
    # every set compared; the first, all vertices, picks out the labelled paths
    every = sum(bit[v] for v in set(raw.vertices))
    sets = dict.fromkeys([every, *fam, *(a & b for a in fam for b in fam)])
    pos = {m: i for i, m in enumerate(sets)}
    rows: list[tuple[int, ...]] = []  # per labelled path, s(X, path) for X in pos
    level = [tuple(pos)]
    for _ in range(pathlen):
        level = [
            row for prev in level for edges in moves
            if (row := tuple(_move(edges, m) for m in prev))[0]
        ]
        rows.extend(level)
    checks = dict.fromkeys((pos[a & b], pos[a], pos[b]) for a in fam for b in fam)
    for ab, a, b in checks:
        if any(row[ab] != row[a] & row[b] for row in rows):
            return (False, strong)
    return (True, strong)


def _move(edges: list[tuple[int, int]], m: int) -> int:
    """The sources of the (range bit, source bit) edges whose range is in m."""
    out = 0
    for r, s in edges:
        if r & m:
            out |= s
    return out
