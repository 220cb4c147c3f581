"""Idempotents of the Morita-equivalent triple semigroup and the
combinatorial data CD.

A diagonal triple [u, g, u] pairs a nonzero D-class u with a hull
idempotent g below u's representative; two triples are the same element
exactly when the middles agree and the outer classes have nonzero meet, so
each element is stored with the least class that represents it, and two
stored triples are the same element exactly when they are equal.  That
class is the first class, by mask, above the middle whose down-set meets
the outer class's (``make_sidem`` has the proof).  Products insert the
representative of the meet between the middles.

CD consists of the class representatives [v, e_v, v] and the guarded
covers [b, f, b], one per label (b, f) of the labelled graph and in the
labels' order; each is already in that form (``CDSet`` has the proof).  CD
is closed under products, its guarded covers are exactly its primitive
idempotents, and a D-class preserving isomorphism of two CDs is what the
decision procedure's graph search must agree with.  Counted on pairs
(outer class, D-class), the guarded covers give the counts on (range
vertex, cover class) that the graph search reads off the same class order
(``CoreOrder.label_counts``).  So the CD check takes the graph search's witness (``IsoWitness``): the
class representatives follow its vertex map, each guarded cover [b, f, b]
follows its label map, and the check is the full product table
(``_assemble_and_verify``); a witness that fails the table is an
``InvariantViolation``.  ``decide_morita(cross_check=True)`` runs that
check on its own witness, so a cross-checked decision searches once.
``cd_isomorphic`` runs the graph search on the two cached graphs and then
the same check; the sweeps call it.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .core_order import CoreOrder, cached_order
from .decide import IsoWitness, graphs_isomorphic_ordered
from .hull import (
    HullIdempotent,
    enumerate_idems,
    fmt_idem,
    idem_leq,
    idem_product,
)
from .labelled_graph import cached_graph
from .shift import InvariantViolation, TransitionMatrix, _bits


class SIdem(NamedTuple):
    """Canonical form of a diagonal triple [u, g, u]; zero is None.  A
    named tuple, built, hashed and ordered as the plain tuple (u, g)."""

    u: int
    g: HullIdempotent


def make_sidem(order: CoreOrder, u: int, g: "HullIdempotent | None") -> "SIdem | None":
    """Normalize [u, g, u] to its least equivalent outer class.

    Valid classes for the middle g are those whose representative sits
    above g: the classes that contain g's letter, or every letter of g's
    vector when g's word is empty.  The equality class of [u, g, u] is
    closed under meets, so the fold of the valid classes connected to u by
    nonzero meets is the canonical representative.

    One pass finds them: the group is the valid classes whose down-set
    meets u's.  On valid classes the nonzero-meet relation is transitive.
    Let u meet j1 and j1 meet j2.  Then u^j1 and j1^j2 both lie below j1,
    and both contain g's letter (or g's vector), so their AND is nonzero.
    By the representative-product identity, two classes under a common
    upper bound with a zero meet have a zero product
    (``reference.check_meet_identity`` verifies it, and criterion 3 runs
    that check).  So u^j1 and j1^j2 have
    a common lower bound, which lies below u and j2: u meets j2.

    So the fold from u (in the group) is a class of the group contained in
    every other member: each partial fold m is valid and below u, so in
    the group, and meets the next class j.  A mask contained in every other
    mask of the group is the smallest, and classes are sorted by mask, so
    the fold is the group's first class in index order.
    """
    if g is None:
        return None
    if len(g.word) > 1:
        raise ValueError("middles are restricted to word length <= 1")
    valid = (1 << len(order.classes)) - 1
    for b in g.word or _bits(g.vec):
        valid &= order.letter_classes[b]
    i = order.index.get(u)
    if i is None or not valid >> i & 1:
        raise ValueError("middle does not sit below the outer class")
    du = order.down[i]
    return SIdem(order.classes[next(j for j in _bits(valid) if order.down[j] & du)], g)


def sidem_leq(order: CoreOrder, x: "SIdem | None", y: "SIdem | None") -> bool:
    if x is None:
        return True
    if y is None:
        return False
    return idem_leq(x.g, y.g) and order.meet(x.u, y.u) is not None


def sidem_product(order: CoreOrder, x: "SIdem | None", y: "SIdem | None") -> "SIdem | None":
    """[u, g e_{u^v} h, v], renormalized; zero when anything collapses."""
    if x is None or y is None:
        return None
    m = order.meet(x.u, y.u)
    if m is None:
        return None
    mid = idem_product(idem_product(x.g, HullIdempotent((), m)), y.g)
    if mid is None:
        return None
    return make_sidem(order, m, mid)


class CDSet:
    """C (class representatives) and Cll (guarded covers) with products.

    Both are written out in canonical form.  Each class v is the least
    valid class for its own representative.  Each guarded cover f of b
    gives [b, f, b]: b is valid for f, and no valid class w listed before b
    has a down-set meeting b's.  Suppose one did.  The meet check in
    ``build_order`` makes w & b a class below b, and it carries f's letters.
    - For an O-type f = ((c,), row c), c is in no proper subclass of b, so
      w & b = b.
    - For an F-type f = ((), u), w & b lies between u and b, so by the
      maximality of u it is u or b.  It is not u, since the guard drops
      every u below b.
    So b is inside w, and w has the larger mask, so it is listed after b.
    C and Cll are disjoint: a Cll middle is a one-letter word, or ((), u)
    with u not b, and neither is ((), b).
    """

    def __init__(self, T: TransitionMatrix):
        self.matrix = T
        self.order = order = cached_order(T)
        self.C: tuple[SIdem, ...] = tuple(
            SIdem(v, HullIdempotent((), v)) for v in order.classes
        )
        self.Cll: tuple[SIdem, ...] = tuple(
            SIdem(b, f) for b in order.classes for f in order.label_covers(b)
        )
        self.elements: tuple[SIdem, ...] = self.C + self.Cll
        self._members = frozenset(self.elements)

    def product(self, x: "SIdem | None", y: "SIdem | None") -> "SIdem | None":
        p = sidem_product(self.order, x, y)
        if p is not None and p not in self._members:
            raise InvariantViolation(
                f"CD is not closed under products: {self.fmt(x)} * {self.fmt(y)}"
            )
        return p

    def fmt(self, x: "SIdem | None") -> str:
        if x is None:
            return "0"
        T = self.matrix
        return f"[{T.fmt_vec(x.u)},{fmt_idem(T, x.g)}]"


def build_cd(T: TransitionMatrix) -> CDSet:
    return CDSet(T)


def coherent_check(T: TransitionMatrix) -> bool:
    """Verify that the class representatives form a coherent set: closed
    under products, interval-closed, and absorbing products of incomparable
    covers.

    The covers of a representative need no comparability test: no two are
    comparable.  ``order.covers(v)`` gives ((), u) for each maximal proper
    subclass u of v, and these are incomparable subsets.  It gives
    ((b,), row b) for each letter b of v in no proper subclass; two of
    these have different words and a zero product, and one lies below
    ((), u) only when b is in u.  A one-letter word never lies above the
    empty word.  ``sidem_leq`` compares the middles by ``idem_leq`` first,
    so no two of the triples over them are comparable either."""
    cd = CDSet(T)
    order = cd.order
    cset = set(cd.C)

    # (1) products of representatives stay representatives
    for x in cd.C:
        for y in cd.C:
            p = sidem_product(order, x, y)
            if p is not None and p not in cset:
                return False

    # (2) interval closure over every diagonal triple with short middles
    idems = enumerate_idems(T, 1)
    all_sidems = {
        make_sidem(order, u, g)
        for u in order.classes
        for g in idems
        if idem_leq(g, HullIdempotent((), u))
    }
    for f in all_sidems - cset:
        if any(sidem_leq(order, lo, f) for lo in cd.C) and any(
            sidem_leq(order, f, hi) for hi in cd.C
        ):
            return False

    # (3) products of (incomparable) covers of a representative land in C
    for v in order.classes:
        covers = [make_sidem(order, v, g) for g in order.covers(v)]
        for f, g in combinations(covers, 2):
            p = sidem_product(order, f, g)
            if p is not None and p not in cset:
                return False
    return True


def cd_isomorphic(cd1: CDSet, cd2: CDSet) -> "dict | None":
    """Search for a D-class preserving isomorphism CD1 -> CD2.

    The class bijection must be an order isomorphism and carry the guarded
    covers grouped by (outer class, D-class) onto matching groups; any such
    data determines the map.  The guarded covers are the labels of each
    matrix's graph, so the search is the graph search
    (``graphs_isomorphic_ordered``), and its witness is re-verified on the
    full product table (``_assemble_and_verify``) before being returned.
    """
    w = graphs_isomorphic_ordered(cached_graph(cd1.matrix), cached_graph(cd2.matrix))
    return None if w is None else _assemble_and_verify(cd1, cd2, w)


def _assemble_and_verify(cd1: CDSet, cd2: CDSet, w: IsoWitness) -> dict:
    """The element map over a graph witness, checked on the full product
    table.  The class representatives follow the vertex map sigma, and
    each guarded cover [b, f, b] follows the label map, label (b, f) read
    as [b, f, b].

    Every witness given here has passed ``verify_witness``, so the map
    needs no check of its own that it is injective or keeps D-classes:
    - It is injective.  The vertex map and the label map are bijections,
      and C and Cll are disjoint in each CD (``CDSet`` has the proof), so
      the two parts are injective and have disjoint images.
    - It keeps D-classes.  A representative [v, e_v, v] lies in v's
      D-class and goes to [sigma(v), e_sigma(v), sigma(v)].  A guarded
      cover [b, f, b] lies in the D-class of f's class c.  Its label's
      edge fan, one edge from each class below c, is matched edge for
      edge, and sigma is an order isomorphism, so sigma carries the set
      below c onto the set below its image's cover class c'; the tops of
      those sets are c and c', so sigma(c) = c'.

    Every witness extends.  The product rules of criterion 5 (C*C is the
    representative of the meet, Cll*C is the cover or zero by the order,
    Cll*Cll is the cover or zero by equality) read only meets, the order
    and equality, and sigma keeps all three.  A failure is an
    ``InvariantViolation``.
    """
    sigma = dict(w.vertex_map)
    pi: dict[SIdem, SIdem] = {x: cd2.C[cd2.order.index[sigma[x.u]]] for x in cd1.C}
    pi.update((SIdem(*a), SIdem(*b)) for a, b in w.label_map)
    for x in cd1.elements:
        for y in cd1.elements:
            p = cd1.product(x, y)
            q = cd2.product(pi[x], pi[y])
            if (pi[p] if p is not None else None) != q:
                raise InvariantViolation(
                    f"an order isomorphism broke the CD product {cd1.fmt(x)} * {cd1.fmt(y)}"
                )
    return {"classes": sigma, "elements": pi}
