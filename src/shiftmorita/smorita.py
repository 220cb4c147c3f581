"""Idempotents of the Morita-equivalent triple semigroup and the
combinatorial data CD.

A diagonal triple [u, g, u] pairs a nonzero D-class u with a hull
idempotent g below u's representative; two triples are the same element
exactly when the middles agree and the outer classes have nonzero meet, so
each element is stored with the least class that represents it.  Products
insert the representative of the meet between the middles.

CD consists of the class representatives themselves plus the guarded
covers [b, f, b]; it is closed under products, its guarded covers are
exactly its primitive idempotents, and a D-class preserving isomorphism of
two CDs is what the decision procedure's graph search must agree with.
Its guarded covers grouped by (outer class, D-class) have the sizes of the
graph's label counts, so the CD search shares the graph search's engine and
keeps its own finisher, the full product table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core_order import CoreOrder, _bits, cached_order
from .decide import order_isomorphisms
from .hull import (
    HullIdempotent,
    base_idem,
    covers_below,
    dclass_rep,
    enumerate_idems,
    fmt_idem,
    idem_leq,
    idem_product,
)
from .shift import InvariantViolation, TransitionMatrix


@dataclass(frozen=True)
class SIdem:
    """Canonical form of a diagonal triple [u, g, u]; zero is None."""

    u: int
    g: HullIdempotent

    def key(self) -> tuple:
        return (self.u, self.g.key())


def make_sidem(
    T: TransitionMatrix, order: CoreOrder, u: int, g: "HullIdempotent | None"
) -> "SIdem | None":
    """Normalize [u, g, u] to its least equivalent outer class.

    Valid classes for the middle g are those whose representative sits
    above g: the classes that contain g's letter, or every letter of g's
    vector when g's word is empty.  The equality class of [u, g, u] is
    closed under meets, so the fold of the valid classes connected to u by
    nonzero meets is the canonical representative.  The group grows while
    a valid class's down-set meets the union of the group's down-sets.
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
    group, reach = 1 << i, order.down[i]
    grown = True
    while grown:
        grown = False
        for j in _bits(valid & ~group):
            if order.down[j] & reach:
                group |= 1 << j
                reach |= order.down[j]
                grown = True
    least = u
    for j in _bits(group):
        least = order.meet(least, order.classes[j])
        if least is None:
            raise InvariantViolation("equality class of a triple has no meet")
    if not group >> order.index[least] & 1:
        raise InvariantViolation("least equivalent class does not carry the middle")
    return SIdem(least, g)


def sidem_equal(x: "SIdem | None", y: "SIdem | None", order: CoreOrder) -> bool:
    """s = t with both outer meets nonzero, or both zero."""
    if x is None or y is None:
        return x is None and y is None
    return x.g == y.g and order.meet(x.u, y.u) is not None


def sidem_leq(
    T: TransitionMatrix, order: CoreOrder, x: "SIdem | None", y: "SIdem | None"
) -> bool:
    if x is None:
        return True
    if y is None:
        return False
    return idem_leq(T, x.g, y.g) and order.meet(x.u, y.u) is not None


def sidem_product(
    T: TransitionMatrix, order: CoreOrder, x: "SIdem | None", y: "SIdem | None"
) -> "SIdem | None":
    """[u, g e_{u^v} h, v], renormalized; zero when anything collapses."""
    if x is None or y is None:
        return None
    m = order.meet(x.u, y.u)
    if m is None:
        return None
    mid = idem_product(T, idem_product(T, x.g, base_idem(T, m)), y.g)
    if mid is None:
        return None
    return make_sidem(T, order, m, mid)


class CDSet:
    """C (class representatives) and Cll (guarded covers) with products."""

    def __init__(self, T: TransitionMatrix):
        self.matrix = T
        self.order = cached_order(T)
        order = self.order
        self.C: tuple[SIdem, ...] = tuple(
            sorted(
                (make_sidem(T, order, v, base_idem(T, v)) for v in order.classes),
                key=SIdem.key,
            )
        )
        cll: list[SIdem] = []
        for b in order.classes:
            for f in order.label_covers(b):
                s = make_sidem(T, order, b, f)
                if s.u != b:
                    raise InvariantViolation("guarded cover left its own class")
                cll.append(s)
        self.Cll: tuple[SIdem, ...] = tuple(sorted(cll, key=SIdem.key))
        for x in self.C:
            if not x.u == dclass_rep(x.g) == x.g.vec:
                raise InvariantViolation("class representative is not its own D-class")
        if set(self.C) & set(self.Cll):
            raise InvariantViolation("C and Cll are not disjoint")
        self.elements: tuple[SIdem, ...] = self.C + self.Cll

    def product(self, x: "SIdem | None", y: "SIdem | None") -> "SIdem | None":
        p = sidem_product(self.matrix, self.order, x, y)
        if p is not None and p not in self.elements:
            raise InvariantViolation(
                f"CD is not closed under products: {self.fmt(x)} * {self.fmt(y)}"
            )
        return p

    def cover_groups(self) -> dict[tuple[int, int], list[SIdem]]:
        """Guarded covers by (outer class, D-class), each group sorted."""
        out: dict[tuple[int, int], list[SIdem]] = {}
        for x in self.Cll:
            out.setdefault((x.u, self.dtag(x)), []).append(x)
        for g in out.values():
            g.sort(key=SIdem.key)
        return out

    def dtag(self, x: SIdem) -> int:
        """The D-class of a CD element, read off its middle."""
        return dclass_rep(x.g)

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
    covers."""
    order = cached_order(T)
    cd = CDSet(T)
    cset = set(cd.C)

    def in_c(x: "SIdem | None") -> bool:
        return x is not None and any(
            sidem_equal(x, c, order) for c in cset
        )

    # (1) products of representatives stay representatives
    for x in cd.C:
        for y in cd.C:
            p = sidem_product(T, order, x, y)
            if p is not None and not in_c(p):
                return False

    # (2) interval closure over every diagonal triple with short middles
    all_sidems = {
        make_sidem(T, order, u, g)
        for u in order.classes
        for g in enumerate_idems(T, 1)
        if idem_leq(T, g, base_idem(T, u))
    }
    for f in all_sidems:
        if in_c(f):
            continue
        for lo in cd.C:
            for hi in cd.C:
                if sidem_leq(T, order, lo, f) and sidem_leq(T, order, f, hi):
                    return False

    # (3) products of incomparable covers of a representative land in C
    for v in order.classes:
        covers = [make_sidem(T, order, v, g) for g in covers_below(T, v)]
        for f, g in combinations(covers, 2):
            if sidem_leq(T, order, f, g) or sidem_leq(T, order, g, f):
                continue
            p = sidem_product(T, order, f, g)
            if p is not None and not in_c(p):
                return False
    return True


def cd_isomorphic(cd1: CDSet, cd2: CDSet) -> "dict | None":
    """Search for a D-class preserving isomorphism CD1 -> CD2.

    The class bijection must be an order isomorphism and carry the guarded
    covers grouped by (outer class, D-class) onto matching groups; any such
    data determines the map, which is then re-verified on the full product
    table before being returned.
    """
    o1, o2 = cd1.order, cd2.order
    if len(o1.classes) != len(o2.classes) or len(cd1.Cll) != len(cd2.Cll):
        return None
    g1, g2 = cd1.cover_groups(), cd2.cover_groups()
    for sigma in order_isomorphisms(
        o1, {k: len(g) for k, g in g1.items()}, o2, {k: len(g) for k, g in g2.items()}
    ):
        found = _assemble_and_verify(cd1, cd2, sigma, g1, g2)
        if found is not None:
            return found
    return None


def _assemble_and_verify(cd1, cd2, sigma, g1, g2) -> "dict | None":
    pi: dict[SIdem, SIdem] = {}
    for c1 in cd1.C:
        pi[c1] = make_sidem(
            cd2.matrix, cd2.order, sigma[c1.u], base_idem(cd2.matrix, sigma[c1.u])
        )
    for (a, d), elems in g1.items():
        partners = g2.get((sigma[a], sigma[d]), [])
        if len(partners) != len(elems):
            return None
        pi.update(zip(elems, partners))
    if len(set(pi.values())) != len(pi):
        return None
    for x in cd1.elements:
        if sigma[cd1.dtag(x)] != cd2.dtag(pi[x]):
            return None
        for y in cd1.elements:
            p = cd1.product(x, y)
            q = cd2.product(pi[x], pi[y])
            if (pi[p] if p is not None else None) != q:
                return None
    return {"classes": dict(sigma), "elements": pi}
