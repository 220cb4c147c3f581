"""Cores of idempotents and the derived order on nonzero D-classes.

The core of an idempotent e is the least subset of e's down-set containing
e that is closed under (2) nonzero products, (3) absorbing incomparable
covers with nonzero product, and (4) interval fill.  Class a sits below
class b whenever some core contains comparable representatives of both;
the transitive closure of those pairs is the vertex order of the labelled
graph, and it carries a meet with e_{a^b} = e_a AND e_b whenever nonzero.

Cores are computed for arbitrary canonical idempotents (word, vec) so the
restriction of the class order to depth-0 idempotents can be validated
against conjugated corners instead of assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement

from .hull import (
    HullIdempotent,
    covers_below_at,
    idem_leq,
    idem_product,
    make_idem,
)
from .shift import InvariantViolation, TransitionMatrix, Word, f_classes


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
            p = idem_product(T, f, g)
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
                        if idem_leq(T, f, g) or idem_leq(T, g, f):
                            continue
                        if idem_product(T, f, g) is None:
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
                if e1 == e2 or not idem_leq(T, e1, e2):
                    continue
                for u in f_classes(T):
                    g = make_idem(T, e1.word, u)
                    if g is None or g in members:
                        continue
                    if g != e1 and g != e2 and idem_leq(T, e1, g) and idem_leq(T, g, e2):
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


def core_of(T: TransitionMatrix, vec: int) -> frozenset[int]:
    """Core of the depth-0 idempotent of a follower class, as vectors."""
    members = core_of_at(T, (), vec)
    if any(e.word for e in members):
        raise InvariantViolation("core of a class left the depth-0 layer")
    return frozenset(e.vec for e in members)


@dataclass(frozen=True)
class CoreOrder:
    """Nonzero D-classes with the derived order and its meet table.

    Classes are follower-class bitmasks; ``pairs`` holds (lo, hi) with
    lo below-or-equal hi; ``meets[(a, b)]`` is the greatest lower bound
    (None for zero).
    """

    matrix: TransitionMatrix
    classes: tuple[int, ...]
    pairs: frozenset[tuple[int, int]]
    meets: dict[tuple[int, int], "int | None"] = field(hash=False)
    cores: dict[int, frozenset[int]] = field(hash=False)

    def leq(self, a: int, b: int) -> bool:
        return (a, b) in self.pairs

    def meet(self, a: int, b: int) -> "int | None":
        return self.meets[(a, b)]

    def below(self, v: int) -> tuple[int, ...]:
        """B_v: all classes below-or-equal v, in canonical order."""
        return tuple(c for c in self.classes if (c, v) in self.pairs)

    def hasse(self) -> tuple[tuple[int, int], ...]:
        covers = []
        for a, b in sorted(self.pairs):
            if a == b:
                continue
            if any(
                c != a and c != b and (a, c) in self.pairs and (c, b) in self.pairs
                for c in self.classes
            ):
                continue
            covers.append((a, b))
        return tuple(covers)


def build_order(
    T: TransitionMatrix, rule_order: tuple[int, int, int] = (2, 3, 4)
) -> CoreOrder:
    """Transitive-reflexive closure of within-core comparabilities, plus
    the meet table.  Antisymmetry is verified, never repaired."""
    classes = f_classes(T)
    cores = {v: core_of_at(T, (), v, rule_order) for v in classes}
    pairs = {(v, v) for v in classes}
    for core in cores.values():
        for f in core:
            for g in core:
                if idem_leq(T, f, g):
                    pairs.add((f.vec, g.vec))
    # transitive closure
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for c, d in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    for a, b in pairs:
        if a != b and (b, a) in pairs:
            raise InvariantViolation(
                f"class order is not antisymmetric: {T.fmt_vec(a)} ~ {T.fmt_vec(b)}"
            )
    meets: dict[tuple[int, int], int | None] = {}
    for a in classes:
        for b in classes:
            lower = [c for c in classes if (c, a) in pairs and (c, b) in pairs]
            if not lower:
                meets[(a, b)] = None
                continue
            m = a & b
            if m not in classes or (m, a) not in pairs or (m, b) not in pairs:
                raise InvariantViolation(
                    f"meet of {T.fmt_vec(a)}, {T.fmt_vec(b)} is not the AND class"
                )
            if any((c, m) not in pairs for c in lower):
                raise InvariantViolation(
                    f"AND class of {T.fmt_vec(a)}, {T.fmt_vec(b)} is not the glb"
                )
            meets[(a, b)] = m
    core_vecs = {v: frozenset(e.vec for e in core) for v, core in cores.items()}
    return CoreOrder(T, classes, frozenset(pairs), meets, core_vecs)


@lru_cache(maxsize=None)
def cached_order(T: TransitionMatrix) -> CoreOrder:
    return build_order(T)


def check_meet_identity(T: TransitionMatrix, order: CoreOrder) -> bool:
    """e_a e_b = e_{a^b} whenever the meet is nonzero, and whenever a and b
    share an upper bound (zero meet then forces a zero product)."""
    for a in order.classes:
        for b in order.classes:
            m = order.meet(a, b)
            if m is not None:
                if a & b != m:
                    return False
            elif any(
                order.leq(a, c) and order.leq(b, c) for c in order.classes
            ):
                if a & b != 0:
                    return False
    return True
