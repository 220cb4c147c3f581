"""Cores of idempotents and the derived order on nonzero D-classes.

The core of an idempotent e is the least subset of e's down-set containing
e that is closed under (2) nonzero products, (3) absorbing incomparable
covers with nonzero product, and (4) interval fill.  Class a sits below
class b whenever some core contains comparable representatives of both;
the transitive closure of those pairs is the vertex order of the labelled
graph, and it carries a meet with e_{a^b} = e_a AND e_b whenever nonzero.

``build_order`` computes the order with one kernel over class indices and
int bitsets (the depth-0 cores as least fixpoints, Warshall's closure), and
its ``CoreOrder`` keeps those bitsets: meets, down-sets, Hasse covers and the
covers of each class representative are read off them, and the classes that
contain each letter are collected on first use.  ``core_of_at`` (the
core of any canonical idempotent) and ``hull.covers_below_at`` work on
``HullIdempotent`` sets; they are the references the tests and sweeps check
the kernel against, and they validate the depth-0 restriction of the class
order against conjugated corners instead of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement

from .hull import (
    HullIdempotent,
    covers_below_at,
    idem_leq,
    idem_product,
    make_idem,
)
from .shift import CACHE_MAXSIZE, InvariantViolation, TransitionMatrix, Word, f_classes


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


@dataclass(frozen=True)
class CoreOrder:
    """Nonzero D-classes with the derived order, in the kernel's bitsets:
    class i is the mask ``classes[i]`` (``index`` inverts that), ``down[i]``
    and ``maxsub[i]`` are the bitsets of the classes below-or-equal it and of
    its maximal proper subclasses, and ``pairs`` holds (lo, hi) with lo
    below-or-equal hi."""

    matrix: TransitionMatrix
    classes: tuple[int, ...]
    pairs: frozenset[tuple[int, int]]
    cores: dict[int, frozenset[int]] = field(hash=False)
    index: dict[int, int] = field(hash=False)
    down: tuple[int, ...] = field(hash=False)
    maxsub: tuple[int, ...] = field(hash=False)

    def leq(self, a: int, b: int) -> bool:
        return (a, b) in self.pairs

    def meet(self, a: int, b: int) -> "int | None":
        """The greatest lower bound, None for zero; ``build_order`` checks
        that it is the AND class whenever the down-sets intersect."""
        return a & b if self.down[self.index[a]] & self.down[self.index[b]] else None

    def below(self, v: int) -> tuple[int, ...]:
        """B_v: all classes below-or-equal v, in canonical order."""
        return tuple(self.classes[j] for j in _bits(self.down[self.index[v]]))

    def hasse(self) -> tuple[tuple[int, int], ...]:
        covers = []
        for b, db in enumerate(self.down):
            strict = db & ~(1 << b)
            lower = 0
            for c in _bits(strict):
                lower |= self.down[c] & ~(1 << c)
            covers.extend((a, b) for a in _bits(strict & ~lower))
        return tuple((self.classes[a], self.classes[b]) for a, b in sorted(covers))

    def covers(self, v: int) -> tuple[HullIdempotent, ...]:
        """``covers_below(T, v)`` read off the bitsets: ((), u) for each
        maximal proper subclass u of v, then ((b,), row b) for each letter b
        of v in no proper subclass."""
        flat = [self.classes[j] for j in _bits(self.maxsub[self.index[v]])]
        inner = 0
        for u in flat:
            inner |= u
        return tuple(HullIdempotent((), u) for u in flat) + tuple(
            HullIdempotent((b,), self.matrix.rows[b]) for b in _bits(v & ~inner)
        )

    @cached_property
    def letter_classes(self) -> tuple[int, ...]:
        """Per letter, the bitset of the classes that contain it; computed
        on first use, so ``build_order`` does not pay for it."""
        out = [0] * self.matrix.n
        for i, c in enumerate(self.classes):
            for b in _bits(c):
                out[b] |= 1 << i
        return tuple(out)

    def label_covers(self, v: int) -> tuple[HullIdempotent, ...]:
        """The covers that label v: all but the F-type ones (each the
        representative of its own class) whose class is below v."""
        return tuple(f for f in self.covers(v) if f.word or not self.leq(f.vec, v))


def _bits(x: int):
    """Indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def build_order(T: TransitionMatrix) -> CoreOrder:
    """Transitive-reflexive closure of within-core comparabilities.
    Antisymmetry and the meets are verified, never repaired.

    One kernel over class indices (positions in ``f_classes(T)``) and int
    bitsets over them.  It returns what the ``core_of_at`` reference gives
    with the pair closure and the meet scan over its cores, and covers
    equal to ``covers_below``; the tests check that they agree.
    """
    classes = f_classes(T)
    k = len(classes)
    index = {c: i for i, c in enumerate(classes)}
    # sub[i]/sup[i]: subset relation on masks (reflexive); inc[i]: classes
    # incomparable with i whose AND with i is nonzero.
    sub = [1 << i for i in range(k)]
    sup = sub.copy()
    inc = [0] * k
    # classes are sorted, so a later class is never a subset of an earlier one
    for i, a in enumerate(classes):
        for j in range(i + 1, k):
            b = classes[j]
            m = a & b
            if m == a:
                sub[j] |= 1 << i
                sup[i] |= 1 << j
            elif m:
                inc[i] |= 1 << j
                inc[j] |= 1 << i
    # maxsub[i]: maximal proper subclasses of i
    maxsub = [0] * k
    for i in range(k):
        proper = sub[i] & ~(1 << i)
        lower = 0
        for j in _bits(proper):
            lower |= sub[j] & ~(1 << j)
        maxsub[i] = proper & ~lower

    down = [0] * k
    cores = {}
    for v in range(k):
        core = _core(v, classes, index, sub, sup, maxsub, inc)
        for g in _bits(core):
            down[g] |= sub[g] & core
        cores[classes[v]] = frozenset(classes[j] for j in _bits(core))
    # Warshall's closure: the order lies inside the subset relation, so only
    # the supersets of c can have c below them
    for c in range(k):
        dc = down[c]
        for i in _bits(sup[c] & ~(1 << c)):
            if down[i] >> c & 1:
                down[i] |= dc

    pairs = set()
    for b in range(k):
        for a in _bits(down[b] & ~(1 << b)):
            if down[a] >> b & 1:
                raise InvariantViolation(
                    f"class order is not antisymmetric: "
                    f"{T.fmt_vec(classes[a])} ~ {T.fmt_vec(classes[b])}"
                )
        pairs.update((classes[a], classes[b]) for a in _bits(down[b]))
    # CoreOrder.meet relies on these checks
    for i, a in enumerate(classes):
        da = down[i]
        for j, b in enumerate(classes):
            lower = da & down[j]
            if not lower:
                continue
            m = index.get(a & b)
            if m is None or not (lower >> m & 1):
                raise InvariantViolation(
                    f"meet of {T.fmt_vec(a)}, {T.fmt_vec(b)} is not the AND class"
                )
            if lower & ~down[m]:
                raise InvariantViolation(
                    f"AND class of {T.fmt_vec(a)}, {T.fmt_vec(b)} is not the glb"
                )
    return CoreOrder(
        T, classes, frozenset(pairs), cores, index, tuple(down), tuple(maxsub)
    )


def _core(
    v: int,
    classes: tuple[int, ...],
    index: dict[int, int],
    sub: list[int],
    sup: list[int],
    maxsub: list[int],
    inc: list[int],
) -> int:
    """Core of class v's depth-0 idempotent, as a bitset of class indices.

    At depth 0, rule (2) is AND, rule (4) adds the subset interval between
    two members, and rule (3) ranges over the F-type covers only: the
    maximal proper subclasses of members, collected in ``covers``.  The
    one-letter (O-type) covers never fire it.  Two of them multiply to zero
    unless they are equal, and ((b,), row b) sits below every F-type cover
    ((), u) with b in u and has zero product with every other.  The rules
    are monotone, so the least fixpoint does not depend on their order.
    """
    core = 0
    covers = 0
    todo = [v]
    while todo:
        while todo:
            x = todo.pop()
            if core >> x & 1:
                continue
            core |= 1 << x
            covers |= maxsub[x]
            cx = classes[x]
            new = 0
            # (2): ANDs with comparable members are members already
            for y in _bits(inc[x] & core):
                new |= 1 << index[cx & classes[y]]
            # (4): intervals between x and its comparable members
            hull = 0
            for y in _bits(sub[x] & core):
                hull |= sup[y]
            new |= hull & sub[x]
            hull = 0
            for y in _bits(sup[x] & core):
                hull |= sub[y]
            new |= hull & sup[x]
            todo.extend(_bits(new & ~core))
        # (3): a cover joins when it meets an incomparable cover
        todo.extend(x for x in _bits(covers & ~core) if inc[x] & covers)
    return core


@lru_cache(maxsize=CACHE_MAXSIZE)
def cached_order(T: TransitionMatrix) -> CoreOrder:
    return build_order(T)


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
