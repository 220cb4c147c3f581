"""Cores of idempotents and the derived order on nonzero D-classes.

The core of an idempotent e is the least subset of e's down-set containing
e that is closed under (2) nonzero products, (3) absorbing incomparable
covers with nonzero product, and (4) interval fill.  Class a sits below
class b whenever some core contains comparable representatives of both;
the transitive closure of those pairs is the vertex order of the labelled
graph, and it carries a meet with e_{a^b} = e_a AND e_b whenever nonzero.

``build_order`` computes the order with one kernel over class indices and
int bitsets (the depth-0 cores as least fixpoints, Warshall's closure), and
its ``CoreOrder`` keeps those bitsets: meets, Hasse covers and the covers
of each class representative are read off them, and the pair and core sets
are derived on first use.  The maximal proper subclasses (``maxsub``, from
the subset relation) and the Hasse covers (``CoreOrder.hasse``, from the
down-sets) are one transitive reduction, ``_maximal_below``, of two
relations.  Antisymmetry is checked as triangularity (see
``build_order``).  The set-up costs
O(k·n) big-int operations for k classes and n letters, from one bitset per
letter.  At depth 0, rule (4) adds nothing once rules (2) and (3) are
closed, so the kernel runs only those two (``_core`` has the proof).

``CountedOrder`` is the one owner of the items grouped on pairs of classes
that decide Morita equivalence: a graph's labels by (range vertex, cover
class), which are also the combinatorial data's guarded covers by (outer
class, D-class).  Each graph builds one (``LabelledGraph.counted_order``),
and one search reads it (``decide.order_isomorphisms``, the group sizes
as counts); ``CountedOrder.carry`` has one caller, the witness extension
``decide._extend_witness``, which zips the groups along the class
bijection found.  The combinatorial data takes that witness's label map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Any, Iterable, Sequence

from .hull import HullIdempotent
from .shift import CACHE_MAXSIZE, InvariantViolation, TransitionMatrix, _bits, f_classes


@dataclass(frozen=True)
class CoreOrder:
    """Nonzero D-classes with the derived order, in the kernel's bitsets:
    class i is the mask ``classes[i]`` (``index`` inverts that), ``down[i]``
    and ``maxsub[i]`` are the bitsets of the classes below-or-equal it and of
    its maximal proper subclasses, ``letter_classes[b]`` is the bitset of
    the classes that contain letter b, and ``core_bits[i]`` that of class
    i's core.  ``pairs`` ((lo, hi) with lo below-or-equal hi) and ``cores``
    (class to core) are derived on first use; neither a decision nor the
    LGIS reads them."""

    matrix: TransitionMatrix
    classes: tuple[int, ...]
    index: dict[int, int] = field(hash=False)
    down: tuple[int, ...]
    maxsub: tuple[int, ...]
    letter_classes: tuple[int, ...]
    core_bits: tuple[int, ...]

    @cached_property
    def pairs(self) -> frozenset[tuple[int, int]]:
        c = self.classes
        return frozenset((c[a], c[b]) for b, d in enumerate(self.down) for a in _bits(d))

    @cached_property
    def cores(self) -> dict[int, frozenset[int]]:
        c = self.classes
        return {v: frozenset(c[g] for g in _bits(m)) for v, m in zip(c, self.core_bits)}

    def leq(self, a: int, b: int) -> bool:
        """a below-or-equal b; False when either is not a class."""
        i, j = self.index.get(a), self.index.get(b)
        return i is not None and j is not None and self.down[j] >> i & 1 == 1

    def meet(self, a: int, b: int) -> "int | None":
        """The greatest lower bound, None for zero; ``build_order`` checks
        that it is the AND class whenever the down-sets intersect."""
        return a & b if self.down[self.index[a]] & self.down[self.index[b]] else None

    def below(self, v: int) -> tuple[int, ...]:
        """B_v: all classes below-or-equal v, in canonical order."""
        return tuple(self.classes[j] for j in _bits(self.down[self.index[v]]))

    def hasse(self) -> tuple[tuple[int, int], ...]:
        covers = sorted((a, b) for b, m in enumerate(_maximal_below(self.down)) for a in _bits(m))
        return tuple((self.classes[a], self.classes[b]) for a, b in covers)

    def covers(self, v: int) -> tuple[HullIdempotent, ...]:
        """``reference.covers_below(T, v)`` read off the bitsets: ((), u) for each
        maximal proper subclass u of v, then ((b,), row b) for each letter b
        of v in no proper subclass."""
        return self.label_covers(v, guarded=False)

    def label_covers(self, v: int, guarded: bool = True) -> tuple[HullIdempotent, ...]:
        """The covers that label v: all but the F-type ones (each the
        representative of its own class) whose class is below v; every
        cover when not ``guarded``."""
        i = self.index[v]
        classes, sub = self.classes, self.maxsub[i]
        inner = 0
        for j in _bits(sub):
            inner |= classes[j]
        flat = sub & ~self.down[i] if guarded else sub
        return tuple(HullIdempotent((), classes[j]) for j in _bits(flat)) + tuple(
            HullIdempotent((b,), self.matrix.rows[b]) for b in _bits(v & ~inner)
        )


class CountedOrder:
    """A class order with items grouped on pairs (v, c) of classes, as the
    isomorphism search reads it: down-sets as bitsets over class indices;
    per class, the group sizes at it by c (``at``) and into it by v
    (``into``) as (class index, n) pairs; and each class's profile, an
    invariant of count-preserving isomorphisms, with ``sorted_profile``
    their multiset.  ``groups`` keeps each group's items in the order
    given, for ``carry``.  Outside the tests, only
    ``LabelledGraph.counted_order`` builds one, over the graph's labels,
    and only the graph search and its certificate read it.

    Every class must come after the classes below it, so that fixing the
    classes in index order fixes each down-set with its top; ``ValueError``
    otherwise.  ``build_order`` checks this.
    """

    def __init__(self, order: CoreOrder, items: Iterable[tuple[tuple[int, int], Any]]):
        self.classes = classes = order.classes
        index = order.index
        self.down = down = order.down
        if any(d >> i + 1 for i, d in enumerate(down)):
            raise ValueError("a class is listed before a class below it")
        grouped: dict[tuple[int, int], list] = {}
        for key, item in items:
            grouped.setdefault(key, []).append(item)
        self.groups = {key: tuple(group) for key, group in grouped.items()}
        at: list[list[tuple[int, int]]] = [[] for _ in classes]
        into: list[list[tuple[int, int]]] = [[] for _ in classes]
        # sizes[v]: |down(c)| of each label at v; total[c]: labels into c
        sizes: list[list[int]] = [[] for _ in classes]
        total = [0] * len(classes)
        for (v, c), group in grouped.items():
            i, j, n = index[v], index[c], len(group)
            at[i].append((j, n))
            into[j].append((i, n))
            sizes[i] += [down[j].bit_count()] * n
            total[j] += n
        self.at = [tuple(x) for x in at]
        self.into = [tuple(y) for y in into]
        # a label into c has an edge out of each class below c
        above, out = [0] * len(classes), [0] * len(classes)
        for c, dc in enumerate(down):
            for a in _bits(dc):
                above[a] += 1
                out[a] += total[c]
        # (below, above, edges out of v, |down(class)| of each label at v)
        self.profile = [
            (d.bit_count(), above[i], out[i], tuple(sorted(sizes[i])))
            for i, d in enumerate(down)
        ]

    @cached_property
    def sorted_profile(self) -> list[tuple]:
        """The profiles as a sorted list: their multiset, compared whole."""
        return sorted(self.profile)

    def carry(self, other: "CountedOrder", sigma: dict[int, int]) -> dict:
        """The item bijection over a class bijection sigma: each group at
        (v, c), in order, onto the group of ``other`` at (sigma v, sigma c).
        ``InvariantViolation`` when two such groups differ in size, which a
        count-preserving sigma rules out."""
        image = {(sigma[v], sigma[c]): group for (v, c), group in self.groups.items()}
        if any(len(other.groups.get(k, ())) != len(g) for k, g in image.items()):
            raise InvariantViolation("groups of an order isomorphism differ in size")
        return {x: y for k, g in image.items() for x, y in zip(g, other.groups[k])}


def _maximal_below(rel: Sequence[int]) -> list[int]:
    """The transitive reduction of a reflexive, transitive bitset relation:
    for each i, the maximal members of ``rel[i]`` other than i."""
    strict = [r & ~(1 << i) for i, r in enumerate(rel)]
    out = []
    for s in strict:
        lower = 0
        for j in _bits(s):
            lower |= strict[j]
        out.append(s & ~lower)
    return out


def build_order(T: TransitionMatrix) -> CoreOrder:
    """Transitive-reflexive closure of within-core comparabilities.
    Antisymmetry and the meets are verified, never repaired.

    One kernel over class indices (positions in ``f_classes(T)``) and int
    bitsets over them.  With ``has[b]`` the classes that contain letter b,
    class i's supersets are the AND of ``has[b]`` over its letters, its
    subsets the AND of ``~has[b]`` over the other letters, and the classes
    it meets the OR over its letters.  It returns what the
    ``reference.core_of_at`` cores give with the pair closure and the meet
    scan over them, and covers equal to ``reference.covers_below``; the
    tests check that they agree.

    Antisymmetry is checked as triangularity, ``down[b] >> b + 1 == 0``: if
    a <= b <= a, a is listed at or before b and b at or before a.  This is
    stronger, and always holds: ``down[g]`` takes bits of ``sub[g]`` only,
    and the closure joins down-sets of subclasses only, so the order lies
    inside the subset relation, over sorted distinct masks.
    """
    classes = f_classes(T)
    k = len(classes)
    index = {c: i for i, c in enumerate(classes)}
    every = (1 << k) - 1
    # has[b]: the classes that contain letter b
    has = [0] * T.n
    for i, c in enumerate(classes):
        for b in _bits(c):
            has[b] |= 1 << i
    # sub[i]/sup[i]: subset relation on masks (reflexive); inc[i]: classes
    # incomparable with i whose AND with i is nonzero.
    sub, sup, inc = [], [], []
    for c in classes:
        below = above = every
        meets = 0
        for b, h in enumerate(has):
            if c >> b & 1:
                above &= h
                meets |= h
            else:
                below &= ~h
        sub.append(below)
        sup.append(above)
        inc.append(meets & ~below & ~above)
    maxsub = _maximal_below(sub)  # maximal proper subclasses

    down = [0] * k
    core_bits = []
    for v in range(k):
        core = rest = _core(v, classes, index, maxsub, inc)
        core_bits.append(core)
        while rest:
            low = rest & -rest
            g = low.bit_length() - 1
            down[g] |= sub[g] & core
            rest ^= low
    # Warshall's closure: the order lies inside the subset relation, so only
    # the supersets of c can have c below them
    for c in range(k):
        dc = down[c]
        rest = sup[c] & ~(1 << c)
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            if down[i] >> c & 1:
                down[i] |= dc
            rest ^= low

    for b, db in enumerate(down):
        if db >> b + 1:
            raise InvariantViolation(
                f"class order is not antisymmetric: "
                f"{T.fmt_vec(classes[db.bit_length() - 1])} is below "
                f"{T.fmt_vec(classes[b])} but listed after it"
            )
    # CoreOrder.meet relies on these checks.  Both are symmetric in a and b,
    # and hold for a = b since down-sets are reflexive.
    for i, a in enumerate(classes):
        da = down[i]
        for j in range(i + 1, k):
            lower = da & down[j]
            if not lower:
                continue
            b = classes[j]
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
        T, classes, index, tuple(down), tuple(maxsub), tuple(has), tuple(core_bits)
    )


def _core(
    v: int,
    classes: tuple[int, ...],
    index: dict[int, int],
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

    Rule (4) adds nothing here, so only rules (2) and (3) run.  Let C be
    the least set with v closed under (2) and (3), and h a cover (a maximal
    proper subclass of a member) outside C.  Every member but v came from
    (2), as the AND of two incomparable members, or from (3), as a cover.
    - No member m meets h incomparably.  Such an m is no cover, else (3)
      adds h, and it is not v, which contains h.  So m = a AND b by (2).
      Both contain m, so both meet h and neither lies inside h; as m does
      not contain h, one of them does not.  That one is larger than m and
      meets h incomparably, so no such m is maximal.
    - No member lies inside h.  Take x maximal among them.  A member
      larger than x meets h, so by the above it contains h.  If x = a AND b,
      then x contains h; if x is a maximal proper subclass of a member m,
      then h = m.  Either way h is in C.
    So for members x <= y and a class g between them, g not y, a class
    maximal among those containing g strictly inside y is a cover of y
    containing x, so a member; repeating below it reaches g.  C is closed
    under (4), and is the core.

    Rule (2) ANDs each member with the members taken before it, so with
    each other member once.
    """
    core = covers = 0
    todo = 1 << v
    while todo:
        while todo:
            low = todo & -todo
            x = low.bit_length() - 1
            todo ^= low
            covers |= maxsub[x]
            # (2): ANDs with comparable members are members already
            new = 0
            cx = classes[x]
            rest = inc[x] & core
            while rest:
                low_y = rest & -rest
                new |= 1 << index[cx & classes[low_y.bit_length() - 1]]
                rest ^= low_y
            core |= low
            todo |= new & ~core
        # (3): a cover joins when it meets an incomparable cover
        for x in _bits(covers & ~core):
            if inc[x] & covers:
                todo |= 1 << x
    return core


@lru_cache(maxsize=CACHE_MAXSIZE)
def cached_order(T: TransitionMatrix) -> CoreOrder:
    return build_order(T)

