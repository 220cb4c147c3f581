"""Cores of idempotents and the derived order on nonzero D-classes.

The core of an idempotent e is the least subset of e's down-set containing
e that is closed under (2) nonzero products, (3) absorbing incomparable
covers with nonzero product, and (4) interval fill.  Class a sits below
class b whenever some core contains comparable representatives of both;
the transitive closure of those pairs is the vertex order of the labelled
graph, and it carries a meet with e_{a^b} = e_a AND e_b whenever nonzero.

``build_order`` computes the order with one kernel over class indices and
int bitsets (the depth-0 cores as least fixpoints, Warshall's closure).  It
computes only the cores of the classes in no other class's core, since a
member's core lies inside the core that holds it, and it checks the meets
on the incomparable pairs only; ``build_order`` has both proofs.  Its
``CoreOrder`` keeps the bitsets: meets, Hasse covers and the covers of each
class representative are read off them, and the pair set and every class's
core are derived on first use.  The maximal proper subclasses (``maxsub``,
from the subset relation) and the Hasse covers (``CoreOrder.hasse``, from
the down-sets) are one transitive reduction, ``_maximal_below``, of two
relations.  Antisymmetry is checked as triangularity (see
``build_order``).  The set-up (``_subsets``) costs O(k·n) big-int
operations for k classes and n letters, from one bitset per letter.  At
depth 0, rule (4) adds nothing once rules (2) and (3) are closed, so the
kernel runs only those two (``_core`` has the proof).

Each class's labels are read off the bitsets by one rule,
``CoreOrder._label_bits``: the labelled graph's covers
(``CoreOrder.label_covers``, which are also the combinatorial data's
guarded covers, and from which ``LabelledGraph.labels`` is built on first
use) and their counts on pairs (range vertex, cover class), which decide
Morita equivalence (``CoreOrder.label_counts``, computed once per order).
A decision reads only the counts: the search (``decide.order_isomorphisms``),
its gate on the sorted profiles and the certificate's label and edge
counts, which are sums over the profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

from .hull import HullIdempotent
from .shift import CACHE_MAXSIZE, InvariantViolation, TransitionMatrix, _bits, f_classes


class LabelCounts(NamedTuple):
    """A class order's labels counted on pairs (v, c) of class indices:
    per class, the counts at it by c (``at``) and into it by v (``into``)
    as (class index, n) pairs, and its profile (below, above, edges out of
    v, sorted |down(c)| of each label at v), an invariant of
    count-preserving isomorphisms."""

    at: list[tuple[tuple[int, int], ...]]
    into: list[tuple[tuple[int, int], ...]]
    profile: list[tuple]


@dataclass(frozen=True)
class CoreOrder:
    """Nonzero D-classes with the derived order, in the kernel's bitsets:
    class i is the mask ``classes[i]`` (``index`` inverts that), ``down[i]``
    and ``maxsub[i]`` are the bitsets of the classes below-or-equal it and of
    its maximal proper subclasses, and ``letter_classes[b]`` is the bitset
    of the classes that contain letter b.  ``core_bits`` (class i's core at
    i), ``pairs`` ((lo, hi) with lo below-or-equal hi) and ``cores`` (class
    to core) are derived on first use; neither a decision nor the LGIS reads
    them.  ``label_counts`` and ``sorted_profile``, all that a decision
    reads of the labels, are derived on first use too, and so are the
    labelled graph's labels (``LabelledGraph.labels``, from
    ``label_covers``)."""

    matrix: TransitionMatrix
    classes: tuple[int, ...]
    index: dict[int, int] = field(hash=False)
    down: tuple[int, ...]
    maxsub: tuple[int, ...]
    letter_classes: tuple[int, ...]

    @cached_property
    def core_bits(self) -> tuple[int, ...]:
        """Each class's core as a bitset of class indices, by ``_core`` on
        every class (``build_order`` needs the core-maximal ones only)."""
        classes, inc = self.classes, _subsets(self.classes, self.letter_classes)[2]
        return tuple(_core(v, classes, self.index, self.maxsub, inc) for v in range(len(classes)))

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
        i = self.index[v]
        return self._covers(self.maxsub[i], self._label_bits[i][1])

    def label_covers(self, v: int) -> tuple[HullIdempotent, ...]:
        """The covers that label v: all but the F-type ones (each the
        representative of its own class) whose class is below v."""
        return self._covers(*self._label_bits[self.index[v]])

    @cached_property
    def _label_bits(self) -> list[tuple[int, int]]:
        """Each class's labels as two bitsets: the classes of its F-type
        covers, its maximal proper subclasses not below it, and the letters
        of its O-type ones, those in no proper subclass."""
        classes, down, bits = self.classes, self.down, []
        for i, sub in enumerate(self.maxsub):
            inner, rest = 0, sub
            while rest:
                low = rest & -rest
                inner |= classes[low.bit_length() - 1]
                rest ^= low
            bits.append((sub & ~down[i], classes[i] & ~inner))
        return bits

    def _covers(self, flat: int, letters: int) -> tuple[HullIdempotent, ...]:
        classes, rows, out = self.classes, self.matrix.rows, []
        while flat:
            low = flat & -flat
            out.append(HullIdempotent((), classes[low.bit_length() - 1]))
            flat ^= low
        while letters:
            low = letters & -letters
            b = low.bit_length() - 1
            out.append(HullIdempotent((b,), rows[b]))
            letters ^= low
        return tuple(out)

    @cached_property
    def label_counts(self) -> LabelCounts:
        """The labels counted on pairs of classes, as the isomorphism search
        reads them, in one pass over ``_label_bits``: an F-type label of
        class i counts at (i, its class), an O-type one on letter b at (i,
        the class of row b).  Computed once per order."""
        index, down, rows = self.index, self.down, self.matrix.rows
        size = [d.bit_count() for d in down]
        at, into = [], [[] for _ in down]
        # sizes[i]: sorted |down(c)| of each label at i; total[c]: labels into c
        sizes, total = [], [0] * len(down)
        for i, (flat, letters) in enumerate(self._label_bits):
            count = {}
            while flat:
                low = flat & -flat
                count[low.bit_length() - 1] = 1
                flat ^= low
            while letters:
                low = letters & -letters
                j = index[rows[low.bit_length() - 1]]
                count[j] = count.get(j, 0) + 1
                letters ^= low
            at.append(tuple(count.items()))
            mine = []
            for j, n in count.items():
                into[j].append((i, n))
                mine += [size[j]] * n
                total[j] += n
            sizes.append(tuple(sorted(mine)))
        # a label into c has an edge out of each class below c
        above, out = [0] * len(down), [0] * len(down)
        for c, dc in enumerate(down):
            while dc:
                low = dc & -dc
                a = low.bit_length() - 1
                above[a] += 1
                out[a] += total[c]
                dc ^= low
        # (below, above, edges out of i, |down(c)| of each label at i)
        profile = list(zip(size, above, out, sizes))
        return LabelCounts(at, [tuple(y) for y in into], profile)

    @cached_property
    def sorted_profile(self) -> list[tuple]:
        """The profiles as a sorted list: their multiset, compared whole."""
        return sorted(self.label_counts.profile)


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


def _subsets(classes: Sequence[int], has: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """The subset relation on the class masks and the classes each meets
    incomparably, from ``has[b]``, the classes that contain letter b:
    ``sub[i]`` (reflexive) is the AND of ``~has[b]`` over the letters
    outside class i, ``sup[i]`` the AND of ``has[b]`` over its letters, and
    ``inc[i]`` the classes incomparable with i whose AND with i is nonzero,
    from the OR of ``has[b]`` over its letters."""
    every = (1 << len(classes)) - 1
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
    return sub, sup, inc


def build_order(T: TransitionMatrix) -> CoreOrder:
    """Transitive-reflexive closure of within-core comparabilities.
    Antisymmetry and the meets are verified, never repaired.

    One kernel over class indices (positions in ``f_classes(T)``) and int
    bitsets over them, with the subset relation from ``_subsets``.  It
    returns what the ``reference.core_of_at`` cores give with the pair
    closure and the meet scan over them, and covers equal to
    ``reference.covers_below``; the tests check that they agree.

    Only the cores of the core-maximal classes, those in no other class's
    core, are computed:
    - The rules are monotone and read only members and their covers.  Let
      u be in core(v).  By induction on the steps that build core(u), each
      step reads members and covers that core(v) already holds, and core(v)
      is closed under it, so core(u) lies inside core(v).
    - So ``sub[g] & core(u)`` lies inside ``sub[g] & core(v)`` for each g
      of core(u), and core(u) adds no pair to the order.
    - A class lies only in the cores of its supersets, which have higher
      indices (a proper subset is a smaller mask).  The walk runs from the
      last index down and skips each class already in a computed core, so
      it computes exactly the classes in no other class's core: a class u
      in core(v) is skipped, as v was computed or lies in a computed core,
      which then holds u too.

    Antisymmetry is checked as triangularity, ``down[b] >> b + 1 == 0``: if
    a <= b <= a, a is listed at or before b and b at or before a.  This is
    stronger, and always holds: ``down[g]`` takes bits of ``sub[g]`` only,
    and the closure joins down-sets of subclasses only, so the order lies
    inside the subset relation, over sorted distinct masks.

    The meet check skips the comparable pairs.  If the common lower bounds
    of i and j (i listed first) are all of ``down[i]``, then i <= j, so i is
    a subset of j, their AND is i and ``down[i]`` is the common lower bounds:
    the check holds.  For every other pair with common lower bounds, the
    check is that their AND class m is one of them and lies above all of
    them; by reflexivity and transitivity that is ``down[m]`` equal to
    them, and which message a failure gets depends on whether m is one of
    them.
    """
    classes = f_classes(T)
    k = len(classes)
    index = {c: i for i, c in enumerate(classes)}
    # has[b]: the classes that contain letter b
    has = [0] * T.n
    for i, c in enumerate(classes):
        for b in _bits(c):
            has[b] |= 1 << i
    sub, sup, inc = _subsets(classes, has)
    maxsub = _maximal_below(sub)  # maximal proper subclasses

    down = [0] * k
    covered = 0  # the classes in a core computed so far
    for v in range(k - 1, -1, -1):
        if covered >> v & 1:
            continue
        core = rest = _core(v, classes, index, maxsub, inc)
        covered |= core
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
            if not lower or lower == da:
                continue
            b = classes[j]
            m = index.get(a & b)
            if m is None or lower != down[m]:
                if m is None or not (lower >> m & 1):
                    raise InvariantViolation(
                        f"meet of {T.fmt_vec(a)}, {T.fmt_vec(b)} is not the AND class"
                    )
                raise InvariantViolation(
                    f"AND class of {T.fmt_vec(a)}, {T.fmt_vec(b)} is not the glb"
                )
    return CoreOrder(T, classes, index, tuple(down), tuple(maxsub), tuple(has))


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

