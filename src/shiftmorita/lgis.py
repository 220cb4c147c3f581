"""The inverse semigroup of a labelled graph space.

Elements are triples (alpha, A, beta) of labelled paths around a vertex
set A drawn from the family {B_v} plus the empty set, together with a zero
that absorbs products; the product concatenates comparable paths and pulls
the middle sets through relative sources.  For the strongly right resolving
graphs built here a labelled path is determined by consecutive-letter
compatibility and every relative source is either empty or the source set
of the final letter, so everything reduces to vertex-order lookups.

``LgisEngine`` is the element algebra, one product at a time, and the
reference the tests check every table cell against.  It derives once which
labels may follow each label; its paths are the walks along that relation
(``shift.walks``), and its element count sums the per-length, per-last-label
walk counts of ``shift.walk_ends``, so neither runs a level loop of its own.
Its block forms give Green's D and the natural order over a whole element
list, and the axiom suite reads Green's R and L off the paths and middles.
The axiom suite needs every product among thousands
of elements, so ``ProductTables`` fills its tables by path-pair gathers:
a product depends on the two inner paths only through their prefix case
and tail, found from each path's prefixes, and the middle vertex comes
from numpy gathers over the vertex leq and meet tables, on the cells of
comparable path pairs only, in row chunks of at most ``_CHUNK`` such
cells plus one row.  The element-by-element table seeds the two wider ones.
"""

from __future__ import annotations

from collections import Counter
from math import isqrt
from typing import Sequence

from . import reference
from .labelled_graph import LabelledGraph
from .shift import InvariantViolation, _bits, walk_ends, walks

Path = tuple[int, ...]  # label indices in the owning engine
Element = "tuple[Path, int, Path] | None"  # (alpha, A-vertex, beta); None is zero


class LgisEngine:
    """Element algebra over one built labelled graph."""

    def __init__(self, G: LabelledGraph):
        self.graph = G
        self.order = G.order
        self.nlabels = len(G.labels)
        self.ranges = tuple(lab.vertex for lab in G.labels)
        self.srcs = tuple(lab.src_class for lab in G.labels)
        # follow[i]: the labels j that may follow label i in a labelled
        # path (range of j inside the source of i), as a bitset
        self.follow = tuple(
            sum(1 << j for j, r in enumerate(self.ranges) if self.order.leq(r, s))
            for s in self.srcs
        )

    # ----- paths -------------------------------------------------------

    def paths(self, maxlen: int) -> list[Path]:
        """Every labelled path of length <= maxlen in (length, path) order:
        the empty path, then the walks along ``follow``."""
        return [(), *walks(self.follow, maxlen)]

    def relative_source(self, A: "int | None", p: Path) -> "int | None":
        """s(B_A, p) as a vertex (None is the empty set, below nothing)."""
        if not p:
            return A
        if self.order.leq(self.ranges[p[0]], A):
            return self.srcs[p[-1]]
        return None

    # ----- elements ----------------------------------------------------

    def element(self, alpha: Path, A: int, beta: Path) -> Element:
        for p in (alpha, beta):
            if not self._cap_down(p) >> self.order.index[A] & 1:
                raise ValueError("middle set not contained in a source set")
            if not all(self.follow[i] >> j & 1 for i, j in zip(p, p[1:])):
                raise ValueError("invalid labelled path")
        return (alpha, A, beta)

    def multiply(self, x: Element, y: Element) -> Element:
        if x is None or y is None:
            return None
        alpha, A, beta = x
        gamma, B, delta = y
        order = self.order
        if gamma[: len(beta)] == beta:
            # s(A, tail) meets B
            tail = gamma[len(beta):]
            src = self.relative_source(A, tail)
            mid = None if src is None else order.meet(src, B)
            return None if mid is None else (alpha + tail, mid, delta)
        if beta[: len(gamma)] == gamma:
            # A meets s(B, tail), with tail nonempty
            tail = beta[len(gamma):]
            src = self.relative_source(B, tail)
            mid = None if src is None else order.meet(A, src)
            return None if mid is None else (alpha, mid, delta + tail)
        return None

    def inverse(self, x: Element) -> Element:
        return None if x is None else (x[2], x[1], x[0])

    def leq(self, x: Element, y: Element) -> bool:
        """x <= y iff x = (gamma.mu, A, delta.mu) with A inside s(B, mu)."""
        if x is None:
            return True
        if y is None:
            return False
        alpha, A, beta = x
        gamma, B, delta = y
        k = len(alpha) - len(gamma)
        if k < 0 or len(beta) - len(delta) != k:
            return False
        mu = alpha[len(gamma):]
        if alpha[: len(gamma)] != gamma or beta != delta + mu:
            return False
        return self.order.leq(A, self.relative_source(B, mu))

    def d_classes(self, elems: Sequence[Element]) -> list[int]:
        """Green's D-class id per element: -1 for zero, else its middle A.
        x D y via z = (alpha_x, A, beta_y) with z z* = x x*, z* z = y* y.  On
        a full alpha x beta grid per middle (``enumerate_elements``) z is in
        the list, and so is w = x*, whose w w* is x* x.  So every pair passes
        iff x x* is constant on each (alpha, A): checked once per element."""
        seen: dict = {}
        for x in filter(None, elems):
            xx = self.multiply(x, self.inverse(x))
            if seen.setdefault(x[:2], xx) != xx:
                raise InvariantViolation("D-relation witness fails re-verification")
        return [-1 if x is None else x[1] for x in elems]

    def leq_pairs(self, elems: Sequence[Element]) -> list[tuple[int, int]]:
        """Every (i, j) with elems[i] <= elems[j].  Zero is below all.  For
        x = (alpha, A, beta), ``leq`` is asked only on the y with paths
        alpha and beta less a common suffix mu: every other y fails its
        path-shape tests, which return False before any order lookup."""
        by_paths: dict = {}
        for j, y in enumerate(elems):
            if y is not None:
                by_paths.setdefault((y[0], y[2]), []).append(j)
        out: list[tuple[int, int]] = []
        for i, x in enumerate(elems):
            if x is None:
                out += [(i, j) for j in range(len(elems))]
                continue
            alpha, _, beta = x
            for k in range(min(len(alpha), len(beta)) + 1):
                gamma, delta = alpha[: len(alpha) - k], beta[: len(beta) - k]
                if alpha[len(gamma):] != beta[len(delta):]:
                    break
                ys = by_paths.get((gamma, delta), ())
                out += [(i, j) for j in ys if self.leq(x, elems[j])]
        return out

    def _cap_down(self, p: Path) -> int:
        """The classes inside s(p), as a bitset: all of them for the empty path."""
        if not p:
            return (1 << len(self.order.classes)) - 1
        return self.order.down[self.order.index[self.srcs[p[-1]]]]

    def enumerate_elements(self, maxlen: int) -> list[Element]:
        """Zero plus every (alpha, A, beta) with path lengths <= maxlen,
        in a deterministic order."""
        capped = [(p, self._cap_down(p)) for p in self.paths(maxlen)]
        classes, out = self.order.classes, [None]
        for alpha, da in capped:
            for beta, db in capped:
                out.extend((alpha, classes[v], beta) for v in _bits(da & db))
        return out

    def count_elements(self, maxlen: int) -> int:
        """``len(enumerate_elements(maxlen))`` without listing a path: the
        paths are counted level by level per last label (``walk_ends``), and
        summed per cap; each pair of caps gives count * count * |cap ∩ cap|
        elements.  The count stops at the first level whose running total
        passes isqrt(``MAX_TABLE_CELLS``), the most elements whose product
        table fits, so a count above that may fall short of the full one."""
        caps = Counter({self._cap_down(()): 1})
        total = 1 + len(self.order.classes)
        for ends in walk_ends(self.follow, maxlen):
            if total > isqrt(MAX_TABLE_CELLS):
                break
            for j, n in enumerate(ends):
                caps[self._cap_down((j,))] += n
            total = 1 + sum(
                m * n * (a & b).bit_count() for a, m in caps.items() for b, n in caps.items()
            )
        return total


_BITS = 21  # width of each packed key field: alpha id, beta id, middle vertex
_MASK = (1 << _BITS) - 1
_CHUNK = 1 << 12  # table cells per gather chunk; bounds the temporaries
MAX_TABLE_CELLS = 1 << 24  # 64 MB of int32; no larger table is filled


class TableSizeError(ValueError):
    """A product table would have more than ``MAX_TABLE_CELLS`` cells."""


class ProductTables:
    """The product tables of ``run_axiom_suite``, filled by path-pair gathers.

    The elements ``elems`` get universe ids 0..n-1 in order, and
    ``pair[i, j]`` is the id of x_i x_j.  Once ``pair`` is filled the
    universe holds nu ids, U1: the elements and their pairwise products.
    ``left[i, k]`` is x_i u_k and ``right[k, i]`` is u_k x_i for every u_k
    in U1; their entries extend the universe further.  ``keys[id]`` packs an
    element into one integer (alpha id, beta id, middle vertex index); zero
    is -1.

    A product (alpha, A, beta)(gamma, B, delta) depends on the path pair
    (beta, gamma) only through the prefix case, the tail, the range of the
    tail's first label and the source of its last label, as in
    ``LgisEngine.multiply``.  Each table finds the comparable path pairs
    from each path's prefixes, then fills their cells by numpy gathers
    over the vertex leq and meet tables, whose extra last index is the
    empty set, in row chunks of at most ``_CHUNK`` such cells plus one
    row; the rest stay zero.  ``left`` and ``right`` start as copies of
    ``pair``, which covers the elements, the first n ids of U1.  A table
    over ``MAX_TABLE_CELLS`` cells raises ``TableSizeError`` unallocated.
    """

    def __init__(self, eng: LgisEngine, elems: Sequence[Element]):
        import numpy as np

        self.order = order = eng.order
        k = self._empty = len(order.classes)
        self._leq = np.zeros((k + 1, k + 1), dtype=bool)
        self._meet = np.full((k + 1, k + 1), k, dtype=np.int64)
        for i, u in enumerate(order.classes):
            for j, v in enumerate(order.classes):
                self._leq[i, j] = order.leq(u, v)
                self._meet[i, j] = order.index.get(order.meet(u, v), k)
        self._range = [order.index[r] for r in eng.ranges]
        self._src = [order.index[s] for s in eng.srcs]
        self.paths: list[Path] = []
        self._path_ids: dict[Path, int] = {}
        self._path_id(())  # id 0
        self._cats: dict[int, int] = {}  # packed (head, tail) -> path id
        self.keys: list[int] = []
        self._ids: dict[int, int] = {}
        self._intern([self._key(e) for e in elems])
        n = len(elems)
        x = self._operands(0, n)
        self.pair = self._table(x, x, self._alloc(n, n))
        nu = len(self.keys)
        u = self._operands(n, nu)
        self.left = self._alloc(n, nu)
        self.left[:, :n] = self.pair
        self._table(x, u, self.left[:, n:])
        self.right = self._alloc(nu, n)
        self.right[:n] = self.pair
        self._table(u, x, self.right[n:])

    def id_of(self, e: Element) -> int:
        """The universe id of an element already in the universe."""
        return self._ids[self._key(e)]

    def element(self, uid: int) -> Element:
        """The element tuple behind a universe id."""
        key = self.keys[uid]
        if key < 0:
            return None
        return (
            self.paths[key >> 2 * _BITS],
            self.order.classes[key & _MASK],
            self.paths[key >> _BITS & _MASK],
        )

    def _path_id(self, p: Path) -> int:
        pid = self._path_ids.get(p)
        if pid is None:
            pid = self._path_ids[p] = len(self.paths)
            if pid > _MASK:
                raise OverflowError("too many paths for a packed element key")
            self.paths.append(p)
        return pid

    def _key(self, e: Element) -> int:
        if e is None:
            return -1
        alpha, A, beta = e
        path_ids = self._path_id(alpha) << _BITS | self._path_id(beta)
        return path_ids << _BITS | self.order.index[A]

    def _intern(self, keys: list[int]) -> list[int]:
        """The universe ids of ``keys``; new keys get the next ids in order."""
        new = dict.fromkeys(k for k in keys if k not in self._ids)
        self._ids.update(zip(new, range(len(self.keys), len(self.keys) + len(new))))
        self.keys.extend(new)
        return list(map(self._ids.__getitem__, keys))

    def _alloc(self, rows: int, cols: int):
        import numpy as np

        if rows * cols > MAX_TABLE_CELLS:
            raise TableSizeError(
                f"a {rows} x {cols} product table exceeds {MAX_TABLE_CELLS} cells"
            )
        return np.empty((rows, cols), dtype=np.int32)

    def _operands(self, lo: int, hi: int):
        """(alpha ids, middle indices, beta ids) of universe ids lo..hi-1;
        zero has empty paths and the empty-set middle, so every product
        with it comes out zero."""
        import numpy as np

        keys = np.array(self.keys[lo:hi], dtype=np.int64)
        zero = keys < 0
        return (
            np.where(zero, 0, keys >> 2 * _BITS),
            np.where(zero, self._empty, keys & _MASK),
            np.where(zero, 0, keys >> _BITS & _MASK),
        )

    def _relation(self, betas, gammas):
        """Per path pair: case 1 if gamma = beta.t, case 2 if beta = gamma.t
        with t nonempty, else 0; and the tail t's path id.  Found by looking
        up each gamma's prefixes among the betas, and each beta's proper
        prefixes among the gammas."""
        import numpy as np

        case = np.zeros((len(betas), len(gammas)), dtype=np.int8)
        tail = np.zeros(case.shape, dtype=np.int64)
        bs, gs = ([self.paths[p] for p in ids.tolist()] for ids in (betas, gammas))
        # case 2 fills the transposes: its heads are gammas, its paths betas
        for c, heads, longer, cs, ts in ((1, bs, gs, case, tail), (2, gs, bs, case.T, tail.T)):
            at = {p: i for i, p in enumerate(heads)}
            for j, q in enumerate(longer):
                for m in range(len(q) + (c == 1)):
                    i = at.get(q[:m])
                    if i is not None:
                        cs[i, j], ts[i, j] = c, self._path_id(q[m:])
        return case, tail

    def _table(self, x, y, out):
        """``out``, filled with the products of operands x by operands y."""
        import numpy as np

        xa, xv, xb = x
        ya, yv, yb = y
        betas, bi = np.unique(xb, return_inverse=True)
        gammas, gi = np.unique(ya, return_inverse=True)
        case, tail = self._relation(betas, gammas)
        # the comparable cells (b, j) of each beta class b, listed by class;
        # everything that depends on the column is found here, once
        cb, cj = np.nonzero(case[:, gi])
        c, t = case[cb, gi[cj]], tail[cb, gi[cj]]
        e = self._empty
        tails, ti = np.unique(np.append(t, 0), return_inverse=True)  # tails[0] = ()
        rs = np.array([  # rs[tail, v]: s(v, tail) as a vertex index
            np.where(self._leq[self._range[p[0]]], self._src[p[-1]], e)
            if p else np.arange(e + 1)
            for p in map(self.paths.__getitem__, tails.tolist())
        ])
        # case 1 meets s(A, t) with B, case 2 meets s(A, ()) = A with s(B, t)
        one, ti, B = c == 1, ti[:-1], yv[cj]
        ra, q = np.where(one, ti, 0), np.where(one, B, rs[ti, B])
        delta = self._concat(yb[cj], t, ~one) << _BITS
        cnt = np.bincount(cb, minlength=len(betas))
        ptr = np.cumsum(cnt) - cnt
        before = np.concatenate(([0], np.cumsum(cnt[bi])))  # comparable cells before each row
        zero = self._ids.get(-1, -1)
        out[...] = zero
        cuts = np.flatnonzero(np.diff(before[:-1] // _CHUNK, prepend=-1)).tolist()
        for r, s in zip(cuts, cuts[1:] + [len(bi)]):
            # rows r..s-1: below _CHUNK comparable cells before the last
            # row; k indexes them among the (b, j)
            rows = bi[r:s]
            i = np.repeat(np.arange(r, s), cnt[rows])
            k = np.arange(before[r], before[s])
            k += np.repeat(ptr[rows] - before[r:s], cnt[rows])
            mid = self._meet[rs[ra[k], xv[i]], q[k]]
            live = np.flatnonzero(mid != e)
            i, k, mid = i[live], k[live], mid[live]
            alpha = self._concat(xa[i], t[k], one[k])
            uniq, inv = np.unique(alpha << 2 * _BITS | delta[k] | mid, return_inverse=True)
            out[i, cj[k]] = np.array(self._intern(uniq.tolist()), dtype=np.int32)[inv]
        if zero < 0 and (dead := out < 0).any():  # zero was not in the universe yet
            out[dead] = self._intern([-1])[0]
        return out

    def _concat(self, head, tail, where):
        """head.tail as path ids on the cells ``where`` holds, head elsewhere."""
        import numpy as np

        out = head.copy()
        sel = where & (tail != 0)
        if sel.any():
            uniq, inv = np.unique(out[sel] << 32 | tail[sel], return_inverse=True)
            packed = uniq.tolist()
            for p in packed:
                if p not in self._cats:
                    cat = self.paths[p >> 32] + self.paths[p & 0xFFFFFFFF]
                    self._cats[p] = self._path_id(cat)
            out[sel] = np.array(list(map(self._cats.__getitem__, packed)))[inv]
        return out


def run_axiom_suite(
    G: LabelledGraph, maxlen: int = 2, samples3: int = 200, seed: int = 0
) -> dict:
    """Exhaustive inverse-semigroup axiom checks over the elements with
    path lengths <= maxlen, plus seeded spot checks one level deeper.

    Products leave the enumerated set (paths concatenate), so elements are
    interned into a growing universe and all table entries are universe
    ids.  ``ProductTables`` fills the tables by path-pair gathers;
    associativity, unique inverses, commuting idempotents, the Green
    characterizations, combinatoriality and 0-E-unitarity are read off
    them.  Green's D and the natural order are compared with the engine's
    block forms ``LgisEngine.d_classes`` and ``leq_pairs``, each matched in
    the tests against pairwise engine calls, and both resolving predicates
    run on the raw edges.  A table too large raises ``TableSizeError``,
    the first one from ``count_elements``, before any element is built.
    """
    import numpy as np

    eng = LgisEngine(G)
    n = eng.count_elements(maxlen)
    if n * n > MAX_TABLE_CELLS:  # before any element is built; n may stop short
        raise TableSizeError(f"a product table has more than {MAX_TABLE_CELLS} cells")
    elems = eng.enumerate_elements(maxlen)
    tab = ProductTables(eng, elems)
    pair, left, right = tab.pair, tab.left, tab.right

    results: dict = {"elements": n, "universe": len(tab.keys)}

    index = pair.astype(np.intp)  # cast once, not once per row
    results["associativity"] = all(
        np.array_equal(left[i][index], right[index[i]]) for i in range(n)
    )

    ar = np.arange(n)
    inv = np.array([tab.id_of(eng.inverse(e)) for e in elems], dtype=np.int64)
    xx = pair[ar, inv]          # x x*
    x_x = pair[inv, ar]         # x* x
    # once[i, j]: x_i x_j x_i = x_i; x_j is an inverse iff also once[j, i]
    once = right[pair, ar[:, None]] == ar[:, None]
    good = once & once.T
    results["unique_inverses"] = bool(
        (good.sum(axis=1) == 1).all() and good[ar, inv].all()
    )

    idem = pair[ar, ar] == ar
    idems = np.flatnonzero(idem)
    sub = pair[np.ix_(idems, idems)]
    results["commuting_idempotents"] = bool((sub == sub.T).all())
    zero = np.array([e is None for e in elems])
    diagonal = np.array([e is not None and e[0] == e[2] for e in elems])
    results["idempotent_shape"] = bool(
        (zero | diagonal)[idem].all() and idem[diagonal].all()
    )

    def struct_classes(side: int):
        codes: dict = {}
        keys = (None if e is None else (e[side], e[1]) for e in elems)
        return np.array([codes.setdefault(k, len(codes)) for k in keys])

    def same_partition(a, b) -> bool:
        return bool(((a[:, None] == a) == (b[:, None] == b)).all())

    results["green_R"] = same_partition(xx, struct_classes(0))
    results["green_L"] = same_partition(x_x, struct_classes(2))

    # x D y iff some element z has z z* = x x* and z* z = y* y
    rid, lid = (np.unique(ids, return_inverse=True)[1] for ids in (xx, x_x))
    meets = np.zeros((rid.max() + 1, lid.max() + 1), dtype=bool)
    meets[rid, lid] = True
    dcls = np.array(eng.d_classes(elems), dtype=np.int64)[:, None]
    results["green_D"] = bool((meets[rid[:, None], lid] == (dcls == dcls.T)).all())

    results["combinatorial"] = int(meets.sum()) == n

    fixed = idems[idems != tab.id_of(None)]
    results["zero_e_unitary"] = not (pair[:, fixed] == fixed)[~idem].any()

    below = np.argwhere((left[:, x_x] == ar).T).tolist()  # [i, j]: x_j x_i* x_i = x_i
    results["leq_agreement"] = set(map(tuple, below)) == set(eng.leq_pairs(elems))

    results["weakly_resolving"], results["strongly_resolving"] = (
        reference.check_resolving(reference.raw_of(G), 3)
    )

    if samples3:
        import random

        rng = random.Random(seed)
        deep = eng.enumerate_elements(maxlen + 1)
        triples = ([rng.choice(deep) for _ in range(3)] for _ in range(samples3))
        mul = eng.multiply
        results["associativity_sampled_deep"] = all(
            mul(x, mul(y, z)) == mul(mul(x, y), z) for x, y, z in triples
        )

    results["ok"] = all(v for k, v in results.items() if isinstance(v, bool))
    return results
