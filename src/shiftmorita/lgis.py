"""The inverse semigroup of a labelled graph space.

Elements are triples (alpha, A, beta) of labelled paths around a vertex
set A drawn from the family {B_v} plus the empty set, together with a zero
that absorbs products; the product concatenates comparable paths and pulls
the middle sets through relative sources.  For the strongly right resolving
graphs built here a labelled path is determined by consecutive-letter
compatibility and every relative source is either empty or the source set
of the final letter, so everything reduces to vertex-order lookups.

``LgisEngine`` is the element algebra, one product at a time.  The axiom
suite needs every product among thousands of elements, so
``ProductTables`` fills its tables by path-pair gathers: a product depends
on the two inner paths only through their prefix case and tail, which is
computed once per path pair, and the middle vertex comes from numpy
gathers over the vertex leq and meet tables.  ``LgisEngine.multiply`` is
the reference the tests check every table cell against.

A representative-based relative source over raw edge lists is kept
alongside as the oracle; ``check_resolving`` uses it so that hand-built
counterexample graphs can be analysed too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Hashable, Iterable, Sequence

from .labelled_graph import LabelledGraph
from .shift import InvariantViolation

Path = tuple[int, ...]  # label indices in the owning engine
Element = "tuple[Path, int, Path] | None"  # (alpha, A-vertex, beta); None is zero


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
    bfam = [frozenset()] + [frozenset(G.b_set(v)) for v in G.vertices]
    return RawGraph(
        tuple(G.vertices),
        tuple((e.range, e.label, e.source) for e in G.edges),
        tuple(bfam),
    )


def relative_source_raw(
    raw: RawGraph, A: frozenset, alpha: Sequence[Hashable]
) -> frozenset:
    """s(A, alpha) = sources of representatives of alpha with range in A,
    computed by walking the edge list letter by letter."""
    if not alpha:
        return frozenset(A)
    frontier = frozenset(A)
    for lab in alpha:
        frontier = frozenset(
            s for r, l, s in raw.edges if l == lab and r in frontier
        )
        if not frontier:
            break
    return frontier


def labelled_paths_raw(raw: RawGraph, maxlen: int) -> list[tuple]:
    """All label sequences of length 1..maxlen having a representative."""
    out: list[tuple] = []
    all_v = frozenset(raw.vertices)
    level = [(lab,) for lab in raw.labels()
             if relative_source_raw(raw, all_v, (lab,))]
    for _ in range(maxlen):
        if not level:
            break
        out.extend(level)
        level = [
            p + (lab,)
            for p in level
            for lab in raw.labels()
            if relative_source_raw(raw, all_v, p + (lab,))
        ]
    return out


def check_resolving(raw: RawGraph, pathlen: int = 3) -> tuple[bool, bool]:
    """(weakly, strongly) right resolving.

    Strong is the edge-wise label/range check; weak compares relative
    sources of intersections against intersections of relative sources for
    all pairs from the B family and all labelled paths up to ``pathlen``.
    """
    ranges: dict[Hashable, Hashable] = {}
    strong = True
    for r, lab, _ in raw.edges:
        if ranges.setdefault(lab, r) != r:
            strong = False
            break
    weak = True
    paths = labelled_paths_raw(raw, pathlen)
    for A, B in iproduct(raw.bfamily, raw.bfamily):
        for p in paths:
            lhs = relative_source_raw(raw, A & B, p)
            rhs = relative_source_raw(raw, A, p) & relative_source_raw(raw, B, p)
            if lhs != rhs:
                weak = False
                return (weak, strong)
    return (weak, strong)


class LgisEngine:
    """Element algebra over one built labelled graph."""

    def __init__(self, G: LabelledGraph):
        self.graph = G
        self.order = G.order
        self.labels = G.labels
        self.nlabels = len(G.labels)
        self.ranges = tuple(lab.vertex for lab in G.labels)
        self.srcs = tuple(lab.src_class for lab in G.labels)

    # ----- paths -------------------------------------------------------

    def compatible(self, i: int, j: int) -> bool:
        """Label j may follow label i inside a labelled path."""
        return self.order.leq(self.ranges[j], self.srcs[i])

    def path_valid(self, p: Path) -> bool:
        return all(self.compatible(i, j) for i, j in zip(p, p[1:]))

    def paths(self, maxlen: int) -> list[Path]:
        out: list[Path] = [()]
        level: list[Path] = [(i,) for i in range(self.nlabels)]
        for _ in range(maxlen):
            if not level:
                break
            out.extend(level)
            level = [
                p + (j,)
                for p in level
                for j in range(self.nlabels)
                if self.compatible(p[-1], j)
            ]
        return out

    def relative_source(self, A: "int | None", p: Path) -> "int | None":
        """s(B_A, p) as a vertex (None is the empty set)."""
        if not p:
            return A
        if A is not None and self.order.leq(self.ranges[p[0]], A):
            return self.srcs[p[-1]]
        return None

    def source_class(self, p: Path) -> "int | None":
        """The vertex whose B-set is s(p); None means s(p) = E^0 (p empty)."""
        return self.srcs[p[-1]] if p else None

    # ----- elements ----------------------------------------------------

    def element(self, alpha: Path, A: int, beta: Path) -> Element:
        for p in (alpha, beta):
            cap = self.source_class(p)
            if cap is not None and not self.order.leq(A, cap):
                raise ValueError("middle set not contained in a source set")
            if not self.path_valid(p):
                raise ValueError("invalid labelled path")
        return (alpha, A, beta)

    def multiply(self, x: Element, y: Element) -> Element:
        if x is None or y is None:
            return None
        alpha, A, beta = x
        gamma, B, delta = y
        if len(gamma) >= len(beta) and gamma[: len(beta)] == beta:
            tail = gamma[len(beta):]
            mid = self._meet(self.relative_source(A, tail), B)
            return None if mid is None else (alpha + tail, mid, delta)
        if beta[: len(gamma)] == gamma:
            tail = beta[len(gamma):]
            mid = self._meet(A, self.relative_source(B, tail))
            return None if mid is None else (alpha, mid, delta + tail)
        return None

    def _meet(self, u: "int | None", v: "int | None") -> "int | None":
        if u is None or v is None:
            return None
        return self.order.meet(u, v)

    def inverse(self, x: Element) -> Element:
        if x is None:
            return None
        alpha, A, beta = x
        return (beta, A, alpha)

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
        if alpha[: len(gamma)] != gamma or beta[: len(delta)] != delta:
            return False
        if beta[len(delta):] != mu:
            return False
        src = self.relative_source(B, mu)
        return src is not None and self.order.leq(A, src)

    def leq_algebraic(self, x: Element, y: Element) -> bool:
        """x <= y iff x = y (x* x); the order-theoretic cross-check."""
        if x is None:
            return True
        return self.multiply(y, self.multiply(self.inverse(x), x)) == x

    def green(self, x: Element, y: Element, relation: str) -> bool:
        got, _ = self.green_witness(x, y, relation)
        return got

    def green_witness(
        self, x: Element, y: Element, relation: str
    ) -> tuple[bool, Element]:
        """Green's R/L/D tests; for D the connecting witness is returned
        and re-verified algebraically."""
        if relation not in ("R", "L", "D"):
            raise ValueError(f"unknown relation {relation!r}")
        if x is None or y is None:
            return (x is None and y is None, None)
        ax, Ax, bx = x
        ay, Ay, by = y
        if relation == "R":
            return (ax == ay and Ax == Ay, None)
        if relation == "L":
            return (bx == by and Ax == Ay, None)
        if Ax != Ay:
            return (False, None)
        z = (ax, Ax, by)
        zz = self.multiply(z, self.inverse(z))
        z_z = self.multiply(self.inverse(z), z)
        xx = self.multiply(x, self.inverse(x))
        y_y = self.multiply(self.inverse(y), y)
        if zz != xx or z_z != y_y:
            raise InvariantViolation("D-relation witness fails re-verification")
        return (True, z)

    def idempotents(self, elements: Iterable[Element]) -> list[Element]:
        return [e for e in elements if self.multiply(e, e) == e]

    def enumerate_elements(self, maxlen: int) -> list[Element]:
        """Zero plus every (alpha, A, beta) with path lengths <= maxlen,
        in a deterministic order."""
        paths = sorted(self.paths(maxlen), key=lambda p: (len(p), p))
        out: list[Element] = [None]
        for alpha in paths:
            cap_a = self.source_class(alpha)
            for beta in paths:
                cap_b = self.source_class(beta)
                for v in self.order.classes:
                    if cap_a is not None and not self.order.leq(v, cap_a):
                        continue
                    if cap_b is not None and not self.order.leq(v, cap_b):
                        continue
                    out.append((alpha, v, beta))
        return out


_BITS = 21  # width of each packed key field: alpha id, beta id, middle vertex
_MASK = (1 << _BITS) - 1
_CHUNK = 1 << 12  # table cells per gather chunk; bounds the temporaries


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
    ``LgisEngine.multiply``.  Each table computes those once per distinct
    path pair, then fills its cells in row chunks by numpy gathers over the
    vertex leq and meet tables, whose extra last index is the empty set.
    ``LgisEngine.multiply`` is the reference the tests check every cell
    against.
    """

    def __init__(self, eng: LgisEngine, elems: Sequence[Element]):
        import numpy as np

        order = eng.order
        self.vertices = tuple(order.classes)
        k = len(self.vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._empty = k
        self._leq = np.zeros((k + 1, k + 1), dtype=bool)
        self._meet = np.full((k + 1, k + 1), k, dtype=np.int64)
        for i, u in enumerate(self.vertices):
            for j, v in enumerate(self.vertices):
                self._leq[i, j] = order.leq(u, v)
                m = order.meet(u, v)
                if m is not None:
                    self._meet[i, j] = self._index[m]
        self._range = [self._index[r] for r in eng.ranges]
        self._src = [self._index[s] for s in eng.srcs]
        self.paths: list[Path] = []
        self._path_ids: dict[Path, int] = {}
        self._path_id(())  # id 0
        self._cats: dict[int, int] = {}  # packed (head, tail) -> path id
        self.keys: list[int] = []
        self._ids: dict[int, int] = {}
        for e in elems:
            self._intern(self._key(e))
        x = self._operands(len(elems))
        self.pair = self._table(x, x)
        u = self._operands(len(self.keys))
        self.left = self._table(x, u)
        self.right = self._table(u, x)

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
            self.vertices[key & _MASK],
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
        return (
            self._path_id(alpha) << 2 * _BITS
            | self._path_id(beta) << _BITS
            | self._index[A]
        )

    def _intern(self, key: int) -> int:
        uid = self._ids.get(key)
        if uid is None:
            uid = self._ids[key] = len(self.keys)
            self.keys.append(key)
        return uid

    def _operands(self, m: int):
        """(alpha ids, middle indices, beta ids) of universe ids 0..m-1; zero
        has empty paths and the empty-set middle, so every product with it
        comes out zero."""
        import numpy as np

        keys = np.array(self.keys[:m], dtype=np.int64)
        zero = keys < 0
        return (
            np.where(zero, 0, keys >> 2 * _BITS),
            np.where(zero, self._empty, keys & _MASK),
            np.where(zero, 0, keys >> _BITS & _MASK),
        )

    def _relation(self, betas, gammas):
        """Per path pair: case 1 if gamma = beta.t, case 2 if beta = gamma.t
        with t nonempty, else 0; and the tail t's path id."""
        import numpy as np

        case, tail = [], []
        for b in betas.tolist():
            bp = self.paths[b]
            crow, trow = [], []
            for g in gammas.tolist():
                gp = self.paths[g]
                if gp[: len(bp)] == bp:
                    crow.append(1)
                    trow.append(self._path_id(gp[len(bp):]))
                elif bp[: len(gp)] == gp:
                    crow.append(2)
                    trow.append(self._path_id(bp[len(gp):]))
                else:
                    crow.append(0)
                    trow.append(0)
            case.append(crow)
            tail.append(trow)
        return np.array(case, dtype=np.int8), np.array(tail, dtype=np.int64)

    def _table(self, x, y):
        import numpy as np

        xa, xv, xb = x
        ya, yv, yb = y
        betas, bi = np.unique(xb, return_inverse=True)
        gammas, gi = np.unique(ya, return_inverse=True)
        case, tail = self._relation(betas, gammas)
        e = self._empty
        first = np.array([self._range[p[0]] if p else e for p in self.paths])
        last = np.array([self._src[p[-1]] if p else e for p in self.paths])
        out = np.empty((len(xa), len(ya)), dtype=np.int32)
        step = max(1, _CHUNK // max(1, len(ya)))
        for r in range(0, len(xa), step):
            rows = slice(r, r + step)
            c = case[bi[rows, None], gi]
            t = tail[bi[rows, None], gi]
            A = xv[rows, None]
            f, s = first[t], last[t]
            # case 1 meets s(A, t) with B; case 2 meets A with s(B, t)
            sA = np.where(t == 0, A, np.where(self._leq[f, A], s, e))
            sB = np.where(self._leq[f, yv], s, e)
            mid = np.where(
                c == 1,
                self._meet[sA, yv],
                np.where(c == 2, self._meet[A, sB], e),
            )
            live = mid != e
            alpha = self._concat(xa[rows, None], t, live & (c == 1))
            delta = self._concat(yb, t, live & (c == 2))
            keys = np.where(
                live, alpha << 2 * _BITS | delta << _BITS | mid, -1
            ).ravel()
            uniq, inv = np.unique(keys, return_inverse=True)
            ids = np.array([self._intern(k) for k in uniq.tolist()], dtype=np.int32)
            out[rows] = ids[inv].reshape(t.shape)
        return out

    def _concat(self, head, tail, where):
        """head.tail as path ids on the cells ``where`` holds, head elsewhere."""
        import numpy as np

        out = np.array(np.broadcast_to(head, tail.shape))
        sel = where & (tail != 0)
        if sel.any():
            uniq, inv = np.unique(out[sel] << 32 | tail[sel], return_inverse=True)
            out[sel] = np.array([self._cat(p) for p in uniq.tolist()])[inv]
        return out

    def _cat(self, packed: int) -> int:
        pid = self._cats.get(packed)
        if pid is None:
            head, tail = self.paths[packed >> 32], self.paths[packed & 0xFFFFFFFF]
            pid = self._cats[packed] = self._path_id(head + tail)
        return pid


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
    them.  Green's D and the natural order are cross-checked by calling
    ``LgisEngine.green`` and ``LgisEngine.leq`` on every pair, and both
    resolving predicates run on the raw-edge oracle.
    """
    import numpy as np

    eng = LgisEngine(G)
    elems = eng.enumerate_elements(maxlen)
    n = len(elems)
    tab = ProductTables(eng, elems)
    pair, left, right = tab.pair, tab.left, tab.right

    results: dict = {"elements": n, "universe": len(tab.keys)}

    results["associativity"] = all(
        np.array_equal(left[i][pair], right[pair[i], :]) for i in range(n)
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
        return np.array(
            [
                codes.setdefault(None if e is None else (e[side], e[1]), len(codes))
                for e in elems
            ]
        )

    def same_partition(a, b) -> bool:
        return bool(((a[:, None] == a) == (b[:, None] == b)).all())

    results["green_R"] = same_partition(xx, struct_classes(0))
    results["green_L"] = same_partition(x_x, struct_classes(2))

    xl, x_xl = xx.tolist(), x_x.tolist()
    dpairs = set(zip(xl, x_xl))
    results["green_D"] = all(
        eng.green(x, y, "D") == ((a, b) in dpairs)
        for x, a in zip(elems, xl)
        for y, b in zip(elems, x_xl)
    )

    results["combinatorial"] = len(dpairs) == n

    fixed = idems[idems != tab.id_of(None)]
    results["zero_e_unitary"] = not bool(
        (pair[:, fixed] == fixed)[~idem].any()
    )

    below = (left[:, x_x] == ar).T.tolist()  # below[i][j]: x_j x_i* x_i = x_i
    results["leq_agreement"] = all(
        eng.leq(x, y) == b
        for x, row in zip(elems, below)
        for y, b in zip(elems, row)
    )

    weak, strong = check_resolving(raw_of(G), 3)
    results["weakly_resolving"] = weak
    results["strongly_resolving"] = strong

    if samples3:
        import random

        rng = random.Random(seed)
        deep = eng.enumerate_elements(maxlen + 1)
        ok = True
        for _ in range(samples3):
            x, y, z = (rng.choice(deep) for _ in range(3))
            if eng.multiply(x, eng.multiply(y, z)) != eng.multiply(
                eng.multiply(x, y), z
            ):
                ok = False
                break
        results["associativity_sampled_deep"] = ok

    results["ok"] = all(v for k, v in results.items() if isinstance(v, bool))
    return results
