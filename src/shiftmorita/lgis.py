"""The inverse semigroup of a labelled graph space.

Elements are triples (alpha, A, beta) of labelled paths around a vertex
set A drawn from the family {B_v} plus the empty set, together with a zero
that absorbs products; the product concatenates comparable paths and pulls
the middle sets through relative sources.  For the strongly right resolving
graphs built here a labelled path is determined by consecutive-letter
compatibility and every relative source is either empty or the source set
of the final letter, so everything reduces to vertex-order lookups.

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


def run_axiom_suite(
    G: LabelledGraph, maxlen: int = 2, samples3: int = 200, seed: int = 0
) -> dict:
    """Exhaustive inverse-semigroup axiom checks over the elements with
    path lengths <= maxlen, plus seeded spot checks one level deeper.

    Products leave the enumerated set (paths concatenate), so elements are
    interned into a growing universe and all table entries are universe
    ids; associativity, unique inverses, commuting idempotents, the Green
    characterizations, combinatoriality, 0-E-unitarity and both resolving
    predicates are checked against those tables.
    """
    import numpy as np

    eng = LgisEngine(G)
    elems = eng.enumerate_elements(maxlen)
    n = len(elems)
    universe: dict = {e: i for i, e in enumerate(elems)}
    store: list = list(elems)

    def iid(e) -> int:
        if e not in universe:
            universe[e] = len(store)
            store.append(e)
        return universe[e]

    pair = np.empty((n, n), dtype=np.int32)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            pair[i, j] = iid(eng.multiply(a, b))
    nu = len(store)
    left = np.empty((n, nu), dtype=np.int32)   # x * u
    right = np.empty((nu, n), dtype=np.int32)  # u * x
    for k in range(nu):
        u = store[k]
        for i, a in enumerate(elems):
            left[i, k] = iid(eng.multiply(a, u))
            right[k, i] = iid(eng.multiply(u, a))

    results: dict = {"elements": n, "universe": len(store)}

    assoc = all(
        np.array_equal(left[i][pair], right[pair[i], :]) for i in range(n)
    )
    results["associativity"] = bool(assoc)

    inv = np.array([universe[eng.inverse(e)] for e in elems], dtype=np.int32)
    xx = pair[np.arange(n), inv]          # x x*
    x_x = pair[inv, np.arange(n)]         # x* x
    unique_inv = True
    for i in range(n):
        good = [
            j
            for j in range(n)
            if right[pair[i, j], i] == i and right[pair[j, i], j] == j
        ]
        if good != [int(inv[i])]:
            unique_inv = False
            break
    results["unique_inverses"] = unique_inv

    idems = [i for i in range(n) if pair[i, i] == i]
    results["commuting_idempotents"] = bool(
        all(pair[e, f] == pair[f, e] for e in idems for f in idems)
    )
    results["idempotent_shape"] = all(
        elems[i] is None or elems[i][0] == elems[i][2] for i in idems
    ) and all(
        i in idems
        for i in range(n)
        if elems[i] is not None and elems[i][0] == elems[i][2]
    )

    def struct_key(i: int, side: int):
        e = elems[i]
        if e is None:
            return None
        return (e[side], e[1])

    r_ok = all(
        (xx[i] == xx[j]) == (struct_key(i, 0) == struct_key(j, 0))
        for i in range(n)
        for j in range(n)
    )
    l_ok = all(
        (x_x[i] == x_x[j]) == (struct_key(i, 2) == struct_key(j, 2))
        for i in range(n)
        for j in range(n)
    )
    results["green_R"] = bool(r_ok)
    results["green_L"] = bool(l_ok)

    dpairs = {(int(xx[k]), int(x_x[k])) for k in range(n)}
    d_ok = all(
        eng.green(elems[i], elems[j], "D")
        == ((int(xx[i]), int(x_x[j])) in dpairs)
        for i in range(n)
        for j in range(n)
    )
    results["green_D"] = bool(d_ok)

    results["combinatorial"] = (
        len({(int(xx[k]), int(x_x[k])) for k in range(n)}) == n
    )

    zero = universe[None]
    e_unitary = True
    for e in idems:
        if e == zero:
            continue
        for i in range(n):
            if pair[i, e] == e and i not in idems:
                e_unitary = False
                break
        if not e_unitary:
            break
    results["zero_e_unitary"] = e_unitary

    leq_ok = all(
        eng.leq(elems[i], elems[j])
        == (left[j, x_x[i]] == i)
        for i in range(n)
        for j in range(n)
    )
    results["leq_agreement"] = bool(leq_ok)

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
