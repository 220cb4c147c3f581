"""Exhaustive desk-scale verification sweeps.

Everything here enumerates all transition matrices up to a small alphabet
(353 matrices at |A| <= 3) and cross-checks the canonical algebra, the
order, the graph and the decision procedure against their independent
oracles.  The acceptance tests and the ``selftest`` command both run these;
a returned failure list is empty on success.
"""

from __future__ import annotations

import random
from itertools import combinations, product as iproduct

from .core_order import cached_order
from .decide import decide_morita, graphs_isomorphic_ordered, verify_witness
from .hull import (
    base_idem,
    enumerate_idems,
    fmt_idem,
    idem_leq,
    idem_product,
    make_idem,
)
from .labelled_graph import build_graph
from .lgis import run_axiom_suite
from .oracle import Oracle, compose
from .reference import (
    brute_force_isomorphic,
    check_meet_identity,
    core_of_at,
    covers_below,
)
from .shift import TransitionMatrix, f_classes, natural_leq
from .smorita import build_cd, cd_isomorphic, coherent_check, make_sidem, sidem_leq

SYMBOLS = ("a", "b", "c", "d")


def all_matrices(max_letters: int):
    """Every valid matrix over alphabets a, ab, abc, ... up to the bound."""
    for n in range(1, max_letters + 1):
        syms = SYMBOLS[:n]
        for rows in iproduct(range(1, 2**n), repeat=n):
            yield TransitionMatrix(syms, rows)


def sweep_oracle(T: TransitionMatrix, depth: int = 6) -> list[str]:
    """Criterion: canonical idempotent algebra vs truncated partial maps.

    Verifies Oracle.matches for every canonical idempotent with |word| <= 3
    (below depth 5, only for |word| <= depth - 2), then (knowing each map is
    a partial identity) compares the products, the order and the covering
    relation of those with |word| <= 2 against clipped map domains, with
    idempotents of word length <= 3 swept as possible in-betweens.
    """
    return oracle_failures(T, Oracle(T, depth))


def oracle_failures(T: TransitionMatrix, oracle: Oracle) -> list[str]:
    """``sweep_oracle`` against a given oracle; the CLI passes a corrupted
    one as its negative control."""
    fails: list[str] = []
    idems2 = enumerate_idems(T, 2)
    idems3 = enumerate_idems(T, 3)
    for e in idems3:
        if len(e.word) + 2 <= oracle.depth and not oracle.matches(e):
            fails.append(f"Oracle.matches failed: {fmt_idem(T, e)}")
    clipped = {e: oracle.clip(oracle.idem_map(e)) for e in idems3}
    doms = {e: frozenset(m) for e, m in clipped.items()}
    for e1 in idems2:
        for e2 in idems2:
            comp = oracle.clip(compose(clipped[e1], clipped[e2]))
            p = idem_product(e1, e2)
            want = clipped[p] if p is not None else {}
            if comp != want:
                fails.append(
                    f"product mismatch: {fmt_idem(T, e1)} * {fmt_idem(T, e2)}"
                )
            if idem_leq(e1, e2) != (doms[e1] <= doms[e2]):
                fails.append(
                    f"leq mismatch: {fmt_idem(T, e1)} vs {fmt_idem(T, e2)}"
                )
    for v in f_classes(T):
        top = doms[base_idem(T, v)]
        cs = covers_below(T, v)
        for c in cs:
            if not doms[c] < top:
                fails.append(f"cover not strictly below: {fmt_idem(T, c)}")
            for d in cs:
                if c != d and doms[c] <= doms[d]:
                    fails.append(
                        f"covers not an antichain: {fmt_idem(T, c)}, {fmt_idem(T, d)}"
                    )
            for e in idems3:
                if doms[c] < doms[e] < top:
                    fails.append(
                        f"{fmt_idem(T, e)} interposes below {T.fmt_vec(v)}"
                    )
    return fails


def sweep_order(T: TransitionMatrix) -> list[str]:
    """Criterion: order structure, meets, and the representative-product
    identity; also that the reference core fixpoint gives the order's cores
    in either rule order, and the reference covering relation its covers."""
    fails: list[str] = []
    order = cached_order(T)
    for v in order.classes:
        if order.covers(v) != covers_below(T, v):
            fails.append(
                f"covers of {T.fmt_vec(v)} differ from the reference on rows {T.rows}"
            )
        for rule_order in ((4, 3, 2), (2, 3, 4)):
            ref = {e.vec for e in core_of_at(T, (), v, rule_order)}
            if ref != order.cores[v]:
                fails.append(
                    f"core of {T.fmt_vec(v)} differs from the reference "
                    f"in rule order {rule_order}"
                )
    cls = order.classes
    for a, b in order.pairs:
        if not natural_leq(a, b):
            fails.append(f"class order exceeds natural order: {T.fmt_vec(a)}")
        if (b, a) in order.pairs and a != b:
            fails.append("antisymmetry failure")
        for c, d in order.pairs:
            if b == c and (a, d) not in order.pairs:
                fails.append("transitivity failure")
    if any((v, v) not in order.pairs for v in cls):
        fails.append("reflexivity failure")
    for a in cls:
        for b in cls:
            m = order.meet(a, b)
            if m != order.meet(b, a):
                fails.append("meet not commutative")
            if order.meet(a, a) != a:
                fails.append("meet not idempotent")
            for c in cls:
                lhs = order.meet(a, b)
                lhs = None if lhs is None else order.meet(lhs, c)
                rhs = order.meet(b, c)
                rhs = None if rhs is None else order.meet(a, rhs)
                if lhs != rhs:
                    fails.append("meet not associative")
    if not check_meet_identity(T, order):
        fails.append("representative-product identity failed")
    for v in cls:
        core = order.cores[v]
        for u1 in core:
            for u2 in core:
                if u1 & u2 and (u1 & u2) not in core:
                    fails.append("core not AND-closed")
                for u3 in f_classes(T):
                    if (
                        u3 not in core
                        and natural_leq(u1, u3)
                        and natural_leq(u3, u2)
                        and u1 != u3 != u2
                    ):
                        fails.append("core not interval-closed")
    return fails


def sweep_conjugate_cores(T: TransitionMatrix) -> list[str]:
    """Cores computed in one-letter conjugated corners must mirror the
    base cores exactly (no new order pairs)."""
    fails: list[str] = []
    for b in range(T.n):
        for v in f_classes(T):
            seed = make_idem(T, (b,), v)
            if seed is None:
                continue
            corner = core_of_at(T, (b,), seed.vec)
            base = {e for e in core_of_at(T, (), seed.vec)}
            mirrored = {make_idem(T, (b,), e.vec) for e in base}
            if corner != mirrored:
                fails.append(
                    f"conjugated core differs at word {T.fmt_word((b,))}, "
                    f"class {T.fmt_vec(seed.vec)}"
                )
    return fails


def sweep_lgis(T: TransitionMatrix) -> list[str]:
    res = run_axiom_suite(build_graph(T))
    return [
        f"lgis axiom {k} failed on rows {T.rows}"
        for k, v in res.items()
        if isinstance(v, bool) and not v
    ]


def sweep_cd(T: TransitionMatrix) -> list[str]:
    """Criterion: coherence, the guarded covers in canonical form, the CD
    product case rules, and primitivity."""
    fails: list[str] = []
    if not coherent_check(T):
        fails.append("coherent_check failed")
    cd = build_cd(T)
    order = cd.order
    bad = [x for x in cd.Cll if make_sidem(order, x.u, x.g) != x]
    if bad:  # CDSet.product's closure check would raise on these first
        return fails + [f"guarded cover not in canonical form: {cd.fmt(x)}" for x in bad]
    for x in cd.C:
        for y in cd.C:
            p = cd.product(x, y)
            m = order.meet(x.u, y.u)
            want = None if m is None else cd.C[order.index[m]]
            if p != want:
                fails.append(f"C*C rule failed: {cd.fmt(x)} {cd.fmt(y)}")
    for x in cd.Cll:
        for y in cd.C:
            want = x if order.leq(x.u, y.u) else None
            if cd.product(x, y) != want or cd.product(y, x) != want:
                fails.append(f"Cll*C rule failed: {cd.fmt(x)} {cd.fmt(y)}")
        for y in cd.Cll:
            want = x if x == y else None
            if cd.product(x, y) != want:
                fails.append(f"Cll*Cll rule failed: {cd.fmt(x)} {cd.fmt(y)}")
    for x in cd.elements:
        below = [y for y in cd.elements if sidem_leq(order, y, x)]
        if (below == [x]) != (x in cd.Cll):
            fails.append(f"primitivity misclassified: {cd.fmt(x)}")
    return fails


def sweep_decision_pairs(
    matrices: list[TransitionMatrix],
) -> tuple[list[str], int, int]:
    """Criterion: over all unordered pairs, the pruned graph search, the
    all-bijections brute force and the CD-isomorphism search agree.

    Returns (failures, pairs checked, equivalent pairs).
    """
    fails: list[str] = []
    graphs = {T: build_graph(T) for T in matrices}
    cds = {T: build_cd(T) for T in matrices}
    equal = 0
    total = 0
    for T1, T2 in combinations(matrices, 2):
        total += 1
        g1, g2 = graphs[T1], graphs[T2]
        witness = graphs_isomorphic_ordered(g1, g2)
        if witness is not None and not verify_witness(g1, g2, witness):
            fails.append(f"unsound witness for {T1.rows} vs {T2.rows}")
        bt = witness is not None
        bf = brute_force_isomorphic(g1, g2)
        cdv = cd_isomorphic(cds[T1], cds[T2]) is not None
        if bt != bf:
            fails.append(f"search vs brute force disagree: {T1.rows} {T2.rows}")
        if bt != cdv:
            fails.append(f"graph vs CD verdict disagree: {T1.rows} {T2.rows}")
        equal += bt
    return fails, total, equal


def permuted_copy(
    T: TransitionMatrix, perm: list[int]
) -> TransitionMatrix:
    """Relabel letters by a permutation: letter i becomes perm[i]."""
    n = T.n
    new_rows = [0] * n
    for i in range(n):
        mask = 0
        for j in range(n):
            if T.rows[i] >> j & 1:
                mask |= 1 << perm[j]
        new_rows[perm[i]] = mask
    return TransitionMatrix(T.symbols, tuple(new_rows))


def sweep_symmetry(count: int = 100, seed: int = 20240) -> list[str]:
    """Criterion: a random relabeling of a random matrix is always decided
    equivalent, with a verified witness."""
    fails: list[str] = []
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(1, 4)
        rows = tuple(rng.randrange(1, 2**n) for _ in range(n))
        T = TransitionMatrix(SYMBOLS[:n], rows)
        perm = list(range(n))
        rng.shuffle(perm)
        T2 = permuted_copy(T, perm)
        verdict = decide_morita(T, T2)
        if not verdict.equivalent:
            fails.append(f"permuted copy not equivalent: {rows} perm {perm}")
            continue
        if not verify_witness(
            build_graph(T), build_graph(T2), verdict.witness
        ):
            fails.append(f"witness failed verification: {rows} perm {perm}")
    return fails
