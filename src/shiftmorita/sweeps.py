"""Exhaustive desk-scale verification sweeps.

Everything here enumerates all transition matrices up to a small alphabet
(353 matrices at |A| <= 3) and cross-checks the canonical algebra, the
order, the graph and the decision procedure against their independent
oracles.  The acceptance tests and the ``selftest`` command both run these;
a returned failure list is empty on success.

Each fact is checked once.  In ``sweep_order``, the meet identity
(``reference.check_meet_identity``), with reflexivity and transitivity,
implies antisymmetry and that the meet is commutative, idempotent and
associative, and the reference cores imply that each core is closed under
AND and subset intervals; its docstring has the proofs.  The failures of
``sweep_order`` and ``sweep_cd`` name the stage, the matrix rows and the
invariant.
"""

from __future__ import annotations

import random
from itertools import combinations, product as iproduct

from .core_order import cached_order
from .decide import decide_morita, graphs_isomorphic_ordered, verify_witness
from .hull import (
    HullIdempotent,
    base_idem,
    enumerate_idems,
    fmt_idem,
    idem_product,
    make_idem,
)
from .labelled_graph import build_graph
from .lgis import run_axiom_suite
from .oracle import Oracle
from .reference import (
    brute_force_isomorphic,
    check_meet_identity,
    core_of_at,
    covers_below,
)
from .shift import InvariantViolation, TransitionMatrix, f_classes, natural_leq
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
    (at depth 4, only for |word| <= 2), then compares the products, the
    order and the covering relation of those with |word| <= 2 against
    their clipped map domains, with idempotents of word length <= 3 swept
    as possible in-betweens.  Depths below 4 are refused.

    A clipped domain is the set of words x of the map with x and its image
    of length <= depth - 1, held as an int bitset over positions in
    ``Oracle.words``; products and the order are read off these bitsets.
    Each failure line is the one that composing the clipped maps gives:
    - At depth >= 4, ``matches`` tests every map with a word of length
      <= 2 for being the identity, and every product of two such
      idempotents is zero or again has a word of length <= 2.  The
      composite of identities on D1 and D2 is the identity on D1 & D2,
      which clipping leaves as it is.  So when those maps are identities,
      the composite differs from the product's map (empty for zero)
      exactly when D1 & D2 differs from the product's domain, which is
      the bitset test.  A map that is not an identity already gives its
      ``Oracle.matches failed`` line.
    - The order and cover checks compared the clipped domains as sets
      before; the bitsets hold the same words, so the subset tests agree.
    - Each pair's product is computed once; the order check reads it as
      ``p == e1``, which is how ``idem_leq`` defines e1 <= e2.
    """
    return oracle_failures(T, Oracle(T, depth))


def _strictly_below(a: int, b: int) -> bool:
    return a != b and not a & ~b


def oracle_failures(T: TransitionMatrix, oracle: Oracle) -> list[str]:
    """``sweep_oracle`` against a given oracle; the CLI passes a corrupted
    one as its negative control.  Below depth 4, ``matches`` would not
    test every map that the product check reads, so such an oracle is
    refused with a ``ValueError``."""
    if oracle.depth < 4:
        raise ValueError("oracle sweep depth must be >= 4")
    fails: list[str] = []
    idems3 = enumerate_idems(T, 3)
    idems2 = [e for e in idems3 if len(e.word) <= 2]
    for e in idems3:
        if len(e.word) + 2 <= oracle.depth and not oracle.matches(e):
            fails.append(f"Oracle.matches failed: {fmt_idem(T, e)}")
    lim = oracle.depth - 1
    bit = {w: 1 << i for i, w in enumerate(oracle.words)}
    doms: dict[HullIdempotent | None, int] = {None: 0}  # zero's domain is empty
    for e in idems3:
        d = 0
        for x, y in oracle.idem_map(e).items():
            if len(x) <= lim and len(y) <= lim:
                d |= bit[x]
        doms[e] = d
    for e1 in idems2:
        d1 = doms[e1]
        for e2 in idems2:
            d2 = doms[e2]
            p = idem_product(e1, e2)
            if d1 & d2 != doms[p]:
                fails.append(
                    f"product mismatch: {fmt_idem(T, e1)} * {fmt_idem(T, e2)}"
                )
            if (p == e1) != (not d1 & ~d2):  # idem_leq(e1, e2), by its definition
                fails.append(
                    f"leq mismatch: {fmt_idem(T, e1)} vs {fmt_idem(T, e2)}"
                )
    for v in f_classes(T):
        top = doms[base_idem(T, v)]
        cs = covers_below(T, v)
        for c in cs:
            dc = doms[c]
            if not _strictly_below(dc, top):
                fails.append(f"cover not strictly below: {fmt_idem(T, c)}")
            for d in cs:
                if c != d and not dc & ~doms[d]:
                    fails.append(
                        f"covers not an antichain: {fmt_idem(T, c)}, {fmt_idem(T, d)}"
                    )
            for e in idems3:
                de = doms[e]
                if _strictly_below(dc, de) and _strictly_below(de, top):
                    fails.append(
                        f"{fmt_idem(T, e)} interposes below {T.fmt_vec(v)}"
                    )
    return fails


def sweep_order(T: TransitionMatrix) -> list[str]:
    """Criterion: the class order against its references, one check per
    fact.  Each class's covers equal ``reference.covers_below``, and its
    core equals ``reference.core_of_at`` in either rule order.  The order
    is reflexive and transitive and lies inside the natural order.  Its
    meet passes ``reference.check_meet_identity``: when a and b have a
    common lower bound, ``meet(a, b)`` is their one greatest common lower
    bound and equals ``a & b``; otherwise it is None, and ``a & b`` is
    zero when they have a common upper bound.

    These checks imply the laws that are not checked on their own:
    - Antisymmetry.  If a <= b <= a with a != b, then by reflexivity and
      transitivity a and b have the same down-set, so both are greatest
      common lower bounds of a and b.  The meet check's list of those then
      has two entries, and it fails.  (``build_order`` also raises on
      such a cycle.)
    - The meet is commutative: the meet check's conditions are symmetric
      in a and b.
    - It is idempotent: a is below a, so the meet check forces
      ``meet(a, a) == a & a``.
    - It is associative.  Each meet m = a^b is the greatest lower bound,
      so by transitivity x <= m exactly when x <= a and x <= b.  So both
      sides of (a^b)^c = a^(b^c) are the greatest common lower bound of
      a, b and c, or None when those have none.
    - Each core is closed under AND and under subset intervals.  At depth
      0 these are rules (2) and (4), and the reference core stops only
      when no rule adds a member.

    Each failure names the stage, the matrix rows and the invariant.
    """
    fails: list[str] = []
    order = cached_order(T)

    def fail(stage: str, invariant: str) -> None:
        fails.append(f"{stage} on rows {T.rows}: {invariant}")

    for v in order.classes:
        name = T.fmt_vec(v)
        if order.covers(v) != covers_below(T, v):
            fail("covers", f"covers of {name} differ from the reference")
        for rules in ((4, 3, 2), (2, 3, 4)):
            if {e.vec for e in core_of_at(T, (), v, rules)} != order.cores[v]:
                fail("cores", f"core of {name} differs from the reference in rule order {rules}")
        if (v, v) not in order.pairs:
            fail("order", f"not reflexive at {name}")
    for a, b in order.pairs:
        if not natural_leq(a, b):
            fail("order", f"{T.fmt_vec(a)} below {T.fmt_vec(b)} exceeds the natural order")
        for c, d in order.pairs:
            if b == c and (a, d) not in order.pairs:
                fail("order", f"not transitive: {T.fmt_vec(a)} < {T.fmt_vec(b)} < {T.fmt_vec(d)}")
    if not check_meet_identity(T, order):
        fail("meets", "a meet is not the greatest lower bound or not the AND class")
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
    product case rules, and primitivity.  Each failure names the stage,
    the matrix rows and the invariant.  A C that is not one representative
    per class in class order, or a product that leaves the CD, ends the
    CD checks with one failure line."""
    fails: list[str] = []
    if not coherent_check(T):
        fails.append(f"coherence on rows {T.rows}: coherent_check failed")
    cd = build_cd(T)
    order = cd.order
    where = f"CD on rows {T.rows}"
    bad = [x for x in cd.Cll if make_sidem(order, x.u, x.g) != x]
    if bad:  # CDSet.product's closure check would raise on these first
        return fails + [f"{where}: guarded cover not in canonical form: {cd.fmt(x)}" for x in bad]
    if [x.u for x in cd.C] != list(order.classes):  # the C*C rule reads C by class index
        return fails + [f"{where}: C is not one representative per class, in class order"]
    try:
        for x in cd.C:
            for y in cd.C:
                p = cd.product(x, y)
                m = order.meet(x.u, y.u)
                want = None if m is None else cd.C[order.index[m]]
                if p != want:
                    fails.append(f"{where}: C*C rule failed: {cd.fmt(x)} {cd.fmt(y)}")
        for x in cd.Cll:
            for y in cd.C:
                want = x if order.leq(x.u, y.u) else None
                if cd.product(x, y) != want or cd.product(y, x) != want:
                    fails.append(f"{where}: Cll*C rule failed: {cd.fmt(x)} {cd.fmt(y)}")
            for y in cd.Cll:
                want = x if x == y else None
                if cd.product(x, y) != want:
                    fails.append(f"{where}: Cll*Cll rule failed: {cd.fmt(x)} {cd.fmt(y)}")
    except InvariantViolation as err:  # from CDSet.product
        return fails + [f"{where}: {err}"]
    for x in cd.elements:
        below = [y for y in cd.elements if sidem_leq(order, y, x)]
        if (below == [x]) != (x in cd.Cll):
            fails.append(f"{where}: primitivity misclassified: {cd.fmt(x)}")
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
