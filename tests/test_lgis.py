import os
import random
import subprocess
import sys
from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest

import shiftmorita
from shiftmorita import lgis, sweeps

from shiftmorita.labelled_graph import build_graph
from shiftmorita.lgis import LgisEngine, ProductTables, TableSizeError, run_axiom_suite
from shiftmorita.reference import (
    RawGraph,
    check_resolving,
    labelled_paths_raw,
    raw_of,
    relative_source_raw,
)
from shiftmorita.shift import InvariantViolation

from conftest import mx


@pytest.fixture(scope="module")
def eng(diamond_graph):
    return LgisEngine(diamond_graph)


def label_index(G, vertex, wordlen):
    for i, lab in enumerate(G.labels):
        if lab.vertex == vertex and len(lab.cover.word) == wordlen:
            return i
    raise LookupError


def named_labels(diamond, G):
    return {
        "alpha": label_index(G, diamond.mask_of("ab"), 1),   # (a, aa*)
        "beta": label_index(G, diamond.mask_of("b"), 1),     # (d, bb*)
        "gamma": label_index(G, diamond.mask_of("bc"), 1),   # (b, cc*)
    }


class TestRelativeSource:
    def test_empty_path_is_identity(self, diamond, diamond_graph, eng):
        for v in diamond_graph.vertices:
            assert eng.relative_source(v, ()) == v

    def test_range_outside_set_gives_empty(self, diamond, diamond_graph, eng):
        lx = named_labels(diamond, diamond_graph)
        # r(alpha) = class of {a,b}, not below {b}
        assert eng.relative_source(diamond.mask_of("b"), (lx["alpha"],)) is None

    def test_final_letter_source_set(self, diamond, diamond_graph, eng):
        lx = named_labels(diamond, diamond_graph)
        got = eng.relative_source(diamond.mask_of("abc"), (lx["gamma"],))
        # the gamma cover lies in the top class, so its source set is B_top
        assert got == diamond.mask_of("abc")
        raw = raw_of(diamond_graph)
        raw_src = relative_source_raw(
            raw,
            frozenset(diamond_graph.b_set(diamond.mask_of("abc"))),
            (diamond_graph.labels[lx["gamma"]],),
        )
        assert raw_src == frozenset(diamond_graph.b_set(got))

    def test_chain_rule_against_raw(self, diamond, diamond_graph, eng):
        raw = raw_of(diamond_graph)
        for p in eng.paths(3):
            for v in diamond_graph.vertices:
                got = eng.relative_source(v, p)
                want = relative_source_raw(
                    raw,
                    frozenset(diamond_graph.b_set(v)),
                    tuple(diamond_graph.labels[i] for i in p),
                )
                if got is None:
                    assert want == frozenset()
                else:
                    assert want == frozenset(diamond_graph.b_set(got))

    def test_split_chains_agree(self, diamond, diamond_graph, eng):
        for p in eng.paths(3):
            for cut in range(len(p) + 1):
                for v in diamond_graph.vertices:
                    assert eng.relative_source(
                        eng.relative_source(v, p[:cut]), p[cut:]
                    ) == eng.relative_source(v, p)


def small_graphs() -> list:
    """Every graph with at most 2 letters and a seeded sample of twelve
    3-letter graphs with at most 60 elements of path length <= 2."""
    cheap = [
        T for T in sweeps.all_matrices(3) if T.n == 3 and element_count(T) <= 60
    ]
    mats = [*sweeps.all_matrices(2), *random.Random(10).sample(cheap, 12)]
    return [build_graph(T) for T in mats]


def multiply_raw(eng, raw, x, y):
    """Product computed with representative-based relative sources."""
    G = eng.graph
    if x is None or y is None:
        return None

    def bset(v):
        return frozenset(G.b_set(v))

    def vertex_of(s):
        if not s:
            return None
        matches = [v for v in G.vertices if bset(v) == s]
        assert len(matches) == 1
        return matches[0]

    alpha, A, beta = x
    gamma, B, delta = y
    if len(gamma) >= len(beta) and gamma[: len(beta)] == beta:
        tail = tuple(G.labels[i] for i in gamma[len(beta):])
        mid = relative_source_raw(raw, bset(A), tail) & bset(B)
        v = vertex_of(mid)
        return None if v is None else (alpha + gamma[len(beta):], v, delta)
    if beta[: len(gamma)] == gamma:
        tail = tuple(G.labels[i] for i in beta[len(gamma):])
        mid = bset(A) & relative_source_raw(raw, bset(B), tail)
        v = vertex_of(mid)
        return None if v is None else (alpha, v, delta + beta[len(gamma):])
    return None


class TestElement:
    def test_middle_outside_a_source_set_refused(self, diamond, diamond_graph, eng):
        # alpha's source class is {a,b}, which {b,c} is not inside
        lx = named_labels(diamond, diamond_graph)
        with pytest.raises(ValueError, match="middle set not contained in a source set"):
            eng.element((lx["alpha"],), diamond.mask_of("bc"), ())

    def test_path_that_is_no_labelled_path_refused(self, diamond, diamond_graph, eng):
        # gamma's range {b,c} is not inside alpha's source {a,b}, so gamma
        # may not follow alpha; the middle {b} is inside gamma's source
        lx = named_labels(diamond, diamond_graph)
        with pytest.raises(ValueError, match="invalid labelled path"):
            eng.element((lx["alpha"], lx["gamma"]), diamond.mask_of("b"), ())


class TestMultiply:
    def test_equal_middles_intersect(self, diamond, diamond_graph, eng):
        lx = named_labels(diamond, diamond_graph)
        g = (lx["gamma"],)
        x = eng.element((), diamond.mask_of("ab"), g)
        y = eng.element(g, diamond.mask_of("b"), ())
        assert eng.multiply(x, y) == ((), diamond.mask_of("b"), ())

    def test_zero_absorbs(self, eng):
        x = eng.enumerate_elements(1)[3]
        assert eng.multiply(x, None) is None
        assert eng.multiply(None, x) is None

    def test_incomparable_paths_give_zero(self, diamond, diamond_graph, eng):
        lx = named_labels(diamond, diamond_graph)
        x = eng.element((), diamond.mask_of("ab"), (lx["alpha"],))
        y = eng.element((lx["gamma"],), diamond.mask_of("b"), ())
        assert eng.multiply(x, y) is None

    def test_case_rules_match_representative_computation(self, diamond_graph):
        # the diamond, every graph with at most 2 letters, and a seeded
        # sample of 3-letter graphs
        for G in [diamond_graph, *small_graphs()]:
            e = LgisEngine(G)
            raw = raw_of(G)
            elems = e.enumerate_elements(2)
            for x in elems:
                for y in elems:
                    assert e.multiply(x, y) == multiply_raw(e, raw, x, y), G.matrix.rows


class TestInverse:
    def test_swaps_paths(self, eng):
        for x in eng.enumerate_elements(2):
            if x is None:
                assert eng.inverse(x) is None
                continue
            alpha, A, beta = x
            assert eng.inverse(x) == (beta, A, alpha)
            assert eng.multiply(eng.multiply(x, eng.inverse(x)), x) == x

    def test_idempotent_self_inverse(self, eng):
        for x in eng.enumerate_elements(1):
            if x is not None and x[0] == x[2]:
                assert eng.inverse(x) == x


def leq_algebraic(eng, x, y):
    """x <= y iff x = y (x* x); the order-theoretic cross-check."""
    if x is None:
        return True
    return eng.multiply(y, eng.multiply(eng.inverse(x), x)) == x


class TestLeq:
    def test_suffix_condition(self, diamond, diamond_graph, eng):
        lx = named_labels(diamond, diamond_graph)
        mu = (lx["gamma"],)
        y = eng.element((), diamond.mask_of("abc"), ())
        x = eng.element(mu, diamond.mask_of("b"), mu)
        assert eng.leq(x, y)

    def test_reflexive(self, eng):
        for x in eng.enumerate_elements(1):
            assert eng.leq(x, x)

    def test_agrees_with_algebraic_form(self, eng):
        elems = eng.enumerate_elements(2)
        for x in elems:
            for y in elems:
                assert eng.leq(x, y) == leq_algebraic(eng, x, y)


def literal_green_d(eng, x, y):
    """Green's D with its witness z = (alpha_x, A, beta_y), re-verified by
    four fresh engine products and no memo."""
    if x is None or y is None:
        return (x is None and y is None, None)
    if x[1] != y[1]:
        return (False, None)
    z = (x[0], x[1], y[2])
    mul, inv = eng.multiply, eng.inverse
    assert mul(z, inv(z)) == mul(x, inv(x))
    assert mul(inv(z), z) == mul(inv(y), y)
    return (True, z)


class TestGreen:
    def test_r_matches_algebraic(self, eng):
        """x R y (x x* = y y*) iff x and y have equal left paths and
        middles, and x L y (x* x = y* y) iff equal right paths and middles:
        the structural keys of ``run_axiom_suite``."""
        elems = eng.enumerate_elements(2)
        mul, inv = eng.multiply, eng.inverse
        for x in elems:
            for y in elems:
                same_r = mul(x, inv(x)) == mul(y, inv(y))
                same_l = mul(inv(x), x) == mul(inv(y), y)
                if x is None or y is None:
                    assert same_r == same_l == (x is y)
                else:
                    assert same_r == (x[0] == y[0] and x[1] == y[1])
                    assert same_l == (x[2] == y[2] and x[1] == y[1])

    def test_d_matches_four_fresh_products(self, diamond_graph):
        # d_classes checks x x* once per element (x* x is the x x* of the
        # inverse); the reference recomputes all four products per pair
        for G in [diamond_graph, *small_graphs()]:
            e = LgisEngine(G)
            elems = e.enumerate_elements(2)
            d = e.d_classes(elems)
            for x, dx in zip(elems, d):
                for y, dy in zip(elems, d):
                    assert (dx == dy) == literal_green_d(e, x, y)[0], G.matrix.rows


def pairwise_d_holds(eng, elems) -> bool:
    """Every witness check of ``literal_green_d`` passes."""
    try:
        for x in elems:
            for y in elems:
                literal_green_d(eng, x, y)
    except AssertionError:
        return False
    return True


class TestBlockForms:
    """``d_classes`` and ``leq_pairs`` against the engine's pairwise
    relations, on every pair of elements."""

    def test_leq_pairs_match_pairwise_leq(self, diamond_graph):
        for G in [diamond_graph, *small_graphs()]:
            e = LgisEngine(G)
            for maxlen in (0, 1, 2):
                elems = e.enumerate_elements(maxlen)
                got = e.leq_pairs(elems)
                assert len(got) == len(set(got))
                assert set(got) == {
                    (i, j)
                    for i, x in enumerate(elems)
                    for j, y in enumerate(elems)
                    if e.leq(x, y)
                }, (G.matrix.rows, maxlen)

    def test_d_class_ids_are_middles(self, eng):
        elems = eng.enumerate_elements(1)
        assert eng.d_classes(elems) == [-1] + [x[1] for x in elems[1:]]

    def test_broken_product_raises_exactly_when_a_pair_fails(self, monkeypatch):
        # x x* made zero for one element, then for a whole (alpha, A) row of
        # elements: d_classes raises iff some pairwise witness check fails.
        # The first breaks a row's constancy, the second keeps it.
        e = LgisEngine(build_graph(mx("a b\n11\n10")))
        elems = e.enumerate_elements(1)
        outcomes = []
        for x0 in elems[1:]:
            row = [x for x in elems[1:] if x[:2] == x0[:2]]
            for hit in ([x0], row):
                targets = {(x, e.inverse(x)) for x in hit}

                def broken(x, y, targets=targets):
                    return None if (x, y) in targets else LgisEngine.multiply(e, x, y)

                monkeypatch.setattr(e, "multiply", broken)
                try:
                    e.d_classes(elems)
                    raised = False
                except InvariantViolation:
                    raised = True
                assert raised == (not pairwise_d_holds(e, elems)), (x0, len(hit))
                outcomes.append(raised)
        assert outcomes == [True, False] * (len(elems) - 1)

    def test_suite_raises_on_a_broken_witness(self, monkeypatch):
        G = build_graph(mx("a b\n11\n10"))
        x0 = LgisEngine(G).enumerate_elements(2)[-1]
        multiply = LgisEngine.multiply

        def broken(self, x, y):
            return None if (x, y) == (x0, self.inverse(x0)) else multiply(self, x, y)

        monkeypatch.setattr(LgisEngine, "multiply", broken)
        with pytest.raises(InvariantViolation, match="D-relation witness"):
            run_axiom_suite(G, samples3=0)


class TestEnumerate:
    def test_maxlen_zero(self, diamond_graph, eng):
        got = eng.enumerate_elements(0)
        assert got[0] is None
        assert set(got[1:]) == {((), v, ()) for v in diamond_graph.vertices}

    def test_monotone(self, eng):
        assert set(eng.enumerate_elements(0)) <= set(eng.enumerate_elements(1))
        assert set(eng.enumerate_elements(1)) <= set(eng.enumerate_elements(2))

    def test_single_loop_hand_count(self):
        G = build_graph(mx("a\n1"))
        e = LgisEngine(G)
        # paths: (), (l); one middle set; four path pairs plus zero
        assert len(e.enumerate_elements(1)) == 5

    def test_deterministic(self, eng):
        assert eng.enumerate_elements(2) == eng.enumerate_elements(2)


def reference_check_resolving(raw: RawGraph, pathlen: int = 3) -> tuple[bool, bool]:
    """``check_resolving`` by the definition, on frozensets of raw vertices:
    relative sources from ``relative_source_raw`` for every pair from the B
    family and every labelled path from ``labelled_paths_raw``."""
    ranges: dict = {}
    strong = True
    for r, lab, _ in raw.edges:
        if ranges.setdefault(lab, r) != r:
            strong = False
            break
    paths = labelled_paths_raw(raw, pathlen)
    for A, B in iproduct(raw.bfamily, raw.bfamily):
        for p in paths:
            lhs = relative_source_raw(raw, A & B, p)
            rhs = relative_source_raw(raw, A, p) & relative_source_raw(raw, B, p)
            if lhs != rhs:
                return (False, strong)
    return (True, strong)


def random_raw(rng: random.Random) -> RawGraph:
    """1-4 vertices, 1-3 labels, each possible edge with probability 0.4,
    and the empty set plus 1-4 random vertex sets as the B family.  In one
    graph in five, edges and B-sets may also use a piece that is not a
    listed vertex."""
    vertices = tuple(f"v{i}" for i in range(rng.randint(1, 4)))
    pool = vertices + ("ghost",) * (rng.random() < 0.2)
    labels = "xyz"[: rng.randint(1, 3)]
    edges = tuple(
        (r, lab, s)
        for r in pool for lab in labels for s in pool
        if rng.random() < 0.4
    )
    bfamily = [frozenset()] + [
        frozenset(v for v in pool if rng.random() < 0.5)
        for _ in range(rng.randint(1, 4))
    ]
    return RawGraph(vertices, edges, tuple(bfamily))


class TestResolvingMatchesReference:
    def test_seeded_hand_built_graphs(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(1000):
            raw = random_raw(rng)
            for pathlen in (1, 3):
                got = check_resolving(raw, pathlen)
                assert got == reference_check_resolving(raw, pathlen), raw
                seen.add(got)
        # every verdict pair occurs; strong implies weak, since a label with
        # one range moves every set to the same source set or to nothing
        assert seen == {(False, False), (True, False), (True, True)}

    def test_built_graphs(self, diamond_graph):
        for G in [diamond_graph, *small_graphs()]:
            raw = raw_of(G)
            assert check_resolving(raw) == (True, True)
            assert reference_check_resolving(raw) == (True, True)

    def test_weak_failure_by_hand(self):
        # one label with ranges u and v and the same source w: the two
        # B-sets are disjoint, yet each has the relative source {w}
        raw = RawGraph(
            ("u", "v", "w"),
            (("u", "l", "w"), ("v", "l", "w")),
            (frozenset(), frozenset({"u"}), frozenset({"v"})),
        )
        assert check_resolving(raw) == reference_check_resolving(raw) == (False, False)


class TestResolving:
    def test_built_graphs_resolve(self, diamond_graph):
        assert check_resolving(raw_of(diamond_graph)) == (True, True)

    def test_hand_built_strong_failure(self):
        raw = RawGraph(
            ("u", "v"),
            (("u", "l", "u"), ("v", "l", "v")),
            (frozenset(), frozenset({"u"}), frozenset({"v"})),
        )
        weak, strong = check_resolving(raw)
        assert not strong

    def test_single_vertex_loop(self):
        raw = raw_of(build_graph(mx("a\n1")))
        assert check_resolving(raw) == (True, True)

    def test_raw_path_enumeration(self, diamond_graph):
        raw = raw_of(diamond_graph)
        paths = labelled_paths_raw(raw, 2)
        eng = LgisEngine(diamond_graph)
        assert len(paths) == len(eng.paths(2)) - 1  # engine includes ()


class TestAxiomSuite:
    def test_diamond_graph_passes(self, diamond_graph):
        res = run_axiom_suite(diamond_graph)
        assert res["ok"], {k: v for k, v in res.items() if v is False}
        assert res["elements"] == 251
        assert res["universe"] == 20985

    def test_sweep_failure_names_the_matrix(self, monkeypatch):
        def one_failure(G):
            return {"elements": 1, "associativity": True, "green_D": False}

        monkeypatch.setattr(sweeps, "run_axiom_suite", one_failure)
        assert sweeps.sweep_lgis(mx("a b\n11\n10")) == [
            "lgis axiom green_D failed on rows (3, 1)"
        ]

    def test_import_leaves_numpy_unloaded(self):
        # numpy is imported inside run_axiom_suite, so importing the
        # package stays cheap for callers that never run the suite
        src = str(Path(shiftmorita.__file__).resolve().parents[1])
        code = "import sys, shiftmorita; print('numpy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout
        assert out.strip() == "False"

    def test_idempotents_are_diagonal(self, eng):
        for x in eng.enumerate_elements(2):
            if eng.multiply(x, x) == x:
                assert x is None or x[0] == x[2]


def assert_tables_match_engine(T):
    """Every cell of pair, left and right, decoded back to an element,
    equals ``LgisEngine.multiply`` on the decoded operands."""
    eng = LgisEngine(build_graph(T))
    elems = eng.enumerate_elements(2)
    tab = ProductTables(eng, elems)
    n, nu = tab.left.shape
    assert tab.pair.shape == (n, n) and tab.right.shape == (nu, n)
    assert [tab.element(i) for i in range(n)] == elems
    u1 = [tab.element(k) for k in range(nu)]
    assert set(u1) == set(elems) | {
        eng.multiply(a, b) for a in elems for b in elems
    }
    universe = {tab.element(u) for u in range(len(tab.keys))}
    assert len(universe) == len(tab.keys)
    pair, left, right = tab.pair.tolist(), tab.left.tolist(), tab.right.tolist()
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            assert tab.element(pair[i][j]) == eng.multiply(a, b), (T.rows, a, b)
        for k, u in enumerate(u1):
            assert tab.element(left[i][k]) == eng.multiply(a, u), (T.rows, a, u)
            assert tab.element(right[k][i]) == eng.multiply(u, a), (T.rows, u, a)


def element_count(T) -> int:
    return len(LgisEngine(build_graph(T)).enumerate_elements(2))


def three_letter_sample() -> list:
    """A seeded twelve of the 3-letter graphs with at most 60 elements."""
    cheap = [
        T for T in sweeps.all_matrices(3) if T.n == 3 and element_count(T) <= 60
    ]
    return random.Random(6).sample(cheap, 12)


class TestTableSizeGuard:
    def test_count_matches_enumeration(self, diamond_graph):
        """On every graph with at most 3 letters up to path length 2, and on
        the diamond up to 4 (8 211 elements, which ``lgis-check`` refuses).
        The paths the enumeration lists come in (length, path) order."""
        for G in map(build_graph, sweeps.all_matrices(3)):
            eng = LgisEngine(G)
            for maxlen in (0, 1, 2):
                assert eng.count_elements(maxlen) == len(eng.enumerate_elements(maxlen))
                paths = eng.paths(maxlen)
                assert paths == sorted(paths, key=lambda p: (len(p), p))
        eng = LgisEngine(diamond_graph)
        for maxlen in (3, 4):
            assert eng.count_elements(maxlen) == len(eng.enumerate_elements(maxlen))

    def test_raises_before_filling_a_table_over_the_limit(self, monkeypatch):
        eng = LgisEngine(build_graph(mx("a b\n11\n11")))
        elems = eng.enumerate_elements(1)
        n = len(elems)
        ProductTables(eng, elems)  # fits under the real limit
        # pair (n x n) fits, left (n x |U1|) does not
        monkeypatch.setattr(lgis, "MAX_TABLE_CELLS", n * n)
        with pytest.raises(TableSizeError, match=f"a {n} x [0-9]+ product table"):
            ProductTables(eng, elems)
        monkeypatch.setattr(lgis, "MAX_TABLE_CELLS", n * n - 1)
        with pytest.raises(TableSizeError, match=f"a {n} x {n} product table"):
            ProductTables(eng, elems)


class TestProductTables:
    def test_more_paths_than_a_key_field_holds_overflow(self, monkeypatch, diamond_graph):
        """With one-bit key fields, path ids 0 and 1 fit and the third
        path listed does not."""
        eng = LgisEngine(diamond_graph)
        elems = eng.enumerate_elements(1)
        monkeypatch.setattr(lgis, "_MASK", 1)
        with pytest.raises(OverflowError, match="too many paths for a packed element key"):
            ProductTables(eng, elems)

    @pytest.mark.parametrize(
        "T", list(sweeps.all_matrices(2)), ids=lambda T: str(T.rows)
    )
    def test_every_two_letter_graph_matches_engine(self, T):
        assert_tables_match_engine(T)

    def test_seeded_three_letter_sample_matches_engine(self):
        for T in three_letter_sample():
            assert_tables_match_engine(T)

    def test_zero_joins_the_universe_only_as_a_product(self, diamond, diamond_graph):
        eng = LgisEngine(diamond_graph)
        elems = eng.enumerate_elements(1)[1:]  # every element but zero
        tab = ProductTables(eng, elems)
        pair = tab.pair.tolist()
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                assert tab.element(pair[i][j]) == eng.multiply(a, b), (a, b)
        assert tab.id_of(None) >= len(elems)
        top = ((), diamond.mask_of("abc"), ())  # an idempotent, its own square
        assert ProductTables(eng, [top]).keys == [tab.keys[elems.index(top)]]

    @pytest.mark.parametrize("chunk", [1, 37])
    def test_chunk_budgets_that_end_inside_rows(self, diamond, monkeypatch, chunk):
        """Chunks of one row each, and of a few rows whose comparable
        cells pass the budget partway through the last one."""
        monkeypatch.setattr(lgis, "_CHUNK", chunk)
        for T in [diamond, *three_letter_sample()]:
            assert_tables_match_engine(T)

    def test_relation_matches_pairwise_slices(self, diamond):
        """``_relation`` from prefixes against its definition, on every
        pair of the paths a filled table set knows, betas a subset."""
        for T in [diamond, *three_letter_sample()]:
            eng = LgisEngine(build_graph(T))
            tab = ProductTables(eng, eng.enumerate_elements(2))
            paths = list(tab.paths)
            ids = np.arange(len(paths))
            case, tail = tab._relation(ids[::3], ids)
            for i, b in enumerate(paths[::3]):
                for j, g in enumerate(paths):
                    if g[: len(b)] == b:
                        want = (1, g[len(b):])
                    elif b[: len(g)] == g:
                        want = (2, b[len(g):])
                    else:
                        want = (0, ())
                    assert (case[i, j], tab.paths[tail[i, j]]) == want, (b, g)


class TestTableReadsFail:
    @pytest.mark.parametrize("name", ["pair", "left", "right"])
    def test_one_wrong_cell_fails_associativity(self, diamond_graph, monkeypatch, name):
        """One live cell holding another universe id: in pair, or in the
        part of left or right that is filled past the copy of pair."""

        class OneWrongCell(ProductTables):
            def __init__(self, eng, elems):
                super().__init__(eng, elems)
                n = len(elems)
                i, j = np.argwhere(self.pair >= n)[0]  # x_i x_j is no element
                k = self.pair[i, j]
                table = getattr(self, name)
                cell = {"pair": (i, j), "left": (i, k), "right": (k, j)}[name]
                assert table[cell] != self.id_of(None)
                table[cell] = (table[cell] + 1) % n

        monkeypatch.setattr(lgis, "ProductTables", OneWrongCell)
        res = run_axiom_suite(diamond_graph, samples3=0)
        assert res["associativity"] is False and res["ok"] is False
