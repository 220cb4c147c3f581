import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import shiftmorita
from shiftmorita import sweeps

from shiftmorita.labelled_graph import build_graph
from shiftmorita.lgis import (
    LgisEngine,
    ProductTables,
    RawGraph,
    check_resolving,
    labelled_paths_raw,
    raw_of,
    relative_source_raw,
    run_axiom_suite,
)

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

    def test_case_rules_match_representative_computation(self, diamond_graph, eng):
        raw = raw_of(diamond_graph)
        elems = eng.enumerate_elements(2)
        for x in elems:
            for y in elems:
                assert eng.multiply(x, y) == multiply_raw(eng, raw, x, y)


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
                assert eng.leq(x, y) == eng.leq_algebraic(x, y)


class TestGreen:
    def test_r_same_left_path_and_middle(self, diamond, diamond_graph, eng):
        lx = named_labels(diamond, diamond_graph)
        a = (lx["alpha"],)
        d = diamond.mask_of("b")
        x = eng.element(a, d, a)
        y = eng.element(a, d, ())
        assert eng.green(x, y, "R")
        assert not eng.green(x, y, "L")

    def test_l_same_right_path_and_middle(self, diamond, diamond_graph, eng):
        lx = named_labels(diamond, diamond_graph)
        b = (lx["beta"],)
        d = diamond.mask_of("b")
        x = eng.element(b, d, b)
        y = eng.element((), d, b)
        assert eng.green(x, y, "L")

    def test_r_matches_algebraic(self, eng):
        elems = eng.enumerate_elements(2)
        for x in elems:
            for y in elems:
                alg = eng.multiply(x, eng.inverse(x)) == eng.multiply(
                    y, eng.inverse(y)
                )
                assert eng.green(x, y, "R") == alg

    def test_unknown_relation(self, eng):
        with pytest.raises(ValueError):
            eng.green(None, None, "H")


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


class TestProductTables:
    @pytest.mark.parametrize(
        "T", list(sweeps.all_matrices(2)), ids=lambda T: str(T.rows)
    )
    def test_every_two_letter_graph_matches_engine(self, T):
        assert_tables_match_engine(T)

    def test_seeded_three_letter_sample_matches_engine(self):
        cheap = [
            T for T in sweeps.all_matrices(3) if T.n == 3 and element_count(T) <= 60
        ]
        for T in random.Random(6).sample(cheap, 12):
            assert_tables_match_engine(T)
