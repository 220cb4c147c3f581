import random
import time

import pytest

from shiftmorita.core_order import CoreOrder, build_order
from shiftmorita.decide import (
    _certificate,
    brute_force_isomorphic,
    decide_morita,
    graphs_isomorphic_ordered,
    verify_witness,
)
from shiftmorita.labelled_graph import LabelledGraph, build_graph, cached_graph
from shiftmorita.shift import TransitionMatrix
from shiftmorita.sweeps import all_matrices, permuted_copy

from conftest import mx


class TestIsomorphism:
    def test_self_identity(self, diamond, diamond_graph):
        w = graphs_isomorphic_ordered(diamond_graph, diamond_graph)
        assert w is not None
        assert dict(w.vertex_map) == {v: v for v in diamond_graph.vertices}

    def test_full_shift_label_counts(self):
        g2 = build_graph(mx("a b\n11\n11"))
        g3 = build_graph(mx("a b c\n111\n111\n111"))
        assert graphs_isomorphic_ordered(g2, g3) is None

    def test_alphabet_permutation_invariance(self, diamond):
        for perm in ([1, 2, 0], [2, 1, 0], [0, 2, 1]):
            other = build_graph(permuted_copy(diamond, perm))
            w = graphs_isomorphic_ordered(build_graph(diamond), other)
            assert w is not None
            assert verify_witness(build_graph(diamond), other, w)

    def test_witness_survives_reverification(self):
        t1 = mx("a b\n11\n01")
        g1, g2 = build_graph(t1), build_graph(permuted_copy(t1, [1, 0]))
        w = graphs_isomorphic_ordered(g1, g2)
        assert w is not None and verify_witness(g1, g2, w)

    def test_tampered_witness_rejected(self, diamond, diamond_graph):
        import dataclasses

        w = graphs_isomorphic_ordered(diamond_graph, diamond_graph)
        vm = dict(w.vertex_map)
        a, b = diamond.mask_of("ab"), diamond.mask_of("bc")
        vm[a], vm[b] = vm[b], vm[a]
        bad = dataclasses.replace(w, vertex_map=tuple(sorted(vm.items())))
        assert not verify_witness(diamond_graph, diamond_graph, bad)


    def test_large_antichain_matches_itself_by_identity(self):
        """1 500 incomparable vertices without labels: every vertex is a
        candidate for every other, and the search runs deeper than the
        interpreter's recursion limit."""
        classes = tuple(range(1, 1501))
        k = len(classes)
        order = CoreOrder(
            None,
            classes,
            frozenset((v, v) for v in classes),
            {},
            {v: i for i, v in enumerate(classes)},
            tuple(1 << i for i in range(k)),
            (0,) * k,
        )
        G = LabelledGraph(None, order, (), ())
        w = graphs_isomorphic_ordered(G, G)
        assert w is not None
        assert dict(w.vertex_map) == {v: v for v in classes}

    def test_j_minus_i_eight_letters_matches_relabelled_copy(self):
        # every letter may follow every other: 2^8 - 2 = 254 classes.  The
        # copy is relabelled and renamed, so nothing is shared through the
        # caches keyed on the matrix.
        n = 8
        full = (1 << n) - 1
        T = TransitionMatrix(tuple("abcdefgh"), tuple(full & ~(1 << i) for i in range(n)))
        perm = list(range(n))
        random.Random(8).shuffle(perm)
        U = TransitionMatrix(tuple("ABCDEFGH"), permuted_copy(T, perm).rows)
        t0 = time.perf_counter()
        assert len(build_order(U).classes) == 254
        verdict = decide_morita(T, U)
        assert verdict.equivalent
        assert verify_witness(build_graph(T), build_graph(U), verdict.witness)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


class TestBruteForce:
    def test_agrees_on_two_letter_universe(self):
        mats = list(all_matrices(2))
        graphs = {T: build_graph(T) for T in mats}
        for i, t1 in enumerate(mats):
            for t2 in mats[i + 1:]:
                bt = graphs_isomorphic_ordered(graphs[t1], graphs[t2])
                assert (bt is not None) == brute_force_isomorphic(
                    graphs[t1], graphs[t2]
                )

    def test_vertex_count_short_circuit(self, diamond_graph):
        g1 = build_graph(mx("a\n1"))
        assert not brute_force_isomorphic(g1, diamond_graph)


class TestDecide:
    def test_reflexive(self, diamond):
        v = decide_morita(diamond, diamond)
        assert v.equivalent and v.witness is not None and v.certificate is None

    def test_full_shifts_differ(self):
        v = decide_morita(mx("a b\n11\n11"), mx("a b c\n111\n111\n111"))
        assert not v.equivalent
        assert "label count" in v.certificate

    def test_identity_two_vs_full_one(self):
        # two incomparable classes against a single class: not equivalent
        v = decide_morita(mx("a b\n10\n01"), mx("a\n1"))
        assert not v.equivalent
        assert "vertex count" in v.certificate

    def test_cross_check_agrees(self, diamond):
        assert decide_morita(diamond, diamond, cross_check=True).equivalent
        assert not decide_morita(
            diamond, mx("a\n1"), cross_check=True
        ).equivalent

    def test_permutation_always_equivalent(self, diamond):
        v = decide_morita(diamond, permuted_copy(diamond, [2, 0, 1]))
        assert v.equivalent
        assert verify_witness(
            build_graph(diamond),
            build_graph(permuted_copy(diamond, [2, 0, 1])),
            v.witness,
        )


class TestGraphCache:
    def test_repeated_decides_build_each_graph_once(self):
        """Bucketing-style traffic: several matrices, each decided twice
        against one representative.  Every matrix is a cache miss once, and
        each witness still verifies on freshly built graphs."""
        rep = TransitionMatrix(("p", "q", "r"), (3, 6, 7))  # the diamond
        others = [rep] + [
            permuted_copy(rep, perm) for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0])
        ]
        others += [TransitionMatrix(("p", "q"), (3, 3))]
        misses = cached_graph.cache_info().misses
        for _ in range(2):
            for T in others:
                v = decide_morita(T, rep)
                assert v.equivalent == (T.n == 3)
                if v.equivalent:
                    assert verify_witness(build_graph(T), build_graph(rep), v.witness)
        assert cached_graph.cache_info().misses - misses == len(set(others))
        assert cached_graph(rep) is cached_graph(rep)


class TestCertificate:
    @pytest.mark.parametrize(
        "text1, text2, certificate",
        [
            ("a\n1", "a b\n10\n01", "vertex count differs: 1 vs 2"),
            ("a\n1", "a b\n11\n11", "label count differs: 1 vs 2"),
            (
                "a b c\n110\n101\n111",
                "a b c d\n1000\n1100\n1010\n1110",
                "edge count differs: 8 vs 5",
            ),
            (
                "a b\n10\n01",
                "a b c\n100\n100\n010",
                "vertex profiles differs: [(1, 1, 1, (1,)), (1, 1, 1, (1,))]"
                " vs [(1, 1, 0, (1,)), (1, 1, 2, (1,))]",
            ),
            (
                "a b\n10\n01",
                "a b\n01\n10",
                "no order-compatible vertex bijection extends to an isomorphism",
            ),
        ],
    )
    def test_first_differing_invariant(self, text1, text2, certificate):
        T1, T2 = mx(text1), mx(text2)
        assert _certificate(build_graph(T1), build_graph(T2)) == certificate
        v = decide_morita(T1, T2)
        assert not v.equivalent and v.certificate == certificate


class TestFourLetterCrossCheck:
    def test_graph_and_cd_verdicts_agree_on_random_sample(self):
        import random

        from shiftmorita.shift import TransitionMatrix
        from shiftmorita.smorita import build_cd, cd_isomorphic

        rng = random.Random(777)
        mats = [
            TransitionMatrix(
                ("a", "b", "c", "d"),
                tuple(rng.randrange(1, 16) for _ in range(4)),
            )
            for _ in range(30)
        ]
        graphs = {T: build_graph(T) for T in mats}
        cds = {T: build_cd(T) for T in mats}
        for i, t1 in enumerate(mats):
            for t2 in mats[i + 1:]:
                w = graphs_isomorphic_ordered(graphs[t1], graphs[t2])
                if w is not None:
                    assert verify_witness(graphs[t1], graphs[t2], w)
                c = cd_isomorphic(cds[t1], cds[t2])
                assert (w is None) == (c is None)


class TestProductionPath:
    def test_reference_covers_are_never_called(self, monkeypatch, diamond):
        """The graph, the CD and a cross-checked decide read their covers
        off the class order; ``hull.covers_below_at`` is the reference the
        sweeps and tests use, and the production path must not need it."""
        import sys

        from shiftmorita import hull
        from shiftmorita.smorita import build_cd

        def refuse(*args):
            raise RuntimeError("the reference covering relation was called")

        for name, module in list(sys.modules.items()):
            if name.startswith("shiftmorita") and (
                getattr(module, "covers_below_at", None) is hull.covers_below_at
            ):
                monkeypatch.setattr(module, "covers_below_at", refuse)
        n = 6
        full = (1 << n) - 1
        j_minus_i = TransitionMatrix(
            tuple("abcdef"), tuple(full & ~(1 << i) for i in range(n))
        )
        for T, perm in ((diamond, [2, 0, 1]), (j_minus_i, [3, 5, 0, 1, 4, 2])):
            U = permuted_copy(T, perm)
            assert len(build_graph(T).labels) == len(build_graph(U).labels)
            assert len(build_cd(T).Cll) == len(build_cd(U).Cll)
            assert decide_morita(T, U, cross_check=True).equivalent
