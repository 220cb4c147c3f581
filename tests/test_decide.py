import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings

import shiftmorita
from shiftmorita import decide
from shiftmorita.cli import main
from shiftmorita.core_order import CoreOrder, build_order
from shiftmorita.decide import (
    _certificate,
    _extend_witness,
    decide_morita,
    graphs_isomorphic_ordered,
    order_isomorphisms,
    verify_witness,
)
from shiftmorita.hull import HullIdempotent
from shiftmorita.labelled_graph import (
    Edge,
    Label,
    LabelledGraph,
    build_graph,
    cached_graph,
)
from shiftmorita.reference import brute_force_isomorphic
from shiftmorita.shift import InvariantViolation, TransitionMatrix
from shiftmorita.smorita import _assemble_and_verify, build_cd, cd_isomorphic
from shiftmorita.sweeps import all_matrices, permuted_copy

from conftest import DIAMOND_TEXT, graph_with_labels, mx, relabelled_matrices


def reference_verify_witness(G1, G2, w):
    """``verify_witness`` as it was before the bitset order check: the
    order through n² ``leq`` lookups, and each edge's image derived from
    the vertex and label maps and checked edge by edge."""
    pi0 = dict(w.vertex_map)
    pi2 = dict(w.label_map)
    if sorted(pi0) != sorted(G1.vertices) or sorted(pi0.values()) != sorted(
        G2.vertices
    ):
        return False
    if sorted(pi2, key=Label.key) != list(G1.labels) or sorted(
        pi2.values(), key=Label.key
    ) != list(G2.labels):
        return False
    for a in G1.vertices:
        for b in G1.vertices:
            if G1.order.leq(a, b) != G2.order.leq(pi0[a], pi0[b]):
                return False
    targets = set(G2.edges)
    images = set()
    for e in G1.edges:
        f = Edge(pi0[e.range], pi2[e.label], pi0[e.source])
        if f not in targets or f in images:
            return False
        images.add(f)
    return len(images) == len(targets)


def group_of(lab):
    return (lab.vertex, lab.src_class)


def tampered(G, w):
    """Broken copies of a witness from graph G, each wrong wherever it can
    be: the images of G's first edge's source and another vertex swapped,
    and the images of two labels from different (range vertex, cover
    class) groups swapped."""
    out = []
    vm = dict(w.vertex_map)
    if len(vm) > 1:
        a = G.edges[0].source if G.edges else w.vertex_map[0][0]
        b = next(v for v in vm if v != a)
        vm[a], vm[b] = vm[b], vm[a]
        out.append(dataclasses.replace(w, vertex_map=tuple(sorted(vm.items()))))
    lm = list(w.label_map)
    j = next(
        (j for j, (lab, _) in enumerate(lm) if group_of(lab) != group_of(lm[0][0])), None
    )
    if j is not None:
        (l0, i0), (l1, i1) = lm[0], lm[j]
        lm[0], lm[j] = (l0, i1), (l1, i0)
        out.append(dataclasses.replace(w, label_map=tuple(lm)))
    return out


def swapped_in_one_group(w):
    """The witness with the images of two labels of one (range vertex,
    cover class) group swapped, or None when every group has one label.
    Such a swap is an automorphism of the label level."""
    lm = list(w.label_map)
    seen = {}
    for j, (lab, _) in enumerate(lm):
        i = seen.setdefault(group_of(lab), j)
        if i != j:
            (l0, i0), (l1, i1) = lm[i], lm[j]
            lm[i], lm[j] = (l0, i1), (l1, i0)
            return dataclasses.replace(w, label_map=tuple(lm))
    return None


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
        """1 500 incomparable vertices, one per letter of a matrix whose
        every letter follows only itself, each with one label whose cover
        lies in its own class: every vertex is a candidate for every other,
        and the search runs deeper than the interpreter's recursion
        limit."""
        k = 1500
        classes = tuple(1 << i for i in range(k))
        T = TransitionMatrix(tuple(f"s{i}" for i in range(k)), classes)
        order = hand_built_order(classes, {(v, v) for v in classes}, T)
        G = LabelledGraph(order)
        assert G.labels == tuple(Label(v, HullIdempotent((i,), v)) for i, v in enumerate(classes))
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


class TestVerifyMatchesReference:
    def test_every_equivalent_pair_up_to_three_letters(self):
        """Every ordered pair of equivalent ≤3-letter matrices (graphs of
        equal counts, decided EQUIVALENT): the found witness, its tampered
        copies and a swap inside one label group get the same answer from
        both checks; every tampered copy is rejected, and the swap inside
        a group is accepted."""
        buckets: dict[tuple, list] = {}
        for T in all_matrices(3):
            G = build_graph(T)
            key = (len(G.vertices), len(G.labels), len(G.edges))
            buckets.setdefault(key, []).append(G)
        pairs = swaps = 0
        for graphs in buckets.values():
            for G1 in graphs:
                for G2 in graphs:
                    w = graphs_isomorphic_ordered(G1, G2)
                    if w is None:
                        continue
                    pairs += 1
                    assert verify_witness(G1, G2, w), G1.matrix.rows
                    assert reference_verify_witness(G1, G2, w)
                    for bad in tampered(G1, w):
                        assert not verify_witness(G1, G2, bad), G1.matrix.rows
                        assert not reference_verify_witness(G1, G2, bad)
                    same = swapped_in_one_group(w)
                    if same is not None:
                        swaps += 1
                        assert verify_witness(G1, G2, same), G1.matrix.rows
                        assert reference_verify_witness(G1, G2, same)
        assert pairs > 3000 and swaps > 0

    @settings(max_examples=100, deadline=None)
    @given(relabelled_matrices())
    def test_relabelled_pairs_past_three_letters(self, case):
        """On a 4-6-letter matrix and a relabelled copy, the found witness,
        each tampered copy and a swap inside one label group get the same
        answer from the fan check and the edge-by-edge reference."""
        T, perm = case
        G1, G2 = build_graph(T), build_graph(permuted_copy(T, perm))
        w = graphs_isomorphic_ordered(G1, G2)
        assert verify_witness(G1, G2, w)
        for x in (w, *tampered(G1, w), swapped_in_one_group(w)):
            if x is not None:
                assert verify_witness(G1, G2, x) == reference_verify_witness(G1, G2, x)

    @pytest.mark.parametrize(
        "same, other", [("src_class", "vertex"), ("vertex", "src_class")],
        ids=["range mismatch", "fan mismatch"],
    )
    def test_a_label_sent_off_its_fan_is_rejected(self, same, other):
        """The images of two labels swapped that share their cover class
        but not their vertex (the fan lands at the wrong range), or their
        vertex but not their cover class (the fan has the wrong sources):
        both checks reject it, though both maps stay bijections."""
        G = build_graph(mx("a b\n10\n11"))
        w = graphs_isomorphic_ordered(G, G)
        a, b = next(
            (a, b) for a in G.labels for b in G.labels
            if getattr(a, same) == getattr(b, same) and getattr(a, other) != getattr(b, other)
        )
        lm = dict(w.label_map)
        lm[a], lm[b] = lm[b], lm[a]
        bad = dataclasses.replace(w, label_map=tuple(lm.items()))
        assert not verify_witness(G, G, bad)
        assert not reference_verify_witness(G, G, bad)

    def test_maps_that_are_not_bijections_rejected(self, diamond_graph):
        w = graphs_isomorphic_ordered(diamond_graph, diamond_graph)
        (v0, _), (_, x1) = w.vertex_map[:2]
        (l0, _), (_, y1) = w.label_map[:2]
        vm, lm = dict(w.vertex_map), dict(w.label_map)
        vm[v0], lm[l0] = x1, y1
        for bad in (
            dataclasses.replace(w, vertex_map=tuple(sorted(vm.items()))),
            dataclasses.replace(w, label_map=tuple(lm.items())),
        ):
            assert not verify_witness(diamond_graph, diamond_graph, bad)

    @pytest.mark.parametrize("case", ["label not in G1", "two labels, one image"])
    def test_label_maps_off_the_labels_rejected(self, case):
        """On the full 2-shift, whose two labels share their vertex and
        cover class, so that every fan check passes: a label map whose keys
        are not G1's labels is refused by the set check, and one that sends
        both labels onto the one label of a copy that keeps only it by the
        size check; the reference refuses both."""
        G = build_graph(mx("a b\n11\n11"))
        w = graphs_isomorphic_ordered(G, G)
        (l0, y0), (l1, y1) = w.label_map
        assert (l0.vertex, l0.src_class) == (l1.vertex, l1.src_class)
        if case == "label not in G1":
            stranger = Label(l0.vertex, HullIdempotent((), l0.src_class))
            assert stranger not in G.labels
            H, bad_map = G, ((stranger, y0), (l1, y1))
        else:
            H, bad_map = graph_with_labels(G.order, (y0,)), ((l0, y0), (l1, y0))
        bad = dataclasses.replace(w, label_map=bad_map)
        assert not verify_witness(G, H, bad)
        assert not reference_verify_witness(G, H, bad)

    def test_order_is_checked(self, diamond, diamond_graph):
        # a vertex swap that moves no edge: only the order check can catch
        # it, here on an edgeless copy of the diamond
        bare = graph_with_labels(diamond_graph.order, ())
        w = graphs_isomorphic_ordered(bare, bare)
        vm = dict(w.vertex_map)
        a, top = diamond.mask_of("ab"), diamond.mask_of("abc")
        vm[a], vm[top] = vm[top], vm[a]
        bad = dataclasses.replace(w, vertex_map=tuple(sorted(vm.items())))
        assert verify_witness(bare, bare, w) and reference_verify_witness(bare, bare, w)
        assert not verify_witness(bare, bare, bad)
        assert not reference_verify_witness(bare, bare, bad)


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


def label_counts(G) -> Counter:
    """#labels per (range vertex, cover class), counted from the labels."""
    return Counter((lab.vertex, lab.src_class) for lab in G.labels)


def brute_force_order_isomorphisms(o1, counts1, o2, counts2) -> set:
    """Every bijection of the classes that preserves the order both ways and
    the count of every pair of classes, as sorted item tuples."""
    c1 = o1.classes
    found = set()
    if len(c1) != len(o2.classes):
        return found
    for image in permutations(o2.classes):
        sigma = dict(zip(c1, image))
        if all(
            o1.leq(a, b) == o2.leq(sigma[a], sigma[b])
            and counts1.get((a, b), 0) == counts2.get((sigma[a], sigma[b]), 0)
            for a in c1
            for b in c1
        ):
            found.add(tuple(sorted(sigma.items())))
    return found


def hand_built_order(classes, pairs, matrix=None) -> CoreOrder:
    """A ``CoreOrder`` over arbitrary class ids from its (lo, hi) pairs,
    reflexive and transitive, with no proper subclasses, cores or letter
    bitsets.  Its labels, and so its counts, need a matrix whose rows are
    classes: each class then has one O-type label per letter of its id."""
    index = {v: i for i, v in enumerate(classes)}
    down = tuple(
        sum(1 << index[lo] for lo, hi in pairs if hi == v) for v in classes
    )
    k = len(classes)
    order = CoreOrder(matrix, classes, index, down, (0,) * k, ())
    assert order.pairs == frozenset(pairs)
    return order


class TestOrderIsomorphisms:
    def test_yields_exactly_the_brute_force_set(self):
        """Self-pairs and every relabelled copy of each matrix with at most
        2 letters and of a seeded sample of 3-letter ones: the search yields
        each count-preserving order isomorphism once, and no other map."""
        three = [T for T in all_matrices(3) if T.n == 3]
        yielded = 0
        for T in [*all_matrices(2), *random.Random(12).sample(three, 40)]:
            G = build_graph(T)
            for perm in permutations(range(T.n)):
                H = build_graph(permuted_copy(T, list(perm)))
                args = (G.order, label_counts(G), H.order, label_counts(H))
                got = [
                    tuple(sorted(s.items()))
                    for s in order_isomorphisms(G.order, H.order)
                ]
                assert len(got) == len(set(got)), (T.rows, perm)
                assert set(got) == brute_force_order_isomorphisms(*args), (T.rows, perm)
                yielded += len(got)
        assert yielded > 300

    def test_hand_built_order_against_index_order(self):
        """Two chains a1 < b1 and a2 < b2, listed bottom-up as
        ``build_order`` lists every order, over the letters of a matrix
        whose rows are a1, a1, a2, a2: the search yields exactly the
        brute-force set, the identity and the swap of the chains."""
        a1, a2, b1, b2 = classes = (0b0001, 0b0100, 0b0011, 0b1100)
        pairs = {(v, v) for v in classes} | {(a1, b1), (a2, b2)}
        T = TransitionMatrix(tuple("abcd"), (a1, a1, a2, a2))
        order = hand_built_order(classes, pairs, T)
        G = LabelledGraph(order)
        args = (order, label_counts(G), order, label_counts(G))
        got = [tuple(sorted(s.items())) for s in order_isomorphisms(order, order)]
        assert sorted(got) == sorted(brute_force_order_isomorphisms(*args))
        assert len(got) == 2


class TestEverySigmaExtends:
    def test_pairs_and_relabellings_up_to_three_letters(self):
        """Every map the search yields extends on both sides: to a verified
        graph witness and to a CD map that keeps the product table.  Over
        every pair of <=3-letter matrices decided equivalent, and every
        matrix against each of its relabellings."""
        mats = list(all_matrices(3))
        graphs = {T: build_graph(T) for T in mats}
        cds = {T: build_cd(T) for T in mats}
        buckets: dict[tuple, list] = {}
        for T, G in graphs.items():
            buckets.setdefault((len(G.vertices), len(G.labels), len(G.edges)), []).append(T)
        pairs = [
            (T1, T2)
            for group in buckets.values()
            for i, T1 in enumerate(group)
            for T2 in group[i + 1:]
            if graphs_isomorphic_ordered(graphs[T1], graphs[T2]) is not None
        ]
        for T in mats:
            for perm in permutations(range(T.n)):
                U = permuted_copy(T, list(perm))
                graphs.setdefault(U, build_graph(U))
                cds.setdefault(U, build_cd(U))
                pairs.append((T, U))
        maps = 0
        for T1, T2 in pairs:
            G1, G2, cd1, cd2 = graphs[T1], graphs[T2], cds[T1], cds[T2]
            for sigma in order_isomorphisms(G1.order, G2.order):
                w = _extend_witness(G1, G2, sigma)
                assert verify_witness(G1, G2, w)
                _assemble_and_verify(cd1, cd2, w)
                maps += 1
        assert maps == 4123


class TestFinisherFailures:
    def test_rejected_witness_raises_and_decide_exits_3(
        self, monkeypatch, tmp_path, capsys, diamond_graph
    ):
        monkeypatch.setattr(decide, "verify_witness", lambda *args: False)
        with pytest.raises(InvariantViolation, match="failed to extend"):
            graphs_isomorphic_ordered(diamond_graph, diamond_graph)
        f = tmp_path / "diamond.mx"
        f.write_text(DIAMOND_TEXT + "\n")
        assert main(["decide", str(f), str(f)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "failed to extend" in captured.err

    def test_extend_witness_refuses_groups_of_different_sizes(self):
        """The one label-group zip of both finishers: on the chain 1 < 3, a
        vertex map that does not keep the label counts raises
        ``InvariantViolation``: when the label totals differ, with groups
        of different sizes at a pair and its image, or when they agree but
        a group's image pair has none, which the witness check refuses."""
        T = TransitionMatrix(("a", "b"), (0b01, 0b11))
        order = hand_built_order((1, 3), {(1, 1), (3, 3), (1, 3)}, T)
        x, y, z = (Label(3, HullIdempotent(w, 1)) for w in ((), (0,), (1,)))
        one = graph_with_labels(order, (x,))
        two = graph_with_labels(order, (y, z))
        top = graph_with_labels(order, (Label(3, HullIdempotent((), 3)),))
        identity = {1: 1, 3: 3}
        assert _extend_witness(one, one, identity).label_map == ((x, x),)
        for G1, G2, error in (
            (one, two, "differ in size"),
            (two, one, "differ in size"),
            (top, one, "failed to extend"),
        ):
            with pytest.raises(InvariantViolation, match=error):
                _extend_witness(G1, G2, identity)

    def test_cross_checked_decide_searches_once(self, monkeypatch, diamond):
        """One search per cross-checked decide: the CD finisher takes the
        graph witness.  One ``cd_isomorphic`` call runs the engine once too."""
        from shiftmorita import smorita

        calls = []

        def counted(s1, s2):
            calls.append((s1, s2))
            return order_isomorphisms(s1, s2)

        monkeypatch.setattr(decide, "order_isomorphisms", counted)
        other = permuted_copy(diamond, [2, 0, 1])
        plain = decide_morita(diamond, other)
        assert len(calls) == 1
        checked = decide_morita(diamond, other, cross_check=True)
        assert len(calls) == 2
        assert checked == plain
        assert smorita.cd_isomorphic(build_cd(diamond), build_cd(other)) is not None
        assert len(calls) == 3

    def test_cd_product_broken_on_one_side_exits_3(
        self, monkeypatch, tmp_path, capsys, diamond
    ):
        """A CD whose product is broken on the second matrix only: the
        cross-checked decide raises from the product table, and ``decide
        --cross-check`` exits 3 with nothing on stdout."""
        from shiftmorita import smorita

        built = []

        def second_broken(T):
            cd = smorita.CDSet(T)
            built.append(T)
            if len(built) % 2 == 0:
                cd.product = lambda x, y: None
            return cd

        monkeypatch.setattr(smorita, "build_cd", second_broken)
        other = permuted_copy(diamond, [2, 0, 1])
        assert decide_morita(diamond, other).equivalent
        with pytest.raises(InvariantViolation, match="broke the CD product"):
            decide_morita(diamond, other, cross_check=True)
        f = tmp_path / "diamond.mx"
        f.write_text(DIAMOND_TEXT + "\n")
        assert main(["decide", str(f), str(f), "--cross-check"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "broke the CD product" in captured.err
        assert len(built) == 4

    def test_not_equivalent_cross_check_builds_no_cd(self, monkeypatch, diamond):
        from shiftmorita import smorita

        def refuse(T):
            raise RuntimeError("a CD was built")

        monkeypatch.setattr(smorita, "build_cd", refuse)
        v = decide_morita(diamond, mx("a\n1"), cross_check=True)
        assert not v.equivalent and "vertex count" in v.certificate
        v = decide_morita(mx("a b\n10\n01"), mx("a b\n01\n10"), cross_check=True)
        assert not v.equivalent and v.certificate.startswith("no order-compatible")

    def test_broken_cd_product_raises(self, diamond):
        cd1 = build_cd(diamond)
        cd2 = build_cd(permuted_copy(diamond, [2, 0, 1]))
        cd2.product = lambda x, y: None
        with pytest.raises(InvariantViolation, match="broke the CD product"):
            cd_isomorphic(cd1, cd2)


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


class TestRelabelledPastThreeLetters:
    @settings(max_examples=150, deadline=None)
    @given(relabelled_matrices())
    def test_relabelled_copy_is_equivalent_with_and_without_cross_check(self, case):
        """A relabelled copy is EQUIVALENT, plain and cross-checked, with
        the same maps both ways, and each witness verifies on graphs built
        afresh, outside the graph cache."""
        T, perm = case
        U = permuted_copy(T, perm)
        plain = decide_morita(T, U)
        checked = decide_morita(T, U, cross_check=True)
        assert plain.equivalent and checked.equivalent
        assert plain.witness.vertex_map == checked.witness.vertex_map
        assert plain.witness.label_map == checked.witness.label_map
        G1, G2 = build_graph(T), build_graph(U)
        assert G1 is not cached_graph(T)
        for v in (plain, checked):
            assert verify_witness(G1, G2, v.witness)


# A pair of matrix texts decided at each stage, with its certificate (None
# for EQUIVALENT)
VERDICTS = {
    "vertex count": ("a\n1", "a b\n10\n01", "vertex count differs: 1 vs 2"),
    "label count": ("a\n1", "a b\n11\n11", "label count differs: 1 vs 2"),
    "edge count": (
        "a b c\n110\n101\n111",
        "a b c d\n1000\n1100\n1010\n1110",
        "edge count differs: 8 vs 5",
    ),
    "vertex profiles": (
        "a b\n10\n01",
        "a b c\n100\n100\n010",
        "vertex profiles differs: [(1, 1, 1, (1,)), (1, 1, 1, (1,))]"
        " vs [(1, 1, 0, (1,)), (1, 1, 2, (1,))]",
    ),
    "search": (
        "a b\n10\n01",
        "a b\n01\n10",
        "no order-compatible vertex bijection extends to an isomorphism",
    ),
    "equivalent": (DIAMOND_TEXT, "a b c\n111\n110\n011", None),
}


class TestGraphCache:
    def test_repeated_decides_build_each_graph_once(self):
        """Bucketing-style traffic: several matrices, each decided twice
        against one representative.  Every matrix with the diamond's class
        count is a cache miss once, and each witness still verifies on
        freshly built graphs.  The 2-letter matrix has 1 class to the
        diamond's 4, so it is decided on the counts and reaches neither
        the graph cache nor the order cache."""
        from shiftmorita.core_order import cached_order

        rep = TransitionMatrix(("p", "q", "r"), (3, 6, 7))  # the diamond
        same = [rep] + [
            permuted_copy(rep, perm) for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0])
        ]
        others = same + [TransitionMatrix(("p", "q"), (3, 3))]
        misses = cached_graph.cache_info().misses, cached_order.cache_info().misses
        for _ in range(2):
            for T in others:
                v = decide_morita(T, rep)
                assert v.equivalent == (T.n == 3)
                if v.equivalent:
                    assert verify_witness(build_graph(T), build_graph(rep), v.witness)
                else:
                    assert v.certificate == "vertex count differs: 1 vs 4"
        assert (
            cached_graph.cache_info().misses - misses[0],
            cached_order.cache_info().misses - misses[1],
        ) == (len(set(same)), len(set(same)))
        assert cached_graph(rep) is cached_graph(rep)


    def test_twelve_letter_j_minus_i_against_the_golden_mean(self):
        """J−I at 12 letters has 2¹² − 2 = 4 094 classes; against the
        golden-mean shift's 2 it is decided on the class counts, with no
        order built for either matrix."""
        from shiftmorita.core_order import cached_order

        n = 12
        full = (1 << n) - 1
        T = TransitionMatrix(
            tuple(f"j{i}" for i in range(n)), tuple(full & ~(1 << i) for i in range(n))
        )
        golden = TransitionMatrix(("g0", "g1"), (0b11, 0b01))
        misses = cached_order.cache_info().misses
        v = decide_morita(T, golden)
        assert not v.equivalent and v.witness is None
        assert v.certificate == "vertex count differs: 4094 vs 2"
        assert cached_order.cache_info().misses == misses

    def test_search_inputs_built_once_per_graph(self, monkeypatch):
        """The search's input, the label counts, is computed once per
        order: two negative decides (search, then certificate) on two
        fresh orders compute them twice."""
        from functools import cached_property

        built = []
        count = CoreOrder.label_counts.func

        def counting(order):
            built.append(order)
            return count(order)

        prop = cached_property(counting)
        prop.__set_name__(CoreOrder, "label_counts")
        monkeypatch.setattr(CoreOrder, "label_counts", prop)
        T1 = TransitionMatrix(("p1", "q1"), (0b01, 0b10))
        T2 = TransitionMatrix(("p2", "q2", "r2"), (0b001, 0b001, 0b010))
        for _ in range(2):
            v = decide_morita(T1, T2)
            assert v.certificate.startswith("vertex profiles differs")
        assert len(built) == 2

    def test_fresh_decide_builds_neither_pairs_nor_cores(self):
        """The decision reads the order's bitsets only: ``pairs`` and
        ``cores`` stay unbuilt on both fresh orders."""
        from shiftmorita.core_order import cached_order

        T1 = TransitionMatrix(("p3", "q3", "r3"), (0b011, 0b110, 0b111))
        T2 = TransitionMatrix(("p4", "q4", "r4"), (0b111, 0b011, 0b110))
        assert decide_morita(T1, T2).equivalent
        for T in (T1, T2):
            order = cached_order(T)
            assert "pairs" not in vars(order) and "cores" not in vars(order)
            assert (order.classes[0], order.classes[-1]) in order.pairs
            assert "pairs" in vars(order)


    @pytest.mark.parametrize(
        "stage, cross_check",
        [(stage, c) for c in (False, True) for stage in VERDICTS],
        ids=[stage + ", cross-checked" * c for c in (False, True) for stage in VERDICTS],
    )
    def test_count_decided_verdict_builds_no_edges(self, stage, cross_check):
        """No decision builds an edge: whichever invariant decides, or the
        search, plain or cross-checked, both fresh cached graphs stay
        without them.  Nor does a NOT EQUIVALENT verdict build a label,
        while an EQUIVALENT one builds both graphs' labels for its
        witness.  The letters are renamed after the case, so that both
        graphs are built here.  A vertex count verdict is read off the
        class counts: neither fresh matrix reaches the order or the graph
        cache."""
        from shiftmorita.core_order import cached_order

        text1, text2, certificate = VERDICTS[stage]
        tag = f"{stage.replace(' ', '')}:{cross_check}"
        T1, T2 = (
            TransitionMatrix(tuple(f"{s}:{tag}:{i}" for s in T.symbols), T.rows)
            for i, T in enumerate((mx(text1), mx(text2)))
        )
        misses = cached_graph.cache_info().misses, cached_order.cache_info().misses
        v = decide_morita(T1, T2, cross_check=cross_check)
        assert v.equivalent == (certificate is None) and v.certificate == certificate
        if stage == "vertex count":
            assert (
                cached_graph.cache_info().misses,
                cached_order.cache_info().misses,
            ) == misses
        for T in (T1, T2):
            assert "edges" not in vars(cached_graph(T))
            assert ("labels" in vars(cached_graph(T))) == v.equivalent
        G = cached_graph(T1)
        assert len(G.edges) == sum(p[2] for p in G.order.label_counts.profile)
        assert "edges" in vars(G)


class TestEveryVerdictDigest:
    def test_every_ordered_pair_up_to_three_letters(self):
        """Every verdict on the 353² ordered pairs of ≤3-letter matrices,
        byte for byte: one SHA-256 over their reprs, in order, pinned to
        the value recorded before decisions read the class counts first."""
        mats = list(all_matrices(3))
        h = hashlib.sha256()
        for a in mats:
            for b in mats:
                h.update(repr(decide_morita(a, b)).encode() + b"\n")
        assert len(mats) ** 2 == 124_609
        assert (
            h.hexdigest()
            == "4153b319faf03419090ff74deb59d9d9d38303dc658389b3bbfe34e800002ba3"
        )


class TestCertificate:
    @pytest.mark.parametrize(
        "text1, text2, certificate",
        [v for v in VERDICTS.values() if v[2] is not None],
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


def modules_after(diamond, decision: str) -> set:
    """The modules loaded in a fresh interpreter that builds the diamond's
    graph and runs ``decision`` on it (T) and a relabelled copy (U), which
    must be EQUIVALENT."""
    U = permuted_copy(diamond, [2, 0, 1])
    code = "; ".join([
        "import json, sys, shiftmorita",
        "from shiftmorita import decide_morita",
        "from shiftmorita.shift import TransitionMatrix",
        f"T = shiftmorita.parse_matrix({DIAMOND_TEXT!r})",
        f"U = TransitionMatrix({U.symbols!r}, {U.rows!r})",
        "shiftmorita.build_graph(T)",
        f"assert {decision}.equivalent",
        "print(json.dumps(sorted(sys.modules)))",
    ])
    src = str(Path(shiftmorita.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    return set(json.loads(out))


class TestProductionPath:
    def test_reference_covers_are_never_called(self, monkeypatch, diamond):
        """The graph, the CD and a cross-checked decide read their covers
        off the class order; ``reference.covers_below_at`` is the reference
        the sweeps and tests use, and the production path must not need it."""
        from shiftmorita import reference
        from shiftmorita.smorita import build_cd

        def refuse(*args):
            raise RuntimeError("the reference covering relation was called")

        for name, module in list(sys.modules.items()):
            if name.startswith("shiftmorita") and (
                getattr(module, "covers_below_at", None) is reference.covers_below_at
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

    def test_cross_checked_decision_loads_no_verification_module(self, diamond):
        """A cross-checked decision loads ``smorita`` and none of the
        verification modules."""
        loaded = modules_after(diamond, "decide_morita(T, U, cross_check=True)")
        assert "shiftmorita.smorita" in loaded
        for name in ("reference", "lgis", "oracle", "sweeps"):
            assert f"shiftmorita.{name}" not in loaded

    def test_decision_path_loads_no_reference_code(self, diamond):
        """A fresh interpreter builds a graph and decides the diamond against
        a relabelled copy, without cross-check, and loads none of the
        verification modules.  The production modules keep none of the
        names that moved to ``reference``."""
        loaded = modules_after(diamond, "decide_morita(T, U)")
        assert "shiftmorita.decide" in loaded
        for name in ("reference", "lgis", "oracle", "sweeps", "smorita"):
            assert f"shiftmorita.{name}" not in loaded
        from shiftmorita import core_order, hull, lgis

        moved = {
            core_order: ("core_of_at", "check_meet_identity"),
            hull: ("covers_below_at", "covers_below"),
            decide: ("brute_force_isomorphic",),
            lgis: (
                "RawGraph", "raw_of", "relative_source_raw",
                "labelled_paths_raw", "check_resolving", "_move",
            ),
        }
        for module, names in moved.items():
            for name in names:
                assert not hasattr(module, name), (module.__name__, name)
