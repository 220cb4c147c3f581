import pytest
from hypothesis import given, settings

from shiftmorita.core_order import (
    build_order,
    cached_order,
    check_meet_identity,
    core_of_at,
)
from shiftmorita.hull import covers_below, fclass_witness, idem_leq
from shiftmorita.labelled_graph import build_graph, cached_graph
from shiftmorita.shift import CACHE_MAXSIZE, TransitionMatrix, f_classes, natural_leq
from shiftmorita.sweeps import all_matrices

from conftest import mx, seeded_matrices
from test_labelled_graph import graph_edges, independent_edges
from test_shift import matrices


def reference_order(T):
    """Classes, pairs, meets and cores from the HullIdempotent reference:
    ``core_of_at`` for every class, the closure of within-core
    comparabilities by repeated pair composition, and the meet as a scan
    over all common lower bounds."""
    classes = f_classes(T)
    cores = {v: core_of_at(T, (), v) for v in classes}
    pairs = {(v, v) for v in classes}
    for core in cores.values():
        for f in core:
            for g in core:
                if idem_leq(T, f, g):
                    pairs.add((f.vec, g.vec))
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for c, d in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    for a, b in pairs:
        assert a == b or (b, a) not in pairs
    meets = {}
    for a in classes:
        for b in classes:
            lower = [c for c in classes if (c, a) in pairs and (c, b) in pairs]
            if not lower:
                meets[(a, b)] = None
                continue
            m = a & b
            assert m in classes and (m, a) in pairs and (m, b) in pairs
            assert all((c, m) in pairs for c in lower)
            meets[(a, b)] = m
    core_vecs = {v: frozenset(e.vec for e in core) for v, core in cores.items()}
    return classes, frozenset(pairs), meets, core_vecs


def core_of(T, v):
    """The reference core of class v's depth-0 idempotent, as vectors."""
    core = core_of_at(T, (), v)
    assert all(e.word == () for e in core)
    return {e.vec for e in core}


class TestCore:
    def test_top_core_is_whole_lattice(self, diamond):
        got = core_of(diamond, diamond.mask_of("abc"))
        assert got == {
            diamond.mask_of("abc"),
            diamond.mask_of("ab"),
            diamond.mask_of("bc"),
            diamond.mask_of("b"),
        }

    def test_class_ab_core_trivial(self, diamond):
        # its two covers have zero product, so no rule fires
        assert core_of(diamond, diamond.mask_of("ab")) == {diamond.mask_of("ab")}

    def test_full_shift_core(self):
        T = mx("a b\n11\n11")
        assert core_of(T, 3) == {3}

    def test_rule_order_independence(self, diamond):
        for v in f_classes(diamond):
            assert core_of_at(diamond, (), v, (2, 3, 4)) == core_of_at(
                diamond, (), v, (4, 3, 2)
            )

    def test_core_of_zero_rejected(self, diamond):
        with pytest.raises(ValueError):
            core_of_at(diamond, (0,), diamond.mask_of("c"))

    def test_conjugated_corner_mirrors_base(self, diamond):
        from shiftmorita.hull import make_idem

        for b in range(diamond.n):
            for v in f_classes(diamond):
                seed = make_idem(diamond, (b,), v)
                if seed is None:
                    continue
                corner = core_of_at(diamond, (b,), seed.vec)
                base = core_of_at(diamond, (), seed.vec)
                assert corner == {
                    make_idem(diamond, (b,) + e.word, e.vec) for e in base
                }


class TestOrder:
    def test_diamond_hasse(self, diamond):
        order = build_order(diamond)
        a, b = diamond.mask_of("ab"), diamond.mask_of("bc")
        c, d = diamond.mask_of("abc"), diamond.mask_of("b")
        assert set(order.hasse()) == {(d, a), (d, b), (a, c), (b, c)}

    def test_diamond_meet_of_incomparable(self, diamond):
        order = build_order(diamond)
        assert order.meet(diamond.mask_of("ab"), diamond.mask_of("bc")) == diamond.mask_of("b")

    def test_identity_two_letters_incomparable(self):
        order = build_order(mx("a b\n10\n01"))
        assert set(order.classes) == {1, 2}
        assert order.hasse() == ()
        assert order.meet(1, 2) is None

    def test_nonzero_and_can_still_meet_to_zero(self):
        # {b} and {a,b} are classes here but no core relates them
        order = build_order(mx("a b\n11\n01"))
        assert order.meet(3, 2) is None

    def test_class_order_implies_natural_order(self, diamond):
        order = build_order(diamond)
        for x, y in order.pairs:
            assert natural_leq(x, y)

    def test_below_sets(self, diamond):
        order = build_order(diamond)
        assert order.below(diamond.mask_of("b")) == (diamond.mask_of("b"),)
        assert set(order.below(diamond.mask_of("abc"))) == set(order.classes)

    @settings(max_examples=60, deadline=None)
    @given(matrices(4))
    def test_order_is_partial_order(self, T):
        order = build_order(T)
        for a in order.classes:
            assert order.leq(a, a)
            for b in order.classes:
                if order.leq(a, b) and order.leq(b, a):
                    assert a == b
                for c in order.classes:
                    if order.leq(a, b) and order.leq(b, c):
                        assert order.leq(a, c)


class TestMeets:
    def test_meet_laws(self, diamond):
        order = build_order(diamond)
        cls = order.classes
        for a in cls:
            assert order.meet(a, a) == a
            for b in cls:
                assert order.meet(a, b) == order.meet(b, a)
                for c in cls:
                    lhs = order.meet(a, b)
                    lhs = lhs if lhs is None else order.meet(lhs, c)
                    rhs = order.meet(b, c)
                    rhs = rhs if rhs is None else order.meet(a, rhs)
                    assert lhs == rhs

    def test_meet_identity_diamond(self, diamond):
        assert check_meet_identity(diamond, build_order(diamond))

    def test_meet_identity_full_shift(self):
        T = mx("a b\n11\n11")
        assert check_meet_identity(T, build_order(T))

    @settings(max_examples=60, deadline=None)
    @given(matrices(4))
    def test_meet_identity_random(self, T):
        assert check_meet_identity(T, build_order(T))


class TestKernelMatchesReference:
    @staticmethod
    def check(T):
        order = build_order(T)
        classes, pairs, meets, cores = reference_order(T)
        assert order.classes == classes, T.rows
        assert order.pairs == pairs, T.rows
        for a in classes:
            for b in classes:
                assert order.meet(a, b) == meets[(a, b)], T.rows
        assert order.cores == cores, T.rows
        hasse = []
        for a, b in sorted(pairs):
            if a != b and not any(
                c not in (a, b) and (a, c) in pairs and (c, b) in pairs
                for c in classes
            ):
                hasse.append((a, b))
        assert order.hasse() == tuple(hasse), T.rows
        for v in classes:
            below = tuple(c for c in classes if (c, v) in pairs)
            assert order.below(v) == below, T.rows
            assert order.covers(v) == covers_below(T, v), T.rows
        G = build_graph(T)
        edges = independent_edges(T)
        labels = {lab for _, lab, _ in edges}
        assert graph_edges(G) == edges, T.rows
        assert len(G.labels) == len(labels), T.rows
        got = {(x.vertex, x.cover.word, x.cover.vec) for x in G.labels}
        assert got == labels, T.rows

    def test_every_matrix_up_to_three_letters(self):
        for T in all_matrices(3):
            self.check(T)

    def test_seeded_four_to_seven_letters(self):
        sample = seeded_matrices()
        assert len(sample) >= 150
        for T in sample:
            self.check(T)


class TestBoundedCaches:
    def test_caches_stay_within_maxsize(self):
        assert CACHE_MAXSIZE >= 1024
        for i in range(CACHE_MAXSIZE + 10):
            T = TransitionMatrix((f"s{i}",), (1,))
            f_classes(T)
            cached_order(T)
            fclass_witness(T, 1)
            cached_graph(T)
        for cache in (f_classes, cached_order, fclass_witness, cached_graph):
            info = cache.cache_info()
            assert info.maxsize == CACHE_MAXSIZE
            assert info.currsize <= info.maxsize
