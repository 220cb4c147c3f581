import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings

from shiftmorita.core_order import CoreOrder, build_order, cached_order
from shiftmorita.hull import HullIdempotent, idem_leq
from shiftmorita.labelled_graph import build_graph, cached_graph
from shiftmorita.reference import check_meet_identity, core_of_at, covers_below
from shiftmorita.shift import (
    CACHE_MAXSIZE,
    InvariantViolation,
    TransitionMatrix,
    _bits,
    f_classes,
    natural_leq,
)
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
                if idem_leq(f, g):
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

    def test_rule_3_refuses_a_cover_outside_the_seed_layer(self, diamond, monkeypatch):
        """The top's covers given as (c,{a,b}) and (c,{b,c}): incomparable,
        with the nonzero product (c,{b}), so rule (3) would admit them, one
        letter deeper than the seed."""
        from shiftmorita import reference

        top = diamond.mask_of("abc")
        longer = (HullIdempotent((2,), diamond.mask_of("ab")),
                  HullIdempotent((2,), diamond.mask_of("bc")))
        real = reference.covers_below_at
        monkeypatch.setattr(
            reference, "covers_below_at",
            lambda T, word, vec: longer if (word, vec) == ((), top) else real(T, word, vec),
        )
        with pytest.raises(InvariantViolation, match="core rule \\(3\\) produced an idempotent"):
            core_of_at(diamond, (), top)

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

    def test_meet_identity_refuses_a_meet_without_a_lower_bound(self):
        """{a} and {b} have no common lower bound, yet this meet answers {a}."""

        class MeetsEverything(CoreOrder):
            def meet(self, a, b):
                m = super().meet(a, b)
                return a if m is None else m

        T = mx("a b\n10\n01")
        order = build_order(T)
        assert check_meet_identity(T, order)
        fields = {f.name: getattr(order, f.name) for f in dataclasses.fields(CoreOrder)}
        assert not check_meet_identity(T, MeetsEverything(**fields))

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
        # the isomorphism search fixes each down-set with its top
        assert all(d >> i + 1 == 0 for i, d in enumerate(order.down)), T.rows
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

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_j_minus_i(self, n):
        # every letter may follow every other: 2^n - 2 classes
        full = (1 << n) - 1
        self.check(
            TransitionMatrix(
                tuple("abcde"[:n]), tuple(full & ~(1 << i) for i in range(n))
            )
        )


def up_set_profile(s):
    """``CountedOrder.profile`` as it was first written: each class's up-set
    as a bitset, and its edges out as the sum of the labels into each
    class of that up-set."""
    up = [0] * len(s.classes)
    for b, db in enumerate(s.down):
        for a in _bits(db):
            up[a] |= 1 << b
    into_total = [sum(n for _, n in y) for y in s.into]
    return [
        (
            s.down[i].bit_count(),
            up[i].bit_count(),
            sum(into_total[j] for j in _bits(up[i])),
            tuple(sorted(s.down[c].bit_count() for c, n in s.at[i] for _ in range(n))),
        )
        for i in range(len(s.classes))
    ]


class TestCountedProfile:
    def test_matches_the_up_set_sums(self):
        """The profile pushed down the down-sets equals the up-set sums on
        every matrix with at most 3 letters and the seeded sample, and its
        third component counts the edges out of each class."""
        for T in list(all_matrices(3)) + seeded_matrices():
            G = build_graph(T)
            s = G.counted_order
            assert s.profile == up_set_profile(s), T.rows
            out = Counter(e.source for e in G.edges)
            assert [p[2] for p in s.profile] == [out[v] for v in s.classes], T.rows


class TestBitsetLeq:
    """``CoreOrder.leq`` reads the down-set bitsets: it agrees with the
    derived pair set on every pair of classes, and is False when either
    side is not a class (a mask above every class, or None)."""

    @staticmethod
    def check(order):
        pairs = order.pairs
        for a in order.classes:
            for b in order.classes:
                assert order.leq(a, b) == ((a, b) in pairs), (a, b)
        stranger = max(order.classes) + 1
        for v in (*order.classes, stranger, None):
            for w in (stranger, None):
                assert not order.leq(v, w) and not order.leq(w, v)

    def test_every_order_up_to_three_letters(self):
        for T in all_matrices(3):
            self.check(build_order(T))

    def test_seeded_four_to_seven_letters(self):
        for T in seeded_matrices():
            self.check(build_order(T))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_j_minus_i(self, n):
        full = (1 << n) - 1
        T = TransitionMatrix(
            tuple("abcdefgh"[:n]), tuple(full & ~(1 << i) for i in range(n))
        )
        self.check(build_order(T))

    def test_hand_built_orders(self):
        from test_decide import hand_built_order

        b1, b2, a1, a2 = 10, 20, 1, 2
        pairs = {(v, v) for v in (a1, a2, b1, b2)} | {(a1, b1), (a2, b2)}
        for classes, rel in (
            ((b1, b2, a1, a2), pairs),
            ((a1, a2, b1, b2), pairs),
            ((1, 3), {(1, 1), (3, 3), (1, 3)}),
        ):
            self.check(hand_built_order(classes, rel))


class TestOrderChecks:
    """``build_order`` verifies what ``CoreOrder.meet`` relies on.  Real
    cores never break it, so each test hands the closure a broken core."""

    # classes {b}, {b,c}, {a,b,c}, {b,c,d}; {b,c} is the AND of the two tops
    T = TransitionMatrix(tuple("abcd"), (0b0111, 0b1110, 0b0010, 0b0110))

    @staticmethod
    def cores(monkeypatch, T, members):
        """Make the core of class i the classes ``members[i]`` (masks)."""
        import shiftmorita.core_order as co

        classes = f_classes(T)

        def core(v, *args):
            own = members.get(classes[v], [classes[v]])
            return sum(1 << classes.index(c) for c in own)

        monkeypatch.setattr(co, "_core", core)

    def test_meet_outside_the_common_lower_bounds(self, monkeypatch):
        # {b} below both tops, their AND {b,c} below neither
        self.cores(
            monkeypatch, self.T, {0b0111: [0b0111, 0b0010], 0b1110: [0b1110, 0b0010]}
        )
        with pytest.raises(InvariantViolation, match="is not the AND class"):
            build_order(self.T)

    def test_meet_not_the_greatest_lower_bound(self, monkeypatch):
        # {b} and {b,c} both below both tops, but no core holds {b} and {b,c}
        tops = [0b0111, 0b1110]
        self.cores(
            monkeypatch,
            self.T,
            {
                0b0010: [0b0010] + tops,
                0b0111: [0b0111, 0b0110],
                0b1110: [0b1110, 0b0110],
            },
        )
        with pytest.raises(InvariantViolation, match="is not the glb"):
            build_order(self.T)

    def test_cycle(self, monkeypatch):
        # a class listed twice is a subclass of itself both ways round
        import shiftmorita.core_order as co

        T = mx("a\n1")
        monkeypatch.setattr(co, "f_classes", lambda T: (1, 1))
        monkeypatch.setattr(co, "_core", lambda v, *args: 0b11)
        with pytest.raises(InvariantViolation, match="not antisymmetric"):
            build_order(T)


class TestBoundedCaches:
    def test_caches_stay_within_maxsize(self):
        assert CACHE_MAXSIZE >= 1024
        for i in range(CACHE_MAXSIZE + 10):
            T = TransitionMatrix((f"s{i}",), (1,))
            f_classes(T)
            cached_order(T)
            cached_graph(T)
        for cache in (f_classes, cached_order, cached_graph):
            info = cache.cache_info()
            assert info.maxsize == CACHE_MAXSIZE
            assert info.currsize <= info.maxsize
