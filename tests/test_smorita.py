import random

import pytest

from shiftmorita.core_order import cached_order
from shiftmorita.hull import base_idem, dclass_rep, enumerate_idems, idem_leq, make_idem
from shiftmorita.labelled_graph import build_graph, cached_graph
from shiftmorita.shift import InvariantViolation
from shiftmorita.smorita import (
    SIdem,
    build_cd,
    cd_isomorphic,
    coherent_check,
    make_sidem,
    sidem_leq,
    sidem_product,
)
from shiftmorita.sweeps import all_matrices, permuted_copy

from conftest import mx, seeded_matrices


@pytest.fixture(scope="module")
def order(diamond):
    return cached_order(diamond)


def k(diamond):
    return {
        "a": diamond.mask_of("ab"),
        "b": diamond.mask_of("bc"),
        "c": diamond.mask_of("abc"),
        "d": diamond.mask_of("b"),
    }


class TestEquality:
    """Two triples are the same element exactly when their canonical forms
    from ``make_sidem`` are equal."""

    def test_shared_small_middle(self, diamond, order):
        c = k(diamond)
        ed = base_idem(diamond, c["d"])
        x = make_sidem(order, c["a"], ed)
        y = make_sidem(order, c["b"], ed)
        assert x == y  # canonical forms coincide

    def test_distinct_middles(self, diamond, order):
        c = k(diamond)
        x = make_sidem(order, c["a"], base_idem(diamond, c["a"]))
        y = make_sidem(order, c["b"], base_idem(diamond, c["b"]))
        assert x != y

    def test_zeros_equal(self, diamond, order):
        a = k(diamond)["a"]
        zero = make_sidem(order, a, None)
        assert zero is None
        assert zero != make_sidem(order, a, base_idem(diamond, a))

    def test_long_middles_rejected(self, diamond, order):
        deep = make_idem(diamond, (0, 1), diamond.mask_of("bc"))
        with pytest.raises(ValueError, match="word length"):
            make_sidem(order, diamond.mask_of("ab"), deep)


class TestOrderAndProduct:
    def test_smaller_middle_below(self, diamond, order):
        c = k(diamond)
        ea = base_idem(diamond, c["a"])
        x = make_sidem(order, c["a"], base_idem(diamond, c["d"]))
        y = make_sidem(order, c["a"], ea)
        assert sidem_leq(order, x, y)

    def test_d_below_a(self, diamond, order):
        c = k(diamond)
        x = make_sidem(order, c["d"], base_idem(diamond, c["d"]))
        y = make_sidem(order, c["a"], base_idem(diamond, c["a"]))
        assert sidem_leq(order, x, y)
        assert not sidem_leq(order, y, x)

    def test_zero_below_everything(self, diamond, order):
        c = k(diamond)
        y = make_sidem(order, c["a"], base_idem(diamond, c["a"]))
        assert sidem_leq(order, None, y)
        assert not sidem_leq(order, y, None)

    def test_product_of_representatives(self, diamond, order):
        c = k(diamond)
        x = make_sidem(order, c["a"], base_idem(diamond, c["a"]))
        y = make_sidem(order, c["b"], base_idem(diamond, c["b"]))
        p = sidem_product(order, x, y)
        assert p == make_sidem(order, c["d"], base_idem(diamond, c["d"]))

    def test_zero_absorbs(self, diamond, order):
        c = k(diamond)
        x = make_sidem(order, c["a"], base_idem(diamond, c["a"]))
        assert sidem_product(order, x, None) is None

    def test_incomparable_classes_to_zero(self):
        T = mx("a b\n10\n01")
        o = cached_order(T)
        x = make_sidem(o, 1, base_idem(T, 1))
        y = make_sidem(o, 2, base_idem(T, 2))
        assert sidem_product(o, x, y) is None


class TestCD:
    def test_elements_hash_and_print_as_their_pairs(self, diamond):
        for x in build_cd(diamond).elements:
            assert x == (x.u, x.g) and hash(x) == hash((x.u, x.g))
            assert repr(x) == f"SIdem(u={x.u!r}, g={x.g!r})"

    def test_diamond_counts(self, diamond):
        cd = build_cd(diamond)
        assert len(cd.C) == 4
        assert len(cd.Cll) == 3

    def test_diamond_cll_matches_labels(self, diamond, diamond_graph):
        cd = build_cd(diamond)
        got = {(x.u, x.g) for x in cd.Cll}
        want = {(lab.vertex, lab.cover) for lab in diamond_graph.labels}
        assert got == want

    def test_single_letter_shift(self):
        cd = build_cd(mx("a\n1"))
        assert len(cd.C) == 1 and len(cd.Cll) == 1

    def test_disjoint(self, diamond):
        cd = build_cd(diamond)
        assert not set(cd.C) & set(cd.Cll)

    def test_d_tags_match_middle_classes(self, diamond):
        cd = build_cd(diamond)
        tags = {SIdem(*lab): lab.src_class for lab in cached_graph(diamond).labels}
        assert set(tags) == set(cd.Cll)
        for x in cd.elements:
            assert tags.get(x, x.u) == dclass_rep(x.g)

    def test_cll_product_with_representative(self, diamond):
        cd = build_cd(diamond)
        for f in cd.Cll:
            for c in cd.C:
                p = cd.product(f, c)
                assert p == (f if cd.order.leq(f.u, c.u) else None)

    def test_distinct_cll_products_zero(self, diamond):
        cd = build_cd(diamond)
        for f in cd.Cll:
            for g in cd.Cll:
                assert cd.product(f, g) == (f if f == g else None)


class TestCoherence:
    def test_diamond(self, diamond):
        assert coherent_check(diamond)

    def test_single_letter(self):
        assert coherent_check(mx("a\n1"))

    def test_two_letter_family(self):
        for rows in ["10\n01", "11\n11", "11\n01", "01\n10", "11\n10"]:
            assert coherent_check(mx("a b\n" + rows))


class TestCDIso:
    def test_self(self, diamond):
        cd = build_cd(diamond)
        w = cd_isomorphic(cd, cd)
        assert w is not None
        assert all(a == b for a, b in w["classes"].items())

    def test_counting_refusal(self):
        f2 = build_cd(mx("a b\n11\n11"))
        f3 = build_cd(mx("a b c\n111\n111\n111"))
        assert cd_isomorphic(f2, f3) is None

    def test_permuted_copy(self, diamond):
        cd1 = build_cd(diamond)
        cd2 = build_cd(permuted_copy(diamond, [2, 0, 1]))
        w = cd_isomorphic(cd1, cd2)
        assert w is not None
        # the witness is a bijection preserving D-tags through sigma
        sigma = w["classes"]
        for x, y in w["elements"].items():
            assert sigma[dclass_rep(x.g)] == dclass_rep(y.g)


def reference_make_sidem(T, order, u, g):
    """``make_sidem`` on ``HullIdempotent`` comparisons: the valid classes
    by ``idem_leq`` against every class representative, and the group
    grown by pairwise meets."""
    if g is None:
        return None
    if len(g.word) > 1:
        raise ValueError("middles are restricted to word length <= 1")
    if u not in order.classes or not idem_leq(g, base_idem(T, u)):
        raise ValueError("middle does not sit below the outer class")
    valid = [v for v in order.classes if idem_leq(g, base_idem(T, v))]
    group = {u}
    changed = True
    while changed:
        changed = False
        for v in valid:
            if v not in group and any(
                order.meet(v, w) is not None for w in group
            ):
                group.add(v)
                changed = True
    least = None
    for v in group:
        least = v if least is None else order.meet(least, v)
        if least is None:
            raise InvariantViolation("equality class of a triple has no meet")
    if least not in group or not idem_leq(g, base_idem(T, least)):
        raise InvariantViolation("least equivalent class does not carry the middle")
    return SIdem(least, g)


class TestMakeSidemMatchesReference:
    @staticmethod
    def outcome(fn, *args):
        try:
            return fn(*args)
        except (ValueError, InvariantViolation) as ex:
            return type(ex), str(ex)

    def test_every_call_up_to_three_letters_and_a_seeded_sample(self):
        """Every (class, middle of word length <= 1 or None) at <= 3
        letters, and 400 such calls per seeded 4-7-letter matrix: the same
        triple or the same error."""
        rng = random.Random(11)
        small = list(all_matrices(3))
        calls = errors = 0
        for T in small + seeded_matrices():
            order = cached_order(T)
            pairs = [
                (u, g)
                for u in order.classes
                for g in (None,) + enumerate_idems(T, 1)
            ]
            if T not in small and len(pairs) > 400:
                pairs = rng.sample(pairs, 400)
            for u, g in pairs:
                want = self.outcome(reference_make_sidem, T, order, u, g)
                assert self.outcome(make_sidem, order, u, g) == want, (
                    T.rows, u, g,
                )
                calls += 1
                errors += isinstance(want, tuple)
        assert calls > 40000 and 0 < errors < calls


def fold_make_sidem(T, order, u, g):
    """``make_sidem`` by the meet fold over the one-pass group, the form
    that the AND of the group's masks replaces."""
    from shiftmorita.core_order import _bits

    valid = (1 << len(order.classes)) - 1
    for b in g.word or _bits(g.vec):
        valid &= order.letter_classes[b]
    i = order.index[u]
    least = u
    for j in _bits(valid):
        if order.down[j] & order.down[i]:
            least = order.meet(least, order.classes[j])
            if least is None:
                raise InvariantViolation("equality class of a triple has no meet")
    return SIdem(least, g)


class TestMaskAndMatchesFold:
    def test_every_call_of_the_cd_products(self, monkeypatch):
        """Every ``make_sidem`` call that normalizing each CD's guarded
        covers and building its full product table makes, on every matrix
        with at most 3 letters and the seeded 4-7-letter sample, equals the
        meet fold."""
        import shiftmorita.smorita as sm

        calls = []

        def checked(order, u, g):
            got = make_sidem(order, u, g)
            if g is not None:
                T = order.matrix
                assert got == fold_make_sidem(T, order, u, g), (T.rows, u, g)
                calls.append(got)
            return got

        monkeypatch.setattr(sm, "make_sidem", checked)
        for T in list(all_matrices(3)) + seeded_matrices():
            cd = build_cd(T)
            for x in cd.Cll:
                assert sm.make_sidem(cd.order, x.u, x.g) == x
            for x in cd.elements:
                for y in cd.elements:
                    cd.product(x, y)
        assert len(calls) > 30000

    def test_a_broken_order_fails_the_meet_identity(self, diamond):
        """The proof that the group's first class is the fold leans on the
        representative-product identity, which criterion 3 checks.  On an
        order that breaks it the two differ: here {a,b} sits below {b,c} and
        {b} below neither, so the group of {a,b} with middle ({}, {b}) is
        {a,b}, {b,c}, {a,b,c}; the fold gives {b}, outside the group, and
        ``make_sidem`` the first class {a,b}.  ``check_meet_identity``
        refuses the order."""
        import dataclasses

        from shiftmorita.reference import check_meet_identity

        order = cached_order(diamond)
        ab, bc, b = (diamond.mask_of(x) for x in ("ab", "bc", "b"))
        down = list(order.down)
        i, j = order.index[ab], order.index[bc]
        down[i] = 1 << i
        down[j] = 1 << j | 1 << i
        broken = dataclasses.replace(order, down=tuple(down))
        assert check_meet_identity(diamond, order)
        assert not check_meet_identity(diamond, broken)
        g = base_idem(diamond, b)
        assert fold_make_sidem(diamond, broken, ab, g) == SIdem(b, g)
        assert make_sidem(broken, ab, g) == SIdem(ab, g)


class TestCDListsMatchReferences:
    """``C`` and ``Cll`` written out directly, ``Cll`` in the labels' order, on every
    matrix with at most 3 letters and the seeded 4-7-letter sample."""

    def test_c_is_each_class_normalized_by_the_reference(self):
        for T in list(all_matrices(3)) + seeded_matrices():
            order = cached_order(T)
            want = [reference_make_sidem(T, order, v, base_idem(T, v)) for v in order.classes]
            assert list(build_cd(T).C) == want, T.rows

    def test_cll_is_each_label_normalized_by_the_reference(self):
        for T in list(all_matrices(3)) + seeded_matrices():
            order = cached_order(T)
            for x in build_cd(T).Cll:
                assert reference_make_sidem(T, order, x.u, x.g) == x, (T.rows, x)

    def test_cll_is_in_label_order(self):
        for T in list(all_matrices(3)) + seeded_matrices():
            got = [(x.u, x.g) for x in build_cd(T).Cll]
            assert got == [(lab.vertex, lab.cover) for lab in build_graph(T).labels], T.rows
