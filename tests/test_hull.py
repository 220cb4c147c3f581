from itertools import product as iproduct

import pytest
from hypothesis import given, settings

from shiftmorita.hull import (
    base_idem,
    dclass_rep,
    enumerate_idems,
    fclass_witness,
    fmt_idem,
    idem_leq,
    idem_product,
    make_idem,
)
from shiftmorita.oracle import Oracle, compose
from shiftmorita.reference import covers_below, covers_below_at
from shiftmorita.shift import InvariantViolation, f_classes

from conftest import mx
from test_shift import matrices


def idem(T, word_str, vec_str):
    word = tuple(T.index(ch) for ch in word_str)
    e = make_idem(T, word, T.mask_of(vec_str))
    assert e is not None
    return e


class TestCanonicalForm:
    def test_vector_clipped_to_followers(self, diamond):
        # (a, {b,c}) denotes the same domain as (a, {b})
        e = make_idem(diamond, (0,), diamond.mask_of("bc"))
        assert e == idem(diamond, "a", "b")

    def test_zero_when_clip_empties(self, diamond):
        # nothing in {c} may follow the word "a"
        assert make_idem(diamond, (0,), diamond.mask_of("c")) is None

    def test_disallowed_word_is_zero(self, diamond):
        assert make_idem(diamond, (0, 2), diamond.mask_of("abc")) is None

    def test_non_class_vector_rejected(self):
        T = mx("a b\n10\n01")
        with pytest.raises(ValueError, match="not a follower class"):
            make_idem(T, (), 3)

    def test_witness_letters_realize_class(self, diamond):
        for v in f_classes(diamond):
            letters = fclass_witness(diamond, v)
            acc = diamond.full_mask()
            for x in letters:
                acc &= diamond.rows[x]
            assert acc == v

    def test_no_witness_for_a_vector_that_is_no_class(self, diamond):
        # the rows holding a are those of a and c, whose AND is {a,b}
        with pytest.raises(ValueError, match="vector 1 is not a follower class"):
            fclass_witness(diamond, diamond.mask_of("a"))

    def test_zero_vector_has_no_base_idempotent(self, diamond):
        with pytest.raises(InvariantViolation, match="the zero vector has no base idempotent"):
            base_idem(diamond, 0)

    def test_zero_is_formatted_as_0(self, diamond):
        assert fmt_idem(diamond, None) == "0"
        assert fmt_idem(diamond, idem(diamond, "b", "bc")) == "(b,{b,c})"


class TestProduct:
    def test_base_vectors_intersect(self, diamond):
        assert idem_product(
            idem(diamond, "", "ab"), idem(diamond, "", "bc")
        ) == idem(diamond, "", "b")

    def test_distinct_cylinders_orthogonal(self, diamond):
        assert (
            idem_product(idem(diamond, "a", "ab"), idem(diamond, "b", "bc"))
            is None
        )

    def test_extension_absorbed(self, diamond):
        e = idem(diamond, "a", "ab")
        assert idem_product(idem(diamond, "", "ab"), e) == e

    def test_zero_absorbing(self, diamond):
        assert idem_product(None, idem(diamond, "", "b")) is None
        assert idem_product(idem(diamond, "", "b"), None) is None

    def test_semilattice_laws_exhaustive(self, diamond):
        """Commutative, associative, idempotent over all |word| <= 2."""
        idems = list(enumerate_idems(diamond, 2)) + [None]
        for e1 in idems:
            for e2 in idems:
                p = idem_product(e1, e2)
                assert p == idem_product(e2, e1)
                assert idem_product(e1, e1) == e1
        for e1, e2, e3 in iproduct(idems, idems, idems):
            lhs = idem_product(e1, idem_product(e2, e3))
            rhs = idem_product(idem_product(e1, e2), e3)
            assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(matrices(3))
    def test_semilattice_laws_random_matrices(self, T):
        idems = list(enumerate_idems(T, 1)) + [None]
        for e1 in idems:
            for e2 in idems:
                assert idem_product(e1, e2) == idem_product(e2, e1)
                for e3 in idems[:8]:
                    assert idem_product(
                        e1, idem_product(e2, e3)
                    ) == idem_product(idem_product(e1, e2), e3)


class TestOrder:
    def test_cylinder_below_base(self, diamond):
        assert idem_leq(idem(diamond, "a", "ab"), idem(diamond, "", "ab"))

    def test_incomparable_bases(self, diamond):
        assert not idem_leq(idem(diamond, "", "ab"), idem(diamond, "", "bc"))

    def test_reflexive(self, diamond):
        e = idem(diamond, "ab", "bc")
        assert idem_leq(e, e)


class TestCovers:
    def test_top_class(self, diamond):
        got = set(covers_below(diamond, diamond.mask_of("abc")))
        assert got == {idem(diamond, "", "ab"), idem(diamond, "", "bc")}

    def test_class_ab(self, diamond):
        got = set(covers_below(diamond, diamond.mask_of("ab")))
        assert got == {idem(diamond, "", "b"), idem(diamond, "a", "ab")}

    def test_class_b(self, diamond):
        got = set(covers_below(diamond, diamond.mask_of("b")))
        assert got == {idem(diamond, "b", "bc")}

    def test_unknown_class_rejected(self, diamond):
        with pytest.raises(ValueError):
            covers_below(diamond, diamond.mask_of("a"))

    def test_vector_outside_the_last_letters_row_rejected(self, diamond):
        # {b,c} is a class, but c may not follow a
        with pytest.raises(ValueError, match="vector not contained in followers of final letter"):
            covers_below_at(diamond, (0,), diamond.mask_of("bc"))

    def test_antichain_and_strictness(self, diamond):
        for v in f_classes(diamond):
            top = base_idem(diamond, v)
            cs = covers_below(diamond, v)
            for c in cs:
                assert idem_leq(c, top) and c != top
                for d in cs:
                    assert c == d or not idem_leq(c, d)

    def test_conjugated_corner_matches_base(self, diamond):
        # covers inside the corner below (b, {b,c}) mirror the base covers
        base = covers_below(diamond, diamond.mask_of("bc"))
        corner = covers_below_at(diamond, (1,), diamond.mask_of("bc"))
        prepended = {
            make_idem(diamond, (1,) + e.word, e.vec) for e in base
        }
        assert set(corner) == prepended


class TestDClass:
    def test_rep_of_cylinder(self, diamond):
        assert dclass_rep(idem(diamond, "a", "ab")) == diamond.mask_of("ab")

    def test_rep_of_base(self, diamond):
        assert dclass_rep(idem(diamond, "", "b")) == diamond.mask_of("b")

    def test_rep_of_length_one_full_row(self, diamond):
        assert dclass_rep(idem(diamond, "b", "bc")) == diamond.mask_of("bc")

    def test_oracle_exhibits_witness(self, diamond):
        """The prepend map restricted to the class idempotent's domain
        connects (word, vec) to its representative."""
        o = Oracle(diamond, 6)
        for e in enumerate_idems(diamond, 2):
            if not e.word:
                continue
            s = o.fclass_map(e.vec)
            for a in reversed(e.word):
                s = compose(o.theta(a), s)
            s_inv = {v: k for k, v in s.items()}
            ss_star = compose(s, s_inv)
            star_ss = compose(s_inv, s)
            lim = 6 - len(e.word)
            assert {t for t in star_ss if len(t) <= lim} == {
                t for t in o.fclass_map(e.vec) if len(t) <= lim
            }
            assert set(ss_star) == set(o.idem_map(e))
