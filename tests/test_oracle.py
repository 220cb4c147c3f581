import pytest

from shiftmorita.cli import _MismatchedOracle
from shiftmorita.hull import enumerate_idems, make_idem
from shiftmorita.oracle import Oracle, compose
from shiftmorita.shift import allowed_words
from shiftmorita.sweeps import all_matrices

from conftest import mx


def dump_map(T, m):
    """Sorted ``input -> output`` lines, for golden tests."""
    lines = [
        f"{T.fmt_word(x)} -> {T.fmt_word(y)}"
        for x, y in sorted(m.items())
    ]
    return "\n".join(lines)


class TestBuild:
    def test_diamond_theta_a_depth2(self, diamond):
        assert Oracle(diamond, 2).theta(0) == {(0,): (0, 0), (1,): (0, 1)}

    def test_diamond_theta_b_depth2(self, diamond):
        assert Oracle(diamond, 2).theta(1) == {(1,): (1, 1), (2,): (1, 2)}

    def test_identity_matrix_theta_a(self):
        T = mx("a b\n10\n01")
        assert Oracle(T, 2).theta(0) == {(0,): (0, 0)}

    def test_depth_below_two_rejected(self, diamond):
        with pytest.raises(ValueError, match="depth"):
            Oracle(diamond, 1)

    def test_word_count_matches_the_listed_words(self):
        for T in all_matrices(3):
            for depth in range(2, 8):
                assert Oracle.word_count(T, depth) == len(allowed_words(T, depth))

    def test_too_many_words_rejected_before_listing_any(self, diamond, monkeypatch):
        from shiftmorita import oracle

        def refuse(T, depth):
            raise AssertionError("words listed")

        monkeypatch.setattr(oracle, "allowed_words", refuse)
        assert Oracle.word_count(diamond, 13) <= Oracle.MAX_WORDS
        with pytest.raises(ValueError, match="depth 14 allows more than 131072 words"):
            Oracle(diamond, 14)


class TestEval:
    def test_inverse_then_forward_is_domain_identity(self, diamond):
        m = Oracle(diamond, 3).eval([(0, -1), (0, +1)])
        assert m and all(x == y for x, y in m.items())
        assert {x[0] for x in m} == {0, 1}

    def test_prefix_swap(self, diamond):
        m = Oracle(diamond, 3).eval([(0, +1), (1, -1)])
        assert m
        for x, y in m.items():
            assert x[0] == 1 and y == (0,) + x[1:]

    def test_orthogonal_ranges_compose_to_empty(self, diamond):
        m = Oracle(diamond, 4).eval([(0, +1), (0, -1), (1, +1), (1, -1)])
        assert m == {}

    def test_empty_expr_is_identity(self, diamond):
        o = Oracle(diamond, 3)
        assert o.eval([]) == o.identity()


class TestMatches:
    def test_base_idempotent(self, diamond):
        e = make_idem(diamond, (), diamond.mask_of("b"))
        assert Oracle(diamond, 4).matches(e)

    def test_depth_one_idempotent(self, diamond):
        e = make_idem(diamond, (0,), diamond.mask_of("ab"))
        assert Oracle(diamond, 4).matches(e)

    def test_single_letter_shift(self):
        T = mx("a\n1")
        e = make_idem(T, (), 1)
        assert Oracle(T, 4).matches(e)

    def test_all_canonical_idempotents_depth6(self, diamond):
        o = Oracle(diamond, 6)
        for e in enumerate_idems(diamond, 2):
            assert o.matches(e)

    def test_negative_control_mismatched_prediction(self, diamond):
        o = Oracle(diamond, 6)
        e1 = make_idem(diamond, (), diamond.mask_of("b"))
        e2 = make_idem(diamond, (), diamond.mask_of("ab"))
        assert set(o.idem_map(e1)) != o.predicted_domain(e2)

    def test_each_map_is_composed_once(self, diamond):
        o = Oracle(diamond, 5)
        for e in enumerate_idems(diamond, 3):
            assert o.idem_map(e) is o.idem_map(e)

    def test_depth_too_small(self, diamond):
        o = Oracle(diamond, 3)
        e = make_idem(diamond, (0, 1), diamond.mask_of("bc"))
        with pytest.raises(ValueError, match="too small"):
            o.matches(e)


def scanned_domain(words, depth, word, vec):
    """``predicted_domain`` as a scan of every word."""
    k = len(word)
    return {
        x
        for x in words
        if len(x) > k and x[:k] == word and vec >> x[k] & 1 and len(x) - k <= depth - 1
    }


def test_indexed_domain_matches_the_scan():
    """Every canonical idempotent with |word| <= 3 of the matrices with at
    most 3 letters, at depths 4-6, and the complemented vector that the
    corrupted oracle of ``oracle-check --corrupt`` passes.  The scan's
    conditions that do not read the vector are applied once per word."""
    for T in all_matrices(3):
        idems = enumerate_idems(T, 3)
        for depth in (4, 5, 6):
            o = _MismatchedOracle(T, depth)
            words = {}
            for e in idems:
                if e.word not in words:
                    words[e.word] = scanned_domain(o.words, depth, e.word, (1 << T.n) - 1)
                k = len(e.word)
                # Oracle's own method, then the override's complement
                assert Oracle.predicted_domain(o, e) == {
                    x for x in words[e.word] if e.vec >> x[k] & 1
                }
                assert o.predicted_domain(e) == {
                    x for x in words[e.word] if not e.vec >> x[k] & 1
                }


class TestUniqueness:
    def test_distinct_canonical_forms_have_distinct_maps(self, diamond):
        """Canonical uniqueness: equality of idempotents is equality of
        their truncated maps at every depth up to 6."""
        idems = enumerate_idems(diamond, 3)
        for depth in (4, 5, 6):
            o = Oracle(diamond, depth)
            maps = {}
            for e in idems:
                maps.setdefault(frozenset(o.idem_map(e).items()), set()).add(e)
            # at depth 6 every map is distinct; shallower depths may merge
            if depth == 6:
                assert all(len(v) == 1 for v in maps.values())

    def test_merged_at_shallow_depth_separate_at_six(self, diamond):
        idems = enumerate_idems(diamond, 3)
        o6 = Oracle(diamond, 6)
        for e1 in idems:
            for e2 in idems:
                if e1 != e2:
                    assert o6.idem_map(e1) != o6.idem_map(e2)


class TestDump:
    def test_sorted_golden_lines(self, diamond):
        o = Oracle(diamond, 2)
        assert dump_map(diamond, o.theta(0)) == "a -> aa\nb -> ab"

    def test_compose_dump(self, diamond):
        o = Oracle(diamond, 3)
        m = compose(o.theta(0), o.theta_inv(0))
        lines = dump_map(diamond, m).splitlines()
        assert lines == sorted(lines)
        assert all(" -> " in ln for ln in lines)
