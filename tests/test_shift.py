import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from shiftmorita.shift import (
    MatrixFormatError,
    TransitionMatrix,
    allowed_words,
    f_classes,
    natural_leq,
    parse_matrix,
    walk_ends,
    walks,
    word_allowed,
)
from shiftmorita.sweeps import all_matrices

from conftest import mx, seeded_matrices


def follower_of(T, a):
    """The follower vector (row bitmask) of a single letter."""
    i = T.index(a) if isinstance(a, str) else a
    if not 0 <= i < T.n:
        raise ValueError(f"letter index {i} out of range")
    return T.rows[i]


def matrices(max_letters=4):
    """Hypothesis strategy for valid matrices."""
    return st.integers(1, max_letters).flatmap(
        lambda n: st.tuples(
            *[st.integers(1, 2**n - 1) for _ in range(n)]
        ).map(lambda rows: TransitionMatrix(tuple("abcd"[:n]), rows))
    )


@st.composite
def decorated_texts(draw, max_letters=4):
    """(T, text, strict): a matrix file for T written with a byte-order
    mark, CRLF line ends, tabs and spaces inside rows, trailing blank lines
    or blank interior lines, each drawn at random.  ``strict`` is False when
    a blank interior line was drawn, which may be rejected."""
    T = draw(matrices(max_letters))
    blank = st.sampled_from(("", " ", "\t", " \t "))
    lines = [draw(st.sampled_from((" ", "\t", "  "))).join(T.symbols)]
    for r in T.rows:
        sep = draw(st.sampled_from(("", " ", "\t", " \t")))
        bits = sep.join("1" if r >> j & 1 else "0" for j in range(T.n))
        lines.append(draw(blank) + bits + draw(blank))
    strict = True
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines) - 1)), draw(blank))
        strict = False
    lines += draw(st.lists(blank, max_size=3))
    text = draw(st.sampled_from(("\n", "\r\n"))).join(lines)
    if draw(st.booleans()):
        text += "\n"
    if draw(st.booleans()):
        text = "\ufeff" + text
    return T, text, strict


class TestParse:
    def test_diamond_matrix(self, diamond):
        assert diamond.symbols == ("a", "b", "c")
        assert diamond.rows == (0b011, 0b110, 0b111)

    def test_single_letter_full_shift(self):
        T = parse_matrix("a\n1")
        assert T.symbols == ("a",) and T.rows == (1,)

    def test_zero_row_rejected(self):
        with pytest.raises(MatrixFormatError, match="zero row"):
            parse_matrix("a b\n10\n00")

    def test_duplicate_symbols(self):
        with pytest.raises(MatrixFormatError, match="duplicate symbol"):
            parse_matrix("a a\n11\n11")

    def test_missing_header(self):
        with pytest.raises(MatrixFormatError, match="header"):
            parse_matrix("")

    def test_wrong_row_count(self):
        with pytest.raises(MatrixFormatError, match="non-square"):
            parse_matrix("a b\n11")

    def test_wrong_row_width(self):
        with pytest.raises(MatrixFormatError, match="non-square"):
            parse_matrix("a b\n111\n11")

    def test_bad_character(self):
        with pytest.raises(MatrixFormatError, match="invalid character"):
            parse_matrix("a b\n1x\n11")

    def test_whitespace_in_rows_ignored(self, diamond):
        assert parse_matrix("a b c\n1 1 0\n0 1 1\n1 1 1") == diamond

    @pytest.mark.parametrize("space", ["\xa0", "\u3000"])
    def test_rows_ignore_what_the_header_splits_on(self, diamond, space):
        """Rows drop every whitespace character, as the header's split does."""
        text = f"a{space}b c\n1{space}10\n01{space}1\n111"
        assert parse_matrix(text) == diamond

    @given(matrices())
    def test_format_roundtrip(self, T):
        text = " ".join(T.symbols) + "\n" + "\n".join(
            "".join("1" if r >> j & 1 else "0" for j in range(T.n))
            for r in T.rows
        )
        assert parse_matrix(text) == T

    def test_byte_order_mark_dropped(self, diamond):
        T = parse_matrix("\ufeffa b c\r\n110\r\n011\r\n111\r\n")
        assert T == diamond and T.index("a") == 0

    @given(decorated_texts())
    def test_decorated_text_gives_the_clean_matrix(self, case):
        T, text, strict = case
        try:
            assert parse_matrix(text) == T
        except MatrixFormatError:
            assert not strict

    @given(st.text())
    def test_any_text_parses_or_raises_format_error(self, text):
        try:
            parse_matrix(text)
        except MatrixFormatError:
            pass


class TestWords:
    def test_ab_allowed(self, diamond):
        assert word_allowed(diamond, (0, 1))

    def test_ac_not_allowed(self, diamond):
        assert not word_allowed(diamond, (0, 2))

    def test_empty_word_allowed(self, diamond):
        assert word_allowed(diamond, ())

    def test_string_word_over_multi_character_symbols_refused(self):
        # "a1b1" could be a1.b1 or letters a, 1, b, 1: words are tuples of
        # letter indices, so no string is read
        T = TransitionMatrix(("a1", "b1"), (0b11, 0b01))
        assert word_allowed(T, (0, 1)) and not word_allowed(T, (1, 1))

    def test_allowed_words_depth2(self, diamond):
        words = allowed_words(diamond, 2)
        strs = {diamond.fmt_word(w) for w in words}
        assert strs == {"a", "b", "c", "aa", "ab", "bb", "bc", "ca", "cb", "cc"}


    def test_fmt_word_separates_multi_character_symbols(self, diamond):
        # "a1b1" could be a1.b1 or a.1b.1; with a space it reads one way
        T = TransitionMatrix(("a1", "b", "1b"), (0b111, 0b111, 0b111))
        assert T.fmt_word((0, 1)) == "a1 b"
        assert T.fmt_word((0, 2)) == "a1 1b"
        assert T.fmt_word(()) == "ε"
        # single-character alphabets print as before
        assert diamond.fmt_word((2, 0, 1)) == "cab"
        assert diamond.fmt_word(()) == "ε"


def successor_tables(seed=23, count=200):
    """Seeded successor bitsets over 1-5 steps; about one row in four is
    forced to zero, a dead end that a label-follow table may hold and a
    matrix may not."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        yield [0 if rng.random() < 0.25 else rng.getrandbits(n) for _ in range(n)]


def brute_force_walks(succ, maxlen):
    """Every step tuple of length 1..maxlen whose consecutive steps are
    allowed, sorted by (length, tuple)."""
    found = [
        w
        for k in range(1, maxlen + 1)
        for w in product(range(len(succ)), repeat=k)
        if all(succ[a] >> b & 1 for a, b in zip(w, w[1:]))
    ]
    return sorted(found, key=lambda w: (len(w), w))


class TestWalks:
    def test_walks_and_their_end_counts_match_brute_force(self):
        for succ in successor_tables():
            for m in range(5):
                expected = brute_force_walks(succ, m)
                assert walks(succ, m) == expected, (succ, m)
                ends = [
                    [sum(len(w) == k and w[-1] == b for w in expected) for b in range(len(succ))]
                    for k in range(1, m + 1)
                ]
                assert list(walk_ends(succ, m)) == ends, (succ, m)

    def test_allowed_words_are_the_walks_along_the_rows(self, diamond):
        assert allowed_words(diamond, 4) == walks(diamond.rows, 4)
        assert allowed_words(diamond, 4) == brute_force_walks(diamond.rows, 4)


class TestMatrixShape:
    def test_row_count_must_match_the_alphabet(self):
        with pytest.raises(ValueError, match="1 symbols but 2 rows"):
            TransitionMatrix(("a",), (1, 1))
        with pytest.raises(ValueError, match="2 symbols but 1 rows"):
            TransitionMatrix(("a", "b"), (1,))

    def test_row_bits_must_lie_in_the_alphabet(self):
        with pytest.raises(ValueError, match="row 'b' has bits beyond the 2-letter"):
            TransitionMatrix(("a", "b"), (0b11, 0b101))
        with pytest.raises(ValueError, match="beyond"):
            TransitionMatrix(("a",), (-1,))
        assert TransitionMatrix(("a", "b"), (0b11, 0b10)).n == 2

    def test_rows_must_be_nonzero(self):
        """A zero row lets every word die out; the constructor refuses it,
        and ``parse_matrix`` raises that refusal again as a
        ``MatrixFormatError``."""
        with pytest.raises(ValueError, match="zero row for symbol 'b'") as ex:
            TransitionMatrix(("a", "b"), (0b10, 0))
        assert not isinstance(ex.value, MatrixFormatError)
        with pytest.raises(MatrixFormatError, match="zero row for symbol 'b'"):
            parse_matrix("a b\n01\n00")

    def test_header_must_be_one_parse_matrix_accepts(self):
        """An empty alphabet, a repeated symbol, and an empty symbol or one
        holding whitespace are refused at construction, as ``parse_matrix``
        refuses them in a header."""
        with pytest.raises(ValueError, match="empty alphabet"):
            TransitionMatrix((), ())
        with pytest.raises(ValueError, match="duplicate symbol 'a'"):
            TransitionMatrix(("a", "a"), (1, 2))
        for bad in ("", "a b", " a", "a\n", "\tb"):
            with pytest.raises(ValueError, match="empty or holds whitespace"):
                TransitionMatrix(("x", bad), (1, 2))
        with pytest.raises(MatrixFormatError, match="no alphabet line"):
            parse_matrix("\n")
        with pytest.raises(MatrixFormatError, match="duplicate symbol 'a'"):
            parse_matrix("a a\n11\n11")
        assert TransitionMatrix(("ab", "c'"), (1, 2)).fmt_word((0, 1)) == "ab c'"

    def test_hash_is_that_of_symbols_and_rows(self):
        import pickle

        a = TransitionMatrix(("a", "b"), (0b11, 0b10))
        b = TransitionMatrix(tuple("ab"), (3, 2))
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash((("a", "b"), (3, 2)))
        # a pickle carries the fields, not this process's string hashes
        assert b"_hash" not in pickle.dumps(a)
        assert pickle.loads(pickle.dumps(a)) == a
        for T in seeded_matrices(letters=(4,), per_cell=2):
            assert hash(T) == hash((T.symbols, T.rows))

    def test_seeded_sample_reaches_past_eight_letters(self):
        sample = seeded_matrices(letters=(9, 12), densities=(0.5,), per_cell=2)
        assert [T.n for T in sample] == [9, 9, 12, 12]
        for T in sample:
            assert len(set(T.symbols)) == T.n == len(T.rows)
            assert all(0 < row < 1 << T.n for row in T.rows)


class TestFollowers:
    def test_row_a(self, diamond):
        assert follower_of(diamond, "a") == diamond.mask_of("ab")

    def test_row_c(self, diamond):
        assert follower_of(diamond, "c") == diamond.mask_of("abc")

    def test_full_shift_single(self):
        T = mx("a\n1")
        assert follower_of(T, "a") == 1

    def test_unknown(self, diamond):
        with pytest.raises(ValueError):
            follower_of(diamond, "z")


class TestFClasses:
    def test_diamond_four_classes(self, diamond):
        want = {
            diamond.mask_of("ab"),
            diamond.mask_of("bc"),
            diamond.mask_of("abc"),
            diamond.mask_of("b"),
        }
        assert set(f_classes(diamond)) == want

    def test_full_shift_two_letters(self):
        T = mx("a b\n11\n11")
        assert f_classes(T) == (3,)

    def test_identity_two_letters(self):
        # AND of the two singleton rows is zero and must be excluded
        T = mx("a b\n10\n01")
        assert set(f_classes(T)) == {1, 2}

    @staticmethod
    def brute_force(T):
        """The AND of every nonempty subset of rows, zero removed."""
        out = set()
        for s in range(1, 2**T.n):
            acc = T.full_mask()
            for a in range(T.n):
                if s >> a & 1:
                    acc &= T.rows[a]
            if acc:
                out.add(acc)
        return tuple(sorted(out))

    def test_matches_brute_force(self):
        for T in list(all_matrices(3)) + seeded_matrices(seed=11):
            assert f_classes(T) == self.brute_force(T), T.rows

    @given(matrices())
    def test_and_closed_and_contains_rows(self, T):
        classes = set(f_classes(T))
        assert set(T.rows) <= classes
        for u in classes:
            for v in classes:
                if u & v:
                    assert u & v in classes


class TestNaturalLeq:
    def test_examples(self, diamond):
        assert natural_leq(diamond.mask_of("b"), diamond.mask_of("ab"))
        assert not natural_leq(diamond.mask_of("ab"), diamond.mask_of("bc"))
        assert natural_leq(diamond.mask_of("bc"), diamond.mask_of("bc"))

    def test_partial_order_exhaustive_four_letters(self):
        masks = range(1, 16)
        for u in masks:
            assert natural_leq(u, u)
            for v in masks:
                if natural_leq(u, v) and natural_leq(v, u):
                    assert u == v
                for w in masks:
                    if natural_leq(u, v) and natural_leq(v, w):
                        assert natural_leq(u, w)
