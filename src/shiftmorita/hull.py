"""Canonical forms for idempotents of the inverse hull.

Every nonzero idempotent is the identity on a set {w.t : t allowed,
first(t) in vec} and is stored as the pair (word, vec) with vec a nonzero
follower class contained in row(last letter of word).  Zero is represented
by None throughout; it is absorbing under products.

Products, the natural order, covering relations and D-class representatives
all reduce to prefix comparisons and bitmask intersections on these pairs.
``HullIdempotent`` is a named tuple: it is built, hashed and ordered as the
plain tuple (word, vec), and compares equal to that tuple.
The ``oracle`` module recomputes everything here by composing truncated
partial bijections; tests require the two sides to agree.
"""

from __future__ import annotations

from typing import NamedTuple

from .shift import (
    InvariantViolation,
    TransitionMatrix,
    Word,
    allowed_words,
    f_classes,
    word_allowed,
)


class HullIdempotent(NamedTuple):
    word: Word
    vec: int

    def key(self) -> tuple[int, Word, int]:
        return (len(self.word), self.word, self.vec)


def make_idem(T: TransitionMatrix, word: Word, vec: int) -> "HullIdempotent | None":
    """Canonicalize (word, vec); returns None when the idempotent is zero.

    The vector is clipped to the followers of the final letter, so callers
    may pass any nonzero AND of follower classes.
    """
    if not word_allowed(T, word):
        return None
    if word:
        vec &= T.rows[word[-1]]
    if vec == 0:
        return None
    if vec not in f_classes(T):
        raise ValueError(f"vector {vec:b} is not a follower class")
    return HullIdempotent(word, vec)


def base_idem(T: TransitionMatrix, vec: int) -> HullIdempotent:
    """The F-class representative (empty word) for a follower class."""
    e = make_idem(T, (), vec)
    if e is None:
        raise InvariantViolation("the zero vector has no base idempotent")
    return e


def fclass_witness(T: TransitionMatrix, vec: int) -> tuple[int, ...]:
    """Letters whose rows realize ``vec`` as their intersection."""
    letters = tuple(a for a in range(T.n) if T.rows[a] & vec == vec)
    acc = T.full_mask()
    for a in letters:
        acc &= T.rows[a]
    if acc != vec:
        raise ValueError(f"vector {vec:b} is not a follower class")
    return letters


def idem_product(
    e1: "HullIdempotent | None", e2: "HullIdempotent | None"
) -> "HullIdempotent | None":
    """Canonical form of the intersection of the two domains."""
    if e1 is None or e2 is None:
        return None
    w1, w2 = e1.word, e2.word
    if len(w1) > len(w2):
        e1, e2 = e2, e1
        w1, w2 = w2, w1
    if w2[: len(w1)] != w1:
        return None
    if len(w1) == len(w2):
        vec = e1.vec & e2.vec
        return HullIdempotent(w1, vec) if vec else None
    # w2 extends w1; the extension's first letter decides containment.
    return e2 if e1.vec >> w2[len(w1)] & 1 else None


def idem_leq(e1: "HullIdempotent | None", e2: "HullIdempotent | None") -> bool:
    """Natural partial order: e1 <= e2 iff e1 e2 = e1."""
    return idem_product(e1, e2) == e1


def dclass_rep(e: HullIdempotent) -> int:
    """The unique follower-class representative of e's D-class."""
    return e.vec


def enumerate_idems(
    T: TransitionMatrix, maxword: int
) -> tuple[HullIdempotent, ...]:
    """All canonical idempotents with |word| <= maxword, sorted.  Each word
    is allowed, and the nonzero AND of a class with a row is a class, so
    every pair built here is canonical as it stands."""
    classes = f_classes(T)
    out = [HullIdempotent((), v) for v in classes]
    for w in allowed_words(T, maxword):
        row = T.rows[w[-1]]
        out.extend(HullIdempotent(w, v & row) for v in classes if v & row)
    return tuple(sorted(set(out), key=HullIdempotent.key))


def fmt_idem(T: TransitionMatrix, e: "HullIdempotent | None") -> str:
    if e is None:
        return "0"
    return f"({T.fmt_word(e.word)},{T.fmt_vec(e.vec)})"
