"""Canonical forms for idempotents of the inverse hull.

Every nonzero idempotent is the identity on a set {w.t : t allowed,
first(t) in vec} and is stored as the pair (word, vec) with vec a nonzero
follower class contained in row(last letter of word).  Zero is represented
by None throughout; it is absorbing under products.

Products, the natural order, covering relations and D-class representatives
all reduce to prefix comparisons and bitmask intersections on these pairs.
The ``oracle`` module recomputes everything here by composing truncated
partial bijections; tests require the two sides to agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .shift import (
    CACHE_MAXSIZE,
    InvariantViolation,
    TransitionMatrix,
    Word,
    allowed_words,
    f_classes,
    word_allowed,
)


@dataclass(frozen=True, order=True, slots=True)
class HullIdempotent:
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
    return HullIdempotent(tuple(word), vec)


def base_idem(T: TransitionMatrix, vec: int) -> HullIdempotent:
    """The F-class representative (empty word) for a follower class."""
    e = make_idem(T, (), vec)
    if e is None:
        raise InvariantViolation("the zero vector has no base idempotent")
    return e


@lru_cache(maxsize=CACHE_MAXSIZE)
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
    T: TransitionMatrix, e1: "HullIdempotent | None", e2: "HullIdempotent | None"
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


def idem_leq(
    T: TransitionMatrix, e1: "HullIdempotent | None", e2: "HullIdempotent | None"
) -> bool:
    """Natural partial order: e1 <= e2 iff e1 e2 = e1."""
    return idem_product(T, e1, e2) == e1


def dclass_rep(e: HullIdempotent) -> int:
    """The unique follower-class representative of e's D-class."""
    return e.vec


def covers_below_at(
    T: TransitionMatrix, word: Word, vec: int
) -> tuple[HullIdempotent, ...]:
    """All idempotents immediately below (word, vec).

    Candidates are the same-word idempotents with strictly smaller vectors
    and the one-letter extensions (word+b, row(b)) for b in vec; anything
    with a longer extension sits strictly below one of those, so maximality
    within the candidate set is the covering relation.
    """
    if vec not in f_classes(T):
        raise ValueError(f"vector {vec:b} is not a follower class")
    if word and (T.rows[word[-1]] & vec) != vec:
        raise ValueError("vector not contained in followers of final letter")
    cands: list[HullIdempotent] = [
        HullIdempotent(tuple(word), u)
        for u in f_classes(T)
        if u & vec == u and u != vec
    ]
    cands += [
        HullIdempotent(tuple(word) + (b,), T.rows[b])
        for b in range(T.n)
        if vec >> b & 1
    ]
    maximal = [
        c
        for c in cands
        if not any(d != c and idem_leq(T, c, d) for d in cands)
    ]
    return tuple(sorted(maximal, key=HullIdempotent.key))


def covers_below(T: TransitionMatrix, vec: int) -> tuple[HullIdempotent, ...]:
    """Covers of the depth-0 idempotent of a follower class: the reference
    that ``CoreOrder.covers`` is checked against."""
    return covers_below_at(T, (), vec)


def enumerate_idems(
    T: TransitionMatrix, maxword: int
) -> tuple[HullIdempotent, ...]:
    """All canonical idempotents with |word| <= maxword, sorted."""
    out = [base_idem(T, v) for v in f_classes(T)]
    for w in allowed_words(T, maxword):
        for v in f_classes(T):
            e = make_idem(T, w, v)
            if e is not None:
                out.append(e)
    return tuple(sorted(set(out), key=HullIdempotent.key))


def fmt_idem(T: TransitionMatrix, e: "HullIdempotent | None") -> str:
    if e is None:
        return "0"
    return f"({T.fmt_word(e.word)},{T.fmt_vec(e.vec)})"
