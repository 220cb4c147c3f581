"""Truncated partial-bijection oracle for the inverse hull.

The hull is generated by the prepend maps theta_a : w -> aw on allowed
words.  Truncating the language at a fixed depth N makes every generator a
finite partial injection, so arbitrary generator words can be evaluated by
literal composition and compared pointwise.  Compositions that would push a
word beyond length N drop it from the graph; equality of truncated maps is
only ever asserted between maps built at the same depth.

This module is the validation side of the hull: the canonical-form algebra
in ``hull`` is checked against it, never the other way round.  The words are
``shift.allowed_words``, and ``Oracle.word_count`` counts them from
``shift.walk_ends`` without listing one, so that a depth too large is
refused before any word is built.

Each map is composed once per oracle: the prefix maps, the class maps and
the idempotent maps are kept in per-oracle dicts.  ``predicted_domain``
reads the words grouped by (prefix, next letter) rather than scanning
every word, and the sweep in ``sweeps.oracle_failures`` compares map
domains as int bitsets over positions in ``Oracle.words``.
"""

from __future__ import annotations

from .hull import HullIdempotent, fclass_witness
from .shift import TransitionMatrix, Word, allowed_words, walk_ends

# A generator token: (letter index, +1) is theta_a, (letter index, -1) its
# inverse.  A generator word [g1, g2, ..., gk] denotes g1 o g2 o ... o gk,
# i.e. the rightmost token applies first.
GenWord = list[tuple[int, int]]

PartialMap = dict[Word, Word]


def compose(f: PartialMap, g: PartialMap) -> PartialMap:
    """f o g restricted to where both sides are defined."""
    return {x: f[y] for x, y in g.items() if y in f}


class Oracle:
    """Generator maps of one matrix at one truncation depth, with caches.
    It lists every allowed word up to the depth, so a depth that allows
    more than ``MAX_WORDS`` words is refused before any word is built."""

    MAX_WORDS = 1 << 17

    def __init__(self, T: TransitionMatrix, depth: int):
        if depth < 2:
            raise ValueError("oracle depth must be >= 2")
        if self.word_count(T, depth) > self.MAX_WORDS:
            raise ValueError(f"depth {depth} allows more than {self.MAX_WORDS} words")
        self.T = T
        self.depth = depth
        self.words = allowed_words(T, depth)
        self._theta: dict[int, PartialMap] = {}
        self._theta_inv: dict[int, PartialMap] = {}
        for a in range(T.n):
            fwd = {
                w: (a,) + w
                for w in self.words
                if len(w) < depth and T.rows[a] >> w[0] & 1
            }
            self._theta[a] = fwd
            self._theta_inv[a] = {v: w for w, v in fwd.items()}
        self._prefix_cache: dict[Word, tuple[PartialMap, PartialMap]] = {}
        self._fclass_cache: dict[int, PartialMap] = {}
        self._idem_cache: dict[HullIdempotent, PartialMap] = {}
        self._tails: dict[int, dict[tuple[Word, int], list[Word]]] = {}

    @staticmethod
    def word_count(T: TransitionMatrix, depth: int) -> int:
        """``len(allowed_words(T, depth))``, counted length by length per
        last letter (``walk_ends``) without listing a word.  The count stops
        at the first length whose running total passes ``MAX_WORDS``, so a
        count above that may fall short of the full one."""
        total = 0
        for ends in walk_ends(T.rows, depth):
            if total > Oracle.MAX_WORDS:
                break
            total += sum(ends)
        return total

    def theta(self, a: int) -> PartialMap:
        return self._theta[a]

    def theta_inv(self, a: int) -> PartialMap:
        return self._theta_inv[a]

    def identity(self) -> PartialMap:
        return {w: w for w in self.words}

    def eval(self, expr: GenWord) -> PartialMap:
        """Evaluate a formal word in the generators by composition."""
        if not expr:
            return self.identity()
        maps = [self._theta[a] if s > 0 else self._theta_inv[a] for a, s in expr]
        cur = maps[-1]
        for m in reversed(maps[:-1]):
            cur = compose(m, cur)
        return cur

    def _word_maps(self, word: Word) -> tuple[PartialMap, PartialMap]:
        """(theta_word, theta_word^-1) as honest compositions, cached.

        The word is never empty: ``idem_map`` returns before calling this on
        an empty word, and the recursion passes ``word[:-1]`` only when the
        word has two or more letters."""
        if word not in self._prefix_cache:
            if len(word) == 1:
                pair = (self._theta[word[0]], self._theta_inv[word[0]])
            else:
                head_fwd, head_inv = self._word_maps(word[:-1])
                pair = (
                    compose(head_fwd, self._theta[word[-1]]),
                    compose(self._theta_inv[word[-1]], head_inv),
                )
            self._prefix_cache[word] = pair
        return self._prefix_cache[word]

    def fclass_map(self, vec: int) -> PartialMap:
        """Map of the depth-0 idempotent with follower vector ``vec``."""
        if vec not in self._fclass_cache:
            expr: GenWord = []
            for x in fclass_witness(self.T, vec):
                expr += [(x, -1), (x, +1)]
            self._fclass_cache[vec] = self.eval(expr)
        return self._fclass_cache[vec]

    def idem_map(self, e: HullIdempotent) -> PartialMap:
        """Truncated map of a canonical idempotent, composed once from the
        caches and kept; callers must not change the returned dict."""
        if e not in self._idem_cache:
            m = self.fclass_map(e.vec)
            if e.word:
                fwd, inv = self._word_maps(e.word)
                m = compose(fwd, compose(m, inv))
            self._idem_cache[e] = m
        return self._idem_cache[e]

    def _tails_at(self, k: int) -> dict[tuple[Word, int], list[Word]]:
        """The words x with k < len(x) <= k + depth - 1, grouped by
        (x[:k], x[k]); built on first use for each k."""
        if k not in self._tails:
            groups: dict[tuple[Word, int], list[Word]] = {}
            for x in self.words:
                if k < len(x) <= k + self.depth - 1:
                    groups.setdefault((x[:k], x[k]), []).append(x)
            self._tails[k] = groups
        return self._tails[k]

    def predicted_domain(self, e: HullIdempotent) -> set[Word]:
        """{w.t : t allowed, first(t) in vec} under the truncation rule.

        Evaluating the canonical generator word lifts the tail t to x.t for
        each witness letter x, so tails of length depth survive only up to
        depth - 1; the composed map cannot contain them and neither does
        the prediction.  ``vec`` need not be canonical: the words are read
        from the (word, letter) groups of ``_tails_at`` for each of its
        letters, and a letter that cannot follow the word has no group.
        """
        groups = self._tails_at(len(e.word))
        out: set[Word] = set()
        for a in range(self.T.n):
            if e.vec >> a & 1:
                out.update(groups.get((e.word, a), ()))
        return out

    def matches(self, e: HullIdempotent) -> bool:
        """True iff the composed generator word is the identity on exactly
        the predicted domain (within the truncation)."""
        if self.depth < len(e.word) + 2:
            raise ValueError(
                f"depth {self.depth} too small for |word| = {len(e.word)}"
            )
        m = self.idem_map(e)
        if any(x != y for x, y in m.items()):
            return False
        return m.keys() == self.predicted_domain(e)
