"""Transition matrices, the allowed-word language, and follower vectors.

A Markov shift is given by a 0/1 transition matrix over a finite ordered
alphabet; entry (a, b) says whether letter b may follow letter a.  Follower
vectors (bitmasks over the alphabet) are the workhorse encoding everywhere
downstream: the idempotent generated by letters a1..ak acts as the identity
on the words whose first letter lies in row(a1) & ... & row(ak), so the
nonzero AND-closure of the rows indexes the nonzero D-classes.

Both semigroups rest on walks in a successor relation, given as one bitset
per step of the steps that may follow it: allowed words walk the rows, and
the labelled graph's paths walk its label-follow relation.  ``walks``
lists them and ``walk_ends`` counts them per length and last step without
listing any; ``allowed_words``, ``Oracle.word_count`` and the path lister
and element count of ``lgis.LgisEngine`` all read these two.  ``_bits``,
the set-bit iterator that the other modules import, lives here, in the
base module, so that ``walks`` can use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]

# Entries kept by each per-matrix cache, so that long batch runs stay in
# bounded memory.
CACHE_MAXSIZE = 1024


class MatrixFormatError(ValueError):
    """Raised for malformed matrix input text."""


class InvariantViolation(RuntimeError):
    """A structural fact guaranteed by the theory failed to hold."""


@dataclass(frozen=True)
class TransitionMatrix:
    """Ordered alphabet plus one follower bitmask per letter.

    Bit i of every mask refers to ``symbols[i]``; the input order of the
    symbols is authoritative and fixes bit positions for all outputs.  The
    symbols are distinct, nonempty and free of whitespace, and there is at
    least one; each row is nonzero and lies within the alphabet.  The
    hash, that of ``(symbols, rows)``, is computed once.
    """

    symbols: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.symbols)
        if not n:
            raise ValueError("empty alphabet")
        if len(self.rows) != n:
            raise ValueError(f"{n} symbols but {len(self.rows)} rows")
        seen = set()
        for s in self.symbols:
            if s.split() != [s]:
                raise ValueError(f"symbol {s!r} is empty or holds whitespace")
            if s in seen:
                raise ValueError(f"duplicate symbol {s!r}")
            seen.add(s)
        for s, row in zip(self.symbols, self.rows):
            if row >> n:
                raise ValueError(f"row {s!r} has bits beyond the {n}-letter alphabet")
            if not row:
                raise ValueError(f"zero row for symbol {s!r}")
        object.__setattr__(self, "_hash", hash((self.symbols, self.rows)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, not copied: a string's hash differs between processes
        return TransitionMatrix, (self.symbols, self.rows)

    @property
    def n(self) -> int:
        return len(self.symbols)

    def index(self, letter: str) -> int:
        try:
            return self.symbols.index(letter)
        except ValueError:
            raise ValueError(f"unknown letter {letter!r}") from None

    def letters_of(self, mask: int) -> tuple[str, ...]:
        return tuple(s for i, s in enumerate(self.symbols) if mask >> i & 1)

    def mask_of(self, letters: Iterable[str]) -> int:
        mask = 0
        for s in letters:
            mask |= 1 << self.index(s)
        return mask

    def fmt_vec(self, mask: int) -> str:
        return "{%s}" % ",".join(self.letters_of(mask))

    def fmt_word(self, word: Word) -> str:
        """The word's symbols, space-separated when some symbol is longer
        than one character (symbols hold no whitespace); ε when empty."""
        sep = "" if all(len(s) == 1 for s in self.symbols) else " "
        return sep.join(self.symbols[i] for i in word) if word else "ε"

    def full_mask(self) -> int:
        return (1 << self.n) - 1


def parse_matrix(text: str) -> TransitionMatrix:
    """Parse the matrix file format; every defect gets its own diagnostic.

    Line 1: whitespace-separated symbols.  Lines 2..n+1: n characters of
    '0'/'1' each (whitespace inside a row is ignored).  One leading UTF-8
    byte-order mark is dropped.  The layout is checked here; what makes a
    matrix valid (distinct symbols, nonzero rows) is checked once, by
    ``TransitionMatrix``, whose ``ValueError`` is raised again as a
    ``MatrixFormatError`` with the same message.
    """
    lines = text.removeprefix("\ufeff").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines or not lines[0].strip():
        raise MatrixFormatError("malformed header: no alphabet line")
    symbols = tuple(lines[0].split())
    n = len(symbols)
    body = lines[1:]
    if len(body) != n:
        raise MatrixFormatError(
            f"non-square body: expected {n} rows, got {len(body)}"
        )
    rows = []
    for i, ln in enumerate(body):
        bits = "".join(ln.split())
        if len(bits) != n:
            raise MatrixFormatError(
                f"non-square body: row {i + 1} has {len(bits)} entries, expected {n}"
            )
        mask = 0
        for j, ch in enumerate(bits):
            if ch == "1":
                mask |= 1 << j
            elif ch != "0":
                raise MatrixFormatError(
                    f"invalid character {ch!r} in row {i + 1}"
                )
        rows.append(mask)
    try:
        return TransitionMatrix(symbols, tuple(rows))
    except ValueError as ex:
        raise MatrixFormatError(str(ex)) from None


def word_allowed(T: TransitionMatrix, word: Word) -> bool:
    """True iff the word is empty or every consecutive transition is
    permitted."""
    return all(T.rows[a] >> b & 1 for a, b in zip(word, word[1:]))


@lru_cache(maxsize=CACHE_MAXSIZE)
def f_classes(T: TransitionMatrix) -> tuple[int, ...]:
    """All nonzero intersections of rows: the closure of the rows under
    bitwise AND with the zero vector removed.  One entry per nonzero
    D-class of the inverse hull.

    Grown from a frontier: every intersection is some class ANDed with one
    row, so each new class is ANDed with the rows only.
    """
    rows = set(T.rows)
    classes = set(rows)
    frontier = list(classes)
    while frontier:
        grown = []
        for u in frontier:
            for r in rows:
                w = u & r
                if w and w not in classes:
                    classes.add(w)
                    grown.append(w)
        frontier = grown
    return tuple(sorted(classes))


def natural_leq(v1: int, v2: int) -> bool:
    """Subset order on follower vectors (= natural order of their
    idempotents)."""
    return v1 & v2 == v1


def _bits(x: int):
    """Indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def walks(succ: Sequence[int], maxlen: int) -> list[tuple[int, ...]]:
    """Every walk of 1..maxlen steps, shortest first and each length in
    lexicographic order, where ``succ[a]`` is the bitset of the steps that
    may follow step a.  Level 1 ascends, and so does each level made from an
    ascending one by the ascending successors of each last step."""
    out: list[tuple[int, ...]] = []
    level = [(a,) for a in range(len(succ))]
    while level and len(level[0]) <= maxlen:
        out += level
        level = [w + (b,) for w in level if len(w) < maxlen for b in _bits(succ[w[-1]])]
    return out


def walk_ends(succ: Sequence[int], maxlen: int) -> Iterator[list[int]]:
    """For each length 1..maxlen in turn, how many walks of that length end
    at each step (``succ`` as in ``walks``), without listing any walk; a
    caller may stop early."""
    ends = [1] * len(succ)
    for _ in range(maxlen):
        yield ends
        ends = [sum(n for n, s in zip(ends, succ) if s >> b & 1) for b in range(len(succ))]


def allowed_words(T: TransitionMatrix, maxlen: int) -> list[Word]:
    """All allowed words of length 1..maxlen, shortest first: the walks
    along the rows."""
    return walks(T.rows, maxlen)
