"""Seeded inputs for the benchmark, and the references its checks rely on.

Nothing here imports the library.  Every workload works on a fixed ladder
of base matrices (drawn once from ``LADDER_SEED``), so that every run does
the same amount of work whatever its seed; the run seed draws what the
library actually receives: a letter permutation and fresh letter names for
every matrix, and the order of the ops in a round (not in the library,
whose order sets how much work bucketing does).  Fresh names make every matrix a new key for the library's
matrix-keyed caches.

A matrix is a pair ``(symbols, rows)`` with ``rows[i]`` the follower
bitmask of letter ``symbols[i]``, as in ``TransitionMatrix``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

LADDER_SEED = 2411_09015
LETTERS = "abcdefgh"


def class_count(rows: tuple[int, ...]) -> int:
    """Number of nonzero follower classes: the nonzero closure of the rows
    under AND, grown one row at a time from a frontier."""
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
    return len(classes)


def relabel(rows: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    """Rows after renaming letter i to perm[i]: new letter a may follow new
    letter b exactly when old letter perm⁻¹[a] may follow perm⁻¹[b]."""
    n = len(rows)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(
        sum(1 << b for b in range(n) if rows[inv[a]] >> inv[b] & 1)
        for a in range(n)
    )


def random_rows(rng: random.Random, n: int, density: float) -> tuple[int, ...]:
    """A 0/1 matrix with entries set at the given density and no zero row."""
    while True:
        rows = tuple(
            sum(1 << j for j in range(n) if rng.random() < density)
            for _ in range(n)
        )
        if all(rows):
            return rows


def all_rows(max_letters: int) -> list[tuple[int, ...]]:
    """Every matrix with 1 to ``max_letters`` letters and no zero row."""
    return [
        rows
        for n in range(1, max_letters + 1)
        for rows in itertools.product(range(1, 2**n), repeat=n)
    ]


def sparse(rows: tuple[int, ...]) -> bool:
    return sum(bin(r).count("1") for r in rows) <= len(rows) + 3


def j_minus_i(n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple(full & ~(1 << i) for i in range(n))


@dataclass(frozen=True)
class Base:
    """One rung of a ladder: a named base matrix."""

    name: str
    rows: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.rows)


STRUCTURED = (
    Base("golden-mean", (0b11, 0b01)),
    Base("diamond", (0b011, 0b110, 0b111)),
    Base("full-4", (0b1111,) * 4),
    Base("identity-4", (0b0001, 0b0010, 0b0100, 0b1000)),
    Base("J-I-5", j_minus_i(5)),
    Base("J-I-6", j_minus_i(6)),
)


def draw_bases(rng: random.Random, rungs, prefix: str) -> list[Base]:
    """Distinct random bases for (letters, density, count) rungs."""
    out: list[Base] = []
    seen: set[tuple[int, ...]] = set()
    for n, density, count in rungs:
        for k in range(count):
            rows = random_rows(rng, n, density)
            while rows in seen:
                rows = random_rows(rng, n, density)
            seen.add(rows)
            out.append(Base(f"{prefix}-n{n}-d{density}-{k}", rows))
    return out


def partners(rng: random.Random, bases: list[Base]) -> list[tuple[Base, tuple[int, ...]]]:
    """Each base with an independent partner of its alphabet size: the
    next base in a shuffled order of its size group, so every base is also
    a partner exactly once; a base alone in its group gets a random draw."""
    groups: dict[int, list[Base]] = {}
    for b in bases:
        groups.setdefault(b.n, []).append(b)
    out = []
    for n, group in sorted(groups.items()):
        if len(group) == 1:
            out.append((group[0], random_rows(rng, n, 0.5)))
            continue
        rng.shuffle(group)
        out += [(b, group[(i + 1) % len(group)].rows) for i, b in enumerate(group)]
    return out


# (letters, density, bases): the random rungs of each ladder.
DECIDE_RUNGS = [(n, d, 3 if n <= 6 else 5 if n == 7 else 1) for n in range(4, 9) for d in (0.5, 0.8)]
LIBRARY_RUNGS = [(n, d, 5) for n in range(3, 7) for d in (0.5, 0.8)]
MEDIUM_RUNGS = [(6, 0.8, 1), (7, 0.5, 1)]
SMALL_COUNT = 24
SMALL4_COUNT = 4
CROSS_CHECK_EVERY = 5  # small matrices verified per cross-checked decide


@dataclass(frozen=True)
class Ladders:
    decide: tuple[Base, ...]
    # (decide base, independent partner rows) for the independent half
    independent: tuple[tuple[Base, tuple[int, ...]], ...]
    library: tuple[Base, ...]
    library_order: tuple[int, ...]
    small: tuple[Base, ...]
    medium: tuple[Base, ...]


def build_ladders() -> Ladders:
    """The fixed base matrices of every workload."""
    rng = random.Random(LADDER_SEED)
    decide = list(STRUCTURED) + draw_bases(rng, DECIDE_RUNGS, "fresh")
    # a pair of a larger base costs seconds already: those take part only
    # in the relabelled half
    independent = partners(
        rng, [b for b in decide if b.n <= 7 and class_count(b.rows) <= 30]
    )
    library = draw_bases(rng, LIBRARY_RUNGS, "lib")
    # each library base with one or two copies, in one fixed order: the
    # order sets how many comparisons bucketing takes
    library_order = [i for i in range(len(library)) for _ in range(2 + i % 2)]
    rng.shuffle(library_order)
    # small matrices for the verification suite: drawn uniformly from the
    # sparse matrices (at most n+3 ones) with at most 3 letters, and from
    # sparse 4-letter ones; one axiom suite on a denser matrix of this size
    # takes seconds (up to tens of seconds at 4 letters)
    small3 = rng.sample([r for r in all_rows(3) if sparse(r)], SMALL_COUNT)
    small4: list[tuple[int, ...]] = []
    while len(small4) < SMALL4_COUNT:
        rows = random_rows(rng, 4, 0.4)
        if sparse(rows) and rows not in small4:
            small4.append(rows)
    small = [Base(f"small-{i}", r) for i, r in enumerate(small3)]
    small += [Base(f"small4-{i}", r) for i, r in enumerate(small4)]
    medium = draw_bases(rng, MEDIUM_RUNGS, "medium")
    return Ladders(
        tuple(decide),
        tuple(independent),
        tuple(library),
        tuple(library_order),
        tuple(small),
        tuple(medium),
    )


Matrix = tuple[tuple[str, ...], tuple[int, ...]]


class Inputs:
    """Draws the concrete matrices of each round from the run seed."""

    def __init__(self, ladders: Ladders, seed: int):
        self.ladders = ladders
        self.rng = random.Random(seed)
        self.fresh = 0

    def copy(self, rows: tuple[int, ...]) -> Matrix:
        """A random relabelling of ``rows`` under letter names never used
        before in this run."""
        n = len(rows)
        perm = list(range(n))
        self.rng.shuffle(perm)
        self.fresh += 1
        symbols = tuple(f"{LETTERS[i]}{self.fresh}" for i in range(n))
        return symbols, relabel(rows, perm)

    def decide_round(self) -> list[tuple[str, Matrix, Matrix]]:
        """Every base once against a relabelling of itself, and the
        independent half of the ladder, in seeded order."""
        ops = [
            ("relabelled", self.copy(b.rows), self.copy(b.rows))
            for b in self.ladders.decide
        ]
        ops += [
            ("independent", self.copy(b.rows), self.copy(rows))
            for b, rows in self.ladders.independent
        ]
        self.rng.shuffle(ops)
        return ops

    def library_round(self) -> list[tuple[int, Matrix]]:
        """The library in the ladder's order: each base plus one or two
        copies, all relabelled, each tagged with its base's index."""
        bases = self.ladders.library
        return [(i, self.copy(bases[i].rows)) for i in self.ladders.library_order]

    def verify_round(self) -> list[tuple[str, Matrix, "Matrix | None"]]:
        """Each small matrix once, and after every ``CROSS_CHECK_EVERY`` of
        them a medium matrix against a relabelling of itself."""
        small = [("verify", self.copy(b.rows), None) for b in self.ladders.small]
        self.rng.shuffle(small)
        medium = self.ladders.medium
        ops = []
        for i, op in enumerate(small):
            ops.append(op)
            if (i + 1) % CROSS_CHECK_EVERY == 0:
                m = medium[(i // CROSS_CHECK_EVERY) % len(medium)]
                ops.append(("cross-check", self.copy(m.rows), self.copy(m.rows)))
        return ops
