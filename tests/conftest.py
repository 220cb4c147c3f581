import random
import string

import pytest

from shiftmorita.shift import TransitionMatrix, parse_matrix

DIAMOND_TEXT = "a b c\n110\n011\n111"


@pytest.fixture(scope="session")
def diamond() -> TransitionMatrix:
    """Three-letter running example whose class order is a diamond."""
    return parse_matrix(DIAMOND_TEXT)


@pytest.fixture(scope="session")
def diamond_graph(diamond):
    from shiftmorita.labelled_graph import build_graph

    return build_graph(diamond)


def mx(text: str) -> TransitionMatrix:
    return parse_matrix(text)


def seeded_matrices(
    seed: int = 7,
    letters=(4, 5, 6, 7),
    densities=(0.3, 0.5, 0.7, 0.85),
    per_cell: int = 10,
) -> list[TransitionMatrix]:
    """A fixed sample of random matrices: ``per_cell`` of each letter count
    at each density (the chance that a transition is allowed).  A row left
    empty gets one random letter.  Symbols are lowercase letters, so up to
    26 letters."""
    rng = random.Random(seed)
    out = []
    for n in letters:
        for d in densities:
            for _ in range(per_cell):
                rows = []
                for _a in range(n):
                    r = sum(1 << b for b in range(n) if rng.random() < d)
                    rows.append(r or 1 << rng.randrange(n))
                symbols = tuple(string.ascii_lowercase[:n])
                out.append(TransitionMatrix(symbols, tuple(rows)))
    return out
