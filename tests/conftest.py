import random
import string

import pytest
from hypothesis import assume, strategies as st

from shiftmorita.shift import TransitionMatrix, f_classes, parse_matrix

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


@st.composite
def relabelled_matrices(draw, max_classes=40):
    """A 4-6-letter matrix with at most ``max_classes`` classes and a
    permutation of its letters.  The first k rows are those of the J-I
    family, the full mask less the row's own letter, which give it its
    2^k - 2 classes; the others are any nonzero masks."""
    n = draw(st.integers(4, 6))
    k = draw(st.integers(0, n))
    full = (1 << n) - 1
    rest = draw(st.lists(st.integers(1, full), min_size=n - k, max_size=n - k))
    rows = tuple(full & ~(1 << i) for i in range(k)) + tuple(rest)
    T = TransitionMatrix(tuple("abcdef"[:n]), rows)
    assume(len(f_classes(T)) <= max_classes)
    return T, list(draw(st.permutations(range(n))))


def reference_build_graph(T):
    """The labels and edges by the rule as stated: every cover of each
    vertex's representative (``covers_below``), less the F-type ones whose
    class is below the vertex, each with one edge from every vertex at or
    below the cover's class (``CoreOrder.below``).  Returned as two tuples,
    not as a ``LabelledGraph``, so that the graph's derived edges are
    compared with a tuple built here."""
    from shiftmorita.core_order import cached_order
    from shiftmorita.hull import dclass_rep
    from shiftmorita.labelled_graph import Edge, Label
    from shiftmorita.reference import covers_below

    order = cached_order(T)
    labels, edges = [], []
    for a in order.classes:
        for f in covers_below(T, a):
            if not f.word and order.leq(f.vec, a):
                continue
            lab = Label(a, f)
            labels.append(lab)
            edges.extend(Edge(a, lab, b) for b in order.below(dclass_rep(f)))
    return tuple(labels), tuple(edges)
