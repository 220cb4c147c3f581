"""Tests of the benchmark's own references and input generation.

    python3 -m pytest bench/test_ladder.py
"""

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ladder import Inputs, all_rows, build_ladders, class_count, relabel  # noqa: E402
from shiftmorita.shift import TransitionMatrix, f_classes  # noqa: E402
from shiftmorita.sweeps import permuted_copy  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = all_rows(3)


def test_all_small_matrices_enumerated():
    assert len(SMALL) == len(set(SMALL)) == 353


def test_class_count_matches_f_classes():
    for rows in SMALL:
        T = TransitionMatrix(tuple("abc"[: len(rows)]), rows)
        assert class_count(rows) == len(f_classes(T)), rows


def test_relabel_matches_permuted_copy():
    for rows in SMALL:
        T = TransitionMatrix(tuple("abc"[: len(rows)]), rows)
        for perm in itertools.permutations(range(len(rows))):
            assert relabel(rows, list(perm)) == permuted_copy(T, list(perm)).rows


def rounds(workload: str, seed: int, count: int = 2) -> list:
    draw, _ = WORKLOADS[workload]
    inputs = Inputs(build_ladders(), seed)
    return [draw(inputs) for _ in range(count)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_repeat_for_one_seed(workload):
    assert rounds(workload, 7) == rounds(workload, 7)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_differ_across_seeds(workload):
    assert rounds(workload, 7) != rounds(workload, 8)
