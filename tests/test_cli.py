import hashlib
import io
import json
import os
import random
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings

from shiftmorita.cli import main
from shiftmorita.sweeps import all_matrices, permuted_copy

from conftest import DIAMOND_TEXT
from test_shift import decorated_texts


@pytest.fixture()
def matrix_file(tmp_path):
    p = tmp_path / "diamond.mx"
    p.write_text(DIAMOND_TEXT + "\n")
    return str(p)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestFgraph:
    def test_diamond_report(self, matrix_file, capsys):
        assert main(["fgraph", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "vertex count: 4" in out
        assert "label count: 3" in out
        assert "edge count: 8" in out

    def test_deterministic(self, matrix_file, capsys):
        main(["fgraph", matrix_file])
        first = capsys.readouterr().out
        main(["fgraph", matrix_file])
        assert capsys.readouterr().out == first

    def test_json_mirror(self, matrix_file, capsys):
        assert main(["fgraph", matrix_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["vertex count"] == 4
        assert len(data["edges"]) == 8

    def test_dot_output(self, matrix_file, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        assert main(["fgraph", matrix_file, "--dot", str(dot)]) == 0
        capsys.readouterr()
        assert dot.read_text().count("->") == 8

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.mx", "a b\n10\n00\n")
        assert main(["fgraph", bad]) == 2
        assert "zero row" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["fgraph", "/nonexistent.mx"]) == 2

    def test_undecodable_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mx"
        bad.write_bytes(b"\xff\xfe\x00\x01")
        assert main(["fgraph", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: ") and err.count("\n") == 1

    def test_unwritable_dot_exit_2(self, matrix_file, tmp_path, capsys):
        dot = tmp_path / "missing" / "x.dot"
        assert main(["fgraph", matrix_file, "--dot", str(dot)]) == 2
        captured = capsys.readouterr()
        assert "vertex count: 4" in captured.out
        assert captured.err.startswith(f"error: cannot write {dot}: ")
        assert captured.err.count("\n") == 1

    @settings(max_examples=40, deadline=None)
    @given(decorated_texts(max_letters=3))
    def test_decorated_file_gives_the_clean_report_or_exit_2(self, case):
        T, text, strict = case
        clean = " ".join(T.symbols) + "\n" + "\n".join(
            "".join("1" if r >> j & 1 else "0" for j in range(T.n)) for r in T.rows
        )
        with tempfile.TemporaryDirectory() as tmp:
            reports = []
            for name, body in (("clean.mx", clean), ("decorated.mx", text)):
                path = os.path.join(tmp, name)
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(body)
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(["fgraph", path])
                reports.append((code, out.getvalue()))
        if reports[1][0] == 2:
            assert not strict and err.getvalue().startswith("error: ")
        else:
            assert reports[0][0] == 0 and reports[1] == reports[0]


class TestOrderCommand:
    def test_report(self, matrix_file, capsys):
        assert main(["order", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "{b} < {a,b}" in out
        assert "{a,b} ^ {b,c} = {b}" in out


class TestCoresCommand:
    def test_report(self, matrix_file, capsys):
        assert main(["cores", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "{a,b,c}: {b} {a,b} {b,c} {a,b,c}" in out


class TestCdCommand:
    def test_report(self, matrix_file, capsys):
        assert main(["cd", matrix_file]) == 0
        out = capsys.readouterr().out
        assert out.count("[{") > 7
        assert "Cll:" in out


class TestLgisCheck:
    def test_pass(self, matrix_file, capsys):
        assert main(["lgis-check", matrix_file, "--maxlen", "1"]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_json_report(self, matrix_file, capsys):
        assert main(["lgis-check", matrix_file, "--json"]) == 0
        checks = [
            "associativity", "associativity_sampled_deep", "combinatorial",
            "commuting_idempotents", "green_D", "green_L", "green_R",
            "idempotent_shape", "leq_agreement", "ok", "strongly_resolving",
            "unique_inverses", "weakly_resolving", "zero_e_unitary",
        ]
        want = dict.fromkeys(checks, True)
        want.update(elements=251, universe=20985, verdict="PASS")
        assert json.loads(capsys.readouterr().out) == want

    def test_negative_maxlen_exit_2(self, matrix_file, capsys):
        assert main(["lgis-check", matrix_file, "--maxlen", "-1"]) == 2
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        assert ">= 0" in captured.err


    def test_table_over_the_size_limit_exit_2(self, matrix_file, capsys):
        # 8 211 elements at path length <= 4: the first table, 8 211 x 8 211
        # cells, is over the limit, so none is allocated
        assert main(["lgis-check", matrix_file, "--maxlen", "4"]) == 2
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        assert "a product table has more than 16777216 cells" in captured.err

    @pytest.mark.parametrize("maxlen, n", [(5, 25051596), (6, 400798156)])
    def test_large_table_refused_before_any_path_is_listed(
        self, tmp_path, capsys, monkeypatch, maxlen, n
    ):
        """J-I over 5 letters (every letter may follow every other one):
        the element count alone refuses it, and stops below the full
        count n."""
        from shiftmorita.labelled_graph import build_graph
        from shiftmorita.lgis import LgisEngine
        from shiftmorita.shift import parse_matrix

        def refuse(self, maxlen):
            raise AssertionError("listed")

        monkeypatch.setattr(LgisEngine, "enumerate_elements", refuse)
        monkeypatch.setattr(LgisEngine, "paths", refuse)
        rows = "\n".join("".join("0" if i == j else "1" for j in range(5)) for i in range(5))
        text = "a b c d e\n" + rows + "\n"
        assert main(["lgis-check", write(tmp_path, "ji5.mx", text), "--maxlen", str(maxlen)]) == 2
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        assert "a product table has more than 16777216 cells" in captured.err
        assert 4096 < LgisEngine(build_graph(parse_matrix(text))).count_elements(maxlen) < n

    def test_count_too_long_to_print_names_the_bound(self, matrix_file, capsys):
        # at path length <= 20 000 the diamond's full element count has more
        # digits than Python converts to a string; the count stops early
        assert main(["lgis-check", matrix_file, "--maxlen", "20000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "more than 16777216 cells" in captured.err
        assert "Traceback" not in captured.err

    def test_refusal_at_a_huge_maxlen_is_quick(self, tmp_path, capsys):
        # the one-letter shift has one path per length, so the element count
        # passes its bound near length 63 and stops there
        f = write(tmp_path, "a.mx", "a\n1\n")
        start = time.perf_counter()
        assert main(["lgis-check", f, "--maxlen", "100000000"]) == 2
        assert time.perf_counter() - start < 2
        assert "a product table has more than 16777216 cells" in capsys.readouterr().err


class TestOracleCheck:
    def test_pass(self, matrix_file, capsys):
        assert main(["oracle-check", matrix_file, "--depth", "5"]) == 0
        out = capsys.readouterr().out
        assert "failures: 0" in out

    def test_depth_too_small_exit_2(self, matrix_file, capsys):
        assert main(["oracle-check", matrix_file, "--depth", "3"]) == 2

    def test_depth_over_the_word_bound_exit_2(self, matrix_file, capsys, monkeypatch):
        from shiftmorita import oracle

        def refuse(T, depth):
            raise AssertionError("words listed")

        monkeypatch.setattr(oracle, "allowed_words", refuse)
        assert main(["oracle-check", matrix_file, "--depth", "40"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: depth 40 allows more than 131072 words")

    def test_word_count_too_long_to_print_names_the_bound(self, matrix_file, capsys):
        # at depth 20 000 the diamond's full word count has more digits than
        # Python converts to a string; the count stops early
        assert main(["oracle-check", matrix_file, "--depth", "20000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: depth 20000 allows more than 131072 words")
        assert "Traceback" not in captured.err

    def test_refusal_at_a_huge_depth_is_quick(self, tmp_path, capsys):
        # the one-letter shift allows one word per length, so the word count
        # passes its bound at length 131 073 and stops there
        f = write(tmp_path, "a.mx", "a\n1\n")
        start = time.perf_counter()
        assert main(["oracle-check", f, "--depth", "100000000"]) == 2
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().err.startswith("error: depth 100000000 allows more than 131072 words")

    def test_corrupt_negative_control_exit_1(self, matrix_file, capsys):
        assert main(["oracle-check", matrix_file, "--corrupt"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_single_letter_shift(self, tmp_path, capsys):
        f = write(tmp_path, "one.mx", "a\n1\n")
        assert main(["oracle-check", f, "--depth", "4"]) == 0


class TestDecideCommand:
    def test_equivalent_exit_0(self, matrix_file, capsys):
        assert main(["decide", matrix_file, matrix_file]) == 0
        assert capsys.readouterr().out.startswith("EQUIVALENT")

    def test_not_equivalent_exit_1(self, tmp_path, capsys):
        f2 = write(tmp_path, "f2.mx", "a b\n11\n11\n")
        f3 = write(tmp_path, "f3.mx", "a b c\n111\n111\n111\n")
        assert main(["decide", f2, f3]) == 1
        out = capsys.readouterr().out
        assert out.startswith("NOT EQUIVALENT")
        assert "certificate" in out

    def test_cross_check_flag(self, matrix_file, capsys):
        assert main(["decide", matrix_file, matrix_file, "--cross-check"]) == 0


class TestSelftest:
    def test_tiny_sweep(self, capsys):
        assert main(["selftest", "--max-letters", "1", "--random-count", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7

    def test_a_failing_sweep_prints_its_lines(self, monkeypatch, capsys):
        """Every core in a conjugated corner left empty: the one-letter
        shift's corner at word a fails, and its line is printed under the
        sweep's FAIL."""
        from shiftmorita import sweeps
        from shiftmorita.reference import core_of_at

        monkeypatch.setattr(
            sweeps, "core_of_at",
            lambda T, word, vec, *rules: frozenset() if word else core_of_at(T, word, vec, *rules),
        )
        assert main(["selftest", "--max-letters", "1", "--random-count", "0"]) == 1
        assert capsys.readouterr().out == (
            "oracle: PASS (1 matrices)\n"
            "order: PASS (1 matrices)\n"
            "conjugate-cores: FAIL (1 matrices)\n"
            "  conjugated core differs at word a, class {a}\n"
            "lgis-axioms: PASS (1 matrices)\n"
            "coherence-cd: PASS (1 matrices)\n"
            "decision-pairs: PASS (0 pairs, 0 equivalent)\n"
            "symmetry: PASS (0 samples)\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--max-letters", "5"], "letter bound must be 1..4"),
            (["--max-letters", "0"], "letter bound must be 1..4"),
            (["--max-letters", "1", "--random-count", "-3"], "random count must be >= 0"),
        ],
    )
    def test_out_of_range_arguments_exit_2(self, argv, message, capsys):
        assert main(["selftest", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"selftest {message}\n"


class TestUsage:
    def test_unknown_flag_exit_2(self, matrix_file):
        with pytest.raises(SystemExit) as exc:
            main(["fgraph", matrix_file, "--bogus"])
        assert exc.value.code == 2

    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_invariant_violation_exit_3(self, matrix_file, monkeypatch, capsys):
        import shiftmorita.cli as cli
        from shiftmorita.shift import InvariantViolation

        def boom(args):
            raise InvariantViolation("synthetic failure")

        monkeypatch.setattr(cli, "cmd_order", boom)
        assert main(["order", matrix_file]) == 3
        assert "invariant" in capsys.readouterr().err


def matrix_text(T) -> str:
    return " ".join(T.symbols) + "\n" + "".join(
        "".join("1" if r >> j & 1 else "0" for j in range(T.n)) + "\n" for r in T.rows
    )


class TestGoldenDigest:
    # SHA-256 of the transcript below, recorded before the value types,
    # the bitset label covers and the lazy pairs/cores; any change to a
    # report or an exit code changes it
    DIGEST = "b44536ee93eaa17a9bcd958e690b64fc84cc705d6c492dada79ef64beacf5255"

    def test_reports_match_the_recorded_digest(self, tmp_path):
        """``fgraph``, ``order --json``, ``cores`` and ``cd`` on every matrix
        with at most 2 letters and a seeded sample of 3-letter ones, and
        ``decide`` (plain and ``--cross-check``) of each against its
        letter-reversed copy and against the matrix before it."""
        three = [T for T in all_matrices(3) if T.n == 3]
        mats = [*all_matrices(2), *random.Random(14).sample(three, 30)]
        paths = []
        for i, T in enumerate(mats):
            paths.append((
                write(tmp_path, f"m{i}.mx", matrix_text(T)),
                write(tmp_path, f"r{i}.mx", matrix_text(
                    permuted_copy(T, list(range(T.n))[::-1])
                )),
            ))
        digest = hashlib.sha256()
        for i, (path, rev) in enumerate(paths):
            prev = paths[i - 1][0]
            runs = [
                ["fgraph", path], ["order", path, "--json"], ["cores", path],
                ["cd", path], ["decide", path, rev], ["decide", path, prev],
                ["decide", path, rev, "--cross-check"],
                ["decide", path, prev, "--cross-check"],
            ]
            for argv in runs:
                out = io.StringIO()
                with redirect_stdout(out):
                    code = main(argv)
                digest.update(f"{i} {argv[0]} {code}\n{out.getvalue()}".encode())
        assert digest.hexdigest() == self.DIGEST
