"""The three workloads: their ops and the checks on each op's output.

A workload hands out rounds.  A round is a fixed list of ops built from one
draw of ``ladder.Inputs``; ``op(i)`` runs op i through the library and
keeps its output, and ``check()`` then returns one failure message (or
None) per op.  Checks run after the timed loop and use references the ops
do not: the benchmark's own class counter, ``verify_witness`` on every
claimed isomorphism, and the combinatorial-data (CD) isomorphism search.
"""

from __future__ import annotations

from ladder import Inputs, class_count


def matrix(lib, m):
    return lib.shift.TransitionMatrix(*m)


def witness_failure(lib, T1, T2, verdict) -> "str | None":
    """None when ``verdict`` is EQUIVALENT with a witness that
    ``verify_witness`` accepts on freshly built graphs."""
    if not verdict.equivalent:
        return f"relabelled pair decided NOT EQUIVALENT ({verdict.certificate})"
    G1 = lib.labelled_graph.build_graph(T1)
    G2 = lib.labelled_graph.build_graph(T2)
    if not lib.decide.verify_witness(G1, G2, verdict.witness):
        return "witness rejected by verify_witness"
    return None


class Round:
    """Ops whose outputs are kept for the check; an op that raised keeps
    its exception instead."""

    def __init__(self, lib, payload):
        self.lib = lib
        self.payload = payload
        self.out: list = [None] * len(payload)

    def __len__(self) -> int:
        return len(self.payload)

    def check(self) -> list["str | None"]:
        fails = []
        for i, out in enumerate(self.out):
            if isinstance(out, Exception):
                fails.append(f"raised {type(out).__name__}: {out}")
                continue
            try:
                fails.append(self.check_op(i))
            except Exception as ex:  # a check that cannot complete fails its op
                fails.append(f"check raised {type(ex).__name__}: {ex}")
        return fails

    def check_op(self, i: int) -> "str | None":
        raise NotImplementedError


class DecideRound(Round):
    """``decide_morita`` on pairs the process has never seen."""

    def __init__(self, lib, payload):
        super().__init__(lib, payload)
        self.pairs = [(kind, matrix(lib, a), matrix(lib, b)) for kind, a, b in payload]

    def op(self, i: int) -> None:
        _, T1, T2 = self.pairs[i]
        self.out[i] = self.lib.decide.decide_morita(T1, T2)

    def check_op(self, i: int) -> "str | None":
        kind, T1, T2 = self.pairs[i]
        verdict = self.out[i]
        if kind == "relabelled":
            return witness_failure(self.lib, T1, T2, verdict)
        if class_count(T1.rows) != class_count(T2.rows):
            if verdict.equivalent:
                return "pair with different class counts decided EQUIVALENT"
            return None
        s = self.lib.smorita
        if verdict.equivalent != (s.cd_isomorphic(s.build_cd(T1), s.build_cd(T2)) is not None):
            return "graph verdict disagrees with the CD isomorphism search"
        if verdict.equivalent:
            return witness_failure(self.lib, T1, T2, verdict)
        return None


class LibraryRound(Round):
    """Greedy bucketing: each matrix is compared with one representative
    per existing bucket until one is equivalent, else it opens a bucket."""

    def __init__(self, lib, payload):
        super().__init__(lib, payload)
        self.matrices = [matrix(lib, m) for _, m in payload]
        self.reps: list[int] = []

    def op(self, i: int) -> None:
        T = self.matrices[i]
        for b, r in enumerate(self.reps):
            if self.lib.decide.decide_morita(T, self.matrices[r]).equivalent:
                self.out[i] = b
                return
        self.reps.append(i)
        self.out[i] = len(self.reps) - 1

    def check(self) -> list["str | None"]:
        fails = super().check()
        home: dict[int, int] = {}
        for i, (base, _) in enumerate(self.payload):
            if fails[i] is None and home.setdefault(base, self.out[i]) != self.out[i]:
                fails[i] = "copy landed outside its base's bucket"
        s = self.lib.smorita
        cds = [s.build_cd(self.matrices[r]) for r in self.reps]
        for j, rj in enumerate(self.reps):
            if any(s.cd_isomorphic(cd, cds[j]) is not None for cd in cds[:j]):
                fails[rj] = "bucket representative CD-isomorphic to an earlier one"
        return fails

    def check_op(self, i: int) -> "str | None":
        return None


class VerifyRound(Round):
    """Per small matrix: the axiom suite on its labelled graph, the oracle
    sweep and the coherence check; between them, cross-checked decides of
    a medium matrix against a relabelling of itself."""

    def __init__(self, lib, payload):
        super().__init__(lib, payload)
        self.ops = [
            (kind, matrix(lib, a), b and matrix(lib, b)) for kind, a, b in payload
        ]

    def op(self, i: int) -> None:
        kind, T1, T2 = self.ops[i]
        lib = self.lib
        if kind == "cross-check":
            self.out[i] = lib.decide.decide_morita(T1, T2, cross_check=True)
            return
        suite = lib.lgis.run_axiom_suite(lib.labelled_graph.build_graph(T1))
        self.out[i] = (suite, lib.sweeps.sweep_oracle(T1), lib.smorita.coherent_check(T1))

    def check_op(self, i: int) -> "str | None":
        kind, T1, T2 = self.ops[i]
        if kind == "cross-check":
            return witness_failure(self.lib, T1, T2, self.out[i])
        suite, oracle_fails, coherent = self.out[i]
        broken = [k for k, v in suite.items() if isinstance(v, bool) and not v]
        if broken:
            return f"axioms failed: {broken}"
        if oracle_fails:
            return f"oracle sweep failed: {oracle_fails[:3]}"
        if coherent is not True:
            return "coherent_check failed"
        return None


# name -> (draws one round's inputs, runs and checks that round)
WORKLOADS = {
    "decide-fresh": (Inputs.decide_round, DecideRound),
    "classify-library": (Inputs.library_round, LibraryRound),
    "verify-suite": (Inputs.verify_round, VerifyRound),
}
