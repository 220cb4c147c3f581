"""Command-line interface.

Exit codes: 0 success or equivalent, 1 negative verdict, 2 usage or parse
error, 3 internal invariant violation.  All reports are deterministic
``key: value`` text; ``--json`` mirrors them as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core_order import cached_order
from .decide import decide_morita
from .hull import HullIdempotent
from .labelled_graph import build_graph, fmt_label, to_dot
from .lgis import TableSizeError, run_axiom_suite
from .oracle import Oracle
from .shift import InvariantViolation, MatrixFormatError, parse_matrix
from .smorita import build_cd


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_matrix(fh.read())
    except (OSError, UnicodeDecodeError) as ex:
        raise MatrixFormatError(f"cannot read {path}: {ex}") from ex


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for key, value in report.items():
        if isinstance(value, list):
            print(f"{key}:")
            for item in value:
                print(f"  {item}")
        else:
            print(f"{key}: {value}")


def cmd_fgraph(args) -> int:
    T = _load(args.file)
    G = build_graph(T)
    report = {
        "vertices": [G.vertex_name(v) for v in G.vertices],
        "vertex count": len(G.vertices),
        "order hasse": [
            f"{T.fmt_vec(a)} < {T.fmt_vec(b)}" for a, b in G.order.hasse()
        ],
        "labels": [
            f"{G.label_names[lab]} = {fmt_label(T, lab)}" for lab in G.labels
        ],
        "label count": len(G.labels),
        "edges": [
            f"{G.label_names[e.label]}: {G.vertex_name(e.source)} -> "
            f"{G.vertex_name(e.range)}"
            for e in G.edges
        ],
        "edge count": len(G.edges),
    }
    _emit(report, args.json)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(to_dot(G))
        except OSError as ex:
            print(f"error: cannot write {args.dot}: {ex}", file=sys.stderr)
            return 2
    return 0


def cmd_order(args) -> int:
    T = _load(args.file)
    order = cached_order(T)
    meets = []
    for a in order.classes:
        for b in order.classes:
            m = order.meet(a, b)
            meets.append(
                f"{T.fmt_vec(a)} ^ {T.fmt_vec(b)} = "
                + ("0" if m is None else T.fmt_vec(m))
            )
    report = {
        "classes": [T.fmt_vec(v) for v in order.classes],
        "class count": len(order.classes),
        "hasse": [f"{T.fmt_vec(a)} < {T.fmt_vec(b)}" for a, b in order.hasse()],
        "meets": meets,
    }
    _emit(report, args.json)
    return 0


def cmd_cores(args) -> int:
    T = _load(args.file)
    order = cached_order(T)
    report = {
        "cores": [
            f"{T.fmt_vec(v)}: "
            + " ".join(T.fmt_vec(u) for u in sorted(order.cores[v]))
            for v in order.classes
        ]
    }
    _emit(report, args.json)
    return 0


def cmd_cd(args) -> int:
    T = _load(args.file)
    cd = build_cd(T)
    products = []
    for x in cd.elements:
        for y in cd.elements:
            products.append(
                f"{cd.fmt(x)} * {cd.fmt(y)} = {cd.fmt(cd.product(x, y))}"
            )
    report = {
        "C": [cd.fmt(x) for x in cd.C],
        "Cll": [cd.fmt(x) for x in cd.Cll],
        "products": products,
    }
    _emit(report, args.json)
    return 0


def cmd_lgis_check(args) -> int:
    if args.maxlen < 0:
        print("lgis path length bound must be >= 0", file=sys.stderr)
        return 2
    T = _load(args.file)
    try:
        res = run_axiom_suite(build_graph(T), maxlen=args.maxlen)
    except TableSizeError as ex:
        print(f"error: {ex}; try a smaller --maxlen", file=sys.stderr)
        return 2
    report = dict(res)
    report["verdict"] = "PASS" if res["ok"] else "FAIL"
    _emit(report, args.json)
    return 0 if res["ok"] else 1


class _MismatchedOracle(Oracle):
    """Negative control: each idempotent is checked against the domain
    predicted for its word with the complementary letter set."""

    def predicted_domain(self, e: HullIdempotent) -> set:
        other = HullIdempotent(e.word, e.vec ^ (1 << self.T.n) - 1)
        return super().predicted_domain(other)


def cmd_oracle_check(args) -> int:
    from .sweeps import oracle_failures

    if args.depth < 4:
        print("oracle depth must be >= 4", file=sys.stderr)
        return 2
    T = _load(args.file)
    try:
        oracle = (_MismatchedOracle if args.corrupt else Oracle)(T, args.depth)
    except ValueError as ex:
        print(f"error: {ex}; try a smaller --depth", file=sys.stderr)
        return 2
    fails = oracle_failures(T, oracle)
    for msg in fails:
        print(f"MISMATCH: {msg}")
    print(f"oracle sweep at depth {args.depth}: {'MISMATCH' if fails else 'ok'}")
    print(f"failures: {len(fails)}")
    return 1 if fails else 0


def cmd_decide(args) -> int:
    T1, T2 = _load(args.file1), _load(args.file2)
    verdict = decide_morita(T1, T2, cross_check=args.cross_check)
    if verdict.equivalent:
        print("EQUIVALENT")
        for a, b in verdict.witness.vertex_map:
            print(f"vertex: {T1.fmt_vec(a)} -> {T2.fmt_vec(b)}")
        for l1, l2 in verdict.witness.label_map:
            print(f"label: {fmt_label(T1, l1)} -> {fmt_label(T2, l2)}")
        return 0
    print("NOT EQUIVALENT")
    print(f"certificate: {verdict.certificate}")
    return 1


def cmd_selftest(args) -> int:
    from . import sweeps

    if not 1 <= args.max_letters <= len(sweeps.SYMBOLS):
        print(f"selftest letter bound must be 1..{len(sweeps.SYMBOLS)}", file=sys.stderr)
        return 2
    if args.random_count < 0:
        print("selftest random count must be >= 0", file=sys.stderr)
        return 2
    mats = list(sweeps.all_matrices(args.max_letters))
    suites = [
        ("oracle", sweeps.sweep_oracle),
        ("order", sweeps.sweep_order),
        ("conjugate-cores", sweeps.sweep_conjugate_cores),
        ("lgis-axioms", sweeps.sweep_lgis),
        ("coherence-cd", sweeps.sweep_cd),
    ]
    failed = 0
    for name, fn in suites:
        fails = [msg for T in mats for msg in fn(T)]
        print(f"{name}: {'PASS' if not fails else 'FAIL'} ({len(mats)} matrices)")
        for msg in fails[:10]:
            print(f"  {msg}")
        failed += bool(fails)
    fails, total, eq = sweeps.sweep_decision_pairs(mats)
    print(
        f"decision-pairs: {'PASS' if not fails else 'FAIL'} "
        f"({total} pairs, {eq} equivalent)"
    )
    failed += bool(fails)
    fails = sweeps.sweep_symmetry(args.random_count)
    print(f"symmetry: {'PASS' if not fails else 'FAIL'} ({args.random_count} samples)")
    failed += bool(fails)
    return 1 if failed else 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftmorita",
        description="Labelled-graph Morita invariant of Markov shift inverse hulls",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fgraph", help="build and print the labelled graph")
    p.add_argument("file")
    p.add_argument("--dot", help="write DOT to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_fgraph)

    p = sub.add_parser("order", help="print classes, Hasse covers, meet table")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("cores", help="print the core of each class")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cores)

    p = sub.add_parser("cd", help="print the combinatorial data and products")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cd)

    p = sub.add_parser("lgis-check", help="run the semigroup axiom suite")
    p.add_argument("file")
    p.add_argument("--maxlen", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_lgis_check)

    p = sub.add_parser("oracle-check", help="validate canonical forms against the oracle")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="negative control: compare against mismatched predictions",
    )
    p.set_defaults(fn=cmd_oracle_check)

    p = sub.add_parser("decide", help="decide Morita equivalence of two shifts")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("selftest", help="run the exhaustive small-alphabet sweeps")
    p.add_argument("--max-letters", type=int, default=3)
    p.add_argument("--random-count", type=int, default=100)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MatrixFormatError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except InvariantViolation as ex:
        print(f"internal invariant violation: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
