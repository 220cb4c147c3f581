"""Benchmark of the shiftmorita library through its public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, closed loop: each op starts when the previous one
has returned.  Ops run in rounds (see ``ladder.Inputs``), and the loop stops
at the first round boundary after ``--seconds`` once at least 100 ops are
done, so every run does whole rounds.  Every op's output is checked after the loop.

With ``--trace 0`` the run reports the end-to-end metrics declared in
BENCHMARK.json.  With ``--trace 1`` it runs every round twice, untraced and
traced, each on its own import of the library, and reports the per-layer
metrics, the tracing overhead (traced over untraced op time) and the share
of op time inside layer spans; it then decides a few pairs through
``cli.main`` and through the library.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy  # noqa: F401  (the library imports it lazily, inside the first axiom suite)

from ladder import Inputs, build_ladders, class_count
from spans import Tracer, layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MODULES = (
    "shift", "hull", "core_order", "labelled_graph", "decide",
    "smorita", "lgis", "oracle", "sweeps", "cli",
)
SETUP_REPEATS = 5  # before the timed loop, and again after the checks
RSS_ROUNDS = 2  # peak RSS is read after this many rounds, so runs compare
MIN_OPS = 100  # so that op_p90_ms has at least ten ops beyond it
PROBE_PAIRS = 2  # of each kind, relabelled and independent


def load_library() -> SimpleNamespace:
    """Import the library afresh from the checkout: new modules, so new
    (empty) matrix-keyed caches."""
    for name in [m for m in sys.modules if m.split(".")[0] == "shiftmorita"]:
        del sys.modules[name]
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    return SimpleNamespace(
        shiftmorita=importlib.import_module("shiftmorita"),
        **{m: importlib.import_module(f"shiftmorita.{m}") for m in MODULES},
    )


def activate(lib) -> None:
    """Make ``lib`` the imported library again, for imports the library
    runs at call time (``decide_morita`` imports ``smorita`` that way)."""
    for name, module in vars(lib).items():
        key = "shiftmorita" if name == "shiftmorita" else f"shiftmorita.{name}"
        sys.modules[key] = module


def setup(workload: str, seed: int):
    """Import plus input generation up to the first round; returns its
    time with the library, the input stream and the first round's input."""
    t0 = perf_counter()
    lib = load_library()
    draw, make_round = WORKLOADS[workload]
    inputs = Inputs(build_ladders(), seed)
    first = draw(inputs)
    make_round(lib, first)
    return perf_counter() - t0, lib, inputs, first


def measure(lib, make_round, payloads, seconds=None, tracer=None, min_ops=0):
    """Run rounds from ``payloads`` (an iterator of round inputs) until
    ``seconds`` have passed and ``min_ops`` ops are done, or until it is
    exhausted.  Returns the rounds,
    each round's op times, and the peak RSS after each round; with a
    tracer, op i of round ``rnd`` runs under op id (rnd, i)."""
    rounds, times, rss = [], [], []
    start = perf_counter()
    for payload in payloads:
        rnd = make_round(lib, payload)
        took = []
        for i in range(len(rnd)):
            if tracer is not None:
                tracer.op = (rnd, i)
            t0 = perf_counter()
            try:
                rnd.op(i)
            except Exception as ex:  # an op that raised is a failed op
                rnd.out[i] = ex
            took.append(perf_counter() - t0)
        rounds.append(rnd)
        times.append(took)
        rss.append(peak_rss_mb())
        done = sum(map(len, times)) >= min_ops
        if seconds is not None and done and perf_counter() - start >= seconds:
            break
    if tracer is not None:
        tracer.op = None
    return rounds, times, rss


def stream(first, inputs, draw):
    yield first
    while True:
        yield draw(inputs)


def check(rounds) -> list[str]:
    return [f for rnd in rounds for f in rnd.check() if f is not None]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(args) -> tuple[dict, int, list[str]]:
    draw, make_round = WORKLOADS[args.workload]
    # each set-up imports the library afresh; the last one before the loop
    # is the one run.  Set-ups after the checks sample the machine half a
    # minute later: set-up is short, and the machine's speed drifts.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        took, lib, inputs, first = setup(args.workload, args.seed)
        setup_times.append(took)
    rounds, round_times, rss = measure(
        lib, make_round, stream(first, inputs, draw), seconds=args.seconds,
        min_ops=MIN_OPS,
    )
    fails = check(rounds)
    setup_times += [setup(args.workload, args.seed)[0] for _ in range(SETUP_REPEATS)]
    times = [t for took in round_times for t in took]
    n = len(times)
    deciles = statistics.quantiles(times, n=10)
    print(f"# {n} ops in {len(rounds)} rounds; p50 and p90 over all {n} ops")
    print(f"# error_rate {len(fails) / n:.6f} ratio ({len(fails)} of {n} ops)")
    metrics = {
        "ops_per_s": (statistics.median(len(t) / sum(t) for t in round_times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1000, "ms"),
        "op_p90_ms": (deciles[8] * 1000, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss[min(RSS_ROUNDS, len(rss)) - 1], "MB"),
        "ok_ratio": (1 - len(fails) / n, "ratio"),
    }
    return metrics, n, fails


def write_matrix(path: Path, T) -> None:
    rows = ["".join(str(r >> j & 1) for j in range(T.n)) for r in T.rows]
    path.write_text(" ".join(T.symbols) + "\n" + "\n".join(rows) + "\n")


def cli_probe(lib, inputs) -> tuple[dict, int, list[str]]:
    """Decide a few decide-fresh pairs through the library and, under
    other letter names (so that both start with cold caches), through
    ``cli.main(["decide", f1, f2])``; the exit code must match the
    library's verdict."""
    picked: dict[str, list] = {"relabelled": [], "independent": []}
    for kind, a, b in inputs.decide_round():
        if max(class_count(a[1]), class_count(b[1])) <= 16:
            if len(picked[kind]) < PROBE_PAIRS:
                picked[kind].append((a, b))
    pairs = picked["relabelled"] + picked["independent"]
    lib_ms, cli_ms, fails = [], [], []
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".probe-") as tmp:
        for k, (a, b) in enumerate(pairs):
            T1, T2 = lib.shift.TransitionMatrix(*a), lib.shift.TransitionMatrix(*b)
            t0 = perf_counter()
            verdict = lib.decide.decide_morita(T1, T2)
            lib_ms.append((perf_counter() - t0) * 1000)
            files = []
            for j, (symbols, rows) in enumerate((a, b)):
                path = Path(tmp) / f"pair{k}-{j}.mx"
                renamed = tuple(s + "x" for s in symbols)
                write_matrix(path, lib.shift.TransitionMatrix(renamed, rows))
                files.append(str(path))
            sink = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = lib.cli.main(["decide", *files])
            cli_ms.append((perf_counter() - t0) * 1000)
            if code != (0 if verdict.equivalent else 1):
                fails.append(f"cli decide exit {code} disagrees with the library")
    metrics = {
        "cli.decide_ms": (statistics.mean(cli_ms), "ms"),
        "cli.library_decide_ms": (statistics.mean(lib_ms), "ms"),
    }
    return metrics, len(pairs), fails


def per_layer(args) -> tuple[dict, int, list[str]]:
    """Every round runs twice, on two imports of the library: untraced, and
    traced.  The two alternate which goes first, over at least two rounds,
    so that the machine's drift falls on both alike."""
    draw, make_round = WORKLOADS[args.workload]
    _, plain_lib, inputs, first = setup(args.workload, args.seed)
    traced_lib = load_library()
    tracer = Tracer()
    info = traced_lib.core_order.cached_order.cache_info
    plain, plain_times, traced, traced_times = [], [], [], []
    start = perf_counter()
    with tracer.installed(traced_lib):
        for payload in stream(first, inputs, draw):
            runs = [(plain_lib, None, plain, plain_times),
                    (traced_lib, tracer, traced, traced_times)]
            if len(plain) % 2:
                runs.reverse()
            for lib, tr, rounds, times in runs:
                activate(lib)
                rnd, took, _ = measure(lib, make_round, [payload], tracer=tr)
                rounds += rnd
                times += took
            if len(plain) >= 2 and perf_counter() - start >= args.seconds:
                break
    hits, misses = info().hits, info().misses
    op_times = {
        (rnd, i): t
        for rnd, took in zip(traced, traced_times)
        for i, t in enumerate(took)
    }
    metrics = layer_metrics(tracer, op_times, hits / (hits + misses))
    # per op, traced over untraced time of the same op; the median keeps a
    # few heavy ops from setting it
    ratios = [
        t / u
        for traced_took, plain_took in zip(traced_times, plain_times)
        for t, u in zip(traced_took, plain_took)
    ]
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    probe, probed, probe_fails = cli_probe(traced_lib, inputs)
    metrics.update(probe)
    fails = check(plain) + check(traced) + probe_fails
    print(f"# {len(op_times)} ops traced in {len(traced)} rounds, {len(tracer.spans)} spans")
    return metrics, 2 * len(op_times) + probed, fails


def declared(kind: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        # build_graph and CDSet guard theory facts with bare assert
        print("error: refusing to run under python -O, which strips the "
              "library's assert checks", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "shiftmorita").is_dir():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = per_layer if args.trace else end_to_end
    metrics, attempted, fails = run(args)
    for msg in fails[:10]:
        print(f"# FAILED: {msg}", file=sys.stderr)
    kind = "per_layer" if args.trace else "end_to_end"
    out = {}
    for name, unit in declared(kind):
        value, got = metrics.pop(name)
        if got != unit:
            raise SystemExit(f"error: {name} measured in {got}, declared in {unit}")
        out[name] = {"value": value, "unit": unit}
        print(f"# {name} {value:.6g} {unit}")
    if metrics:
        raise SystemExit(f"error: metrics not declared in BENCHMARK.json: {sorted(metrics)}")
    print(json.dumps({
        "correct": not fails,
        "attempted": attempted,
        "failed": len(fails),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
