"""cfkzero benchmark: four workloads of CLI operations, checked against
independent oracles.

    python3 perfbench/run.py --workload cancel-sums --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each
    python3 perfbench/run.py --workload torus-sums --seed 1 --list

Run from anywhere; the program is imported from ``src/`` next to this
directory and from nowhere else.  One process serves one workload as a
closed loop with one client: each operation is a ``cfkzero.cli.main`` call
with stdout captured, issued after the previous one returned.  The seeded
operation list is one round; a timed run repeats whole rounds until the
next one would end after ``--seconds``, and always runs at least three.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one round
with each operation executed once untraced and once traced, in alternating
order, prints the per-layer metrics and the tracing overhead, and writes
every span to ``perfbench/out/``.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import importlib
import io
import json
import math
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans as spans_mod  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5  # set-ups before the first round; two more follow each round
SETUPS_PER_ROUND = 2
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 3  # a traced run repeats short operation lists to at least this many pairs
# the memory probe runs the largest sum whose biggest simplify input stays
# under this many generators: tracemalloc slows simplify about sevenfold
PROBE_MAX_GENS = 700


def import_program():
    """Import cfkzero.cli afresh from SRC, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "cfkzero" or m.startswith("cfkzero.")]:
        del sys.modules[name]
    cli = importlib.import_module("cfkzero.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"cfkzero was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int):
    """One set-up: import the program and generate the inputs.  Returns the
    cli module, the operations and the seconds it took."""
    start = time.perf_counter()
    cli = import_program()
    ops = workloads.generate(workload, seed)
    return cli, ops, time.perf_counter() - start


def call(cli, argv) -> tuple[float, int | None, str]:
    """One operation: (seconds, exit code or None if it raised, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escaping exception is a failed operation
        print(f"{shlex.join(argv)}: {type(exc).__name__}: {exc}"[:300], file=sys.stderr)
        rc = None
    return time.perf_counter() - start, rc, out.getvalue()


class Checker:
    """Checks outputs once per distinct (operation, output) pair, and that
    the operations of one group print the same gamma_0 within a round."""

    def __init__(self, ops):
        self.ops = ops
        self.verified: dict[int, str] = {}
        self.problems: list[str] = []
        self.failed = 0

    def record(self, index: int, rc: int | None, stdout: str, groups: dict) -> bool:
        """Check one operation's output; False when the operation failed."""
        op = self.ops[index]
        if rc is None or rc == 2:
            self.failed += 1
            return False
        if self.verified.get(index) != stdout:
            try:
                problem = op.check(stdout, rc)
            except (ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem:
                self.problems.append(f"{shlex.join(op.argv)}: {problem}")
            else:
                self.verified[index] = stdout
        if op.group:
            groups.setdefault(op.group, set()).add(
                workloads.gamma0_of_output(op.argv, stdout))
        return True

    def end_round(self, groups: dict) -> None:
        for name, outputs in groups.items():
            if len(outputs) > 1:
                self.problems.append(f"groupings of {name} disagree: {sorted(outputs)}")


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile: the ceil(0.9 n)-th smallest value."""
    return sorted(values)[(9 * len(values) + 9) // 10 - 1]


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    """At least MIN_ROUNDS whole rounds, then more until the next would end
    after ``seconds``.

    Each operation's time is its fastest over the rounds.  The machine's
    speed swings by a third from one second to the next; the median of a
    fixed operation over 6 s windows ranged over 0.12-0.20 s, its fastest
    call over 0.11-0.14 s.  Each round runs on a
    fresh import (the set-ups after it), so no state the program keeps in
    memory carries over from one round into the next.  Set-ups are spread
    through the run, so that setup_s samples the machine over the same span
    as the operations do.  A failed operation adds no time: a failure must
    not look like a speed-up."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        cli, ops, elapsed = setup(workload, seed)
        setup_times.append(elapsed)
    checker = Checker(ops)
    best = [math.inf] * len(ops)
    rounds = 0
    started = time.perf_counter()
    while True:
        groups: dict = {}
        for index, op in enumerate(ops):
            elapsed, rc, stdout = call(cli, op.argv)
            if checker.record(index, rc, stdout, groups):
                best[index] = min(best[index], elapsed)
        checker.end_round(groups)
        rounds += 1
        for _ in range(SETUPS_PER_ROUND):
            cli, _, elapsed = setup(workload, seed)
            setup_times.append(elapsed)
        spent = time.perf_counter() - started
        if rounds >= MIN_ROUNDS and spent + spent / rounds > seconds:
            break
    op_times = [t for t in best if t < math.inf] or [0.0]  # [0.0]: all failed, correct is false
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(op_times), "s"),
        "op_p50_ms": (statistics.median(op_times) * 1e3, "ms"),
        "op_p90_ms": (p90(op_times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return result(checker, len(ops) * rounds, metrics)


def result(checker: Checker, attempted: int, metrics: dict) -> dict:
    """The run's JSON line.  No operation in the pools is expected to fail,
    so a failed operation also makes the run incorrect."""
    for problem in checker.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not checker.problems and not checker.failed,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# -- traced run -------------------------------------------------------------

S = 1e-9  # ns -> s
TIME_METRICS = {
    # metric: span name whose inclusive time it sums
    "standard.simplify_s": "standard.simplify_basis",
    "complexes.dual_s": "complexes.ChainComplex.dual",
    "complexes.reduce_s": "complexes.ChainComplex.reduce",
    "complexes.validate_s": "complexes.ChainComplex.validate",
    "standard.seq_to_complex_s": "standard.seq_to_complex",
    "standard.extract_s": "standard.extract_gamma0_with_loops",
    "knots.parse_s": "knots.parse_expr",
    "knots.cable2_s": "knots.cable2",
    "knots.staircase_s": "knots.staircase_from_alexander",
    "algebra.alexander_torus_s": "algebra.alexander_torus",
    "involutive.verify_lemma_s": "involutive.verify_lemma_43_44",
    "involutive.tensor_involution_s": "involutive.tensor_involution",
    "cli.build_parser_s": "cli.build_parser",
}
SIZE_METRICS = {
    # metric: (span name, size key)
    "standard.simplify_gens": ("standard.simplify_basis", "gens"),
    "standard.simplify_arrows_in": ("standard.simplify_basis", "arrows_in"),
    "standard.simplify_arrows_out": ("standard.simplify_basis", "arrows_out"),
    "complexes.reduce_removed": ("complexes.ChainComplex.reduce", "removed"),
    "standard.extract_loops": ("standard.extract_gamma0_with_loops", "loops"),
}


def layer_metrics(all_spans: list[list], peak_bytes: int) -> dict:
    m: dict[str, tuple[float, str]] = {}
    for name in TIME_METRICS:
        m[name] = (0.0, "s")
    for name in SIZE_METRICS:
        m[name] = (0, "count")
    m["complexes.tensor_s"] = (0.0, "s")
    m["complexes.tensor_full_s"] = (0.0, "s")
    m["complexes.tensor_gens"] = (0, "count")
    m["knots.eval_self_s"] = (0.0, "s")
    m["standard.validate_seq_calls"] = (0, "count")
    for layer in spans_mod.LAYERS:
        m[f"{layer}.self_s"] = (0.0, "s")
    for check in workloads.PAPER_CHECKS:
        m[f"cli.verify.{check}_s"] = (0.0, "s")
    by_span = {v: k for k, v in TIME_METRICS.items()}

    def add(key: str, amount: float) -> None:
        m[key] = (m[key][0] + amount, m[key][1])

    for spans in all_spans:
        for span, own in zip(spans, spans_mod.self_times(spans)):
            name, start, end, _, sizes = span
            duration = (end - start) * S
            add(f"{name.split('.')[0]}.self_s", own * S)
            if name in by_span:
                add(by_span[name], duration)
            for metric, (span_name, key) in SIZE_METRICS.items():
                if name == span_name and sizes:
                    add(metric, sizes[key])
            if name == "complexes.ChainComplex.tensor" and sizes:
                if sizes["full"]:
                    add("complexes.tensor_full_s", duration)
                else:
                    add("complexes.tensor_s", duration)
                    add("complexes.tensor_gens", sizes["gens"])
            elif name == "knots.eval_expr":
                add("knots.eval_self_s", own * S)
            elif name == "standard.validate_seq":
                add("standard.validate_seq_calls", 1)
            elif name.startswith("cli.verify."):
                add(f"{name}_s", duration)
    m["standard.simplify_peak_mb"] = (peak_bytes / 2**20, "MB")
    return m


def traced_call(tracer, cli, argv) -> tuple[float, int | None, str]:
    tracer.install()
    try:
        return call(cli, argv)
    finally:
        tracer.uninstall()


def traced_run(workload: str, seed: int) -> dict:
    """Each operation runs once untraced and once traced, next to each other
    and in alternating order, so that the machine's drift cancels in the
    ratio of the two.  Lists shorter than MIN_TRACED_PAIRS are repeated;
    the layer metrics come from the first repetition's traced calls."""
    cli, ops, _ = setup(workload, seed)
    tracer = spans_mod.Tracer()
    checker = Checker(ops)
    ratios: list[float] = []
    all_spans: list[list] = []
    repeats = -(-MIN_TRACED_PAIRS // len(ops))
    for repeat in range(repeats):
        groups: dict = {}
        for index, op in enumerate(ops):
            traced_first = (index + repeat) % 2 == 1
            times = {}
            for traced in (traced_first, not traced_first):
                if traced:
                    elapsed, rc, stdout = traced_call(tracer, cli, op.argv)
                else:
                    elapsed, rc, stdout = call(cli, op.argv)
                checker.record(index, rc, stdout, groups)
                times[traced] = elapsed
            ratios.append(times[True] / times[False])
            spans = tracer.take()
            if repeat == 0:
                all_spans.append(spans)
        checker.end_round(groups)

    probe = memory_probe_op(ops, all_spans)
    if probe is not None:
        tracer.probe_memory = True
        traced_call(tracer, cli, ops[probe].argv)
        tracer.take()

    metrics = layer_metrics(all_spans, tracer.peak_bytes)
    metrics["trace.overhead_pct"] = (100 * (statistics.median(ratios) - 1), "%")
    metrics["trace.spans"] = (sum(len(s) for s in all_spans), "count")
    write_trace(workload, seed, ops, all_spans, metrics, probe)
    return result(checker, 2 * len(ops) * repeats, metrics)


def memory_probe_op(ops, all_spans) -> int | None:
    """The operation whose largest simplify input is biggest while staying
    within PROBE_MAX_GENS; None when no operation simplifies."""
    best, best_gens = None, 0
    for index, spans in enumerate(all_spans):
        gens = [s[4]["gens"] for s in spans if s[0] == "standard.simplify_basis" and s[4]]
        if gens and best_gens < max(gens) <= PROBE_MAX_GENS:
            best, best_gens = index, max(gens)
    return best


def write_trace(workload, seed, ops, all_spans, metrics, probe) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}.trace.json.gz"
    doc = {
        "workload": workload,
        "seed": seed,
        "memory_probe": list(ops[probe].argv) if probe is not None else None,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "fields": ["name", "start_ns", "end_ns", "parent", "sizes", "self_ns"],
        "ops": [
            {"argv": list(op.argv),
             "spans": [list(s) + [own] for s, own in zip(spans, spans_mod.self_times(spans))]}
            for op, spans in zip(ops, all_spans)
        ],
    }
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(doc, handle)
    print(f"trace written to {path}", file=sys.stderr)


# -- entry points -------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    summary = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        doc = json.loads(lines[-1])
        summary[name] = doc
        print(f"{name}: correct={str(doc['correct']).lower()} "
              f"attempted={doc['attempted']} failed={doc['failed']}")
        for metric, entry in doc["metrics"].items():
            print(f"  {metric:36s} {entry['value']:14.4f} {entry['unit']}")
    print(json.dumps(summary))
    return 0 if all(d["correct"] for d in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print the workload's operations for the seed and exit")
    args = parser.parse_args(argv)

    if args.list:
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            for op in workloads.generate(name, args.seed):
                print(f"cfkzero {shlex.join(op.argv)}")
        return 0
    if not (SRC / "cfkzero" / "cli.py").is_file():
        print(f"error: no cfkzero sources at {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    if args.trace:
        doc = traced_run(args.workload, args.seed)
    else:
        doc = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
