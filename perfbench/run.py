#!/usr/bin/env python3
"""cliffkit benchmark: in-process CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload classify-stream --seed 1 --seconds 25 --trace 0

Drives `cliffkit.cli.main([...])` from `src/` in this process and thread.
Each workload is rounds of fixed work (see workloads.py).  The timed phase
repeats rounds while the next one still fits in `--seconds` (at least
one round) and reports medians; every output is checked against an
independent oracle, and any wrong answer, non-zero exit or exception
counts as a failed operation.

Times are reported at reference speed.  The interpreter's speed on a
shared host drifts by tens of percent within a minute, so `SpeedSampler`
times a fixed probe loop fifty times a second from a helper thread
(the process is pinned to one CPU, so the probe runs where the program
runs) and each call's measured time is multiplied by the mean ratio of
the probe's nominal time to its measured time around that call.  Raw
times are printed next to the scaled ones.  Per-thread CPU time does not
remove the drift: over 90 s of repeated `solve --m 4 --degree 2` calls,
`time.thread_time` spread as much as wall time (interquartile range 26 %
of the median for both), and the scaled times by 8 %.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
runs one untraced round, then the same round with layer wrappers
installed (tracing.py), and prints the per-layer metrics.  `--workload all`
runs each workload in a child process of its own, so that each
`peak_rss_mb` is that workload's own peak.  The last line of standard
output is always one JSON object with the result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
# A fixed count: each re-import leaves about 0.25 MB behind, so a varying count
# would show in peak_rss_mb.
SETUP_REPEATS = 5
SAMPLE_INTERVAL_S = 0.02
WINDOW_PAD_S = 0.25
MIN_SAMPLES = 5
# Nominal time of one `_probe_unit`: its median in a tight loop on the host the
# benchmark was built on (Xeon, 2.1 GHz, Python 3.11.7).  Only the scale of the
# reported times depends on it.
PROBE_NOMINAL_S = 0.000213

sys.path.insert(0, str(ROOT))
from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _probe_unit() -> Fraction:
    """Fixed interpreter work with the program's mix: Fractions, dicts, tuples."""
    acc: dict = {}
    q = Fraction(0)
    for i in range(1, 101):
        q += Fraction(i % 7 - 3, i % 5 + 1)
        key = (i & 15, i % 3)
        acc[key] = acc.get(key, 0) + i
    return q


class SpeedSampler:
    """Times one probe unit every SAMPLE_INTERVAL_S from a helper thread.

    The unit (about 0.2 ms) runs while the thread holds the interpreter
    lock, so it costs the program under 1 % and measures the speed of the
    CPU both threads are pinned to.
    """

    def __init__(self):
        self.times: list[float] = []
        self.factors: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            start = perf_counter()
            _probe_unit()
            end = perf_counter()
            # factors first: every index found in `times` is then valid in `factors`
            self.factors.append(PROBE_NOMINAL_S / (end - start))
            self.times.append(end)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Mean reference-seconds-per-second around [start, end]; the window
        widens until it holds MIN_SAMPLES samples."""
        pad = WINDOW_PAD_S
        while True:
            lo = bisect.bisect_left(self.times, start - pad)
            hi = bisect.bisect_right(self.times, end + pad)
            if hi - lo >= MIN_SAMPLES or pad > 60:
                window = self.factors[lo:hi]
                if not window:
                    raise RuntimeError("the speed sampler took no samples")
                return sum(window) / len(window)
            pad *= 2


@contextlib.contextmanager
def pinned_to_one_cpu():
    """Pin this process (and threads it starts) to one CPU; restore on exit."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


# -- program access -------------------------------------------------------------------


def import_program() -> SimpleNamespace:
    """Import cliffkit afresh from this checkout's src/ (never an installed copy)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "cliffkit" or n.startswith("cliffkit.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"cliffkit.{name}") for name in (
        "cli", "algebra", "classify", "fields", "linalg", "parser", "psi", "solver", "structural", "verify")}
    origin = Path(sys.modules["cliffkit"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"cliffkit imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


def invoke(program, argv: list[str], tracer=None) -> tuple[int | None, str, str | None, float, float]:
    """Run one CLI call; returns (exit code, stdout, exception text, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    code, problem = None, None
    if tracer is not None:
        tracer.begin_request()
        tracer.enabled = True
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = program.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a benchmark error
            problem = traceback.format_exc(limit=3)
        finally:
            end = perf_counter()
            if tracer is not None:
                tracer.enabled = False
    return code, out.getvalue(), problem, start, end


def run_round(program, ops, tracer=None) -> tuple[list[tuple[float, float]], list[tuple]]:
    """Run the ops in order; returns each call's (start, end) and output."""
    spans, outputs = [], []
    for op in ops:
        code, out, problem, start, end = invoke(program, op.argv, tracer)
        spans.append((start, end))
        outputs.append((code, out, problem))
    return spans, outputs


def scaled(spans, sampler: SpeedSampler) -> list[float]:
    """Reference-speed seconds of each (start, end) call."""
    return [(end - start) * sampler.factor(start, end) for start, end in spans]


def gate(ops, outputs, problems: list[str], deferred: list) -> tuple[int, int]:
    """Check each op's output; returns (attempted, failed).  An op's first
    passing output queues its `first_check` on `deferred`."""
    failed = 0
    for op, (code, out, crash) in zip(ops, outputs):
        problem = crash
        if problem is None:
            try:
                problem = op.check(code, out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable output of {' '.join(op.argv)}: {exc!r}"
        if problem is not None:
            failed += 1
            problems.append(problem)
        elif op.first_check is not None and not op.checked_once:
            op.checked_once = True
            deferred.append(op)
    return len(ops), failed


def run_deferred(deferred: list, problems: list[str]) -> int:
    """Run the queued first checks; returns how many failed.  A failure turns
    one passing execution of its op into a failed one."""
    failed = 0
    for op in deferred:
        try:
            problem = op.first_check()
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"first check of {' '.join(op.argv)} raised {exc!r}"
        if problem is not None:
            failed += 1
            problems.append(problem)
    return failed


# -- one workload ---------------------------------------------------------------------


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated within the samples (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def set_up(workload, seed: int):
    """Import the program and build inputs and oracle values, SETUP_REPEATS times;
    returns the last program and inputs, and the (start, end) of each repeat."""
    work_dir = OUT / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    spans = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        program = import_program()
        blocks = workload.build(seed, work_dir, program)
        spans.append((start, perf_counter()))
        gc.collect()  # free the previous repeat's modules, which refer to themselves
    return program, blocks, spans


def run_workload(workload, seed: int, seconds: float, trace: bool, layer_names: list[str]) -> dict:
    with pinned_to_one_cpu(), SpeedSampler() as sampler:
        program, blocks, setup_spans = set_up(workload, seed)
        for line in workload.describe(blocks):
            print(f"  input: {line}")
        problems: list[str] = []
        if trace:
            metrics, attempted, failed = trace_rounds(program, workload, blocks[0], sampler, seed, layer_names, problems)
        else:
            metrics, attempted, failed = timed_rounds(program, blocks, sampler, seconds, problems,
                                                      workload.latency_per_call)
            # scaled last, so that the sampler has samples after the set-up too
            metrics["setup_s"] = statistics.median(scaled(setup_spans, sampler))
            print(f"  raw setup_s {statistics.median(end - start for start, end in setup_spans):.4f} s, "
                  f"median of {len(setup_spans)} set-ups")
    for problem in problems[:10]:
        print(f"  FAILED: {problem.strip()}")
    print(f"  failed_frac = {failed / attempted if attempted else 1.0:.6g} ({failed}/{attempted})")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def timed_rounds(program, blocks, sampler, seconds, problems, per_call: bool) -> tuple[dict, int, int]:
    """Rounds while the next one fits in `seconds` (at least one); end-to-end metrics.

    A query is one CLI call when `per_call`, else one round.  The first
    checks (a round trip through the parser on classify-stream) run after
    the timed phase, so that they take none of its time."""
    round_spans, deferred = [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        ops = blocks[len(round_spans) % len(blocks)]
        spans, outputs = run_round(program, ops)
        a, f = gate(ops, outputs, problems, deferred)
        attempted, failed = attempted + a, failed + f
        round_spans.append(spans)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(round_spans) > seconds:
            break
    failed += run_deferred(deferred, problems)
    round_raw, round_scaled, latencies = [], [], []
    for spans in round_spans:
        times = scaled(spans, sampler)
        round_raw.append(sum(end - begin for begin, end in spans))
        round_scaled.append(sum(times))
        latencies.extend(times if per_call else [sum(times)])
    metrics = {
        "wall_s": statistics.median(round_scaled),
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_p99_ms": 1000 * quantile(latencies, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"  rounds: {len(round_raw)}, queries: {len(latencies)} "
          f"(p99 has {int(len(latencies) * 0.01)} samples beyond it)")
    print(f"  raw wall_s {statistics.median(round_raw):.4f} s, "
          f"speed factor {statistics.median(round_scaled) / statistics.median(round_raw):.3f}")
    return metrics, attempted, failed


def trace_rounds(program, workload, ops, sampler, seed, layer_names, problems) -> tuple[dict, int, int]:
    """One untraced round, then the same round traced; per-layer metrics."""
    spans, outputs = run_round(program, ops)
    deferred: list = []
    attempted, failed = gate(ops, outputs, problems, deferred)
    failed += run_deferred(deferred, problems)
    untraced = sum(scaled(spans, sampler))
    tracer = tracing.Tracer()
    tracer.install(program)
    try:
        spans, outputs = run_round(program, ops, tracer)
    finally:
        tracer.uninstall()
    a, f = gate(ops, outputs, problems, deferred)
    traced_raw = sum(end - start for start, end in spans)
    traced = sum(scaled(spans, sampler))
    checks = [n[len("verify.check."):-2] for n in layer_names if n.startswith("verify.check.")]
    metrics = tracer.metrics(checks, scale=traced / traced_raw)
    metrics["trace.overhead_s"] = traced - untraced
    path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(path)
    print(f"  untraced round {untraced:.4f} s, traced round {traced:.4f} s (reference speed); "
          f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    extra = sorted(set(program.verify.check_names()) - set(checks))
    if extra:
        print(f"  note: verify checks not in BENCHMARK.json: {', '.join(extra)}")
    return metrics, attempted + a, failed + f


# -- entry point ------------------------------------------------------------------------


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        packed = (git / "packed-refs").read_text() if (git / "packed-refs").exists() else ""
        return next((line.split()[0] for line in packed.splitlines() if line.endswith(" " + ref)), ref)


def select(values: dict, declared: list[dict]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"no measurement for declared metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_all(args) -> int:
    """Each workload in a child process of its own, so that each peak_rss_mb
    is that workload's own peak; the results are merged under prefixed names."""
    results = {}
    for name in WORKLOADS:
        child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                               stdout=subprocess.PIPE, text=True)
        *lines, last = child.stdout.splitlines() or [""]
        print("\n".join(lines))
        try:
            results[name] = json.loads(last)
        except json.JSONDecodeError:
            print(f"error: workload {name} printed no result (exit code {child.returncode})", file=sys.stderr)
            return 2
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="time budget of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cliffkit" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    layer_names = [m["name"] for m in spec["per_layer"]]

    print(f"# cliffkit benchmark: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"commit {commit()}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    print(f"workload {args.workload}:")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), layer_names)
    result["metrics"] = select(result["metrics"], declared)
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
