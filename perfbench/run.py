"""Benchmark driver for dodgreedy: one closed-loop client, in one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload greedy-exact --seed 1 --seconds 25 --trace 0

The client sends a request, waits for its answer, and sends the next, for
`--seconds` seconds.  Graph, election and reduction requests go through the
CLI verbs in-process (`dodgreedy.cli.main`) on generated files; batch
requests call the library pipelines, which have no verb.  Every answer is
checked after the timed loop, so checking costs nothing in the figures.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run (see
tracing.py), and the spans are written to `.perfbench/` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
ANSWERS = Path(__file__).resolve().parent / "answers"
DEFAULT_SEED = 1
SETUP_SAMPLES = 5

# Import one module in a fresh interpreter and print how long the import took.
_IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
module = __import__(sys.argv[2])
elapsed = time.perf_counter() - started
if not module.__file__.startswith(sys.argv[1]):
    raise SystemExit(f"imported {module.__file__}, not the checkout's copy")
print(repr(elapsed))
"""


def setup_seconds(module: str) -> float:
    """Median import time of `module` over several fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC), module],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        samples.append(float(out))
    return statistics.median(samples)


def closed_loop(requests, seconds: float, tracer=None):
    """Send requests in order, each after the previous returns, until
    `seconds` have passed.  Returns (pool index, latency, output, error)
    per request and the loop's wall time."""
    clock = time.perf_counter
    results = []
    started = clock()
    deadline = started + seconds
    i = 0
    while clock() < deadline:
        idx = i % len(requests)
        if tracer is not None:
            tracer.request = i
        t0 = clock()
        try:
            out, err = requests[idx].run(), None
        except Exception as exc:  # a failed request is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append((idx, clock() - t0, out, err))
        i += 1
    return results, clock() - started


def check_answers(workload, seed: int, requests, results) -> list[tuple[int, str]]:
    """(pool index, reason) for every request that raised or answered wrong."""
    table = None
    table_path = ANSWERS / f"{workload.name}.json"
    if seed == DEFAULT_SEED and table_path.is_file():
        table = json.loads(table_path.read_text(encoding="utf-8"))
    verdicts: dict[tuple[int, str], str | None] = {}
    failures = []
    for idx, _, out, err in results:
        if err is None:
            key = (idx, out)
            if key not in verdicts:
                try:
                    verdicts[key] = requests[idx].check(out)
                except Exception as exc:
                    verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
                if verdicts[key] is None and table is not None and table[idx] != out:
                    verdicts[key] = f"differs from the committed answer {table[idx]!r}"
            err = verdicts[key]
        if err is not None:
            failures.append((idx, err))
    return failures


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def trace_overhead(requests, results, seconds: float) -> float:
    """Send the first eighth of the traced loop's requests again, in chunks
    of about half a second, each chunk once untraced and once traced
    (alternating which goes first, so a drift in machine speed hits both
    sides alike), and return traced time over untraced time, minus one."""
    chunks, spent = [[]], 0.0
    for idx, latency, _, _ in results:
        if spent >= seconds / 8:
            break
        if spent >= 0.5 * len(chunks):
            chunks.append([])
        chunks[-1].append(idx)
        spent += latency

    def timed(chunk: list[int], traced: bool) -> float:
        tracer = Tracer()
        if traced:
            tracer.install()
        started = time.perf_counter()
        try:
            for idx in chunk:
                try:
                    requests[idx].run()
                except Exception:
                    pass  # already counted as a failure in the traced loop
            return time.perf_counter() - started
        finally:
            tracer.uninstall()

    elapsed = {False: 0.0, True: 0.0}
    for i, chunk in enumerate(chunks):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            elapsed[traced] += timed(chunk, traced)
    return elapsed[True] / elapsed[False] - 1


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; return the result object `main` prints."""
    setup = setup_seconds(workload.entry_module)
    workdir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        requests = workload.build(random.Random(seed), workdir)
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        try:
            results, wall = closed_loop(requests, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = check_answers(workload, seed, requests, results)
        if tracer is not None:
            overhead = trace_overhead(requests, results, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = sorted(latency for _, latency, _, _ in results)
    tail = percentile(latencies, workload.tail_pct)
    summary = {
        "requests": len(results),
        "failed_frac": len(failures) / len(results),
        "tail": f"p{workload.tail_pct} of {len(results)} samples, "
                f"{sum(1 for x in latencies if x > tail)} beyond it",
        "kinds": _shares([requests[idx].kind for idx, *_ in results]),
        "traits": {
            name: statistics.fmean(requests[idx].traits.get(name, 0.0) for idx, *_ in results)
            for name in sorted({t for r in requests for t in r.traits})
        },
        "failures": [f"request {idx}: {reason}" for idx, reason in failures[:5]],
    }
    if tracer is None:
        metrics = {
            "setup_s": (setup, "s"),
            "requests_per_s": (len(results) / wall, "1/s"),
            "latency_p50_ms": (1000 * percentile(latencies, 50), "ms"),
            "latency_tail_ms": (1000 * tail, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer.spans, wall)
        metrics["trace.overhead_frac"] = (overhead, "frac")
        metrics["trace.spans_per_request"] = (len(tracer.spans) / len(results), "count")
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{workload.name}-{seed}.jsonl",
                     [latency for _, latency, _, _ in results])
    return {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "summary": summary,
    }


def _shares(kinds: list[str]) -> dict[str, float]:
    return {k: kinds.count(k) / len(kinds) for k in sorted(set(kinds))}


def write_answers(workload) -> None:
    """Record every answer of the default seed's request list, each checked."""
    workdir = WORK / f"{workload.name}-answers-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        requests = workload.build(random.Random(DEFAULT_SEED), workdir)
        answers = []
        for i, request in enumerate(requests):
            out = request.run()
            reason = request.check(out)
            if reason is not None:
                raise SystemExit(f"request {i} answered wrong: {reason}")
            answers.append(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ANSWERS.mkdir(exist_ok=True)
    path = ANSWERS / f"{workload.name}.json"
    path.write_text(json.dumps(answers, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {len(answers)} answers to {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-answers", action="store_true",
                        help="record the default seed's answers and exit")
    args = parser.parse_args(argv)

    if not (SRC / "dodgreedy" / "__init__.py").is_file():
        print(f"error: no dodgreedy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.write_answers:
        write_answers(workload)
        return 0

    result = run(workload, args.seed, args.seconds, bool(args.trace))
    summary = result.pop("summary")
    print(f"{workload.name} seed {args.seed}: {summary['requests']} requests, "
          f"failed_frac {summary['failed_frac']:g}; tail = {summary['tail']}")
    print(f"  instance mix: {summary['kinds']}")
    if summary["traits"]:
        print(f"  share with property: {summary['traits']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for line in summary["failures"]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
