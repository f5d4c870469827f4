"""Run the benchmark in two checkouts, alternating, and write the pairs as JSON.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --workload reduction-audit --seeds 901-906 --out BENCH.json

Each pair runs `perfbench/run.py` in both checkouts on the same seed, one
after the other; the side that goes first alternates from pair to pair, so
a drift in the machine's speed hits both sides alike.  Every run lasts
run.py's own default length, the same on both sides.  The file named by
--out gains one entry per workload (an existing entry for the workload is
replaced): every run's metrics, answer counts and measured wall time, and
per metric the median and quartiles of each side and the number of pairs
the change won.  A metric whose parent runs spread too widely to tell a
change of the metric's bound is marked `resolved: false`.  `gain_shown`
says whether the runs show a gain by the benchmark's rule: the change won
at least nine tenths of the pairs, and its median is better than the
parent's by more than the parent's spread between quartiles (q3 - q1).
The file is rewritten after every pair, so a run that crashes loses only its own pair;
the entry's `seeds` lists the pairs that finished.  A run that answered anything wrong or failed a request is still
written, then named on stderr, and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def host() -> dict:
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "node": platform.node(),
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
    }


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "wall_s": round(result["attempted"] / metrics["requests_per_s"], 2),
        "metrics": metrics,
    }


def summarize(pairs: list[dict], metrics: dict[str, tuple[str, float]]) -> dict:
    """Per metric: each side's median and quartiles, the pairs the change
    won, and whether those show a gain.

    `resolved: false` marks a metric whose parent quartile spread,
    (q3 - q1) / median, is wider than its bound while not every change run
    beats every parent run: a difference the size of the bound could hide
    in such a spread.  `gain_shown` holds when the change won at least 9 in
    10 of the pairs (ties win for neither side) and the medians differ, in
    the change's favour, by more than the parent's q3 - q1.
    """
    out = {}
    for name, (direction, bound) in metrics.items():
        sides = {}
        for side in ("parent", "change"):
            values = sorted(p[side]["metrics"][name] for p in pairs)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            sides[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        sign = 1 if direction == "higher" else -1
        wins = sum(
            sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) > 0
            for p in pairs
        )
        out[name] = {
            **sides,
            "change_better": f"{wins}/{len(pairs)}",
            "median_change_pct": round(
                100 * (sides["change"]["median"] / sides["parent"]["median"] - 1), 1
            ),
        }
        parent = sides["parent"]
        out[name]["gain_shown"] = 10 * wins >= 9 * len(pairs) and (
            sign * (sides["change"]["median"] - parent["median"]) > parent["q3"] - parent["q1"]
        )
        spread = (parent["q3"] - parent["q1"]) / parent["median"] if parent["median"] else 0.0
        worst_change = min(sign * p["change"]["metrics"][name] for p in pairs)
        best_parent = max(sign * p["parent"]["metrics"][name] for p in pairs)
        if spread > bound and not worst_change > best_parent:
            out[name]["resolved"] = False
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--note", default="", help="what the two checkouts are")
    args = ap.parse_args()

    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    doc.setdefault("host", host())
    if args.note:
        doc["note"] = args.note
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload, seed)
            print(args.workload, seed, side, pair[side]["metrics"], file=sys.stderr)
        pairs.append(pair)
        doc.setdefault("workloads", {})[args.workload] = {
            "seeds": [p["seed"] for p in pairs],
            "summary": summarize(pairs, metrics),
            "pairs": pairs,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    bad = [
        (p["seed"], side, p[side]) for p in pairs for side in ("parent", "change")
        if not p[side]["correct"] or p[side]["failed"] > 0
    ]
    for seed, side, run in bad:
        print(f"BAD RUN: {args.workload} seed {seed} {side}: correct={run['correct']}, "
              f"failed {run['failed']} of {run['attempted']}", file=sys.stderr)
    if bad:
        sys.exit(1)


if __name__ == "__main__":
    main()
