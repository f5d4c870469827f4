"""Check that two source trees give the same answers and budget errors.

    python3 scripts/budget_diff.py --parent DIR --change DIR

Each tree is run in a process of its own that imports only that tree's
`src`.  Both processes build the same seeded corpus:

- 300 G(n, p) graphs on 0-13 vertices;
- 120 double subdivisions of random 1-6-vertex bases;
- 40 reduction artifacts of random 1-3-vertex pairs;
- the band graphs P_n^2 (each vertex joined to the next two) for n = 3-60;
- paths on 1-20 vertices and on 30, 50, 75, 100, 150 and 200 vertices,
  whose greedy searches are long chains of picks;
- 30 spiders (a centre with 2-6 paths of 1-8 vertices hanging off it),
  whose picks split the rest into pieces.

On every corpus graph, `independence_number`, `greedy_independence_number`,
`_alpha_and_greedy`, `achieves_ratio` at r = 1 and `misses_ratio` at
r = 3/2 are run at every budget from -1 up to the first one that fits, and
each value or `(what, budget)` error is recorded.  The witnesses
`best_greedy_trace` and `max_independent_set` are checked on every corpus
graph at the least budget that fits, found by doubling and then bisecting
(a witness that fits a budget fits every larger one): the script records
that budget, the witness there and the `(what, budget)` error one below
it.  At the default budget it also records `verify_reduction(g, h).lines()`
on 20 random pairs of 1-4-vertex graphs.  The text layer is covered too:
for every corpus graph the script records the sha256 of `format_graph(g)`
and whether `parse_graph` of that text gives g back, so a change that
moves one byte of the written text, or reads it differently, shows up.
It also records what `parse_graph` makes of four texts derived from the
written one: with CRLF line endings, with a `c` comment after the header,
with the last edge repeated, and with a copy of one edge from the middle
of a run of consecutive neighbours put before the first edge (the two
repeats raise m in the header).  Each outcome is the adjacency rows or
the `ParseError` text, with the warning messages in order.

Exits 0 and prints the number of budget points when the two record lists
are equal; otherwise exits 1 and names the first difference.  Standard
library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

SEED = 20260101
# a sweep that still fails here has gone wrong; record it rather than loop on
MAX_BUDGET = 200_000


def _random_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _corpus(Graph, reductions) -> list[tuple[str, object]]:
    rng = random.Random(SEED)
    corpus = []
    for i in range(300):
        n = rng.randint(0, 13)
        p = rng.choice((0.15, 0.3, 0.5, 0.7))
        corpus.append((f"gnp{i}", Graph(n, _random_edges(rng, n, p))))
    for i in range(120):
        n = rng.randint(1, 6)
        base = Graph(n, _random_edges(rng, n, rng.choice((0.3, 0.5, 0.8))))
        corpus.append((f"subdiv{i}", reductions.double_subdivision(base)))
    for i in range(40):
        g, h = (Graph(n, _random_edges(rng, n, 0.5)) for n in (rng.randint(1, 3), rng.randint(1, 3)))
        corpus.append((f"artifact{i}", reductions.build_reduction(g, h).graph))
    for n in range(3, 61):
        corpus.append((f"band{n}", Graph(n, [(i, i + d) for d in (1, 2) for i in range(n - d)])))
    for n in [*range(1, 21), 30, 50, 75, 100, 150, 200]:
        corpus.append((f"path{n}", Graph(n, [(i, i + 1) for i in range(n - 1)])))
    for i in range(30):
        edges, top = [], 1
        for _ in range(rng.randint(2, 6)):
            length = rng.randint(1, 8)
            edges += [(0 if j == 0 else top + j - 1, top + j) for j in range(length)]
            top += length
        corpus.append((f"spider{i}", Graph(top, edges)))
    return corpus


def _outcome(call, BudgetExceededError):
    try:
        value = call()
    except BudgetExceededError as exc:
        return False, ["budget", exc.what, exc.budget]
    except Exception as exc:  # any other error is part of the answer too
        return True, ["error", type(exc).__name__, str(exc)]
    return True, ["value", value if isinstance(value, (bool, int)) else list(value)]


def _faulted_texts(text: str, g) -> list[tuple[str, str]]:
    """Texts derived from `format_graph(g)`'s text, labelled; the repeats
    only where the text has an edge, or a line in the middle of a run."""
    head, _, body = text.partition("\n")
    texts = [("crlf", text.replace("\n", "\r\n")), ("comment", f"{head}\nc a comment\n{body}")]
    edges = body.splitlines()
    bumped = f"p {g.n} {g.num_edges + 1}"
    if edges:
        texts.append(("repeat-last", f"{bumped}\n{body}{edges[-1]}\n"))
    fields = [line.split() for line in edges]
    in_runs = [  # lines `e u v+1` right after `e u v`
        line for line, (_, u, v), (_, pu, pv) in zip(edges[1:], fields[1:], fields)
        if u == pu and int(v) == int(pv) + 1
    ]
    if in_runs:
        texts.append(("mid-run-repeat", f"{bumped}\n{in_runs[len(in_runs) // 2]}\n{body}"))
    return texts


def _parse_outcome(parse, ParseError, text: str) -> list:
    """`parse(text)`'s rows or ParseError text, and its warning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = list(parse(text)._adj)
        except ParseError as exc:
            result = f"ParseError: {exc}"
    return [result, [str(w.message) for w in caught]]


def _least_fit(attempt) -> tuple[list, int]:
    """The least budget from -1 up at which `attempt(budget)` fits, by
    doubling and then bisecting, as `[budget, outcome one below (or None),
    outcome there]`, and the number of budgets tried.  Budgets are
    monotone: an attempt that fits a budget fits every larger one."""
    fits, high = attempt(-1)
    if fits:
        return [-1, None, high], 1
    lo, low, hi, tried = -1, high, 1, 1
    while True:  # double until it fits, or record the failure at the cap
        fits, high = attempt(hi)
        tried += 1
        if fits or hi == MAX_BUDGET:
            break
        lo, low, hi = hi, high, min(2 * hi, MAX_BUDGET)
    if not fits:
        return [None, None, high], tried
    while hi - lo > 1:  # lo fails, hi fits
        mid = (lo + hi) // 2
        fits, result = attempt(mid)
        tried += 1
        if fits:
            hi, high = mid, result
        else:
            lo, low = mid, result
    return [hi, low, high], tried


def collect(tree: Path) -> dict:
    """The records of one tree, computed with that tree's own modules."""
    sys.path.insert(0, str(tree / "src"))
    from dodgreedy import formats, graphs, reductions
    from dodgreedy.errors import BudgetExceededError, ParseError

    if not Path(graphs.__file__).resolve().is_relative_to(tree):
        sys.exit(f"imported {graphs.__file__}, not the tree's own module")
    Graph = graphs.Graph
    sweeps = (
        ("alpha", graphs.independence_number),
        ("greedy", graphs.greedy_independence_number),
        ("pair", graphs._alpha_and_greedy),
        ("achieves-1", lambda g, b: graphs.achieves_ratio(g, 1, b)),
        ("misses-3/2", lambda g, b: graphs.misses_ratio(g, Fraction(3, 2), b)),
    )
    records, points = [], 0
    for name, g in _corpus(Graph, reductions):
        text = formats.format_graph(g)
        digest = hashlib.sha256(text.encode()).hexdigest()
        records.append([name, "text", [digest, formats.parse_graph(text) == g]])
        for label, faulted in _faulted_texts(text, g):
            records.append([name, label, _parse_outcome(formats.parse_graph, ParseError, faulted)])
        for label, solve in sweeps:
            steps = []
            for budget in range(-1, MAX_BUDGET + 1):
                fits, result = _outcome(lambda: solve(g, budget), BudgetExceededError)
                steps.append(result)
                if fits:
                    break
            points += len(steps)
            records.append([name, label, steps])
        for label, witness in (
            ("trace", lambda b: graphs.best_greedy_trace(g, b).picks),
            ("mis", lambda b: sorted(graphs.max_independent_set(g, b))),
        ):
            least, tried = _least_fit(lambda b: _outcome(lambda: witness(b), BudgetExceededError))
            points += tried
            records.append([name, label, least])
    rng = random.Random(SEED + 1)
    for i in range(20):
        g, h = (Graph(n, _random_edges(rng, n, 0.5)) for n in (rng.randint(1, 4), rng.randint(1, 4)))
        report = _outcome(lambda: reductions.verify_reduction(g, h).lines(), BudgetExceededError)
        records.append([f"pair{i}", "verify", report[1]])
    return {"points": points, "records": records}


def run_tree(tree: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, __file__, "--collect", str(tree)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{tree}: collection failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.collect is not None:
        json.dump(collect(args.collect.resolve()), sys.stdout)
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are both required")
    parent, change = (run_tree(tree.resolve()) for tree in (args.parent, args.change))
    for old, new in zip(parent["records"], change["records"]):
        if old != new:
            print(f"first difference at {old[0]} {old[1]}:\n  parent {old[2]}\n  change {new[2]}")
            return 1
    if len(parent["records"]) != len(change["records"]):
        print(f"record counts differ: {len(parent['records'])} vs {len(change['records'])}")
        return 1
    print(f"no difference: {len(parent['records'])} records, {parent['points']} budget points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
