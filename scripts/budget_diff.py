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
`_alpha_and_greedy`, `achieves_ratio` at r = 1, `misses_ratio` at r = 3/2
(from `graphs` in trees that still keep it there, else from `oracles`)
and the one-batch `ratio_pipeline` at r = 3/2 are run at every budget from
-1 up to the first one that fits, and each value or `(what, budget)` error
is recorded.  The witnesses
`best_greedy_trace` and `max_independent_set` are checked on every corpus
graph at the least budget that fits, found by doubling and then bisecting
(a witness that fits a budget fits every larger one): the script records
that budget, the witness there and the `(what, budget)` error one below
it.  At the default budget it also records `verify_reduction(g, h).lines()`
on 20 random pairs of 1-4-vertex graphs, and the one-batch
`carroll_winner_pipeline` verdict for every candidate of 60 random
elections with 3-4 candidates and 3-5 voters.  On those elections the
Carroll DP is swept like the graph solvers: `carroll_score(e, c, b)` (score
and witness) for every candidate and `all_winners(e, b)`, at every budget
from -1 up to the first one that fits, and so are `is_carroll_winner(e, c,
b)` for every candidate and `ties_or_defeats(e, c, d, b)` for every
ordered pair, c = d included.  On the same elections it records the
rankings or error text of `apply_swap` for every voter from -1 to n and
position from -1 to m - 1, of `apply_raise` for every candidate id,
voter and step count from -1 to m (so every depth + 1 is covered), and
of `replay_witness` on each candidate's certificate, and what `name_of`,
`defeats` (either side) and `carroll_score` make of the ids -1 and m.
Each corpus artifact's `check_artifact_structure` verdict is recorded,
with those of ten seeded single-edge flips of its graph.  On 20 random
elections with 5 candidates and 9-13 voters, two in five of them drawn
from 3-5 rankings (the shape of the `carroll-winners` workload), it
records each candidate's least fitting budget of `carroll_score`, found
as for the witnesses.  The text layer is covered too: for every corpus graph the script records the sha256 of `format_graph(g)`
and whether `parse_graph` of that text gives g back, so a change that
moves one byte of the written text, or reads it differently, shows up.
It also records what `parse_graph` makes of four texts derived from the
written one: with CRLF line endings, with a `c` comment after the header,
with the last edge repeated, and with a copy of one edge from the middle
of a run of consecutive neighbours put before the first edge (the two
repeats raise m in the header).  Each outcome is the adjacency rows or
the `ParseError` text, with the warning messages in order.

The two record lists must be equal but for the labels in `EXPECTED`, each
of which names why it may move.  A swept label there may only move its
first fitting budget up: the outcome where it fits must be the parent's,
and each budget error must name a step the parent named under that label.
`raises` may only turn an error into `no candidate with id c`.  Exits 0
and prints the number of budget points, with how many records each
expected label moved and by how much at most, when that holds; otherwise
exits 1 and names the first difference that breaks it.  Standard library
only.
"""

from __future__ import annotations

import argparse
import fnmatch
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
# record labels (fnmatch patterns) a change may move, each with its reason
EXPECTED = {
    "pair": "alpha's and greedy's states share one ledger",
    "achieves-1": "alpha's and greedy's states share one ledger",
    "misses-3/2": "alpha's and greedy's states share one ledger",
    "pipeline-3/2": "a batch round's solves share one ledger",
    "winners": "all_winners' m scores share one ledger",
    "winner-[0-9]*": "is_carroll_winner's scores share one ledger",
    "ties-or-defeats-*": "ties_or_defeats' two scores share one ledger",
    "raises": "apply_raise checks its candidate id first",
}


def _random_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _corpus(Graph, reductions) -> tuple[list[tuple[str, object]], list]:
    """The labelled corpus graphs, and the reduction artifacts among them."""
    rng = random.Random(SEED)
    corpus, artifacts = [], []
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
        artifacts.append(reductions.build_reduction(g, h))
        corpus.append((f"artifact{i}", artifacts[-1].graph))
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
    return corpus, artifacts


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


def _sweep(attempt) -> list:
    """`attempt(budget)`'s outcome at every budget from -1 up to the first
    one that fits, or up to MAX_BUDGET."""
    steps = []
    for budget in range(-1, MAX_BUDGET + 1):
        fits, result = attempt(budget)
        steps.append(result)
        if fits:
            break
    return steps


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
    from dodgreedy import batch, elections, errors, formats, graphs, oracles, reductions
    from dodgreedy.errors import BudgetExceededError, ParseError

    if not Path(graphs.__file__).resolve().is_relative_to(tree):
        sys.exit(f"imported {graphs.__file__}, not the tree's own module")
    Graph = graphs.Graph
    # graphs kept `misses_ratio` before it moved to oracles
    misses_ratio = getattr(graphs, "misses_ratio", None) or oracles.misses_ratio
    # `_alpha_and_greedy` takes a budget ledger in trees that have one
    Ledger = getattr(errors, "_Ledger", None)
    pair = (lambda g, b: graphs._alpha_and_greedy(g, Ledger(b))) if Ledger else graphs._alpha_and_greedy
    sweeps = (
        ("alpha", graphs.independence_number),
        ("greedy", graphs.greedy_independence_number),
        ("pair", pair),
        ("achieves-1", lambda g, b: graphs.achieves_ratio(g, 1, b)),
        ("misses-3/2", lambda g, b: misses_ratio(g, Fraction(3, 2), b)),
        ("pipeline-3/2", lambda g, b: batch.ratio_pipeline(g, Fraction(3, 2), b)),
    )
    records, points = [], 0

    def _certificate(e, c, budget):
        cert = elections.carroll_score(e, c, budget)
        return [cert.score, cert.witness]

    def _rankings(election):
        return [list(voter.ranking) for voter in election.voters]

    def _checked(call):
        # an outcome that no budget limits: a value, or the error's text
        return _outcome(call, BudgetExceededError)[1]

    corpus, artifacts = _corpus(Graph, reductions)
    for name, g in corpus:
        text = formats.format_graph(g)
        digest = hashlib.sha256(text.encode()).hexdigest()
        records.append([name, "text", [digest, formats.parse_graph(text) == g]])
        for label, faulted in _faulted_texts(text, g):
            records.append([name, label, _parse_outcome(formats.parse_graph, ParseError, faulted)])
        for label, solve in sweeps:
            steps = _sweep(lambda b: _outcome(lambda: solve(g, b), BudgetExceededError))
            points += len(steps)
            records.append([name, label, steps])
        for label, witness in (
            ("trace", lambda b: graphs.best_greedy_trace(g, b).picks),
            ("mis", lambda b: sorted(graphs.max_independent_set(g, b))),
        ):
            least, tried = _least_fit(lambda b: _outcome(lambda: witness(b), BudgetExceededError))
            points += tried
            records.append([name, label, least])
    flips = random.Random(SEED + 2)
    for i, artifact in enumerate(artifacts):
        g = artifact.graph
        verdicts = [reductions.check_artifact_structure(artifact)]
        for _ in range(10):
            u, v = sorted(flips.sample(range(g.n), 2))
            flipped = Graph(g.n, g.edges ^ {(u, v)})
            verdicts.append([u, v, reductions.check_artifact_structure(
                reductions.ReductionArtifact(flipped, artifact.k, artifact.n, artifact.stages)
            )])
        records.append([f"artifact{i}", "structure", verdicts])
    rng = random.Random(SEED + 1)
    for i in range(20):
        g, h = (Graph(n, _random_edges(rng, n, 0.5)) for n in (rng.randint(1, 4), rng.randint(1, 4)))
        report = _outcome(lambda: reductions.verify_reduction(g, h).lines(), BudgetExceededError)
        records.append([f"pair{i}", "verify", report[1]])
    for i in range(60):
        m, n = rng.randint(3, 4), rng.randint(3, 5)
        e = elections.Election(
            tuple(elections.Candidate(c, f"c{c}") for c in range(m)),
            tuple(elections.PreferenceOrder(tuple(rng.sample(range(m), m))) for _ in range(n)),
        )
        verdicts = [
            _outcome(lambda: batch.carroll_winner_pipeline(e, c), BudgetExceededError)[1]
            for c in range(m)
        ]
        records.append([f"election{i}", "winner-pipeline", verdicts])
        for c in range(m):
            steps = _sweep(lambda b: _outcome(lambda: _certificate(e, c, b), BudgetExceededError))
            points += len(steps)
            records.append([f"election{i}", f"score-{c}", steps])
        steps = _sweep(lambda b: _outcome(lambda: sorted(elections.all_winners(e, b)), BudgetExceededError))
        points += len(steps)
        records.append([f"election{i}", "winners", steps])
        for c in range(m):
            steps = _sweep(lambda b: _outcome(lambda: elections.is_carroll_winner(e, c, b), BudgetExceededError))
            points += len(steps)
            records.append([f"election{i}", f"winner-{c}", steps])
            for d in range(m):
                steps = _sweep(
                    lambda b: _outcome(lambda: elections.ties_or_defeats(e, c, d, b), BudgetExceededError)
                )
                points += len(steps)
                records.append([f"election{i}", f"ties-or-defeats-{c}-{d}", steps])
        swaps = [
            _checked(lambda: _rankings(elections.apply_swap(e, v, p)))
            for v in range(-1, n + 1) for p in range(-1, m)
        ]
        records.append([f"election{i}", "swaps", swaps])
        # steps from -1 to m cover -1..depth + 1 at every depth
        raises = [
            _checked(lambda: _rankings(elections.apply_raise(e, c, v, t)))
            for c in range(-1, m + 1) for v in range(-1, n + 1) for t in range(-1, m + 1)
        ]
        records.append([f"election{i}", "raises", raises])
        replays = [
            _checked(lambda: _rankings(elections.replay_witness(e, elections.carroll_score(e, c))))
            for c in range(m)
        ]
        records.append([f"election{i}", "replays", replays])
        outside = [
            _checked(call)
            for c in (-1, m)
            for call in (
                lambda: [e.name_of(c)],
                lambda: elections.defeats(e, c, 0),
                lambda: elections.defeats(e, 0, c),
                lambda: _certificate(e, c, graphs.DEFAULT_BUDGET),
            )
        ]
        records.append([f"election{i}", "outside-ids", outside])
    for i in range(20):
        n = rng.randint(9, 13)
        if rng.random() < 0.4:
            base = [rng.sample(range(5), 5) for _ in range(rng.randint(3, 5))]
            rankings = [rng.choice(base) for _ in range(n)]
        else:
            rankings = [rng.sample(range(5), 5) for _ in range(n)]
        e = elections.Election(
            tuple(elections.Candidate(c, f"c{c}") for c in range(5)),
            tuple(elections.PreferenceOrder(tuple(r)) for r in rankings),
        )
        for c in range(5):
            least, tried = _least_fit(
                lambda b: _outcome(lambda: _certificate(e, c, b), BudgetExceededError)
            )
            points += tried
            records.append([f"election5-{i}", f"score-{c}", least])
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


def _expected(label: str) -> str | None:
    return next((p for p in EXPECTED if fnmatch.fnmatchcase(label, p)), None)


def _budget_move(old: list, new: list, whats: set) -> int | str:
    """How far a sweep's first fitting budget rose, or why the move is wrong."""
    if new[-1] != old[-1]:
        return f"ends in {new[-1]}, the parent in {old[-1]}"
    if len(new) < len(old):
        return "fits a smaller budget than the parent"
    stray = {step[1] for step in new[:-1]} - whats
    if stray:
        return f"names steps the parent never named: {sorted(stray)}"
    return len(new) - len(old)


def _raise_move(old: list, new: list, whats: set) -> int | str:
    """How many `apply_raise` outcomes turned into the candidate check's
    error, or why the move is wrong."""
    if len(new) != len(old):
        return "the outcome lists differ in length"
    moved = 0
    for was, now in zip(old, new):
        if was != now:
            if was[0] != "error" or now[:2] != ["error", "ValueError"] or not now[2].startswith(
                "no candidate with id "
            ):
                return f"{was} became {now}"
            moved += 1
    return moved


def compare(parent: list, change: list) -> int:
    """Print how the change's records differ from the parent's, and return
    the exit status: 0 when every difference is an expected move."""
    if len(parent) != len(change):
        print(f"record counts differ: {len(parent)} vs {len(change)}")
        return 1
    whats: dict[str, set] = {}  # per expected label, the steps the parent named
    for _, label, steps in parent:
        if (pattern := _expected(label)) is not None:
            whats.setdefault(pattern, set()).update(s[1] for s in steps if s[0] == "budget")
    moves: dict[str, list[int]] = {}  # per expected label, [records moved, largest move]
    for old, new in zip(parent, change):
        if old == new:
            continue
        pattern = _expected(old[1]) if old[:2] == new[:2] else None
        if pattern is None:
            print(f"first difference at {old[0]} {old[1]}:\n  parent {old[2]}\n  change {new[2]}")
            return 1
        check = _raise_move if pattern == "raises" else _budget_move
        moved = check(old[2], new[2], whats[pattern])
        if isinstance(moved, str):
            print(f"unexpected move at {old[0]} {old[1]}: {moved}")
            return 1
        count = moves.setdefault(pattern, [0, 0])
        count[0] += 1
        count[1] = max(count[1], moved)
    print(f"{'no difference' if not moves else 'only expected moves'}: {len(parent)} records")
    for pattern, (records, largest) in moves.items():
        unit = "outcomes" if pattern == "raises" else "budget points"
        print(f"  {pattern}: {records} records moved, by at most {largest} {unit} ({EXPECTED[pattern]})")
    return 0


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
    status = compare(parent["records"], change["records"])
    print(f"budget points: {parent['points']} at the parent, {change['points']} with the change")
    return status


if __name__ == "__main__":
    sys.exit(main())
