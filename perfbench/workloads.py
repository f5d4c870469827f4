"""The benchmark's four workloads: seeded inputs, the requests that use them,
and the checks that decide whether each answer is right.

A workload is a list of requests built from one seed.  run.py sends them
in list order, one after another, and starts over at the top when it runs
out.  Each list is made of rounds with the same instance shapes in the same
order, so every seed asks for the same mix of work and only the random
details differ; that is what keeps two seeds' figures comparable.

Every check is computed from the input alone, outside the timed loop, by
closed forms, brute-force oracles, lower bounds or witness replay, so an
answer is never checked against the solver that produced it.
"""

from __future__ import annotations

import io
import itertools
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from dodgreedy import batch, cli, elections, formats, graphs, oracles, reductions
from dodgreedy.elections import Election
from dodgreedy.graphs import Graph

NAMES5 = ("A", "B", "C", "D", "E")
NAMES4 = NAMES5[:4]


class RequestFailed(Exception):
    """A CLI request exited nonzero."""


@dataclass(frozen=True)
class Request:
    """One user request: `run` sends it and returns its output text,
    `check` returns None for a right output or a reason it is wrong.
    `traits` measures input properties an optimisation may depend on."""

    kind: str
    run: Callable[[], str]
    check: Callable[[str], str | None]
    traits: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    entry_module: str  # what a user imports first; its import time is setup_s
    tail_pct: int  # the highest percentile with >= 10 samples beyond it
    build: Callable[[random.Random, Path], list[Request]]


def call_cli(*argv: str) -> str:
    """Run one CLI verb in-process and return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    if code != 0:
        raise RequestFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _expect(text: str) -> Callable[[str], str | None]:
    return lambda out: None if out == text else f"expected {text!r}, got {out!r}"


def _random_graph(rng: random.Random, n: int, m: int) -> Graph:
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, rng.sample(pairs, m))


def alternate(items) -> list:
    """Cheapest, dearest, next cheapest, next dearest, ... of items listed
    cheapest first, so a list cut short by the deadline costs about as
    much per request as the whole list."""
    items = list(items)
    half = (len(items) + 1) // 2
    low, high = items[:half], items[half:][::-1]
    return [x for pair in itertools.zip_longest(low, high) for x in pair if x is not None]


def _is_independent(g: Graph, vertices) -> bool:
    return not any(g.has_edge(u, v) for u, v in itertools.combinations(vertices, 2))


# --- greedy-exact -----------------------------------------------------------


def band_graph(n: int) -> Graph:
    """P_n^2: the path on n vertices with each vertex also joined to the
    vertex two steps on."""
    return Graph(n, [(i, i + d) for d in (1, 2) for i in range(n - d)])


def _check_band(g: Graph) -> Callable[[str], str | None]:
    # Any three consecutive vertices form a triangle, so alpha <= ceil(n/3);
    # the replayed greedy run below reaches it, so best greedy == alpha.
    def check(out: str) -> str | None:
        bound = -(-g.n // 3)
        picks = graphs.replay_trace(g, graphs.min_degree_greedy(g)[1])
        if len(picks) != bound or not _is_independent(g, picks):
            return f"greedy witness on P_{g.n}^2 has {len(picks)} picks, want {bound}"
        return _expect("in-S[1/1] = yes\n")(out)

    return check


def _check_subdivided(base: Graph, g: Graph) -> Callable[[str], str | None]:
    # alpha(subdivided) = alpha(base) + |E(base)|; a replayed greedy trace of
    # that length proves best greedy == alpha.
    def check(out: str) -> str | None:
        alpha = oracles.independence_by_enumeration(base) + base.num_edges
        picks = graphs.replay_trace(g, graphs.best_greedy_trace(g))
        if len(picks) != alpha:
            return f"greedy witness has {len(picks)} picks, closed-form alpha is {alpha}"
        return _expect("in-S[1/1] = yes\n")(out)

    return check


def _check_by_oracle(g: Graph) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        equal = oracles.independence_by_enumeration(g) == oracles.greedy_max_by_enumeration(g)
        return _expect(f"in-S[1/1] = {'yes' if equal else 'no'}\n")(out)

    return check


def _greedy_miss(rng: random.Random) -> Graph:
    """A sparse random graph on which best greedy misses alpha, by the oracles."""
    while True:
        n = rng.randint(12, 14)
        g = _random_graph(rng, n, 2 * n)
        if oracles.independence_by_enumeration(g) != oracles.greedy_max_by_enumeration(g):
            return g


def build_greedy_exact(rng: random.Random, workdir: Path) -> list[Request]:
    # Each round asks about one band graph, two subdivided graphs and one
    # sparse graph: the median request is a subdivided one and the tail a
    # band one, each well inside its kind.  Sizes are stratified so every
    # seed has the same size profile: band n 100-299, 9-15 base edges (below
    # 9 a solve costs next to nothing), 14-18 sparse vertices.
    rounds = 20
    band_sizes = [100 + 10 * k + rng.randrange(10) for k in alternate(range(rounds))]
    requests = []
    for i, n in enumerate(band_sizes):
        band = band_graph(n)
        bases = [_random_graph(rng, 6, 9 + (2 * i + j) * 7 // (2 * rounds)) for j in (0, 1)]
        subs = [reductions.double_subdivision(b) for b in bases]
        sparse_n = 14 + i % 5
        sparse = _greedy_miss(rng) if i % 4 == 0 else _random_graph(rng, sparse_n, 2 * sparse_n)
        for j, (kind, g, check) in enumerate((
            ("band", band, _check_band(band)),
            ("subdivided", subs[0], _check_subdivided(bases[0], subs[0])),
            ("sparse", sparse, _check_by_oracle(sparse)),
            ("subdivided", subs[1], _check_subdivided(bases[1], subs[1])),
        )):
            path = _write(workdir / f"{kind}-{i}-{j}.graph", formats.format_graph(g))
            argv = ("graph-sr", "--graph", path, "--r", "1/1")
            requests.append(Request(kind, lambda argv=argv: call_cli(*argv), check))
    return requests


# --- carroll-winners --------------------------------------------------------

PERMS5 = list(itertools.permutations(range(5)))
PERMS4 = list(itertools.permutations(range(4)))


def tally(profile) -> list[list[int]]:
    m = len(profile[0])
    wins = [[0] * m for _ in range(m)]
    for ranking in profile:
        for i, a in enumerate(ranking):
            for b in ranking[i + 1 :]:
                wins[a][b] += 1
    return wins


def deficits(profile) -> list[int]:
    """Per candidate, the majority shortfalls summed over rivals.

    Each adjacent swap moves one candidate past one rival in one ranking, so
    it closes at most one unit of one shortfall: the sum is a lower bound on
    the Carroll score that needs no solver.
    """
    wins = tally(profile)
    need = len(profile) // 2 + 1
    m = len(wins)
    return [sum(max(0, need - wins[c][d]) for d in range(m) if d != c) for c in range(m)]


def _beats_all(profile, c: int) -> bool:
    wins = tally(profile)
    return all(2 * wins[c][d] > len(profile) for d in range(len(wins)) if d != c)


def _certified_score(e: Election, c: int, lower: int) -> int | None:
    """c's Carroll score when it can be proven without trusting the solver:
    the solver's witness must replay to a profile where c wins, and its
    length must meet the deficit lower bound or the BFS oracle."""
    cert = elections.carroll_score(e, c)
    replayed = elections.replay_witness(e, cert)
    if len(cert.witness) != cert.score or not _beats_all(
        [v.ranking for v in replayed.voters], c
    ):
        raise AssertionError(f"witness for candidate {c} does not replay")
    if cert.score == lower:
        return cert.score
    if cert.score <= 2:
        return oracles.carroll_score_by_bfs(e, c)
    return None


def winners_truth(e: Election) -> frozenset[int]:
    """The winner set, proven from deficits and replayed witnesses.  A score
    that neither meets its lower bound nor is shallow enough for the BFS
    oracle falls back on the solver's value (none does in the default
    seed's elections)."""
    lower = deficits([v.ranking for v in e.voters])
    scores = {}
    for c in sorted(range(e.num_candidates), key=lambda c: lower[c]):
        if scores and lower[c] > min(scores.values()):
            continue  # cannot tie the best score found so far
        score = _certified_score(e, c, lower[c])
        scores[c] = elections.carroll_score(e, c).score if score is None else score
    low = min(scores.values())
    return frozenset(c for c, s in scores.items() if s == low)


def _profile_with_deficit(rng: random.Random, voters: int, deficit: int, few: bool):
    while True:
        if few:
            base = rng.sample(PERMS5, rng.choice((3, 4, 5)))
            profile = [rng.choice(base) for _ in range(voters)]
        else:
            profile = [rng.choice(PERMS5) for _ in range(voters)]
        if max(deficits(profile)) == deficit:
            return profile


# Each round: 9-13 voters crossed with these largest-deficit targets.  The
# largest deficit lower-bounds the most expensive score in the election and
# predicts its cost, so fixing it per slot fixes the cost profile across
# seeds.  10 is the cap: the cost doubles with each unit above it, and one
# election past 15 can take a minute and swamp a run.
IMPARTIAL_DEFICITS = (6, 8, 10)
FEW_DEFICITS = (8, 10)


def _election_text(names, profile) -> str:
    lines = [" ".join(names)] + [" ".join(names[c] for c in ranking) for ranking in profile]
    return "\n".join(lines) + "\n"


def _check_winners(e: Election) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        winners = winners_truth(e)
        return _expect(f"winner = {' '.join(e.name_of(c) for c in sorted(winners))}\n")(out)

    return check


def build_carroll_winners(rng: random.Random, workdir: Path) -> list[Request]:
    rounds = 20
    slots = alternate(sorted(
        [(d, v, False) for d in IMPARTIAL_DEFICITS for v in range(9, 14)]
        + [(d, v, True) for d in FEW_DEFICITS for v in range(9, 14)]
    ))
    requests = []
    for _ in range(rounds):
        for deficit, voters, few in slots:
            profile = _profile_with_deficit(rng, voters, deficit, few)
            text = _election_text(NAMES5, profile)
            e = formats.parse_election(text)
            path = _write(workdir / f"election-{len(requests)}.txt", text)
            repeats = voters - len(set(profile))
            requests.append(
                Request(
                    "few-rankings" if few else "impartial",
                    lambda path=path: call_cli("election-winner", "--election", path),
                    _check_winners(e),
                    {"identical_voters": float(repeats > 0),
                     "repeated_voter_share": repeats / voters},
                )
            )
    return requests


# --- batch-pipelines --------------------------------------------------------

RATIOS = (Fraction(1), Fraction(3, 2), Fraction(2))
GOLDEN = 0.6180339887498949  # step of the low-discrepancy sequence over rounds


def _check_ratio(g: Graph, r: Fraction) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        direct = graphs.achieves_ratio(g, r)
        if g.n <= 14:
            alpha = oracles.independence_by_enumeration(g)
            greedy = oracles.greedy_max_by_enumeration(g)
            if direct != (alpha * r.denominator <= greedy * r.numerator):
                return "achieves_ratio disagrees with the brute-force oracles"
        return _expect(str(direct))(out)

    return check


def _check_winner_pipeline(e: Election, c: int) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        winners = winners_truth(e)
        if elections.is_carroll_winner(e, c) != (c in winners):
            return "is_carroll_winner disagrees with the proven winner set"
        return _expect(str(c in winners))(out)

    return check


def build_batch_pipelines(rng: random.Random, workdir: Path) -> list[Request]:
    # More rounds than a 25 s run gets through, so the loop rarely asks
    # about an instance twice and the tail percentile is read off thousands
    # of distinct instances rather than the few dearest of a short list (one
    # instance's cost varies several-fold with its random shape).  Edge
    # counts run over n..2n by a low-discrepancy sequence over the rounds,
    # so every prefix of the list, and every seed, has the same edge-count
    # profile.
    rounds = 600
    requests = []
    for k in range(rounds):
        for n in range(10, 19):
            share = (k * GOLDEN + n * 0.1) % 1.0
            g = _random_graph(rng, n, n + int(share * (n + 1)))
            r = rng.choice(RATIOS)
            requests.append(
                Request(
                    "ratio",
                    lambda g=g, r=r: str(batch.ratio_pipeline(g, r)),
                    _check_ratio(g, r),
                )
            )
        for _ in range(3):
            profile = [rng.choice(PERMS4) for _ in range(5)]
            e = formats.parse_election(_election_text(NAMES4, profile))
            c = rng.randrange(4)
            requests.append(
                Request(
                    "carroll-winner",
                    lambda e=e, c=c: str(batch.carroll_winner_pipeline(e, c)),
                    _check_winner_pipeline(e, c),
                )
            )
    return requests


# --- reduction-audit --------------------------------------------------------

# Artifact part sizes asked for in each round.  The part size n fixes the
# artifact's edge count (about 10 n^2) and so the parse cost, which grows as
# n^4.  Seven slots put the median inside the middle size; the largest size
# fills two slots, so the tail percentile falls inside it.
ARTIFACT_SIZES = alternate((6, 10, 14, 18, 22, 26, 26))


def _shapes_by_artifact_size() -> dict[int, list[tuple[int, int, int, int]]]:
    """Every (|V(g)|, |E(g)|, |V(h)|, |E(h)|) on 2-5 vertices, grouped by
    the part size n of the artifact it produces."""
    shapes: dict[int, list] = {}
    sizes = [(v, m) for v in range(2, 6) for m in range(v * (v - 1) // 2 + 1)]
    for (vg, mg), (vh, mh) in itertools.product(sizes, sizes):
        g = Graph(vg, _first_edges(vg, mg))
        g2, h2, k = reductions.pad_edges(g, Graph(vh, _first_edges(vh, mh)))
        n = max(g2.n, h2.n) + 2 * k + 1
        shapes.setdefault(n, []).append((vg, mg, vh, mh))
    return shapes


def _first_edges(n: int, m: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))[:m]


def _check_audit(g: Graph, h: Graph) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        fields = dict(line.split(" = ", 1) for line in lines if " = " in line)
        alpha_g = oracles.independence_by_enumeration(g)
        alpha_h = oracles.independence_by_enumeration(h)
        if "reduction: PASS" not in lines:
            return "verify-reduction did not report PASS"
        if (int(fields["alpha(G)"]), int(fields["alpha(H)"])) != (alpha_g, alpha_h):
            return "alpha(G) or alpha(H) disagrees with the brute-force oracle"
        if fields["mdg"] != fields["mdg(Ghat)"]:
            return f"graph-mdg says {fields['mdg']}, the report {fields['mdg(Ghat)']}"
        if (fields["mdg(Ghat)"] == fields["alpha(Ghat)"]) != (alpha_g == alpha_h):
            return "artifact greedy-optimality does not match alpha(G) == alpha(H)"
        return None

    return check


def build_reduction_audit(rng: random.Random, workdir: Path) -> list[Request]:
    rounds = 8
    shapes = _shapes_by_artifact_size()
    requests = []
    for _ in range(rounds):
        for size in ARTIFACT_SIZES:
            vg, mg, vh, mh = rng.choice(shapes[size])
            g, h = _random_graph(rng, vg, mg), _random_graph(rng, vh, mh)
            i = len(requests)
            paths = [
                _write(workdir / f"pair-{i}-{side}.graph", formats.format_graph(x))
                for side, x in (("g", g), ("h", h))
            ]
            artifact = str(workdir / f"artifact-{i}.graph")

            def audit(paths=paths, artifact=artifact) -> str:
                report = call_cli(
                    "verify-reduction", "--graph", paths[0], "--graph2", paths[1],
                    "--emit-artifact", artifact,
                )
                return report + call_cli("graph-mdg", "--graph", artifact)

            requests.append(Request(f"n={size}", audit, _check_audit(g, h)))
    return requests


# name, entry module, tail percentile, build function; why each was chosen is
# recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("greedy-exact", "dodgreedy.cli", 95, build_greedy_exact),
        Workload("carroll-winners", "dodgreedy.cli", 96, build_carroll_winners),
        Workload("batch-pipelines", "dodgreedy", 99, build_batch_pipelines),
        Workload("reduction-audit", "dodgreedy.cli", 81, build_reduction_audit),
    )
}
