"""Full small-instance verification suites behind the acceptance gate.

Each check pits a production solver against an independent oracle (or a
hand-checked worked example) over an exhaustively enumerated corpus, and
returns a CheckResult instead of raising, so a driver can print the whole
pass/fail matrix in one run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

from . import batch, elections, formats, graphs, oracles, reductions
from .elections import Election
from .errors import BudgetExceededError
from .graphs import Graph

CYCLE_ELECTION_TEXT = """\
# three voters, one strict pairwise-majority cycle
C D P
P C D
D P C
C D P
"""

TIE_ELECTION_TEXT = """\
# four voters; P wins outright, C and D tie-or-defeat each other
C D P
C P D
P C D
P D C
D P C
"""

RANDOM_SEED = 20260810
RANDOM_PAIRS = 50  # random 1-4-vertex pairs the reduction check adds to the tiny ones


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name: str, started: float, failures: list[str], detail: str) -> CheckResult:
    if failures:
        detail = f"{detail}; FAILED: {failures[0]}" + (
            f" (+{len(failures) - 1} more)" if len(failures) > 1 else ""
        )
    return CheckResult(name, not failures, detail, time.perf_counter() - started)


def cycle_election() -> Election:
    return formats.parse_election(CYCLE_ELECTION_TEXT)


def tie_election() -> Election:
    return formats.parse_election(TIE_ELECTION_TEXT)


def all_graphs(n: int):
    """Every labeled graph on n vertices, in edge-bitmask order."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def graph_corpus() -> list[Graph]:
    """Exhaustive graphs on up to 6 vertices plus 200 random 7-vertex ones."""
    corpus = []
    for n in range(1, 7):
        corpus.extend(all_graphs(n))
    rng = random.Random(RANDOM_SEED)
    corpus.extend(random_graph(rng, 7) for _ in range(200))
    return corpus


def nonisomorphic_trees(max_order: int):
    import networkx as nx  # only here, so importing the CLI stays cheap

    yield Graph(1)
    yield Graph.path(2)
    for order in range(3, max_order + 1):
        for tree in nx.nonisomorphic_trees(order):
            yield Graph(order, list(tree.edges()))


def all_profiles(m: int, n: int):
    return product(permutations(range(m)), repeat=n)


def election_from_profile(profile) -> Election:
    return Election._from_ids((f"c{i}" for i in range(len(profile[0]))), profile)


def check_golden_vectors() -> CheckResult:
    """Worked 3- and 4-voter examples: scores, winners, and the cycle."""
    started = time.perf_counter()
    failures: list[str] = []
    four = tie_election()
    p, c, d = four.id_of("P"), four.id_of("C"), four.id_of("D")
    scores = {name: elections.carroll_score(four, four.id_of(name)).score for name in "PCD"}
    if scores != {"P": 0, "C": 3, "D": 3}:
        failures.append(f"4-voter scores {scores}")
    if elections.condorcet_winner(four) != p:
        failures.append("4-voter Condorcet winner is not P")
    if elections.all_winners(four) != frozenset({p}):
        failures.append("4-voter winners are not exactly {P}")
    if not (elections.ties_or_defeats(four, c, d) and elections.ties_or_defeats(four, d, c)):
        failures.append("C and D do not tie-or-defeat each other")

    three = cycle_election()
    p3, c3, d3 = three.id_of("P"), three.id_of("C"), three.id_of("D")
    if elections.condorcet_winner(three) is not None:
        failures.append("3-voter election has a Condorcet winner")
    cyc = (
        elections.defeats(three, c3, d3)
        and elections.defeats(three, p3, c3)
        and elections.defeats(three, d3, p3)
    )
    if not cyc:
        failures.append("3-voter pairwise cycle C>D, P>C, D>P missing")
    return _result("golden-vectors", started, failures, "2 golden elections")


def check_score_oracle() -> CheckResult:
    """DP scores equal full-profile-space BFS swap distances."""
    started = time.perf_counter()
    failures: list[str] = []
    cases = 0
    for m in range(1, 4):
        for n in range(1, 4):
            for c in range(m):
                dist = oracles.condorcet_distances(m, n, c)
                for profile in all_profiles(m, n):
                    e = election_from_profile(profile)
                    got = elections.carroll_score(e, c).score
                    if got != dist[profile]:
                        failures.append(
                            f"m={m} n={n} c={c} profile={profile}: {got} != {dist[profile]}"
                        )
                    cases += 1
    return _result("score-oracle", started, failures, f"{cases} profile/candidate cases")


def check_greedy_and_ratio() -> tuple[CheckResult, CheckResult]:
    """Best-greedy values vs naive tie enumeration, then ratio-class checks."""
    corpus = graph_corpus()
    started = time.perf_counter()
    greedy_failures: list[str] = []
    for g in corpus:
        solver = graphs.greedy_independence_number(g)
        naive = oracles.greedy_max_by_enumeration(g)
        alpha = graphs.independence_number(g)
        if solver != naive:
            greedy_failures.append(f"{g!r}: solver {solver} != naive {naive}")
        if solver > alpha:
            greedy_failures.append(f"{g!r}: greedy {solver} exceeds alpha {alpha}")
    greedy = _result(
        "greedy-oracle", started, greedy_failures, f"{len(corpus)} graphs"
    )

    started = time.perf_counter()
    ratio_failures: list[str] = []
    ratios = (Fraction(1), Fraction(3, 2), Fraction(2))
    for g in corpus:
        inside = [graphs.achieves_ratio(g, r) for r in ratios]
        outside = [graphs.misses_ratio(g, r) for r in ratios]
        for r, a, b in zip(ratios, inside, outside):
            if a == b:
                ratio_failures.append(f"{g!r} r={r}: membership and complement agree")
        for i in range(len(ratios) - 1):
            if inside[i] and not inside[i + 1]:
                ratio_failures.append(f"{g!r}: ratio monotonicity violated")
    ratio = _result(
        "ratio-consistency", started, ratio_failures, f"{len(corpus)} graphs x 3 ratios"
    )
    return greedy, ratio


def check_trees_greedy_optimal() -> CheckResult:
    """Best-case greedy finds a maximum independent set on every small tree."""
    started = time.perf_counter()
    failures: list[str] = []
    count = 0
    for tree in nonisomorphic_trees(9):
        count += 1
        alpha = graphs.independence_number(tree)
        if graphs.greedy_independence_number(tree) != alpha:
            failures.append(f"{tree!r}")
        if not graphs.achieves_ratio(tree, 1):
            failures.append(f"{tree!r} fails ratio 1")
    return _result("trees-greedy-optimal", started, failures, f"{count} trees")


def check_transform_contract() -> CheckResult:
    """Double subdivision lifts alpha by the edge count and stays greedy-optimal."""
    started = time.perf_counter()
    failures: list[str] = []
    count = 0
    for n in range(1, 7):
        for g in all_graphs(n):
            count += 1
            k = g.num_edges
            lifted = reductions.double_subdivision(g)
            alpha = graphs.independence_number(g)
            alpha_lifted = graphs.independence_number(lifted)
            if lifted.n != g.n + 2 * k or alpha_lifted != alpha + k:
                failures.append(f"{g!r}: lift broke alpha")
                continue
            if graphs.greedy_independence_number(lifted) != alpha_lifted:
                failures.append(f"{g!r}: lifted graph not greedy-optimal")
    return _result("transform-contract", started, failures, f"{count} graphs")


def check_reduction_soundness() -> CheckResult:
    """verify_reduction passes on exhaustive tiny pairs and random pairs.

    A budget overrun or a pair running past 60 seconds counts as a failure
    of the run, never a silent skip.
    """
    started = time.perf_counter()
    failures: list[str] = []
    tiny = [g for n in range(1, 4) for g in all_graphs(n)]
    pairs = [(g, h) for g in tiny for h in tiny]
    rng = random.Random(RANDOM_SEED + 1)
    for _ in range(RANDOM_PAIRS):
        pairs.append((random_graph(rng, rng.randint(1, 4)), random_graph(rng, rng.randint(1, 4))))
    slowest = 0.0
    for g, h in pairs:
        pair_start = time.perf_counter()
        try:
            report = reductions.verify_reduction(g, h)
        except BudgetExceededError as exc:
            failures.append(f"({g!r}, {h!r}): budget overrun in {exc.what}")
            continue
        elapsed = time.perf_counter() - pair_start
        slowest = max(slowest, elapsed)
        if elapsed > 60.0:
            failures.append(f"({g!r}, {h!r}): pair took {elapsed:.1f}s (budget 60s)")
        if not report.passed:
            bad = [name for name, ok in report.checks if not ok]
            failures.append(f"({g!r}, {h!r}): {', '.join(bad)}")
    detail = f"{len(pairs)} pairs, slowest {slowest:.2f}s"
    return _result("reduction-soundness", started, failures, detail)


def check_pipeline_agreement() -> CheckResult:
    """One-batch pipelines agree with the direct solvers on all small instances."""
    started = time.perf_counter()
    failures: list[str] = []

    election_instances = [cycle_election(), tie_election()]
    for m in range(1, 4):
        for n in range(1, 4):
            election_instances.extend(
                election_from_profile(p) for p in all_profiles(m, n)
            )
    for e in election_instances:
        for c in range(e.num_candidates):
            if batch.carroll_winner_pipeline(e, c) != elections.is_carroll_winner(e, c):
                failures.append(f"winner pipeline disagrees on {e!r} candidate {c}")

    ratios = (Fraction(1), Fraction(3, 2), Fraction(2))
    graph_instances = graph_corpus() + list(nonisomorphic_trees(9))
    for g in graph_instances:
        for r in ratios:
            if batch.ratio_pipeline(g, r) != graphs.achieves_ratio(g, r):
                failures.append(f"ratio pipeline disagrees on {g!r} r={r}")
    detail = f"{len(election_instances)} elections, {len(graph_instances)} graphs x 3 ratios"
    return _result("pipeline-agreement", started, failures, detail)


def check_witness_replay() -> CheckResult:
    """The worked 4-voter witness (raise C once in voter 2, twice in voter 4)."""
    started = time.perf_counter()
    failures: list[str] = []
    e = tie_election()
    c = e.id_of("C")
    raised = elections.apply_raise(e, c, 1, 1)
    raised = elections.apply_raise(raised, c, 3, 2)
    expected = [("C", "P", "D"), ("C", "P", "D"), ("P", "D", "C"), ("C", "D", "P")]
    got = [tuple(e.name_of(x) for x in voter.ranking) for voter in raised.voters]
    if got != expected:
        failures.append(f"raised profile {got}")
    if elections.condorcet_winner(raised) != c:
        failures.append("C is not a Condorcet winner after the witness raises")
    cert = elections.carroll_score(e, c)
    replayed = elections.replay_witness(e, cert)
    if len(cert.witness) != cert.score:
        failures.append("witness length differs from score")
    if elections.condorcet_winner(replayed) != c:
        failures.append("certificate witness does not make C a Condorcet winner")
    return _result("witness-replay", started, failures, "worked 4-voter example")


def run_all() -> list[CheckResult]:
    """Run every suite; order follows the acceptance criteria."""
    results = [check_golden_vectors(), check_score_oracle()]
    results.extend(check_greedy_and_ratio())
    results.append(check_trees_greedy_optimal())
    results.append(check_transform_contract())
    results.append(check_reduction_soundness())
    results.append(check_pipeline_agreement())
    results.append(check_witness_replay())
    return results
