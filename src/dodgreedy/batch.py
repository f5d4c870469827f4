"""One-round batches of yes/no queries answered by the exact solvers.

The decision pipelines here mirror a compute shape where a polynomial-time
driver writes down every question it will ever need, has them all answered
in a single round, and then post-processes the answer vector.  No query may
depend on another query's answer; each pipeline issues exactly one batch.

Within a round the evaluator decodes each payload object once, groups the
queries by (solver, instance), solves each group once, and reads every
threshold off that exact value, so asking about one instance at many
thresholds costs one solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import elections, graphs
from .elections import Election
from .errors import IntegrityError
from .graphs import DEFAULT_BUDGET, Graph, Ratio

QUERY_KINDS = ("score_at_most", "alpha_geq", "mdg_geq")

@dataclass(frozen=True)
class Query:
    """One yes/no question: an instance as a plain payload dict plus a threshold."""

    kind: str
    payload: dict

    def __post_init__(self):
        if self.kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind {self.kind!r}")


@dataclass(frozen=True)
class QueryBatch:
    queries: tuple[Query, ...]

    def __len__(self) -> int:
        return len(self.queries)


@dataclass(frozen=True)
class AnswerVector:
    """Per-query booleans; a None answer pairs with an error message."""

    answers: tuple[bool | None, ...]
    errors: tuple[str | None, ...]

    def __post_init__(self):
        if len(self.answers) != len(self.errors):
            raise ValueError("answers and errors must align")


def election_payload(e: Election) -> dict:
    return {
        "candidates": [c.name for c in e.candidates],
        "rankings": [list(v.ranking) for v in e.voters],
    }


def graph_payload(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.sorted_edges()]}


def score_query(e: Election, candidate: int, k: int) -> Query:
    return Query("score_at_most", {"election": election_payload(e), "candidate": candidate, "k": k})


def independence_query(g: Graph, k: int) -> Query:
    return Query("alpha_geq", {"graph": graph_payload(g), "k": k})


def greedy_query(g: Graph, s: int) -> Query:
    return Query("mdg_geq", {"graph": graph_payload(g), "s": s})


def _election_from_payload(payload: dict) -> Election:
    names, rankings = payload["candidates"], payload["rankings"]
    return Election._from_ids(map(str, names), ([int(c) for c in r] for r in rankings))


def _graph_from_payload(payload: dict) -> Graph:
    return Graph(int(payload["n"]), [(int(u), int(v)) for u, v in payload["edges"]])


# payload faults reported per query; anything else (an exhausted budget)
# aborts the batch
_MALFORMED = (KeyError, TypeError, ValueError, IndexError)


def _plan(query: Query, decode) -> tuple[tuple | None, Callable[[object], bool]]:
    """The solve a query needs, as (solver, *instance) or None, and its test.

    The test turns the solved value into the query's answer.
    """
    p = query.payload
    if query.kind == "score_at_most":
        e = decode(p["election"], _election_from_payload)
        candidate = int(p["candidate"])
        if not 0 <= candidate < e.num_candidates:
            raise ValueError(f"candidate {candidate} out of range")
        k = int(p["k"])
        return (elections.carroll_score, e, candidate), lambda cert: cert.score <= k
    g = decode(p["graph"], _graph_from_payload)
    if query.kind == "alpha_geq":
        k = int(p["k"])
        return (graphs.independence_number, g), lambda alpha: alpha >= k
    s = int(p["s"])
    if s <= 0 or s > g.n:  # no greedy run collects more than n picks
        return None, lambda _: s <= 0
    return (graphs.greedy_independence_number, g), lambda greedy: greedy >= s


def evaluate_batch(batch: QueryBatch, budget: int = DEFAULT_BUDGET) -> AnswerVector:
    """Answer every query independently; answers never depend on each other.

    Each distinct (solver, instance) pair is solved once, when a query first
    needs it, and every later query on it reads its answer off that value.  A
    malformed payload yields a per-query error entry rather than aborting
    the batch.  Resource-limit errors propagate: an exhausted budget is a
    failed computation, not a malformed question.
    """
    decoded: dict[tuple[int, Callable], tuple[object, object]] = {}

    def decode(obj, build):
        # keyed by identity; holding obj keeps its id from being reused
        key = (id(obj), build)
        if key not in decoded:
            decoded[key] = (obj, build(obj))
        return decoded[key][1]

    values: dict[tuple | None, object] = {None: None}
    answers: list[bool | None] = []
    errors: list[str | None] = []
    for query in batch.queries:
        try:
            key, test = _plan(query, decode)
            if key not in values:
                solver, *instance = key
                values[key] = solver(*instance, budget)
            answers.append(test(values[key]))
            errors.append(None)
        except _MALFORMED as exc:
            answers.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    return AnswerVector(tuple(answers), tuple(errors))


def _monotone_switch(row: Sequence[bool], label: str, first: int) -> int:
    """Index where a row of threshold answers turns from false to true.

    The row answers thresholds first, first + 1, ... and must read false,
    then true; len(row) if it never turns.  A true answer followed by a
    false one means a solver bug, reported as IntegrityError at the last
    true threshold.
    """
    switch = len(row)
    for i, answer in enumerate(row):
        if answer:
            switch = min(switch, i)
        elif switch < i:
            raise IntegrityError(f"{label} is not monotone at threshold {first + i - 1}")
    return switch


def scores_from_answers(rows: Sequence[Sequence[bool]]) -> list[int]:
    """Read exact scores off monotone threshold rows.

    Row i holds the answers to "is candidate i's score at most k" for
    k = 0, 1, ...; the score is the first true index.  A non-monotone row
    or an all-false row means a solver bug, reported as IntegrityError.
    """
    scores = []
    for i, row in enumerate(rows):
        if not row or not row[-1]:
            raise IntegrityError(f"row {i} never turns true")
        scores.append(_monotone_switch(row, f"row {i}", 0))
    return scores


def _strict_answers(av: AnswerVector, context: str) -> list[bool]:
    for answer, error in zip(av.answers, av.errors):
        if answer is None:
            raise IntegrityError(f"{context}: internally built query failed: {error}")
    return [bool(a) for a in av.answers]


def carroll_winner_pipeline(e: Election, candidate: int) -> bool:
    """Decide Carroll victory via one batch of score-threshold queries.

    Builds all m * (K + 1) questions up front (K is the trivial score cap),
    reads every candidate's exact score from the answer rows, and checks
    the distinguished candidate attains the minimum.  Agrees with
    elections.is_carroll_winner by construction.
    """
    if not 0 <= candidate < e.num_candidates:
        raise ValueError(f"no candidate with id {candidate}")
    cap = elections.max_score(e)
    width = cap + 1
    payload = election_payload(e)  # one shared payload: decoded once, solved once per c
    queries = [
        Query("score_at_most", {"election": payload, "candidate": c, "k": k})
        for c in range(e.num_candidates)
        for k in range(width)
    ]
    av = evaluate_batch(QueryBatch(tuple(queries)))
    answers = _strict_answers(av, "carroll_winner_pipeline")
    rows = [answers[c * width : (c + 1) * width] for c in range(e.num_candidates)]
    scores = scores_from_answers(rows)
    return scores[candidate] == min(scores)


def ratio_pipeline(g: Graph, r: Ratio, budget: int = DEFAULT_BUDGET) -> bool:
    """Decide whether greedy achieves ratio r via one batch of queries.

    Asks alpha >= k and greedy >= k for k = 1..n, reads both exact values
    off the answer rows (each reads true, then false), and applies
    achieves_ratio's integer test to them.  misses_ratio keeps the
    complement form of the same test.
    """
    r = graphs._check_ratio(r)
    n = g.n
    payload = graph_payload(g)  # one shared payload: decoded once, solved once per solver
    queries = [Query("alpha_geq", {"graph": payload, "k": k}) for k in range(1, n + 1)]
    queries += [Query("mdg_geq", {"graph": payload, "s": s}) for s in range(1, n + 1)]
    answers = _strict_answers(evaluate_batch(QueryBatch(tuple(queries)), budget), "ratio_pipeline")
    # a "value >= k" row turns false at index value, so its complement turns true there
    alpha, greedy = (
        _monotone_switch([not a for a in answers[i : i + n]], f"{name} row", 1)
        for i, name in ((0, "alpha"), (n, "greedy"))
    )
    return alpha * r.denominator <= greedy * r.numerator
