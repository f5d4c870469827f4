"""One-round batches of yes/no queries answered by the exact solvers.

The decision pipelines here mirror a compute shape where a polynomial-time
driver writes down every question it will ever need, has them all answered
in a single round, and then post-processes the answer vector.  No query may
depend on another query's answer; each pipeline issues exactly one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import elections, graphs
from .elections import Election
from .errors import IntegrityError
from .graphs import DEFAULT_BUDGET, Graph, Ratio

QUERY_KINDS = ("score_at_most", "alpha_geq", "mdg_geq")

_evaluations = 0


def evaluations() -> int:
    """Total evaluate_batch calls so far (lets tests assert single-round use)."""
    return _evaluations


@dataclass(frozen=True)
class Query:
    """One yes/no question: a serialized instance plus a threshold."""

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
    return {"n": g.n, "edges": sorted(list(edge) for edge in g.edges)}


def score_query(e: Election, candidate: int, k: int) -> Query:
    return Query("score_at_most", {"election": election_payload(e), "candidate": candidate, "k": k})


def independence_query(g: Graph, k: int) -> Query:
    return Query("alpha_geq", {"graph": graph_payload(g), "k": k})


def greedy_query(g: Graph, s: int) -> Query:
    return Query("mdg_geq", {"graph": graph_payload(g), "s": s})


def _election_from_payload(payload: dict) -> Election:
    names = payload["candidates"]
    rankings = payload["rankings"]
    candidates = tuple(elections.Candidate(i, str(name)) for i, name in enumerate(names))
    voters = tuple(
        elections.PreferenceOrder(tuple(int(c) for c in ranking)) for ranking in rankings
    )
    return Election(candidates, voters)


def _graph_from_payload(payload: dict) -> Graph:
    return Graph(int(payload["n"]), [(int(u), int(v)) for u, v in payload["edges"]])


def _answer_one(query: Query, budget: int) -> bool:
    if query.kind == "score_at_most":
        e = _election_from_payload(query.payload["election"])
        candidate = int(query.payload["candidate"])
        if not 0 <= candidate < e.num_candidates:
            raise ValueError(f"candidate {candidate} out of range")
        return elections.score_at_most(e, candidate, int(query.payload["k"]), budget)
    if query.kind == "alpha_geq":
        g = _graph_from_payload(query.payload["graph"])
        return graphs.independence_number(g, budget) >= int(query.payload["k"])
    g = _graph_from_payload(query.payload["graph"])
    return graphs.greedy_reaches(g, int(query.payload["s"]), budget)


def evaluate_batch(batch: QueryBatch, budget: int = DEFAULT_BUDGET) -> AnswerVector:
    """Answer every query independently; answers never depend on each other.

    A malformed payload yields a per-query error entry rather than aborting
    the batch.  Resource-limit errors propagate: an exhausted budget is a
    failed computation, not a malformed question.
    """
    global _evaluations
    _evaluations += 1
    answers: list[bool | None] = []
    errors: list[str | None] = []
    for query in batch.queries:
        try:
            answers.append(_answer_one(query, budget))
            errors.append(None)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            answers.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    return AnswerVector(tuple(answers), tuple(errors))


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
        for k in range(len(row) - 1):
            if row[k] and not row[k + 1]:
                raise IntegrityError(f"row {i} is not monotone at threshold {k}")
        scores.append(list(row).index(True))
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
    queries = [
        score_query(e, c, k) for c in range(e.num_candidates) for k in range(width)
    ]
    av = evaluate_batch(QueryBatch(tuple(queries)))
    answers = _strict_answers(av, "carroll_winner_pipeline")
    rows = [answers[c * width : (c + 1) * width] for c in range(e.num_candidates)]
    scores = scores_from_answers(rows)
    return scores[candidate] == min(scores)


def ratio_pipeline(g: Graph, r: Ratio, budget: int = DEFAULT_BUDGET) -> bool:
    """Decide whether greedy achieves ratio r via one batch of queries.

    Asks alpha >= k and greedy >= s for all thresholds, then applies the
    complement test: the graph fails the ratio exactly when some k has
    alpha >= k while the greedy value falls below k divided by r (the
    greedy-side questions enter complemented).  Agrees with
    graphs.achieves_ratio by construction.
    """
    r = graphs._check_ratio(r)
    n = g.n
    alpha_queries = [independence_query(g, k) for k in range(1, n + 1)]
    greedy_queries = [greedy_query(g, s) for s in range(1, n + 1)]
    av = evaluate_batch(QueryBatch(tuple(alpha_queries + greedy_queries)), budget)
    answers = _strict_answers(av, "ratio_pipeline")
    alpha_row = answers[:n]
    greedy_row = answers[n:]
    for name, row in (("alpha", alpha_row), ("greedy", greedy_row)):
        for i in range(len(row) - 1):
            if row[i + 1] and not row[i]:
                raise IntegrityError(f"{name} row is not monotone at threshold {i + 1}")

    def greedy_below(k: int) -> bool:
        # greedy * numerator < k * denominator, via one complemented answer
        s = -(-k * r.denominator // r.numerator)
        return not greedy_row[s - 1]

    fails = any(alpha_row[k - 1] and greedy_below(k) for k in range(1, n + 1))
    return not fails
