"""One-round batches of yes/no queries answered by the exact solvers.

The decision pipelines here mirror a compute shape where a polynomial-time
driver writes down every question it will ever need, has them all answered
in a single round, and then post-processes the answer vector.  No query may
depend on another query's answer; each pipeline issues exactly one batch.

Each query is built directly as `Query(kind, instance, k[, candidate])`
and carries its own `Graph` or `Election`.  Within a round the evaluator
groups the queries by (solver, instance), solves each group once, and reads
every threshold off that exact value, so asking about one instance at many
thresholds costs one solve.  Instances are immutable and compare by value,
so equal but separate instances share one solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import elections, graphs
from .elections import Election
from .errors import IntegrityError, _Ledger, _require_int
from .graphs import DEFAULT_BUDGET, Graph, Ratio

QUERY_KINDS = {"score_at_most": Election, "alpha_geq": Graph, "mdg_geq": Graph}

@dataclass(frozen=True)
class Query:
    """One yes/no question about an instance at threshold k.

    `score_at_most` asks about a candidate of an `Election`; `alpha_geq` and
    `mdg_geq` ask about a `Graph` and take no candidate.  The threshold and
    the candidate must be ints, not bools: anything else is a per-query
    TypeError when the batch is answered.
    """

    kind: str
    instance: Graph | Election
    k: int
    candidate: int | None = None

    def __post_init__(self):
        if self.kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind {self.kind!r}")
        want = QUERY_KINDS[self.kind]
        if not isinstance(self.instance, want):
            got = type(self.instance).__name__
            raise TypeError(f"{self.kind} query: instance must be {want.__name__}, not {got}")


@dataclass(frozen=True)
class QueryBatch:
    queries: tuple[Query, ...]


@dataclass(frozen=True)
class AnswerVector:
    """Per-query booleans; a None answer pairs with an error message."""

    answers: tuple[bool | None, ...]
    errors: tuple[str | None, ...]

    def __post_init__(self):
        if len(self.answers) != len(self.errors):
            raise ValueError("answers and errors must align")


def _plan(query: Query) -> tuple[tuple | None, Callable[[object], bool]]:
    """The solve a query needs, as (solver, *instance) or None, and its test.

    The test turns the solved value into the query's answer.  A bad
    threshold or candidate raises here, before any solve.
    """
    # int() would truncate 1.5 to 1 and parse "1", and True is an int: each
    # would give a wrong verdict with no error
    k, candidate = _require_int("threshold", query.k), query.candidate
    if query.kind == "score_at_most":
        e = query.instance
        return (elections._score, e, e._candidate(candidate)), lambda score: score <= k
    if candidate is not None:
        raise TypeError(f"{query.kind} query takes no candidate, got {candidate!r}")
    g = query.instance
    if query.kind == "alpha_geq":
        return (graphs._alpha, g), lambda alpha: alpha >= k
    if k <= 0 or k > g.n:  # no greedy run collects more than n picks
        return None, lambda _: k <= 0
    return (graphs._greedy, g), lambda greedy: greedy >= k


def evaluate_batch(batch: QueryBatch, budget: int = DEFAULT_BUDGET) -> AnswerVector:
    """Answer every query independently; answers never depend on each other.

    Each distinct (solver, instance) pair is solved once, when a query first
    needs it, and every later query on it reads its answer off that value.  A
    bad threshold or candidate yields a per-query error entry rather than
    aborting the batch.  Resource-limit errors propagate: an exhausted
    budget is a failed computation, not a malformed question.
    """
    ledger = _Ledger(budget)
    values: dict[tuple | None, object] = {None: None}
    answers: list[bool | None] = []
    errors: list[str | None] = []
    for query in batch.queries:
        try:
            key, test = _plan(query)
            if key not in values:
                solver, *instance = key
                values[key] = solver(*instance, ledger)
            answers.append(test(values[key]))
            errors.append(None)
        except (TypeError, ValueError) as exc:
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


def carroll_winner_pipeline(e: Election, candidate: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Decide Carroll victory via one batch of score-threshold queries.

    Builds all m * (K + 1) questions up front (K is the trivial score cap),
    reads every candidate's exact score from the answer rows, and checks
    the distinguished candidate attains the minimum.  Agrees with
    elections.is_carroll_winner by construction.
    """
    e._candidate(candidate)
    cap = elections.max_score(e)
    width = cap + 1
    queries = [
        Query("score_at_most", e, k, c) for c in range(e.num_candidates) for k in range(width)
    ]
    av = evaluate_batch(QueryBatch(tuple(queries)), budget)
    answers = _strict_answers(av, "carroll_winner_pipeline")
    rows = [answers[c * width : (c + 1) * width] for c in range(e.num_candidates)]
    scores = scores_from_answers(rows)
    return scores[candidate] == min(scores)


def ratio_pipeline(g: Graph, r: Ratio, budget: int = DEFAULT_BUDGET) -> bool:
    """Decide whether greedy achieves ratio r via one batch of queries.

    Asks alpha >= k and greedy >= k for k = 1..n, reads both exact values
    off the answer rows (each reads true, then false), and applies
    achieves_ratio's integer test to them.  oracles.misses_ratio keeps the
    complement form of the same test.
    """
    r = graphs._check_ratio(r)
    n = g.n
    queries = [Query(kind, g, k) for kind in ("alpha_geq", "mdg_geq") for k in range(1, n + 1)]
    answers = _strict_answers(evaluate_batch(QueryBatch(tuple(queries)), budget), "ratio_pipeline")
    # a "value >= k" row turns false at index value, so its complement turns true there
    alpha, greedy = (
        _monotone_switch([not a for a in answers[i : i + n]], f"{name} row", 1)
        for i, name in ((0, "alpha"), (n, "greedy"))
    )
    return alpha * r.denominator <= greedy * r.numerator
