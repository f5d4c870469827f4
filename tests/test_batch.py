import collections
import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dodgreedy import batch as qb
from dodgreedy import elections as el
from dodgreedy import graphs as gr
from dodgreedy.errors import BudgetExceededError, IntegrityError
from dodgreedy.graphs import Graph


def count_batches(monkeypatch) -> list:
    """Swap qb.evaluate_batch for a wrapper that logs each call's batch."""
    evaluate = qb.evaluate_batch
    rounds = []

    def counted(batch, *args, **kwargs):
        rounds.append(batch)
        return evaluate(batch, *args, **kwargs)

    monkeypatch.setattr(qb, "evaluate_batch", counted)
    return rounds


class TestQueries:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            qb.Query("alpha_leq", Graph(1), 1)

    def test_empty_batch(self):
        av = qb.evaluate_batch(qb.QueryBatch(()))
        assert av.answers == () and av.errors == ()

    def test_golden_score_row(self, four_voter):
        c = four_voter.id_of("C")
        queries = tuple(qb.Query("score_at_most", four_voter, k, c) for k in range(4))
        av = qb.evaluate_batch(qb.QueryBatch(queries))
        assert av.answers == (False, False, False, True)

    def test_alpha_thresholds(self):
        k3 = Graph.complete(3)
        av = qb.evaluate_batch(
            qb.QueryBatch((qb.Query("alpha_geq", k3, 1), qb.Query("alpha_geq", k3, 2)))
        )
        assert av.answers == (True, False)

    def test_greedy_thresholds(self):
        star = Graph.star(3)
        av = qb.evaluate_batch(
            qb.QueryBatch((qb.Query("mdg_geq", star, 3), qb.Query("mdg_geq", star, 4)))
        )
        assert av.answers == (True, False)

    def test_mismatched_instance_rejected_when_built(self, four_voter):
        with pytest.raises(TypeError, match="alpha_geq query: instance must be Graph, not Election"):
            qb.Query("alpha_geq", four_voter, 1)
        with pytest.raises(TypeError, match="mdg_geq query: instance must be Graph, not dict"):
            qb.Query("mdg_geq", {"n": 2, "edges": []}, 1)
        with pytest.raises(TypeError, match="score_at_most query: instance must be Election, not Graph"):
            qb.Query("score_at_most", Graph.complete(3), 0, 0)

    def test_score_budget_is_honoured(self, four_voter):
        query = qb.Query("score_at_most", four_voter, 3, four_voter.id_of("C"))
        with pytest.raises(BudgetExceededError):
            qb.evaluate_batch(qb.QueryBatch((query,)), budget=1)

    def test_candidate_out_of_range_is_malformed(self, four_voter):
        queries = tuple(qb.Query("score_at_most", four_voter, 0, c) for c in (9, -1))
        av = qb.evaluate_batch(qb.QueryBatch(queries))
        assert av.answers == (None, None)
        assert av.errors == ("ValueError: no candidate with id 9", "ValueError: no candidate with id -1")

    def test_bad_threshold_is_reported_before_the_solve(self, four_voter):
        # at budget 0 every solve runs out, so a threshold read after its
        # solve would abort the whole batch instead of failing one query
        graph = Graph.cycle(7)
        queries = (
            qb.Query("alpha_geq", graph, "x"),
            qb.Query("mdg_geq", graph, "x"),
            qb.Query("score_at_most", four_voter, "x", 0),
        )
        av = qb.evaluate_batch(qb.QueryBatch(queries), budget=0)
        assert av.answers == (None, None, None)
        assert av.errors == ("TypeError: threshold must be an int, got 'x'",) * 3

    def test_non_int_threshold_or_candidate_is_malformed(self, four_voter):
        from fractions import Fraction

        # int() would truncate these to a threshold of 1, 3 and a candidate
        # of 1, whose verdicts (True, True, False) are wrong for 1.5 and 3.5
        queries = (
            qb.Query("alpha_geq", Graph.complete(3), 1.5),
            qb.Query("mdg_geq", Graph.star(3), 3.5),
            qb.Query("score_at_most", four_voter, 3, 1.7),
            qb.Query("alpha_geq", Graph.complete(3), "1"),
            qb.Query("mdg_geq", Graph.star(3), Fraction(3, 2)),
        )
        av = qb.evaluate_batch(qb.QueryBatch(queries))
        assert av.answers == (None,) * 5
        assert av.errors == (
            "TypeError: threshold must be an int, got 1.5",
            "TypeError: threshold must be an int, got 3.5",
            "TypeError: candidate must be an int, got 1.7",
            "TypeError: threshold must be an int, got '1'",
            "TypeError: threshold must be an int, got Fraction(3, 2)",
        )


    def test_bool_or_stray_candidate_is_malformed(self, four_voter):
        # each was answered before as if True were 1 and the candidate unset;
        # at budget 0 every solve runs out, so each must fail before its solve
        star = Graph.star(3)
        queries = (
            qb.Query("alpha_geq", star, 3, "x"),
            qb.Query("alpha_geq", star, True),
            qb.Query("score_at_most", four_voter, 0, True),
        )
        av = qb.evaluate_batch(qb.QueryBatch(queries), budget=0)
        assert av.answers == (None,) * 3
        assert av.errors == (
            "TypeError: alpha_geq query takes no candidate, got 'x'",
            "TypeError: threshold must be an int, got True",
            "TypeError: candidate must be an int, got True",
        )


class TestScoresFromAnswers:
    def test_immediate_true_scores_zero(self):
        assert qb.scores_from_answers([[True, True]]) == [0]

    def test_golden_rows(self, four_voter):
        cap = el.max_score(four_voter)
        rows = []
        for c in range(four_voter.num_candidates):
            rows.append([el.score_at_most(four_voter, c, k) for k in range(cap + 1)])
        by_name = dict(
            zip((four_voter.name_of(c) for c in range(3)), qb.scores_from_answers(rows))
        )
        assert by_name == {"P": 0, "C": 3, "D": 3}

    def test_last_minute_true(self):
        row = [False] * 6 + [True]
        assert qb.scores_from_answers([row]) == [6]

    def test_non_monotone_row_rejected(self):
        with pytest.raises(IntegrityError):
            qb.scores_from_answers([[False, True, False, True]])

    def test_never_true_row_rejected(self):
        with pytest.raises(IntegrityError):
            qb.scores_from_answers([[False, False]])


class TestUniformity:
    def test_deterministic(self, four_voter):
        queries = tuple(
            qb.Query("score_at_most", four_voter, k, c) for c in range(3) for k in range(3)
        )
        first = qb.evaluate_batch(qb.QueryBatch(queries))
        second = qb.evaluate_batch(qb.QueryBatch(queries))
        assert first == second

    def test_order_independence(self, four_voter, greedy_gap_graph):
        queries = [
            qb.Query("score_at_most", four_voter, k, c) for c in range(3) for k in range(4)
        ]
        queries += [qb.Query("alpha_geq", greedy_gap_graph, k) for k in range(1, 5)]
        queries += [qb.Query("mdg_geq", greedy_gap_graph, s) for s in range(1, 5)]
        baseline = qb.evaluate_batch(qb.QueryBatch(tuple(queries))).answers
        rng = random.Random(11)
        for _ in range(3):
            order = list(range(len(queries)))
            rng.shuffle(order)
            shuffled = qb.evaluate_batch(
                qb.QueryBatch(tuple(queries[i] for i in order))
            ).answers
            assert shuffled == tuple(baseline[i] for i in order)


class TestWinnerPipeline:
    def test_golden_agreement(self, four_voter):
        for name, expected in (("P", True), ("C", False), ("D", False)):
            assert qb.carroll_winner_pipeline(four_voter, four_voter.id_of(name)) is expected

    def test_single_candidate(self):
        e = el.Election.from_names(["only"], [["only"]])
        assert qb.carroll_winner_pipeline(e, 0)

    def test_single_round(self, four_voter, monkeypatch):
        rounds = count_batches(monkeypatch)
        qb.carroll_winner_pipeline(four_voter, 0)
        assert len(rounds) == 1

    def test_rejects_unknown_candidate(self, four_voter):
        with pytest.raises(ValueError):
            qb.carroll_winner_pipeline(four_voter, 5)

    def test_budget_is_honoured(self, four_voter):
        with pytest.raises(BudgetExceededError):
            qb.carroll_winner_pipeline(four_voter, four_voter.id_of("C"), budget=1)


class TestRatioPipeline:
    def test_complete_graph(self):
        assert qb.ratio_pipeline(Graph.complete(4), 1)

    def test_gap_graph(self, greedy_gap_graph):
        from fractions import Fraction

        assert not qb.ratio_pipeline(greedy_gap_graph, 1)
        assert qb.ratio_pipeline(greedy_gap_graph, Fraction(3, 2))

    def test_edgeless(self):
        from fractions import Fraction

        assert qb.ratio_pipeline(Graph.empty(4), Fraction(3, 2))
        assert qb.ratio_pipeline(Graph(0), 1)

    def test_single_round(self, greedy_gap_graph, monkeypatch):
        rounds = count_batches(monkeypatch)
        qb.ratio_pipeline(greedy_gap_graph, 2)
        assert len(rounds) == 1

    def test_rejects_small_ratio(self):
        from fractions import Fraction

        with pytest.raises(ValueError):
            qb.ratio_pipeline(Graph(1), Fraction(1, 2))

    def test_rejects_float_ratio(self, greedy_gap_graph):
        from fractions import Fraction

        # alpha 6 vs greedy 5: exactly ratio 6/5, which the float 1.2 lies below
        g = Graph(10, greedy_gap_graph.edges)
        assert qb.ratio_pipeline(g, Fraction(6, 5))
        with pytest.raises(TypeError):
            qb.ratio_pipeline(g, 1.2)

    @pytest.mark.parametrize(
        "answers, errors, message",
        [
            ((True, False, True, True, True, False), (None,) * 6,
             "alpha row is not monotone at threshold 2"),
            ((True, True, False, True, False, True), (None,) * 6,
             "greedy row is not monotone at threshold 2"),
            ((True, None, False, True, True, False), (None, "forged", None, None, None, None),
             "ratio_pipeline: internally built query failed: forged"),
        ],
    )
    def test_forged_answers_are_integrity_errors(self, monkeypatch, answers, errors, message):
        forged = qb.AnswerVector(answers, errors)
        monkeypatch.setattr(qb, "evaluate_batch", lambda batch, budget: forged)
        with pytest.raises(IntegrityError, match=message):
            qb.ratio_pipeline(Graph.path(3), 1)


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(deadline=None, max_examples=30)
def test_pipeline_matches_direct(m, n, data):
    base = tuple(range(m))
    rankings = [data.draw(st.permutations(base)) for _ in range(n)]
    e = el.Election(
        tuple(el.Candidate(i, f"c{i}") for i in range(m)),
        tuple(el.PreferenceOrder(tuple(r)) for r in rankings),
    )
    for c in range(m):
        assert qb.carroll_winner_pipeline(e, c) == el.is_carroll_winner(e, c)


@given(st.integers(0, 6), st.data())
@settings(deadline=None, max_examples=40)
def test_ratio_pipeline_matches_direct(n, data):
    import itertools
    from fractions import Fraction

    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for p in pairs if data.draw(st.booleans())]
    g = Graph(n, edges)
    for r in (Fraction(1), Fraction(3, 2), Fraction(2)):
        assert qb.ratio_pipeline(g, r) == gr.achieves_ratio(g, r)


def direct(query):
    """One query answered on its own by the public solvers, as (answer, error)."""
    try:
        k, candidate = query.k, query.candidate
        if isinstance(k, bool) or not isinstance(k, int):
            raise TypeError(f"threshold must be an int, got {k!r}")
        if query.kind == "score_at_most":
            if isinstance(candidate, bool) or not isinstance(candidate, int):
                raise TypeError(f"candidate must be an int, got {candidate!r}")
            return el.score_at_most(query.instance, candidate, k), None
        if candidate is not None:
            raise TypeError(f"{query.kind} query takes no candidate, got {candidate!r}")
        if query.kind == "alpha_geq":
            return gr.independence_number(query.instance) >= k, None
        return gr.greedy_reaches(query.instance, k), None
    except (TypeError, ValueError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def rebuilt(query):
    """The same query on an equal but separate copy of its instance."""
    x = query.instance
    if isinstance(x, Graph):
        copy = Graph(x.n, x.edges)
    else:
        copy = el.Election.from_names(
            [c.name for c in x.candidates],
            [[x.name_of(c) for c in v.ranking] for v in x.voters],
        )
    assert copy == x and copy is not x
    return dataclasses.replace(query, instance=copy)


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_mixed_batch_matches_direct_verdicts(data):
    import itertools

    pool = []
    for n in data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=2)):
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, [p for p in pairs if data.draw(st.booleans())])
        for k in range(-1, n + 2):
            pool.append(qb.Query("alpha_geq", g, k))
            pool.append(qb.Query("mdg_geq", g, k))
        pool.append(qb.Query("alpha_geq", g, "many"))
        pool.append(qb.Query("mdg_geq", g, None))
        for k in (0.5, n - 0.5, n + 0.5, True, False):  # int() would truncate these
            pool.append(qb.Query("alpha_geq", g, k))
            pool.append(qb.Query("mdg_geq", g, k))
        for candidate in ("x", 0, False):  # a graph query takes no candidate
            pool.append(qb.Query("alpha_geq", g, 1, candidate))
            pool.append(qb.Query("mdg_geq", g, 1, candidate))
    m = data.draw(st.integers(1, 3))
    rankings = [data.draw(st.permutations(range(m))) for _ in range(data.draw(st.integers(1, 3)))]
    e = el.Election(
        tuple(el.Candidate(i, f"c{i}") for i in range(m)),
        tuple(el.PreferenceOrder(tuple(r)) for r in rankings),
    )
    for c in range(-1, m + 1):
        for k in range(el.max_score(e) + 1):
            pool.append(qb.Query("score_at_most", e, k, c))
    pool.append(qb.Query("score_at_most", e, "many", 0))
    pool.append(qb.Query("score_at_most", e, 0.5, 0))
    pool.append(qb.Query("score_at_most", e, 0, 0.7))
    pool.append(qb.Query("score_at_most", e, True, 0))
    pool.append(qb.Query("score_at_most", e, 0, True))
    pool.append(qb.Query("score_at_most", e, 0, False))
    pool.append(qb.Query("score_at_most", e, 0))  # no candidate

    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    queries = [pool[i] for i in picks]
    copies = [rebuilt(q) for q in queries]
    queries += data.draw(st.lists(st.sampled_from(copies), max_size=20)) if copies else []
    queries = data.draw(st.permutations(queries))

    av = qb.evaluate_batch(qb.QueryBatch(tuple(queries)))
    assert list(zip(av.answers, av.errors)) == [direct(q) for q in queries]


def batch_score_error(e, c):
    """The error a one-query batch reports for a score query on candidate c."""
    return qb.evaluate_batch(qb.QueryBatch((qb.Query("score_at_most", e, 0, c),))).errors[0]


CANDIDATE_CALLS = {
    "name_of": lambda e, c: e.name_of(c),
    "defeats": lambda e, c: el.defeats(e, c, 0),
    "defeats-rival": lambda e, c: el.defeats(e, 0, c),
    "carroll_score": el.carroll_score,
    "score_at_most": lambda e, c: el.score_at_most(e, c, 0),
    "ties_or_defeats": lambda e, c: el.ties_or_defeats(e, c, 0),
    "ties_or_defeats-rival": lambda e, c: el.ties_or_defeats(e, 0, c),
    "is_carroll_winner": el.is_carroll_winner,
    "carroll_winner_pipeline": qb.carroll_winner_pipeline,
    "batch score query": batch_score_error,
}


@pytest.mark.parametrize("call", CANDIDATE_CALLS.values(), ids=CANDIDATE_CALLS)
def test_every_candidate_call_rejects_ids_outside_the_election(four_voter, call):
    for c in (-1, four_voter.num_candidates):
        try:
            error = call(four_voter, c)
        except ValueError as exc:
            error = f"ValueError: {exc}"
        assert error == f"ValueError: no candidate with id {c}"


def test_one_solve_per_distinct_instance(monkeypatch, greedy_gap_graph, four_voter):
    calls = collections.Counter()

    def counted(module, name):
        solver = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return solver(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    # the batch solves through the ledger-charged private entry points
    counted(gr, "_alpha")
    counted(gr, "_greedy")
    counted(el, "_score")

    qb.ratio_pipeline(greedy_gap_graph, 1)
    assert calls == {"_alpha": 1, "_greedy": 1}
    calls.clear()
    qb.carroll_winner_pipeline(four_voter, 0)
    assert calls == {"_score": four_voter.num_candidates}
    calls.clear()
    # equal but separate instances still share one solve
    queries = [rebuilt(qb.Query("alpha_geq", greedy_gap_graph, k)) for k in range(5)]
    queries += [rebuilt(qb.Query("score_at_most", four_voter, k, 0)) for k in range(5)]
    qb.evaluate_batch(qb.QueryBatch(tuple(queries)))
    assert calls == {"_alpha": 1, "_score": 1}
    calls.clear()
    # greedy thresholds outside 1..n are answered without a solve
    queries = [qb.Query("mdg_geq", greedy_gap_graph, s) for s in (-1, 0, 8, 9)]
    av = qb.evaluate_batch(qb.QueryBatch(tuple(queries)), budget=1)
    assert av.answers == (True, True, False, False)
    assert calls == {}
