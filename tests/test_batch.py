import collections
import json
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
            qb.Query("alpha_leq", {})

    def test_empty_batch(self):
        av = qb.evaluate_batch(qb.QueryBatch(()))
        assert av.answers == () and av.errors == ()

    def test_golden_score_row(self, four_voter):
        c = four_voter.id_of("C")
        queries = tuple(qb.score_query(four_voter, c, k) for k in range(4))
        av = qb.evaluate_batch(qb.QueryBatch(queries))
        assert av.answers == (False, False, False, True)

    def test_alpha_thresholds(self):
        k3 = Graph.complete(3)
        av = qb.evaluate_batch(
            qb.QueryBatch((qb.independence_query(k3, 1), qb.independence_query(k3, 2)))
        )
        assert av.answers == (True, False)

    def test_greedy_thresholds(self):
        star = Graph.star(3)
        av = qb.evaluate_batch(
            qb.QueryBatch((qb.greedy_query(star, 3), qb.greedy_query(star, 4)))
        )
        assert av.answers == (True, False)

    def test_malformed_payload_is_per_query(self):
        good = qb.independence_query(Graph.complete(3), 1)
        bad = qb.Query("alpha_geq", {"graph": {"n": 2}, "k": 1})
        worse = qb.Query("score_at_most", {"election": {"candidates": []}, "k": 0})
        av = qb.evaluate_batch(qb.QueryBatch((bad, good, worse)))
        assert av.answers == (None, True, None)
        assert av.errors[0] and av.errors[2]
        assert av.errors[1] is None

    def test_score_budget_is_honoured(self, four_voter):
        query = qb.score_query(four_voter, four_voter.id_of("C"), 3)
        with pytest.raises(BudgetExceededError):
            qb.evaluate_batch(qb.QueryBatch((query,)), budget=1)

    def test_candidate_out_of_range_is_malformed(self, four_voter):
        query = qb.score_query(four_voter, 0, 0)
        hacked = qb.Query(query.kind, {**query.payload, "candidate": 9})
        av = qb.evaluate_batch(qb.QueryBatch((hacked,)))
        assert av.answers == (None,)

    def test_bad_threshold_is_reported_before_the_solve(self, four_voter):
        # at budget 0 every solve runs out, so a threshold read after its
        # solve would abort the whole batch instead of failing one query
        graph = qb.graph_payload(Graph.cycle(7))
        election = qb.election_payload(four_voter)
        queries = (
            qb.Query("alpha_geq", {"graph": graph, "k": "x"}),
            qb.Query("mdg_geq", {"graph": graph, "s": "x"}),
            qb.Query("score_at_most", {"election": election, "candidate": 0, "k": "x"}),
        )
        av = qb.evaluate_batch(qb.QueryBatch(queries), budget=0)
        assert av.answers == (None, None, None)
        assert av.errors == ("ValueError: invalid literal for int() with base 10: 'x'",) * 3


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
            qb.score_query(four_voter, c, k) for c in range(3) for k in range(3)
        )
        first = qb.evaluate_batch(qb.QueryBatch(queries))
        second = qb.evaluate_batch(qb.QueryBatch(queries))
        assert first == second

    def test_order_independence(self, four_voter, greedy_gap_graph):
        queries = [
            qb.score_query(four_voter, c, k) for c in range(3) for k in range(4)
        ]
        queries += [qb.independence_query(greedy_gap_graph, k) for k in range(1, 5)]
        queries += [qb.greedy_query(greedy_gap_graph, s) for s in range(1, 5)]
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
    p = query.payload
    try:
        if query.kind == "score_at_most":
            e = qb._election_from_payload(p["election"])
            candidate = int(p["candidate"])
            if not 0 <= candidate < e.num_candidates:
                raise ValueError(f"candidate {candidate} out of range")
            return el.score_at_most(e, candidate, int(p["k"])), None
        g = qb._graph_from_payload(p["graph"])
        if query.kind == "alpha_geq":
            return gr.independence_number(g) >= int(p["k"]), None
        return gr.greedy_reaches(g, int(p["s"])), None
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


MALFORMED = [
    qb.Query("alpha_geq", {"graph": {"n": 2}, "k": 1}),
    qb.Query("alpha_geq", {"graph": {"n": 2, "edges": [[0, 5]]}, "k": 1}),
    qb.Query("mdg_geq", {"graph": {"n": 3, "edges": []}}),
    qb.Query("score_at_most", {"election": {"candidates": []}, "k": 0}),
    qb.Query("score_at_most", {"election": {"candidates": ["a"], "rankings": [[0, 0]]}, "candidate": 0, "k": 0}),
]


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_mixed_batch_matches_direct_verdicts(data):
    import itertools

    pool = list(MALFORMED)
    for n in data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=2)):
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, [p for p in pairs if data.draw(st.booleans())])
        shared = qb.graph_payload(g)
        for k in range(-1, n + 2):
            pool.append(qb.Query("alpha_geq", {"graph": shared, "k": k}))
            pool.append(qb.Query("mdg_geq", {"graph": shared, "s": k}))
        pool.append(qb.Query("alpha_geq", {"graph": shared, "k": "many"}))
    m = data.draw(st.integers(1, 3))
    rankings = [data.draw(st.permutations(range(m))) for _ in range(data.draw(st.integers(1, 3)))]
    e = el.Election(
        tuple(el.Candidate(i, f"c{i}") for i in range(m)),
        tuple(el.PreferenceOrder(tuple(r)) for r in rankings),
    )
    shared = qb.election_payload(e)
    for c in range(-1, m + 1):
        for k in range(el.max_score(e) + 1):
            pool.append(qb.Query("score_at_most", {"election": shared, "candidate": c, "k": k}))

    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    queries = [pool[i] for i in picks]
    # equal but separate payloads, as decoded JSON has them
    copies = [qb.Query(q.kind, json.loads(json.dumps(q.payload))) for q in queries]
    queries += data.draw(st.lists(st.sampled_from(copies), max_size=20)) if copies else []
    queries = data.draw(st.permutations(queries))

    av = qb.evaluate_batch(qb.QueryBatch(tuple(queries)))
    assert list(zip(av.answers, av.errors)) == [direct(q) for q in queries]


def test_one_solve_per_distinct_instance(monkeypatch, greedy_gap_graph, four_voter):
    calls = collections.Counter()

    def counted(module, name):
        solver = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return solver(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(gr, "independence_number")
    counted(gr, "greedy_independence_number")
    counted(el, "carroll_score")

    qb.ratio_pipeline(greedy_gap_graph, 1)
    assert calls == {"independence_number": 1, "greedy_independence_number": 1}
    calls.clear()
    qb.carroll_winner_pipeline(four_voter, 0)
    assert calls == {"carroll_score": four_voter.num_candidates}
    calls.clear()
    # equal instances from separate payloads still share one solve
    text = json.dumps(qb.graph_payload(greedy_gap_graph))
    queries = [qb.Query("alpha_geq", {"graph": json.loads(text), "k": k}) for k in range(5)]
    qb.evaluate_batch(qb.QueryBatch(tuple(queries)))
    assert calls == {"independence_number": 1}
    calls.clear()
    # greedy thresholds outside 1..n are answered without a solve
    queries = [qb.greedy_query(greedy_gap_graph, s) for s in (-1, 0, 8, 9)]
    av = qb.evaluate_batch(qb.QueryBatch(tuple(queries)), budget=1)
    assert av.answers == (True, True, False, False)
    assert calls == {}


@given(st.integers(0, 40), st.floats(0, 1), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=60)
def test_graph_payload_lists_sorted_edges(n, density, rng):
    g = Graph(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < density])
    assert qb.graph_payload(g) == {"n": n, "edges": sorted(list(e) for e in g.edges)}
