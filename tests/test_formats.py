import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dodgreedy import batch as qb
from dodgreedy import formats as fmt
from dodgreedy import reductions as red
from dodgreedy.errors import ParseError
from dodgreedy.graphs import Graph

FOUR_VOTER_TEXT = """\
# worked example, four voters
C D P
C P D
P C D

P D C
D P C  # most preferred first
"""


class TestElectionFormat:
    def test_parse_golden(self):
        e = fmt.parse_election(FOUR_VOTER_TEXT)
        assert e.num_candidates == 3 and e.num_voters == 4
        assert [c.name for c in e.candidates] == ["C", "D", "P"]
        assert e.voters[0].ranking == (0, 2, 1)

    def test_comments_and_blanks_ignored(self):
        bare = "C D P\nC P D\nP C D\nP D C\nD P C\n"
        assert fmt.parse_election(FOUR_VOTER_TEXT) == fmt.parse_election(bare)

    def test_round_trip(self):
        e = fmt.parse_election(FOUR_VOTER_TEXT)
        text = fmt.format_election(e)
        assert fmt.parse_election(text) == e
        assert fmt.format_election(fmt.parse_election(text)) == text

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="candidate line"):
            fmt.parse_election("# nothing here\n")

    def test_duplicate_candidate_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            fmt.parse_election("A B A\nA B\n")

    def test_zero_voters_rejected(self):
        with pytest.raises(ParseError, match="no voters"):
            fmt.parse_election("A B\n")

    def test_bad_ranking_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            fmt.parse_election("A B\nA B\nA A\n")

    def test_missing_candidate_in_ranking(self):
        with pytest.raises(ParseError, match="permutation"):
            fmt.parse_election("A B C\nA B\n")


class TestGraphFormat:
    def test_parse_triangle(self):
        g = fmt.parse_graph("c a triangle\np 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert g == Graph.complete(3)

    def test_parse_isolated(self):
        assert fmt.parse_graph("p 2 0\n") == Graph.empty(2)

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            fmt.parse_graph("p 2 1\ne 1 1\n")

    def test_duplicate_edge_warns(self):
        with pytest.warns(UserWarning, match="duplicate"):
            g = fmt.parse_graph("p 2 2\ne 1 2\ne 2 1\n")
        assert g.num_edges == 1

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError, match="line 2"):
            fmt.parse_graph("p 2 1\ne 1 3\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            fmt.parse_graph("p 2\ne 1 2\n")
        with pytest.raises(ParseError):
            fmt.parse_graph("p x y\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            fmt.parse_graph("e 1 2\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="declared"):
            fmt.parse_graph("p 3 2\ne 1 2\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="directive"):
            fmt.parse_graph("p 1 0\nq boom\n")

    def test_round_trip_byte_identical(self):
        for g in (Graph.complete(4), Graph.empty(3), Graph.cycle(5)):
            text = fmt.format_graph(g)
            assert fmt.parse_graph(text) == g
            assert fmt.format_graph(fmt.parse_graph(text)) == text

    @given(st.integers(0, 70), st.floats(0, 1), st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=60)
    def test_edges_written_in_sorted_order(self, n, density, rng):
        g = Graph(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < density])
        sorted_edges = [f"p {n} {g.num_edges}"] + [f"e {u + 1} {v + 1}" for u, v in sorted(g.edges)]
        assert fmt.format_graph(g) == "\n".join(sorted_edges) + "\n"


class TestPartmapFormat:
    def test_round_trip(self):
        artifact = red.build_reduction(Graph(1), Graph.empty(2))
        text = fmt.format_partmap(artifact)
        parts, joins = fmt.parse_partmap(text)
        assert parts == dict(artifact.parts)
        assert joins == artifact.joins

    def test_missing_part_rejected(self):
        with pytest.raises(ParseError, match="missing"):
            fmt.parse_partmap("part G1 1..2\njoin G1 H2\n")

    def test_bad_range_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            fmt.parse_partmap("part G1 1..x\n")


class TestBatchFormat:
    def test_round_trip(self, four_voter, greedy_gap_graph):
        batch = qb.QueryBatch(
            (
                qb.score_query(four_voter, 0, 2),
                qb.independence_query(greedy_gap_graph, 3),
                qb.greedy_query(greedy_gap_graph, 2),
            )
        )
        text = fmt.format_batch(batch)
        assert fmt.parse_batch(text) == batch
        assert fmt.format_batch(fmt.parse_batch(text)) == text

    def test_empty_batch(self):
        assert fmt.format_batch(qb.QueryBatch(())) == ""
        assert fmt.parse_batch("") == qb.QueryBatch(())

    def test_bad_lines_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            fmt.parse_batch("x nope {}\n")
        with pytest.raises(ParseError, match="payload"):
            fmt.parse_batch('q alpha_geq {"n": \n')
        with pytest.raises(ParseError, match="kind"):
            fmt.parse_batch('q alpha_leq {"n": 1}\n')

    def test_answers_round_trip(self):
        av = qb.AnswerVector((True, False, None), (None, None, "KeyError: 'graph'"))
        text = fmt.format_answers(av)
        assert text.splitlines() == ["a 1", "a 0", "a ? KeyError: 'graph'"]
        assert fmt.parse_answers(text) == av

    def test_answers_reject_garbage(self):
        with pytest.raises(ParseError):
            fmt.parse_answers("a yes\n")

    def test_evaluated_batch_serializes(self, greedy_gap_graph):
        batch = qb.QueryBatch(
            tuple(qb.independence_query(greedy_gap_graph, k) for k in (1, 3, 4))
        )
        av = qb.evaluate_batch(batch)
        replayed = fmt.parse_answers(fmt.format_answers(av))
        assert replayed == av
        assert replayed.answers == (True, True, False)
