import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dodgreedy import graphs as gr
from dodgreedy import oracles
from dodgreedy.errors import BudgetExceededError
from dodgreedy.graphs import Graph, GreedyTrace


def graph_strategy(max_n=7):
    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_n))
        pairs = list(itertools.combinations(range(n), 2))
        edges = [p for p in pairs if draw(st.booleans())]
        return Graph(n, edges)

    return build()


def band(n, reach=2):
    """P_n to the power `reach`: the path on n vertices, each vertex also
    joined to every vertex up to `reach` steps on (P_n squared by default)."""
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, i + reach + 1) if j < n])


def petersen():
    """Outer 5-cycle 0..4, spokes i -- i+5, inner pentagram on 5..9."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def cliques(*sizes):
    """Disjoint union of complete graphs of the given sizes."""
    g = Graph(0)
    for k in sizes:
        g = g.disjoint_union(Graph.complete(k))
    return g


def induced(g, mask):
    """The subgraph of g induced on the vertices of `mask`, relabeled 0..k-1."""
    keep = [v for v in range(g.n) if mask >> v & 1]
    index = {v: i for i, v in enumerate(keep)}
    return Graph(len(keep), [(index[u], index[v]) for u, v in g.edges if u in index and v in index])


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_collapses_duplicates(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_adjacency_is_symmetric(self):
        g = Graph(4, [(0, 2), (2, 3)])
        assert g.has_edge(2, 0) and g.has_edge(3, 2)
        assert g.neighbors(2) == {0, 3}
        assert g.degree(2) == 2

    def test_equality_and_hash(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert hash(Graph(3, [(0, 1)])) == hash(Graph(3, [(1, 0)]))
        assert Graph(3) != Graph(4)

    def test_complement(self):
        assert Graph.complete(4).complement() == Graph.empty(4)
        assert Graph.empty(3).complement() == Graph.complete(3)

    def test_disjoint_union(self):
        g = Graph.complete(2).disjoint_union(Graph.complete(3))
        assert g.n == 5
        assert g.num_edges == 4
        assert not g.has_edge(1, 2)

    def test_immutable(self):
        g = Graph(2)
        with pytest.raises(AttributeError):
            g.n = 5


class TestIndependenceNumber:
    @pytest.mark.parametrize("n", [0, 1, 4, 7])
    def test_edgeless(self, n):
        assert gr.independence_number(Graph.empty(n)) == n

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_complete(self, n):
        assert gr.independence_number(Graph.complete(n)) == 1

    def test_five_cycle(self):
        assert gr.independence_number(Graph.cycle(5)) == 2

    # Chordal inputs: the simplicial-vertex rule settles them without branching.
    @pytest.mark.parametrize("reach", [2, 3])
    def test_band_powers_match_enumeration(self, reach):
        for n in range(15):
            g = band(n, reach)
            assert gr.independence_number(g) == oracles.independence_by_enumeration(g)

    @pytest.mark.parametrize("sizes", [(), (1,), (3, 1, 4), (2, 2, 2, 5), (6, 1, 1, 3)])
    def test_clique_unions_match_enumeration(self, sizes):
        g = cliques(*sizes)
        assert gr.independence_number(g) == oracles.independence_by_enumeration(g) == len(sizes)

    def test_band_square_closed_form(self):
        # any three consecutive vertices form a triangle; every third vertex is independent
        for n in range(301):
            assert gr.independence_number(band(n)) == -(-n // 3)

    @given(graph_strategy(), st.integers(0, 2**7 - 1))
    @settings(deadline=None, max_examples=80)
    def test_clique_cover_bounds_alpha(self, g, mask):
        mask &= (1 << g.n) - 1
        cover = gr._clique_cover_size(g._adj, mask)
        assert cover >= oracles.independence_by_enumeration(induced(g, mask))
        assert cover <= mask.bit_count()

    @given(graph_strategy())
    @settings(deadline=None, max_examples=80)
    def test_witness_is_maximum_and_independent(self, g):
        witness = gr.max_independent_set(g)
        assert len(witness) == gr.independence_number(g)
        assert not any(g.has_edge(u, v) for u in witness for v in witness)


class TestCliqueNumber:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_complete(self, n):
        assert gr.clique_number(Graph.complete(n)) == n

    def test_edgeless(self):
        assert gr.clique_number(Graph.empty(4)) == 1

    def test_five_cycle(self):
        assert gr.clique_number(Graph.cycle(5)) == 2

    def test_odd_parity(self):
        assert gr.has_odd_clique_number(Graph.complete(3))
        assert not gr.has_odd_clique_number(Graph.complete(4))
        assert not gr.has_odd_clique_number(Graph.cycle(5))
        with pytest.raises(ValueError):
            gr.has_odd_clique_number(Graph(0))


class TestGreedyRun:
    def test_star_picks_leaves(self):
        picked, trace = gr.min_degree_greedy(Graph.star(3))
        assert picked == {1, 2, 3}
        assert len(trace) == 3

    def test_complete_picks_one(self):
        picked, _ = gr.min_degree_greedy(Graph.complete(5))
        assert len(picked) == 1

    def test_edgeless_picks_all(self):
        picked, _ = gr.min_degree_greedy(Graph.empty(4))
        assert picked == {0, 1, 2, 3}

    def test_trace_replays(self, greedy_gap_graph):
        for g in (Graph.cycle(6), Graph.star(3), greedy_gap_graph):
            picked, trace = gr.min_degree_greedy(g)
            assert gr.replay_trace(g, trace) == picked

    def test_tie_break_callable(self):
        picked, trace = gr.min_degree_greedy(Graph.empty(3), tie_break=max)
        assert trace.picks == (2, 1, 0)

    def test_replay_rejects_bad_traces(self):
        g = Graph.star(3)
        with pytest.raises(ValueError):
            gr.replay_trace(g, GreedyTrace((0,)))  # center is not minimum degree
        with pytest.raises(ValueError):
            gr.replay_trace(g, GreedyTrace((1,)))  # stops early
        with pytest.raises(ValueError):
            gr.replay_trace(g, GreedyTrace((1, 1, 2, 3)))


class TestGreedyIndependenceNumber:
    def test_small_trees_are_greedy_optimal(self):
        for g in (Graph.path(9), Graph.star(8), Graph(1)):
            assert gr.greedy_independence_number(g) == gr.independence_number(g)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_complete(self, n):
        assert gr.greedy_independence_number(Graph.complete(n)) == 1

    def test_gap_graph_frozen_values(self, greedy_gap_graph):
        # cross-checked against the naive tie-sequence enumeration
        assert oracles.greedy_max_by_enumeration(greedy_gap_graph) == 2
        assert oracles.independence_by_enumeration(greedy_gap_graph) == 3
        assert gr.greedy_independence_number(greedy_gap_graph) == 2
        assert gr.independence_number(greedy_gap_graph) == 3

    @given(graph_strategy())
    @settings(deadline=None, max_examples=80)
    def test_best_trace_attains_value(self, g):
        trace = gr.best_greedy_trace(g)
        assert gr.replay_trace(g, trace) == frozenset(trace.picks)
        assert len(trace) == gr.greedy_independence_number(g)

    # Stored-state counts of the exact searches: each call fits a budget of
    # exactly that many states and raises, naming itself, at one less.  On
    # the bands the simplicial rule leaves alpha one state and the cover
    # bound stops greedy at its first tie; Petersen still branches.
    @pytest.mark.parametrize(
        "g, alpha_states, greedy_states",
        [
            (Graph.cycle(12).disjoint_union(Graph.cycle(12)), 3, 13),
            (band(40), 1, 14),
            (band(100), 1, 34),
            (petersen(), 5, 28),
        ],
        ids=["C12+C12", "P40^2", "P100^2", "Petersen"],
    )
    def test_budget_exhaustion_reported(self, g, alpha_states, greedy_states):
        for solve, states, what in (
            (gr.independence_number, alpha_states, "independence number"),
            (gr.greedy_independence_number, greedy_states, "best greedy value"),
        ):
            solve(g, budget=states)
            with pytest.raises(BudgetExceededError) as exc:
                solve(g, budget=states - 1)
            assert exc.value.what == what
            assert exc.value.budget == states - 1


class TestGreedyReaches:
    def test_zero_always(self):
        assert gr.greedy_reaches(Graph.complete(3), 0)
        assert gr.greedy_reaches(Graph(0), 0)

    def test_complete_cannot_reach_two(self):
        assert not gr.greedy_reaches(Graph.complete(4), 2)

    def test_star_reaches_three(self):
        assert gr.greedy_reaches(Graph.star(3), 3)

    def test_monotone_decreasing(self, greedy_gap_graph):
        row = [gr.greedy_reaches(greedy_gap_graph, s) for s in range(9)]
        for lo, hi in zip(row, row[1:]):
            assert lo or not hi


class TestRatioClasses:
    def test_complete_in_ratio_one(self):
        assert gr.achieves_ratio(Graph.complete(4), 1)
        assert not gr.misses_ratio(Graph.complete(4), 1)

    def test_trees_in_ratio_one(self):
        assert gr.achieves_ratio(Graph.path(9), 1)
        assert gr.achieves_ratio(Graph.star(8), 1)

    def test_empty_graph_in_every_ratio(self):
        from fractions import Fraction

        for r in (1, Fraction(3, 2), 7):
            assert gr.achieves_ratio(Graph(0), r)
            assert not gr.misses_ratio(Graph(0), r)

    def test_gap_graph_misses_ratio_one(self, greedy_gap_graph):
        assert not gr.achieves_ratio(greedy_gap_graph, 1)
        assert gr.misses_ratio(greedy_gap_graph, 1)
        # alpha 3 vs greedy 2: within ratio 3/2 and anything above
        from fractions import Fraction

        assert gr.achieves_ratio(greedy_gap_graph, Fraction(3, 2))
        assert gr.achieves_ratio(greedy_gap_graph, 2)

    def test_ratio_below_one_rejected(self):
        from fractions import Fraction

        with pytest.raises(ValueError):
            gr.achieves_ratio(Graph(1), Fraction(1, 2))
        with pytest.raises(ValueError):
            gr.misses_ratio(Graph(1), Fraction(2, 3))


def test_additivity_over_disjoint_unions():
    parts = [Graph(1), Graph.complete(2), Graph.path(3), Graph.cycle(3), Graph.star(2)]
    for a, b in itertools.product(parts, repeat=2):
        g = a.disjoint_union(b)
        assert gr.independence_number(g) == gr.independence_number(a) + gr.independence_number(b)
        assert gr.greedy_independence_number(g) == (
            gr.greedy_independence_number(a) + gr.greedy_independence_number(b)
        )
        assert gr.greedy_independence_number(g) == oracles.greedy_max_by_enumeration(g)


@given(graph_strategy())
@settings(deadline=None, max_examples=80)
def test_greedy_never_exceeds_alpha(g):
    greedy = gr.greedy_independence_number(g)
    assert greedy <= gr.independence_number(g)
    assert greedy == oracles.greedy_max_by_enumeration(g)


@given(graph_strategy())
@settings(deadline=None, max_examples=80)
def test_alpha_matches_enumeration(g):
    assert gr.independence_number(g) == oracles.independence_by_enumeration(g)


@given(graph_strategy(max_n=6))
@settings(deadline=None, max_examples=60)
def test_ratio_membership_complement(g):
    from fractions import Fraction

    ratios = (Fraction(1), Fraction(3, 2), Fraction(2))
    inside = [gr.achieves_ratio(g, r) for r in ratios]
    for r, a in zip(ratios, inside):
        assert a != gr.misses_ratio(g, r)
    for lo, hi in zip(inside, inside[1:]):
        assert hi or not lo  # membership is monotone in the ratio


@given(graph_strategy(), st.sampled_from([1, Fraction(5, 4), Fraction(3, 2), 2]))
@settings(deadline=None, max_examples=80)
def test_ratio_verdicts_match_separate_solves(g, r):
    # achieves_ratio/misses_ratio share one alpha memo; solved apart they must agree
    alpha = gr.independence_number(g)
    greedy = gr.greedy_independence_number(g)
    r = Fraction(r)
    within = alpha * r.denominator <= greedy * r.numerator
    assert gr.achieves_ratio(g, r) == within
    assert gr.misses_ratio(g, r) == (not within)


@given(graph_strategy(max_n=6))
@settings(deadline=None, max_examples=60)
def test_deterministic_run_replays_and_is_maximal(g):
    picked, trace = gr.min_degree_greedy(g)
    assert gr.replay_trace(g, trace) == picked
    assert not any(g.has_edge(u, v) for u in picked for v in picked)
    dominated = set(picked)
    for v in picked:
        dominated |= g.neighbors(v)
    assert dominated == set(range(g.n))
