import itertools
import pickle

import pytest

from dodgreedy import graphs as gr
from dodgreedy import oracles
from dodgreedy import reductions as red
from dodgreedy.errors import BudgetExceededError
from dodgreedy.graphs import Graph


def alpha(g):
    return oracles.independence_by_enumeration(g) if g.n <= 16 else gr.independence_number(g)


class TestPadEdges:
    def test_equal_counts_unchanged(self):
        g, h = Graph.path(3), Graph(4, [(0, 1), (2, 3)])
        g2, h2, k = red.pad_edges(g, h)
        assert (g2, h2, k) == (g, h, 2)

    def test_even_gap(self):
        g, h = Graph.empty(1), Graph.path(3)  # 0 vs 2 edges
        g2, h2, k = red.pad_edges(g, h)
        assert k == 3 and g2.num_edges == h2.num_edges == 3
        assert alpha(g2) - alpha(g) == 1
        assert alpha(h2) - alpha(h) == 1

    def test_odd_gap(self):
        g, h = Graph.empty(1), Graph.complete(2)  # 0 vs 1 edge
        g2, h2, k = red.pad_edges(g, h)
        assert k == 10 and g2.num_edges == h2.num_edges == 10
        assert alpha(g2) - alpha(g) == 4
        assert alpha(h2) - alpha(h) == 4

    def test_shift_always_equal(self):
        sides = [Graph.empty(2), Graph.complete(3), Graph.path(4), Graph.cycle(4)]
        for g, h in itertools.product(sides, repeat=2):
            g2, h2, k = red.pad_edges(g, h)
            assert g2.num_edges == h2.num_edges == k
            assert alpha(g2) - alpha(g) == alpha(h2) - alpha(h)


class TestDoubleSubdivision:
    def test_single_edge_becomes_path(self):
        lifted = red.double_subdivision(Graph.complete(2))
        assert lifted.n == 4 and lifted.num_edges == 3
        degrees = sorted(lifted.degree(v) for v in range(4))
        assert degrees == [1, 1, 2, 2]
        assert alpha(lifted) == 2
        assert gr.greedy_independence_number(lifted) == 2

    def test_triangle_becomes_nine_cycle(self):
        lifted = red.double_subdivision(Graph.complete(3))
        assert lifted.n == 9 and lifted.num_edges == 9
        assert all(lifted.degree(v) == 2 for v in range(9))
        assert alpha(lifted) == 4
        assert gr.greedy_independence_number(lifted) == 4

    def test_edgeless_unchanged(self):
        g = Graph.empty(5)
        assert red.double_subdivision(g) == g

    def test_contract_on_samples(self):
        for g in (Graph.cycle(4), Graph.star(3), Graph.complete(4)):
            lifted = red.double_subdivision(g)
            k = g.num_edges
            assert lifted.n == g.n + 2 * k
            assert alpha(lifted) == alpha(g) + k
            assert gr.greedy_independence_number(lifted) == alpha(lifted)


class TestPadVertices:
    def test_equal_sizes_gain_single_vertices(self):
        g, h = Graph.complete(3), Graph.path(3)
        g2, h2, n = red.pad_vertices(g, h)
        assert n == 4 and g2.n == h2.n == 4
        assert alpha(g2) == alpha(g) + 1
        assert alpha(h2) == alpha(h) + 1

    def test_gap_closed_by_clique(self):
        g, h = Graph.empty(4), Graph.empty(5)
        g2, h2, n = red.pad_vertices(g, h)
        assert n == 6 and g2.n == h2.n == 6
        assert alpha(g2) == 5 and alpha(h2) == 6

    def test_tiny_edgeless_inputs(self):
        g2, h2, n = red.pad_vertices(Graph.empty(1), Graph.empty(2))
        assert n == 3
        assert alpha(g2) == 2 and alpha(h2) == 3


class TestBuildReduction:
    def test_singleton_pair(self):
        art = red.build_reduction(Graph(1), Graph(1))
        assert art.graph.n == 20
        assert (art.n, art.ell, art.k) == (2, 6, 0)
        assert gr.independence_number(art.graph) == 10
        assert gr.greedy_independence_number(art.graph) == 10
        assert gr.achieves_ratio(art.graph, 1)

    def test_unequal_pair(self):
        art = red.build_reduction(Graph(1), Graph.empty(2))
        assert art.graph.n == 28
        assert gr.independence_number(art.graph) == 14
        assert gr.greedy_independence_number(art.graph) == 13
        assert not gr.achieves_ratio(art.graph, 1)

    def test_identical_inputs_always_inside(self):
        for g in (Graph.path(3), Graph.complete(3), Graph.empty(2)):
            art = red.build_reduction(g, g)
            assert gr.achieves_ratio(art.graph, 1)

    def test_structure_holds(self):
        art = red.build_reduction(Graph.path(3), Graph.complete(2))
        assert red.check_artifact_structure(art)
        assert art.ell == 2 * art.n + 2
        assert len(art.part("I1")) == art.ell
        sizes = {label: len(span) for label, span in art.parts}
        assert sizes == {
            "G1": art.n, "G2": art.n, "H1": art.n, "H2": art.n,
            "I1": art.ell, "I2": art.ell,
        }

    def test_structure_check_catches_tampering(self):
        def tampered(art, drop=(), add=()):
            edges = (art.graph.edges - set(drop)) | set(add)
            return red.ReductionArtifact(
                Graph(art.graph.n, edges), art.k, art.n, art.provenance, art.stages,
            )

        def inside(art, label):
            span = art.part(label)
            return [(u, v) for u, v in sorted(art.graph.edges) if u in span and v in span]

        art = red.build_reduction(Graph(1), Graph(1))
        assert not red.check_artifact_structure(tampered(art, drop=[next(iter(art.graph.edges))]))

        # one edit inside a part, which the cross-part wiring checks never see
        art = red.build_reduction(Graph.path(3), Graph.complete(2))
        assert red.check_artifact_structure(tampered(art))
        h1, i1 = art.part("H1"), art.part("I1")
        missing_h1 = next(
            (u, v) for u in h1 for v in h1 if u < v and not art.graph.has_edge(u, v)
        )
        g1, g2 = art.part("G1"), art.part("G2")
        u, v = next((u, v) for u in g1 for v in g1 if u < v and not art.graph.has_edge(u, v))
        for edit in (
            {"drop": inside(art, "G2")[:1]},
            {"add": [missing_h1]},
            {"add": [(i1[0], i1[1])]},
            # G1 and G2 still match each other, but neither is G'' any more
            {"add": [(u, v), (u + len(g1), v + len(g1))]},
            # a cross edge between parts that are not joined
            {"add": [(g1[0], h1[0])]},
        ):
            assert not red.check_artifact_structure(tampered(art, **edit)), edit

    def test_structure_check_catches_wrong_vertex_count(self):
        art = red.build_reduction(Graph(1), Graph(1))
        for n in (art.graph.n - 1, art.graph.n + 1):
            short = red.ReductionArtifact(
                Graph(n), art.k, art.n, art.provenance, art.stages,
            )
            assert not red.check_artifact_structure(short), n

    def test_stages_are_the_pipeline_graphs(self):
        g, h = Graph.path(3), Graph.complete(2)
        g2, h2, _ = red.pad_edges(g, h)
        gp, hp = red.double_subdivision(g2), red.double_subdivision(h2)
        gpp, hpp, _ = red.pad_vertices(gp, hp)
        assert red.build_reduction(g, h).stages == (g2, h2, gp, hp, gpp, hpp)

    def test_provenance_is_deterministic(self):
        a = red.build_reduction(Graph.complete(3), Graph.empty(3))
        b = red.build_reduction(Graph.complete(3), Graph.empty(3))
        assert a.provenance == b.provenance
        assert a.graph == b.graph


class TestSameIndependenceNumber:
    def test_cliques_match(self):
        assert red.same_independence_number(Graph.complete(3), Graph.complete(5))

    def test_size_mismatch(self):
        assert not red.same_independence_number(Graph(1), Graph.empty(2))

    def test_cycle_and_path(self):
        assert red.same_independence_number(Graph.cycle(5), Graph.path(3))


class TestVerifyReduction:
    def test_equal_pair_passes(self):
        report = red.verify_reduction(Graph(1), Graph(1))
        assert report.passed
        assert report.alpha_artifact == report.greedy_artifact == 10
        lines = report.lines()
        assert "reduction: PASS" in lines
        assert "alpha(Ghat) = 10" in lines
        assert "mdg(Ghat) = 10" in lines

    def test_unequal_pair_reports_outside(self):
        report = red.verify_reduction(Graph(1), Graph.empty(2))
        assert report.passed  # all equalities hold; the iff says "not inside"
        assert report.alpha_artifact == 14
        assert report.greedy_artifact == 13
        assert dict(report.checks)["equality-iff"]

    def test_report_survives_pickling(self):
        report = red.verify_reduction(Graph.path(3), Graph.complete(2))
        back = pickle.loads(pickle.dumps(report))
        assert back.lines() == report.lines()
        assert back.artifact == report.artifact
        assert back.artifact.stages == report.artifact.stages

    def test_budget_overrun_names_step(self):
        with pytest.raises(BudgetExceededError) as info:
            red.verify_reduction(Graph.complete(3), Graph.empty(3), budget=5)
        assert info.value.what  # names the failing subcomputation

    def test_budget_overrun_names_artifact_solves(self):
        # alpha(Ghat) stores 5 states here; mdg(Ghat), bounded by its memo, 13
        for budget, step in ((4, "alpha(Ghat)"), (12, "mdg(Ghat)")):
            with pytest.raises(BudgetExceededError) as info:
                red.verify_reduction(Graph(1), Graph(1), budget=budget)
            assert (info.value.what, info.value.budget) == (step, budget)
        assert red.verify_reduction(Graph(1), Graph(1), budget=13).passed

    def test_budget_overrun_inside_a_probe_names_mdg(self):
        # For (K2, Graph(1)) every step before it fits 5 states.  G' (the
        # 32-vertex double subdivision of the padded K2) needs 3 alpha states,
        # then greedy stores 5 states of its own and probes a triangle-free
        # residual that alpha's memo lacks; the probe's first state overflows
        with pytest.raises(BudgetExceededError) as info:
            red.verify_reduction(Graph.complete(2), Graph(1), budget=5)
        assert (info.value.what, info.value.budget) == ("mdg(G')", 5)

    def test_report_carries_the_built_artifact(self):
        for g, h in ((Graph(1), Graph.empty(2)), (Graph.path(3), Graph.complete(2))):
            assert red.verify_reduction(g, h).artifact == red.build_reduction(g, h)

    def test_end_to_end_tiny_pairs(self):
        tiny = [Graph(1), Graph.empty(2), Graph.complete(2)]
        for g, h in itertools.product(tiny, repeat=2):
            art = red.build_reduction(g, h)
            inside = gr.achieves_ratio(art.graph, 1)
            assert inside == red.same_independence_number(g, h)
            assert red.verify_reduction(g, h).passed
