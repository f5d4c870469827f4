"""Turning equality of independence numbers into greedy optimality.

Two input graphs are first padded to a common edge count, then each edge is
subdivided twice (which lifts the independence number by the edge count and
makes best-case greedy optimal), then the vertex counts are equalized.  Two
copies of each side plus two large independent sets are wired into a single
artifact graph whose best greedy value equals its independence number
exactly when the original graphs had equal independence numbers.

Every contract here is enforced by measurement, not assumed: the verifier
recomputes all the relevant exact quantities on the finished artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import _Ledger
from .graphs import DEFAULT_BUDGET, Graph, _alpha, _alpha_and_greedy

PART_LABELS = ("G1", "G2", "H1", "H2", "I1", "I2")

# complete-bipartite connections between parts of the artifact
JOIN_PAIRS = frozenset(
    frozenset(pair)
    for pair in (("I1", "I2"), ("I1", "G2"), ("I1", "H2"), ("G1", "H2"), ("G2", "H1"))
)


def _layout(n: int) -> tuple[tuple[str, range], ...]:
    """(label, vertex span) of each part: G1, G2, H1, H2 on n vertices each,
    then independent sets I1, I2 on ell = 2n + 2 vertices each."""
    ell = 2 * n + 2
    starts = (0, n, 2 * n, 3 * n, 4 * n, 4 * n + ell, 4 * n + 2 * ell)
    return tuple(zip(PART_LABELS, map(range, starts, starts[1:])))


def _wiring(n: int, gpp: Graph, hpp: Graph) -> list[tuple[range, tuple[int, ...]]]:
    """(vertex span, rows) of each part of the artifact on G'' and H'': each
    row holds the part's own edges (I1 and I2 have none), shifted into place,
    plus an edge to every vertex of each part that JOIN_PAIRS joins to it."""
    parts = _layout(n)
    masks = {label: ((1 << len(span)) - 1) << span.start for label, span in parts}
    sources = {"G1": gpp, "G2": gpp, "H1": hpp, "H2": hpp}
    wiring = []
    for p, span in parts:
        join = sum(masks[q] for q in PART_LABELS if frozenset((p, q)) in JOIN_PAIRS)
        own = sources[p]._adj if p in sources else (0,) * len(span)
        wiring.append((span, tuple(row << span.start | join for row in own)))
    return wiring


@dataclass(frozen=True)
class ReductionArtifact:
    """The wired six-part graph plus the bookkeeping needed to audit it.
    Its layout (`ell`, `parts`) is a fixed function of `n`, and its joined
    part pairs are always `JOIN_PAIRS`."""

    graph: Graph
    k: int
    n: int
    # the pipeline's intermediate graphs, both sides after pad_edges, after
    # double_subdivision and after pad_vertices, so that verify_reduction
    # measures the very graphs the artifact was built from
    stages: tuple[Graph, ...] = field(compare=False, repr=False)

    @property
    def ell(self) -> int:
        return len(self.part("I1"))

    @property
    def parts(self) -> tuple[tuple[str, range], ...]:
        return _layout(self.n)

    def part(self, label: str) -> range:
        return dict(self.parts)[label]


def _append_clique(g: Graph, size: int) -> Graph:
    return g.disjoint_union(Graph.complete(size))


def _edge_pad_plan(eg: int, eh: int) -> tuple[list[int], list[int]]:
    """Clique sizes appended to (g, h) to equalize edge counts.

    Every gadget lifts the independence number by exactly 1, so using the
    same number of gadgets per side keeps the shift equal.  An odd gap is
    first flipped even by a 1-edge gadget on the light side and a 6-edge
    gadget on the heavy side; 3-edge/1-edge pairs then close the gap.
    """
    if eg == eh:
        return [], []
    light, heavy = [], []
    gap = abs(eg - eh)
    if gap % 2 == 1:
        light.append(2)
        heavy.append(4)
        gap += 5
    pairs = gap // 2
    light.extend([3] * pairs)
    heavy.extend([2] * pairs)
    return (light, heavy) if eg < eh else (heavy, light)


def pad_edges(g: Graph, h: Graph) -> tuple[Graph, Graph, int]:
    """Equalize edge counts with disjoint clique gadgets of equal alpha shift."""
    plan_g, plan_h = _edge_pad_plan(g.num_edges, h.num_edges)
    for size in plan_g:
        g = _append_clique(g, size)
    for size in plan_h:
        h = _append_clique(h, size)
    assert g.num_edges == h.num_edges
    return g, h, g.num_edges


def double_subdivision(g: Graph) -> Graph:
    """Replace every edge u-v with a three-edge path u-a-b-v.

    The result has 2k extra vertices for k original edges, its independence
    number rises by exactly k, and best-case minimum-degree greedy attains
    it (both facts are rechecked by the verifier, never assumed).
    """
    edges = []
    fresh = g.n
    for u, v in g.sorted_edges():
        a, b = fresh, fresh + 1
        fresh += 2
        edges += [(u, a), (a, b), (b, v)]
    return Graph(fresh, edges)


def pad_vertices(g: Graph, h: Graph) -> tuple[Graph, Graph, int]:
    """Equalize vertex counts by appending one disjoint clique to each side.

    The smaller side gains a clique on (gap + 1) vertices, the larger a
    single vertex; both shifts of the independence number are exactly +1
    and greedy optimality is preserved.
    """
    gap = abs(g.n - h.n)
    if g.n <= h.n:
        g, h = _append_clique(g, gap + 1), _append_clique(h, 1)
    else:
        g, h = _append_clique(g, 1), _append_clique(h, gap + 1)
    assert g.n == h.n
    return g, h, g.n


def build_reduction(g: Graph, h: Graph) -> ReductionArtifact:
    """Run the full pipeline and wire the six-part artifact graph.

    Layout: copies G1, G2 of the finished g-side, H1, H2 of the h-side
    (each on n vertices), then independent sets I1, I2 of size 2n + 2.
    Joined part pairs get every cross edge; all other part pairs get none.
    """
    g2, h2, k = pad_edges(g, h)
    gp = double_subdivision(g2)
    hp = double_subdivision(h2)
    gpp, hpp, n = pad_vertices(gp, hp)
    rows = [row for _, part in _wiring(n, gpp, hpp) for row in part]
    return ReductionArtifact(Graph._from_rows(rows), k, n, (g2, h2, gp, hp, gpp, hpp))


def check_artifact_structure(artifact: ReductionArtifact) -> bool:
    """Recheck the artifact's wiring from the graph alone: the cross edges
    JOIN_PAIRS asks for and no others, I1 and I2 independent, G1 and G2 each
    inducing G'' (stages[4]) and H1 and H2 each inducing H'' (stages[5])."""
    adj = artifact.graph._adj
    wiring = _wiring(artifact.n, *artifact.stages[4:])
    # each vertex once: its whole row, the neighbours inside its part and out
    return len(adj) == wiring[-1][0].stop and all(
        adj[span.start : span.stop] == rows for span, rows in wiring
    )


def same_independence_number(g: Graph, h: Graph, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether two graphs have equal independence numbers."""
    ledger = _Ledger(budget)
    return _alpha(g, ledger) == _alpha(h, ledger)


@dataclass(frozen=True)
class ReductionReport:
    """Exact measurements of one reduction run plus per-invariant verdicts."""

    alpha_g: int
    alpha_h: int
    alpha_g_final: int
    alpha_h_final: int
    alpha_artifact: int
    greedy_artifact: int
    checks: tuple[tuple[str, bool], ...]
    artifact: ReductionArtifact = field(repr=False)  # what the figures above measure

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def lines(self) -> list[str]:
        out = [
            f"alpha(G) = {self.alpha_g}",
            f"alpha(H) = {self.alpha_h}",
            f"alpha(G'') = {self.alpha_g_final}",
            f"alpha(H'') = {self.alpha_h_final}",
            f"k = {self.artifact.k}",
            f"n = {self.artifact.n}",
            f"ell = {self.artifact.ell}",
            f"alpha(Ghat) = {self.alpha_artifact}",
            f"mdg(Ghat) = {self.greedy_artifact}",
        ]
        out += [
            f"check {name}: {'PASS' if ok else 'FAIL'}" for name, ok in self.checks
        ]
        out.append(f"reduction: {'PASS' if self.passed else 'FAIL'}")
        return out


def verify_reduction(g: Graph, h: Graph, budget: int = DEFAULT_BUDGET) -> ReductionReport:
    """Build the artifact and measure every contract with the exact solvers.

    Every stage is measured as build_reduction made it (the artifact's
    `stages`), and the report carries the artifact.  All the exact solves
    store at most `budget` states between them; BudgetExceededError names
    the step that ran out, as alpha(G) or mdg(G'), say.  A report is only
    returned when every quantity was computed exactly.
    """
    artifact = build_reduction(g, h)
    g2, h2, gp, hp, gpp, hpp = artifact.stages
    k, n, ghat = artifact.k, artifact.n, artifact.graph
    ledger = _Ledger(budget)
    alpha_g = _alpha(g, ledger, "alpha(G)")
    alpha_h = _alpha(h, ledger, "alpha(H)")
    alpha_g2 = _alpha(g2, ledger, "alpha(G padded)")
    alpha_h2 = _alpha(h2, ledger, "alpha(H padded)")
    alpha_gp, greedy_gp = _alpha_and_greedy(gp, ledger, ("alpha(G')", "mdg(G')"))
    alpha_hp, greedy_hp = _alpha_and_greedy(hp, ledger, ("alpha(H')", "mdg(H')"))
    alpha_gpp = _alpha(gpp, ledger, "alpha(G'')")
    alpha_hpp = _alpha(hpp, ledger, "alpha(H'')")
    alpha_ghat, greedy_ghat = _alpha_and_greedy(ghat, ledger, ("alpha(Ghat)", "mdg(Ghat)"))

    checks = (
        ("pad-edges-equal-count", g2.num_edges == h2.num_edges == k),
        ("pad-edges-equal-shift", alpha_g2 - alpha_g == alpha_h2 - alpha_h),
        (
            "transform-alpha-lift",
            alpha_gp == alpha_g2 + k
            and alpha_hp == alpha_h2 + k
            and gp.n == g2.n + 2 * k
            and hp.n == h2.n + 2 * k,
        ),
        (
            "transform-greedy-optimal",
            greedy_gp == alpha_gp and greedy_hp == alpha_hp,
        ),
        (
            "pad-vertices-shift",
            alpha_gpp == alpha_gp + 1 and alpha_hpp == alpha_hp + 1 and gpp.n == hpp.n == n,
        ),
        ("artifact-structure", check_artifact_structure(artifact)),
        ("greedy-equality", greedy_ghat == alpha_gpp + alpha_hpp + artifact.ell),
        (
            "independence-equality",
            alpha_ghat == 2 * max(alpha_gpp, alpha_hpp) + artifact.ell,
        ),
        ("equality-iff", (greedy_ghat == alpha_ghat) == (alpha_g == alpha_h)),
    )
    return ReductionReport(
        alpha_g=alpha_g,
        alpha_h=alpha_h,
        alpha_g_final=alpha_gpp,
        alpha_h_final=alpha_hpp,
        alpha_artifact=alpha_ghat,
        greedy_artifact=greedy_ghat,
        checks=checks,
        artifact=artifact,
    )
