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

from .errors import BudgetExceededError
from .graphs import (
    DEFAULT_BUDGET,
    Graph,
    _alpha_and_greedy,
    independence_number,
)

PART_LABELS = ("G1", "G2", "H1", "H2", "I1", "I2")

# complete-bipartite connections between parts of the artifact
JOIN_PAIRS = frozenset(
    frozenset(pair)
    for pair in (("I1", "I2"), ("I1", "G2"), ("I1", "H2"), ("G1", "H2"), ("G2", "H1"))
)


@dataclass(frozen=True)
class ReductionArtifact:
    """The wired six-part graph plus the bookkeeping needed to audit it."""

    graph: Graph
    ell: int
    k: int
    n: int
    parts: tuple[tuple[str, range], ...]
    joins: frozenset[frozenset[str]]
    provenance: tuple[str, ...]
    # the pipeline's intermediate graphs, both sides after pad_edges, after
    # double_subdivision and after pad_vertices, so that verify_reduction
    # measures the very graphs the artifact was built from
    stages: tuple[Graph, ...] = field(default=(), compare=False, repr=False)

    def part(self, label: str) -> range:
        for name, span in self.parts:
            if name == label:
                return span
        raise KeyError(label)


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
    plan_g, plan_h = _edge_pad_plan(g.num_edges, h.num_edges)
    g2, h2, k = pad_edges(g, h)
    gp = double_subdivision(g2)
    hp = double_subdivision(h2)
    gpp, hpp, n = pad_vertices(gp, hp)
    ell = 2 * n + 2

    offsets = {
        "G1": 0,
        "G2": n,
        "H1": 2 * n,
        "H2": 3 * n,
        "I1": 4 * n,
        "I2": 4 * n + ell,
    }
    sizes = {"G1": n, "G2": n, "H1": n, "H2": n, "I1": ell, "I2": ell}
    sources = {"G1": gpp, "G2": gpp, "H1": hpp, "H2": hpp, "I1": Graph(ell), "I2": Graph(ell)}
    masks = {label: ((1 << sizes[label]) - 1) << offsets[label] for label in PART_LABELS}
    rows = []
    for label in PART_LABELS:
        # the part's own edges, shifted into place, plus an edge to every
        # vertex of each part joined to it
        join = sum(masks[q] for q in PART_LABELS if frozenset((label, q)) in JOIN_PAIRS)
        rows += [row << offsets[label] | join for row in sources[label]._adj]
    ghat = Graph._from_rows(rows)

    provenance = (
        *(f"edge-pad g += K{size}" for size in plan_g),
        *(f"edge-pad h += K{size}" for size in plan_h),
        f"subdivide g: {k} edges -> {2 * k} new vertices",
        f"subdivide h: {k} edges -> {2 * k} new vertices",
        f"vertex-pad g += K{gpp.n - gp.n}",
        f"vertex-pad h += K{hpp.n - hp.n}",
        f"join parts with ell = {ell}",
    )
    parts = tuple(
        (label, range(offsets[label], offsets[label] + sizes[label]))
        for label in PART_LABELS
    )
    stages = (g2, h2, gp, hp, gpp, hpp)
    return ReductionArtifact(ghat, ell, k, n, parts, JOIN_PAIRS, provenance, stages)


def check_artifact_structure(artifact: ReductionArtifact) -> bool:
    """Recheck the artifact's structural invariants from the graph alone."""
    graph = artifact.graph
    spans = dict(artifact.parts)
    if sorted(spans) != sorted(PART_LABELS):
        return False
    covered = []
    for label in PART_LABELS:
        covered.extend(spans[label])
    if sorted(covered) != list(range(graph.n)):
        return False
    n, ell = artifact.n, artifact.ell
    if ell != 2 * n + 2:
        return False
    if any(len(spans[label]) != n for label in ("G1", "G2", "H1", "H2")):
        return False
    if len(spans["I1"]) != ell or len(spans["I2"]) != ell:
        return False

    masks = {
        label: sum(1 << v for v in span) for label, span in spans.items()
    }
    adj = graph._adj
    for i, p in enumerate(PART_LABELS):
        for q in PART_LABELS[i + 1 :]:
            joined = frozenset((p, q)) in artifact.joins
            for u in spans[p]:
                cross = adj[u] & masks[q]
                if joined and cross != masks[q]:
                    return False
                if not joined and cross != 0:
                    return False

    def internal_rows(label: str) -> list[int]:
        # each vertex's neighbours inside its own part, relabeled from 0
        base = spans[label].start
        return [(adj[u] & masks[label]) >> base for u in spans[label]]

    if any(internal_rows("I1")) or any(internal_rows("I2")):
        return False
    if internal_rows("G1") != internal_rows("G2"):
        return False
    if internal_rows("H1") != internal_rows("H2"):
        return False
    return True


def same_independence_number(g: Graph, h: Graph, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether two graphs have equal independence numbers."""
    return independence_number(g, budget) == independence_number(h, budget)


@dataclass(frozen=True)
class ReductionReport:
    """Exact measurements of one reduction run plus per-invariant verdicts."""

    alpha_g: int
    alpha_h: int
    alpha_g_final: int
    alpha_h_final: int
    alpha_artifact: int
    greedy_artifact: int
    k: int
    n: int
    ell: int
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
            f"k = {self.k}",
            f"n = {self.n}",
            f"ell = {self.ell}",
            f"alpha(Ghat) = {self.alpha_artifact}",
            f"mdg(Ghat) = {self.greedy_artifact}",
        ]
        out += [
            f"check {name}: {'PASS' if ok else 'FAIL'}" for name, ok in self.checks
        ]
        out.append(f"reduction: {'PASS' if self.passed else 'FAIL'}")
        return out


def _exact(solve, graph: Graph, budget: int, name: str):
    """`solve(graph, budget)`, a budget overrun renamed to the step that ran
    out: alpha(name) for the independence number, else mdg(name)."""
    try:
        return solve(graph, budget)
    except BudgetExceededError as exc:
        step = "alpha" if exc.what == "independence number" else "mdg"
        raise BudgetExceededError(f"{step}({name})", exc.budget) from None


def verify_reduction(g: Graph, h: Graph, budget: int = DEFAULT_BUDGET) -> ReductionReport:
    """Build the artifact and measure every contract with the exact solvers.

    Every stage is measured as build_reduction made it (the artifact's
    `stages`), and the report carries the artifact.  Raises
    BudgetExceededError naming the subcomputation if any exact solve outruns
    the state budget; a report is only returned when every quantity was
    computed exactly.
    """
    artifact = build_reduction(g, h)
    g2, h2, gp, hp, gpp, hpp = artifact.stages
    k, n = artifact.k, artifact.n

    alpha_g = _exact(independence_number, g, budget, "G")
    alpha_h = _exact(independence_number, h, budget, "H")
    alpha_g2 = _exact(independence_number, g2, budget, "G padded")
    alpha_h2 = _exact(independence_number, h2, budget, "H padded")
    alpha_gp, greedy_gp = _exact(_alpha_and_greedy, gp, budget, "G'")
    alpha_hp, greedy_hp = _exact(_alpha_and_greedy, hp, budget, "H'")
    alpha_gpp = _exact(independence_number, gpp, budget, "G''")
    alpha_hpp = _exact(independence_number, hpp, budget, "H''")
    alpha_ghat, greedy_ghat = _exact(_alpha_and_greedy, artifact.graph, budget, "Ghat")

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
        k=k,
        n=n,
        ell=artifact.ell,
        checks=checks,
        artifact=artifact,
    )
