"""Undirected simple graphs with exact independence and greedy solvers.

The two central quantities are the independence number (largest independent
set) and the best value achievable by the minimum-degree greedy heuristic
over all of its tie-breaking choices.  Both are computed exactly by one
search core, `_Search`: a memo over residual vertex sets (bitmasks) that
stores at most `budget` states and raises instead of approximating, and
that rebuilds a best solution (a maximum independent set, a best greedy
trace) from the memo.  Its two rule sets differ only in how a residual set
is scored and which vertices may be taken first: any vertex for the
independence number, a minimum-degree vertex for greedy.

Both searches prune only by exact rules.  The independence search takes any
simplicial vertex (one whose residual neighbourhood is a clique) without
branching.  The greedy search stops trying tied picks once one reaches an
upper bound on the independence number of the residual set: greedy <= alpha
<= the size of any partition into cliques.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceededError

DEFAULT_BUDGET = 2_000_000

Ratio = Fraction | int


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Self-loops are rejected; duplicate edges collapse.  Instances are
    immutable and safe to share between threads.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            normalized.add((u, v) if u < v else (v, u))
        adj = [0] * n
        for u, v in normalized:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))
        object.__setattr__(self, "_adj", tuple(adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self._adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self._adj[u] >> v & 1)

    def complement(self) -> Graph:
        full = [(u, v) for u in range(self.n) for v in range(u + 1, self.n)]
        return Graph(self.n, [e for e in full if e not in self.edges])

    def disjoint_union(self, other: Graph) -> Graph:
        shifted = [(u + self.n, v + self.n) for u, v in other.edges]
        return Graph(self.n + other.n, list(self.edges) + shifted)

    @classmethod
    def empty(cls, n: int) -> Graph:
        return cls(n)

    @classmethod
    def complete(cls, n: int) -> Graph:
        return cls(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

    @classmethod
    def path(cls, n: int) -> Graph:
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> Graph:
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def star(cls, leaves: int) -> Graph:
        return cls(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


@dataclass(frozen=True)
class GreedyTrace:
    """Selection order of one minimum-degree greedy run."""

    picks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.picks)


def _bits(mask: int):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask -= lsb


def _components(adj: Sequence[int], mask: int) -> list[int]:
    comps = []
    rest = mask
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in _bits(frontier):
                grow |= adj[v] & mask
            frontier = grow & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _min_degree_vertices(adj: Sequence[int], mask: int) -> list[int]:
    """The vertices of `mask` with minimum residual degree, in increasing order."""
    ties, mind = [], len(adj)  # every degree is below the vertex count
    for v in _bits(mask):
        d = (adj[v] & mask).bit_count()
        if d < mind:
            ties, mind = [v], d
        elif d == mind:
            ties.append(v)
    return ties


def _is_clique(adj: Sequence[int], mask: int) -> bool:
    """Whether the vertices of `mask` are pairwise adjacent."""
    while mask:
        low = mask & -mask
        mask ^= low
        if mask & ~adj[low.bit_length() - 1]:
            return False
    return True


def _clique_cover_size(adj: Sequence[int], mask: int) -> int:
    """Number of cliques in a greedy partition of `mask` into cliques.

    Each clique starts at the lowest remaining vertex and grows through the
    vertices adjacent to all of it.  An independent set meets each clique at
    most once, so the count bounds the independence number from above.
    """
    count = 0
    while mask:
        low = mask & -mask
        mask ^= low
        joinable = adj[low.bit_length() - 1] & mask
        while joinable:
            low = joinable & -joinable
            mask ^= low
            joinable &= adj[low.bit_length() - 1]
        count += 1
    return count


def _ensure_recursion_room(n: int) -> None:
    want = 4 * n + 1000
    if sys.getrecursionlimit() < want:
        sys.setrecursionlimit(want)


class _Search:
    """Memoized best-value search over vertex subsets of one graph.

    A subclass gives the rules: `_value(mask)` scores a nonempty residual
    set through `solve` on smaller sets, and `_choices(mask)` names the
    vertices a best solution may take first.  Taking a vertex removes it
    and its neighbors and counts one; `picks` replays those choices to
    recover a solution.  At most `budget` states are stored; a search that
    needs more raises BudgetExceededError naming the subclass's `what`.
    """

    def __init__(self, g: Graph, budget: int):
        self.adj = g._adj
        self.budget = budget
        self.cache: dict[int, int] = {}
        _ensure_recursion_room(g.n)

    def solve(self, mask: int) -> int:
        if mask == 0:
            return 0
        hit = self.cache.get(mask)
        if hit is not None:
            return hit
        value = self._value(mask)
        if len(self.cache) >= self.budget:
            raise BudgetExceededError(self.what, self.budget)
        self.cache[mask] = value
        return value

    def picks(self, mask: int) -> list[int]:
        picks = []
        while mask:
            target = self.solve(mask)
            for v in self._choices(mask):
                rest = mask & ~((1 << v) | self.adj[v])
                if 1 + self.solve(rest) == target:
                    picks.append(v)
                    mask = rest
                    break
            else:  # pragma: no cover - solve() guarantees a best choice exists
                raise AssertionError(f"{self.what}: reconstruction failed")
        return picks


class _MisSolver(_Search):
    """Exact maximum-independent-set sizes on vertex subsets of one graph.

    Three generic simplifications: a simplicial vertex (its residual
    neighbourhood is a clique, as for degree 0 and 1) is always safe to
    take, since a maximum independent set holds at most one vertex of that
    clique and swapping it for the simplicial one loses nothing; connected
    components are scored independently; and a residual component whose
    degrees are all 2 is a cycle with a closed-form answer.  Branching is
    on a vertex of maximum residual degree.  Any vertex may start a maximum
    independent set.
    """

    what = "independence number"

    def _value(self, mask: int) -> int:
        adj = self.adj
        taken = 0
        work = mask
        # Take simplicial vertices until none remain; each such pick is safe.
        changed = True
        while changed:
            changed = False
            for v in _bits(work):
                if not work >> v & 1:
                    continue  # already dropped as an earlier pick's neighbor
                nb = adj[v] & work
                if _is_clique(adj, nb):
                    work &= ~((1 << v) | nb)
                    taken += 1
                    changed = True
        if work == 0:
            return taken

        comps = _components(adj, work)
        if len(comps) > 1:
            return taken + sum(self.solve(c) for c in comps)

        comp = comps[0]
        best_v, best_d = -1, -1
        for v in _bits(comp):
            d = (adj[v] & comp).bit_count()
            if d > best_d:
                best_v, best_d = v, d
        if best_d == 2:
            # every degree is exactly 2 here, so the component is one cycle
            return taken + comp.bit_count() // 2

        include = 1 + self.solve(comp & ~((1 << best_v) | adj[best_v]))
        exclude = self.solve(comp & ~(1 << best_v))
        return taken + max(include, exclude)

    def _choices(self, mask: int) -> Iterable[int]:
        return _bits(mask)


class _GreedySolver(_Search):
    """Best-over-ties minimum-degree greedy values on residual subsets.

    Branches only over vertices whose residual degree is strictly minimum,
    and scores disconnected residuals one component at a time: greedy
    interleavings across components never interact, so the best value is
    the sum of the components' best values.

    Any greedy run is an independent set, so no tie can beat the residual
    set's independence number, which no partition into cliques undercuts.
    Once a tie reaches that bound the rest are skipped.  The bound is the
    exact alpha where `alpha_memo` (a `_MisSolver` cache, only read here)
    holds the residual set, else `_clique_cover_size`.
    """

    what = "best greedy value"

    def __init__(self, g: Graph, budget: int, alpha_memo: dict[int, int] | None = None):
        super().__init__(g, budget)
        self.alpha_memo = {} if alpha_memo is None else alpha_memo

    def _value(self, mask: int) -> int:
        adj = self.adj
        comps = _components(adj, mask)
        if len(comps) > 1:
            return sum(self.solve(c) for c in comps)
        first, *ties = _min_degree_vertices(adj, mask)
        best = 1 + self.solve(mask & ~((1 << first) | adj[first]))
        if ties:
            bound = self.alpha_memo.get(mask)
            if bound is None:
                bound = _clique_cover_size(adj, mask)
            for v in ties:
                if best >= bound:
                    break
                value = 1 + self.solve(mask & ~((1 << v) | adj[v]))
                if value > best:
                    best = value
        return best

    def _choices(self, mask: int) -> list[int]:
        return _min_degree_vertices(self.adj, mask)


def independence_number(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Exact size of a maximum independent set."""
    return _MisSolver(g, budget).solve((1 << g.n) - 1)


def max_independent_set(g: Graph, budget: int = DEFAULT_BUDGET) -> frozenset[int]:
    """One maximum independent set (a witness for independence_number)."""
    return frozenset(_MisSolver(g, budget).picks((1 << g.n) - 1))


def clique_number(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Exact size of a maximum clique, via the complement graph."""
    return independence_number(g.complement(), budget)


def has_odd_clique_number(g: Graph, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether the maximum clique size is odd. Rejects the empty graph."""
    if g.n == 0:
        raise ValueError("clique-size parity of the empty graph is undefined")
    return clique_number(g, budget) % 2 == 1


def min_degree_greedy(
    g: Graph, tie_break: Callable[[Sequence[int]], int] = min
) -> tuple[frozenset[int], GreedyTrace]:
    """One deterministic run of the minimum-degree greedy heuristic.

    Repeatedly selects a vertex of minimum residual degree (ties resolved
    by `tie_break` over the candidate ids), removes it and its neighbors,
    and stops when nothing is left.  The output set is a maximal
    independent set.
    """
    adj = g._adj
    mask = (1 << g.n) - 1
    picks = []
    while mask:
        v = tie_break(_min_degree_vertices(adj, mask))
        picks.append(v)
        mask &= ~((1 << v) | adj[v])
    return frozenset(picks), GreedyTrace(tuple(picks))


def replay_trace(g: Graph, trace: GreedyTrace) -> frozenset[int]:
    """Validate a greedy trace against its graph and return the picked set.

    Raises ValueError unless every pick had minimum residual degree at its
    turn and the run ends with an empty residual graph.
    """
    adj = g._adj
    mask = (1 << g.n) - 1
    for step, v in enumerate(trace.picks):
        if not mask >> v & 1:
            raise ValueError(f"step {step}: vertex {v} not in residual graph")
        ties = _min_degree_vertices(adj, mask)
        if v not in ties:
            d = (adj[v] & mask).bit_count()
            mind = (adj[ties[0]] & mask).bit_count()
            raise ValueError(f"step {step}: vertex {v} has degree {d}, minimum is {mind}")
        mask &= ~((1 << v) | adj[v])
    if mask:
        raise ValueError("trace ends before the residual graph is empty")
    return frozenset(trace.picks)


def greedy_independence_number(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Largest output size of the minimum-degree greedy over all tie choices."""
    return _GreedySolver(g, budget).solve((1 << g.n) - 1)


def best_greedy_trace(g: Graph, budget: int = DEFAULT_BUDGET) -> GreedyTrace:
    """A greedy trace realizing greedy_independence_number."""
    return GreedyTrace(tuple(_GreedySolver(g, budget).picks((1 << g.n) - 1)))


def greedy_reaches(g: Graph, size: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether some greedy tie-choice sequence collects at least `size` picks."""
    if size <= 0:
        return True
    if size > g.n:
        return False
    return greedy_independence_number(g, budget) >= size


def _alpha_and_greedy(g: Graph, budget: int) -> tuple[int, int]:
    """Alpha and best greedy value, the greedy search bounded by alpha's memo."""
    full = (1 << g.n) - 1
    mis = _MisSolver(g, budget)
    alpha = mis.solve(full)
    return alpha, _GreedySolver(g, budget, mis.cache).solve(full)


def _check_ratio(r: Ratio) -> Fraction:
    r = Fraction(r)
    if r < 1:
        raise ValueError(f"approximation factor must be >= 1, got {r}")
    return r


def achieves_ratio(g: Graph, r: Ratio, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether best-case greedy is within factor r of the independence number.

    Exact integer test: alpha * denominator <= greedy * numerator.
    """
    r = _check_ratio(r)
    alpha, greedy = _alpha_and_greedy(g, budget)
    return alpha * r.denominator <= greedy * r.numerator


def misses_ratio(g: Graph, r: Ratio, budget: int = DEFAULT_BUDGET) -> bool:
    """Complement of achieves_ratio, evaluated through threshold queries.

    True iff some k in [1, n] has alpha >= k while greedy * numerator stays
    below k * denominator.
    """
    r = _check_ratio(r)
    alpha, greedy = _alpha_and_greedy(g, budget)
    return any(
        alpha >= k and greedy * r.numerator < k * r.denominator
        for k in range(1, g.n + 1)
    )
