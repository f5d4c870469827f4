"""Undirected simple graphs with exact independence and greedy solvers.

The two central quantities are the independence number (largest independent
set) and the best value achievable by the minimum-degree greedy heuristic
over all of its tie-breaking choices.  Both are computed exactly by one
search core, `_Search`: a memo over residual vertex sets (bitmasks) that
charges each state it stores to its call's one ledger (`errors._Ledger`),
raises instead of approximating once that budget is spent, and rebuilds a
best solution (a maximum independent set, a best greedy trace) from the
memo.  Its two rule sets differ only in how a residual set is scored and
which vertices may be taken first: any vertex for the independence number,
a minimum-degree vertex for greedy.

The core runs its rules on an explicit stack, so no search recurses in the
interpreter or touches its recursion limit.  Both rule sets prune only by
exact rules, which `_MisSolver` and `_GreedySolver` state.  The greedy rules
carry residual degrees down the stack in buckets (one bitmask of vertices
per degree) instead of rescanning; `min_degree_greedy` and `replay_trace`
use the same buckets, so a run keeps its degrees with O(n + m) popcounts
instead of a rescan per pick.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Generator, Iterable, Iterator, Sequence

from .errors import BudgetExceededError, _Ledger, _require_int

DEFAULT_BUDGET = 2_000_000

Ratio = Fraction | int


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Self-loops are rejected; duplicate edges collapse.  A graph stores only
    its n adjacency rows (row v is a bitmask of v's neighbours); the edge
    set is derived from them on request.  Instances are immutable and safe
    to share between threads; the hash is computed once, when first asked.
    """

    __slots__ = ("n", "_adj", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_adj", tuple(adj))

    @classmethod
    def _from_rows(cls, rows: Iterable[int]) -> Graph:
        """A graph on len(rows) vertices with these (symmetric, loop-free) rows."""
        g = object.__new__(cls)
        object.__setattr__(g, "_adj", tuple(rows))
        object.__setattr__(g, "n", len(g._adj))
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild from the rows; the stored hash stays behind
        return (Graph._from_rows, (self._adj,))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.n, self._adj))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.sorted_edges())})"

    def sorted_edges(self) -> Iterator[tuple[int, int]]:
        """The edges as (u, v) pairs with u < v, in sorted order."""
        for u, row in enumerate(self._adj):
            row >>= u + 1  # bit i is now vertex u + 1 + i
            v = u
            while row:
                step = (row & -row).bit_length()
                v += step
                row >>= step
                yield u, v

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as (u, v) pairs with u < v."""
        return frozenset(self.sorted_edges())

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self._adj) // 2

    def _vertex(self, v: int) -> int:
        if not 0 <= _require_int("vertex", v) < self.n:
            raise ValueError(f"no vertex {v} in a graph on {self.n} vertices")
        return v

    def degree(self, v: int) -> int:
        return self._adj[self._vertex(v)].bit_count()

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self._adj[self._vertex(v)]))

    def has_edge(self, u: int, v: int) -> bool:
        # rows hold no loops, so u == v reads false
        return bool(self._adj[self._vertex(u)] >> self._vertex(v) & 1)

    def complement(self) -> Graph:
        full = (1 << self.n) - 1
        return Graph._from_rows(full ^ row ^ (1 << v) for v, row in enumerate(self._adj))

    def disjoint_union(self, other: Graph) -> Graph:
        return Graph._from_rows(self._adj + tuple(row << self.n for row in other._adj))

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
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grow |= adj[low.bit_length() - 1]
            frontier = grow & mask & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _co_components(adj: Sequence[int], mask: int) -> list[int]:
    """The vertex sets of the components of the complement of the graph
    induced on `mask`.

    Every edge between two of them is present, so `mask` is their join; a
    single set means `mask` is no join.
    """
    comps = []
    rest = mask
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            common = -1  # the vertices adjacent to the whole frontier
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                common &= adj[low.bit_length() - 1]
            frontier = rest & ~(common | comp)
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _degree_buckets(adj: Sequence[int], mask: int) -> list[int]:
    """bucket[d]: the bitmask of the vertices (outside `mask` too) with d
    neighbours in `mask`."""
    bucket = [0] * len(adj)
    bit = 1
    for row in adj:
        bucket[(row & mask).bit_count()] |= bit
        bit += bit
    return bucket


def _lowest_bucket(bucket: Sequence[int], mask: int) -> int:
    """The vertices of the nonempty `mask` with the least degree, as a bitmask."""
    for vertices in bucket:
        if vertices & mask:
            return vertices & mask
    raise AssertionError("a vertex of mask has no degree")  # pragma: no cover


def _boundary(adj: Sequence[int], removed: int, rest: int) -> int:
    """The vertices of `rest` with a neighbour in `removed`."""
    near = 0
    if removed.bit_count() <= rest.bit_count():  # walk the smaller set
        while removed:
            low = removed & -removed
            removed ^= low
            near |= adj[low.bit_length() - 1]
        return near & rest
    while rest:
        low = rest & -rest
        rest ^= low
        if adj[low.bit_length() - 1] & removed:
            near |= low
    return near


def _lower_degrees(
    adj: Sequence[int], bucket: list[int], removed: int, rest: int, boundary: int
) -> list[tuple[int, int, int]]:
    """Move each vertex of `boundary` (in `rest`) down from the bucket of its
    degree in `rest | removed` to that of its degree in `rest`: one
    popcount of its neighbours in each.  Returns the moves, as (bit, old
    degree, new degree), for the caller to undo."""
    moves = []
    while boundary:
        low = boundary & -boundary
        boundary ^= low
        row = adj[low.bit_length() - 1]
        new = (row & rest).bit_count()
        old = new + (row & removed).bit_count()
        bucket[old] ^= low
        bucket[new] |= low
        moves.append((low, old, new))
    return moves


def _take(adj: Sequence[int], bucket: list[int], mask: int, v: int) -> int:
    """Take v: remove it and its neighbours from `mask`, move the vertices
    that lose a neighbour to their new buckets, and return the rest."""
    removed = mask & ((1 << v) | adj[v])
    mask ^= removed
    _lower_degrees(adj, bucket, removed, mask, _boundary(adj, removed, mask))
    return mask


def _in_one_component(adj: Sequence[int], mask: int, targets: int) -> bool:
    """Whether the nonempty `targets` lie in one component of `mask`: a
    search from one of them that stops once it has reached them all."""
    frontier = targets & -targets
    unreached = mask ^ frontier
    while targets & unreached:
        if not frontier:
            return False
        grow = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grow |= adj[low.bit_length() - 1]
        frontier = grow & unreached
        unreached ^= frontier
    return True


def _is_clique(adj: Sequence[int], mask: int) -> bool:
    """Whether the vertices of `mask` are pairwise adjacent."""
    while mask:
        low = mask & -mask
        mask ^= low
        if mask & ~adj[low.bit_length() - 1]:
            return False
    return True


def _is_triangle_free(adj: Sequence[int], mask: int) -> bool:
    """Whether no three vertices of `mask` are pairwise adjacent."""
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        later = adj[low.bit_length() - 1] & rest  # neighbours above this vertex
        nb = later
        while nb:
            low = nb & -nb
            nb ^= low
            if adj[low.bit_length() - 1] & later:
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


class _Search:
    """Memoized best-value search over vertex subsets of one graph.

    A subclass gives the rules: `_value(mask, parent)` scores a nonempty
    residual set, and `_choices(bucket, mask)` names, as a bitmask, the
    vertices a best solution may take first (`bucket` holds the degrees in
    `mask`, as `_degree_buckets` gives them, and `picks` moves it with
    `_take`).  `_value` is a generator: each `(yield sub)` hands `solve` a
    smaller residual set and receives its value, and the generator returns
    the value of `mask`.  `parent` is the set whose rule
    yielded `mask`, or None for the set `solve` was called on (a root); a
    rule may use it to carry work down from its parent.  `solve` keeps the
    suspended rules on a stack, answers a yielded set from the memo when it
    can and otherwise pushes that set's rule, so the stack's length is the
    search depth.  Taking a vertex removes it and its neighbors and counts
    one; `picks` replays those choices to recover a solution.  Each state
    stored is charged to `ledger`, which raises BudgetExceededError once
    its call's states are spent.
    """

    def __init__(self, g: Graph, ledger: _Ledger):
        self.adj = g._adj
        self.ledger = ledger
        self.cache: dict[int, int] = {0: 0}  # the empty set is free, not a state

    def solve(self, mask: int) -> int:
        cache = self.cache
        value = cache.get(mask)
        if value is not None:
            return value
        ledger = self.ledger
        masks, rules = [mask], [self._value(mask, None)]
        while True:
            try:
                sub = rules[-1].send(value)
            except StopIteration as done:
                value = done.value
                if ledger.left <= 0:
                    raise BudgetExceededError(ledger.what, ledger.budget) from None
                ledger.left -= 1
                cache[masks.pop()] = value
                rules.pop()
                if not rules:
                    return value
                continue
            value = cache.get(sub)
            if value is None:
                rules.append(self._value(sub, masks[-1]))
                masks.append(sub)

    def picks(self, mask: int) -> list[int]:
        adj = self.adj
        bucket = _degree_buckets(adj, mask)
        picks = []
        while mask:
            target = self.solve(mask)
            for v in _bits(self._choices(bucket, mask)):
                rest = mask & ~((1 << v) | adj[v])
                if 1 + self.solve(rest) == target:
                    picks.append(v)
                    mask = _take(adj, bucket, mask, v)
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
    degrees are all 2 is a cycle with a closed-form answer.

    Two more exact rules cut the branching.  A component that is the join
    of the components of its complement (every edge between any two of
    them) scores the best of them, since an independent set lies inside
    one; a split needs a vertex of degree at least half the component, so
    only then is it looked for.  Branching is on a vertex of maximum
    residual degree together with its false twins (same residual
    neighbourhood), taken all or none: a maximum independent set holding
    one twin but not another could add the other.  Any vertex may start a
    maximum independent set.
    """

    what = "independence number"

    def _value(self, mask: int, parent: int | None) -> Generator[int, int, int]:
        adj = self.adj
        taken = 0
        work = mask
        # Take simplicial vertices until a pass takes none; each such pick is
        # safe.  That last pass also finds a vertex of maximum degree.
        changed = True
        while changed:
            changed = False
            best_v, best_d = -1, -1
            rest = work
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                nb = adj[v] & work
                if nb & (nb - 1) == 0 or _is_clique(adj, nb):
                    work &= ~(low | nb)
                    rest &= work
                    taken += 1
                    changed = True
                else:
                    d = nb.bit_count()
                    if d > best_d:
                        best_v, best_d = v, d
        if work == 0:
            return taken

        comps = _components(adj, work)
        if len(comps) > 1:
            for c in comps:
                taken += yield c
            return taken

        comp = comps[0]
        if best_d == 2:
            # every degree is exactly 2 here, so the component is one cycle
            return taken + comp.bit_count() // 2

        if 2 * best_d >= comp.bit_count():
            parts = _co_components(adj, comp)
            if len(parts) > 1:
                best = 0
                for p in parts:
                    best = max(best, (yield p))
                return taken + best

        # best_v's false twins: a vertex adjacent to all of best_v's
        # neighbours has at least its (maximum) degree, so exactly its
        # neighbourhood; the common neighbours are best_v and its twins
        nb = adj[best_v] & comp
        twins = comp
        rest = nb
        while rest:
            low = rest & -rest
            rest ^= low
            twins &= adj[low.bit_length() - 1]
        include = twins.bit_count() + (yield comp & ~(twins | nb))
        exclude = yield comp & ~twins
        return taken + max(include, exclude)

    def _choices(self, bucket: Sequence[int], mask: int) -> int:
        return mask


class _GreedySolver(_Search):
    """Best-over-ties minimum-degree greedy values on residual subsets.

    Branches only over vertices whose residual degree is strictly minimum,
    and scores disconnected residuals one component at a time: greedy
    interleavings across components never interact, so the best value is
    the sum of the components' best values.

    Any greedy run is an independent set, so no tie can beat the residual
    set's independence number, which no partition into cliques undercuts.
    Once a tie reaches that bound the rest are skipped.  The bound is the
    exact alpha where the memo of `mis` (its own `_MisSolver` on the same
    graph) holds the residual set, else `_clique_cover_size`.  If the best
    tie so far is below the cover and the residual set is triangle-free,
    `mis` solves alpha exactly and it replaces the cover.  Without triangles
    every clique of the cover has at most two vertices, so the cover is at
    least half the set however small alpha is; with them (as in the
    reduction's artifacts) greedy often stays below alpha anyway, and a
    probe would be wasted.  A bound only prunes, so the value is exact
    either way.  `mis` shares this solver's ledger.

    Residual degrees are carried down the search, not rescanned:
    `bucket[d]` is the bitmask of the vertices with d neighbours in the
    set of the running rule, so a state's minimum-degree ties are the
    first nonempty `bucket[d] & mask`, lowest vertex first.  A rule's set
    is its parent's less R = parent - mask.  Only the boundary, the
    vertices of `mask` with a neighbour in R, change degree.  The rule
    moves each down by its number of neighbours in R when it starts (two
    popcounts a vertex, not one update an edge) and back before it
    returns.  A component of a split parent has no boundary.  The rest of
    a connected set after a pick is connected iff its boundary lies in one
    component, since every vertex reached R through it.  A search from
    one boundary vertex that stops once it has reached them all settles
    this; only at a root, or when that search fails, are the components
    found by a full scan (lowest vertex first, as always).  A root refills
    `bucket` for its set, so a solver that raised BudgetExceededError
    midway, with some rules' moves never undone, solves correctly again.
    A clique scores 1 at once: any pick takes all of it.  Only the clique
    cover, and `_is_triangle_free` where a probe is weighed, still walk
    the whole set.
    """

    what = "best greedy value"

    def __init__(self, g: Graph, ledger: _Ledger):
        super().__init__(g, ledger)
        self.mis = _MisSolver(g, ledger)
        self.bucket: list[int] = []

    def _value(self, mask: int, parent: int | None) -> Generator[int, int, int]:
        adj, bucket = self.adj, self.bucket
        if _is_clique(adj, mask):
            return 1  # any pick takes all of it; no degree is read
        moves, comps = None, ()
        if parent is None:
            bucket[:] = _degree_buckets(adj, mask)
            comps = _components(adj, mask)
        else:  # carry the parent's degrees; see the class docstring
            removed = parent & ~mask
            boundary = _boundary(adj, removed, mask)
            if boundary:
                moves = _lower_degrees(adj, bucket, removed, mask, boundary)
                if boundary & (boundary - 1) and not _in_one_component(adj, mask, boundary):
                    comps = _components(adj, mask)
        if len(comps) > 1:
            best = 0
            for c in comps:
                best += yield c
        else:
            for tied in bucket:  # _lowest_bucket, inlined: it runs at every state
                tied &= mask
                if tied:
                    break
            low = tied & -tied
            ties = tied ^ low
            best = 1 + (yield mask & ~(low | adj[low.bit_length() - 1]))
            if ties:
                bound = self.mis.cache.get(mask)
                if bound is None:
                    bound = _clique_cover_size(adj, mask)
                    if best < bound and _is_triangle_free(adj, mask):
                        bound = self.mis.solve(mask)
                while ties and best < bound:
                    low = ties & -ties
                    ties ^= low
                    value = 1 + (yield mask & ~(low | adj[low.bit_length() - 1]))
                    if value > best:
                        best = value
        if moves:
            for low, old, new in moves:
                bucket[new] ^= low
                bucket[old] |= low
        return best

    def _choices(self, bucket: Sequence[int], mask: int) -> int:
        return _lowest_bucket(bucket, mask)


def _alpha(g: Graph, ledger: _Ledger, step: str = _MisSolver.what) -> int:
    """independence_number, its states charged to `ledger` as `step`."""
    ledger.what = step
    return _MisSolver(g, ledger).solve((1 << g.n) - 1)


def independence_number(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Exact size of a maximum independent set."""
    return _alpha(g, _Ledger(budget))


def max_independent_set(g: Graph, budget: int = DEFAULT_BUDGET) -> frozenset[int]:
    """One maximum independent set (a witness for independence_number)."""
    return frozenset(_MisSolver(g, _Ledger(budget, _MisSolver.what)).picks((1 << g.n) - 1))


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
    bucket = _degree_buckets(adj, mask)
    picks = []
    while mask:
        v = tie_break(list(_bits(_lowest_bucket(bucket, mask))))
        picks.append(v)
        mask = _take(adj, bucket, mask, v)
    return frozenset(picks), GreedyTrace(tuple(picks))


def replay_trace(g: Graph, trace: GreedyTrace) -> frozenset[int]:
    """Validate a greedy trace against its graph and return the picked set.

    Raises ValueError unless every pick had minimum residual degree at its
    turn and the run ends with an empty residual graph.
    """
    adj = g._adj
    mask = (1 << g.n) - 1
    bucket = _degree_buckets(adj, mask)
    for step, v in enumerate(trace.picks):
        if v < 0 or not mask >> v & 1:
            raise ValueError(f"step {step}: vertex {v} not in residual graph")
        tied = _lowest_bucket(bucket, mask)
        if not tied >> v & 1:
            d = (adj[v] & mask).bit_count()
            mind = (adj[(tied & -tied).bit_length() - 1] & mask).bit_count()
            raise ValueError(f"step {step}: vertex {v} has degree {d}, minimum is {mind}")
        mask = _take(adj, bucket, mask, v)
    if mask:
        raise ValueError("trace ends before the residual graph is empty")
    return frozenset(trace.picks)


def _greedy(g: Graph, ledger: _Ledger) -> int:
    """greedy_independence_number, its states charged to `ledger`."""
    ledger.what = _GreedySolver.what
    return _GreedySolver(g, ledger).solve((1 << g.n) - 1)


def greedy_independence_number(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Largest output size of the minimum-degree greedy over all tie choices."""
    return _greedy(g, _Ledger(budget))


def best_greedy_trace(g: Graph, budget: int = DEFAULT_BUDGET) -> GreedyTrace:
    """A greedy trace realizing greedy_independence_number."""
    solver = _GreedySolver(g, _Ledger(budget, _GreedySolver.what))
    return GreedyTrace(tuple(solver.picks((1 << g.n) - 1)))


def greedy_reaches(g: Graph, size: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether some greedy tie-choice sequence collects at least `size` picks."""
    if size <= 0:
        return True
    if size > g.n:
        return False
    return greedy_independence_number(g, budget) >= size


def _alpha_and_greedy(
    g: Graph, ledger: _Ledger, steps: tuple[str, str] = (_MisSolver.what, _GreedySolver.what)
) -> tuple[int, int]:
    """Alpha, then best greedy bounded by alpha's memo, charged to `ledger` as `steps`."""
    full = (1 << g.n) - 1
    greedy = _GreedySolver(g, ledger)
    ledger.what = steps[0]
    alpha = greedy.mis.solve(full)
    ledger.what = steps[1]
    return alpha, greedy.solve(full)


def _check_ratio(r: Ratio) -> Fraction:
    # a float is not exact: Fraction(1.2) lies just below 6/5
    if not isinstance(r, (int, Fraction)):
        raise TypeError(f"approximation factor must be an int or a Fraction, got {r!r}")
    r = Fraction(r)
    if r < 1:
        raise ValueError(f"approximation factor must be >= 1, got {r}")
    return r


def achieves_ratio(g: Graph, r: Ratio, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether best-case greedy is within factor r of the independence number.

    Exact integer test: alpha * denominator <= greedy * numerator.
    """
    r = _check_ratio(r)
    alpha, greedy = _alpha_and_greedy(g, _Ledger(budget))
    return alpha * r.denominator <= greedy * r.numerator
