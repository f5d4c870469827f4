"""Independent brute-force oracles used to cross-check the exact solvers.

Everything here is deliberately naive: plain enumeration with none of the
memoization, decomposition, or pruning the production solvers use, so that
agreement between the two routes is meaningful evidence.  Only usable at
small sizes.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations, product

from .elections import Election
from .graphs import Graph


def independence_by_enumeration(g: Graph, limit: int = 24) -> int:
    """Maximum independent set size by checking every vertex subset."""
    if g.n > limit:
        raise ValueError(f"enumeration over 2^{g.n} subsets refused (limit {limit})")
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = 0
    for mask in range(1 << g.n):
        sub = mask
        independent = True
        while sub:
            lsb = sub & -sub
            if adj[lsb.bit_length() - 1] & mask:
                independent = False
                break
            sub -= lsb
        if independent:
            best = max(best, mask.bit_count())
    return best


def greedy_max_by_enumeration(g: Graph) -> int:
    """Best minimum-degree greedy outcome by walking every tie sequence."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def walk(mask: int) -> int:
        if mask == 0:
            return 0
        degs = []
        mind = g.n
        sub = mask
        while sub:
            lsb = sub & -sub
            v = lsb.bit_length() - 1
            d = (adj[v] & mask).bit_count()
            degs.append((v, d))
            if d < mind:
                mind = d
            sub -= lsb
        return 1 + max(
            walk(mask & ~((1 << v) | adj[v])) for v, d in degs if d == mind
        )

    return walk((1 << g.n) - 1)


def _profile_beats_all(profile: tuple[tuple[int, ...], ...], c: int, m: int) -> bool:
    n = len(profile)
    wins = [0] * m
    for ranking in profile:
        pos = ranking.index(c)
        for d in ranking[pos + 1 :]:
            wins[d] += 1
    return all(2 * wins[d] > n for d in range(m) if d != c)


def _profile_neighbors(profile: tuple[tuple[int, ...], ...]):
    m = len(profile[0])
    for i, ranking in enumerate(profile):
        for p in range(m - 1):
            swapped = list(ranking)
            swapped[p], swapped[p + 1] = swapped[p + 1], swapped[p]
            yield profile[:i] + (tuple(swapped),) + profile[i + 1 :]


def carroll_score_by_bfs(e: Election, c: int) -> int:
    """Carroll score by breadth-first search over the whole profile space.

    Moves are arbitrary adjacent exchanges in any voter's order, not just
    raises of c, which is what makes this an independent check of the
    raise-only DP.
    """
    m = e.num_candidates
    start = tuple(v.ranking for v in e.voters)
    if _profile_beats_all(start, c, m):
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        profile, dist = queue.popleft()
        for nxt in _profile_neighbors(profile):
            if nxt in seen:
                continue
            if _profile_beats_all(nxt, c, m):
                return dist + 1
            seen.add(nxt)
            queue.append((nxt, dist + 1))
    raise AssertionError("profile space exhausted without a Condorcet profile")


def condorcet_distances(m: int, n: int, c: int) -> dict[tuple[tuple[int, ...], ...], int]:
    """Swap distance to the nearest profile where c beats everyone, for every
    profile with m candidates and n voters.

    Adjacent exchanges are involutions, so one reverse BFS from all target
    profiles scores the entire space at once.
    """
    targets = []
    space = list(permutations(range(m)))
    for profile in product(space, repeat=n):
        if _profile_beats_all(profile, c, m):
            targets.append(profile)
    dist = {p: 0 for p in targets}
    queue = deque(targets)
    while queue:
        profile = queue.popleft()
        d = dist[profile]
        for nxt in _profile_neighbors(profile):
            if nxt not in dist:
                dist[nxt] = d + 1
                queue.append(nxt)
    return dist
