"""Preference profiles, pairwise majorities, and exact Carroll scores.

A candidate's Carroll score is the minimum number of exchanges of adjacent
candidates in voters' preference orders needed to make that candidate beat
every rival in pairwise majority contests.  Scores are computed exactly by
a dynamic program over per-voter raise amounts and the majority deficits
they leave, under an explicit state budget; every certificate carries a
replayable swap witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BudgetExceededError, _Ledger, _require_int
from .graphs import DEFAULT_BUDGET


@dataclass(frozen=True)
class Candidate:
    id: int
    name: str


@dataclass(frozen=True)
class PreferenceOrder:
    """One voter's strict ranking of candidate ids, most preferred first."""

    ranking: tuple[int, ...]


@dataclass(frozen=True)
class Election:
    candidates: tuple[Candidate, ...]
    voters: tuple[PreferenceOrder, ...]

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("an election needs at least one candidate")
        if not self.voters:
            raise ValueError("an election needs at least one voter")
        ids = [c.id for c in self.candidates]
        if ids != list(range(len(ids))):
            raise ValueError("candidate ids must be 0..m-1 in order")
        names = [c.name for c in self.candidates]
        if len(set(names)) != len(names):
            raise ValueError("candidate names must be unique")
        # whitespace separates names in the text format, and `#` starts a comment
        if any(not name or "#" in name or any(ch.isspace() for ch in name) for name in names):
            raise ValueError("candidate names must be nonempty, without whitespace or `#`")
        full = frozenset(ids)
        for i, voter in enumerate(self.voters):
            if len(voter.ranking) != len(full) or set(voter.ranking) != full:
                raise ValueError(f"voter {i} ranking is not a permutation of the candidates")

    @classmethod
    def from_names(
        cls, names: Sequence[str], rankings: Iterable[Sequence[str]]
    ) -> Election:
        """Build an election from candidate names and per-voter name rankings."""
        index = {name: i for i, name in enumerate(names)}
        try:
            ids = [[index[name] for name in ranking] for ranking in rankings]
        except KeyError as exc:
            raise ValueError(f"unknown candidate name {exc.args[0]!r}") from None
        return cls._from_ids(names, ids)

    @classmethod
    def _from_ids(cls, names: Iterable[str], rankings: Iterable[Iterable[int]]) -> Election:
        """An election on these candidate names, ids 0..m-1, with these id rankings."""
        # from a list, not a generator: tuple() resizes a generator's result,
        # so freed voter tuples would pile up on CPython's tuple free lists
        voters = [PreferenceOrder(tuple(ranking)) for ranking in rankings]
        return cls(tuple(Candidate(i, name) for i, name in enumerate(names)), tuple(voters))

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @property
    def num_voters(self) -> int:
        return len(self.voters)

    def __hash__(self):
        # computed once: batches look the same election up once per query
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.candidates, self.voters))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # a str's hash differs between processes, so the stored one stays behind
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def _candidate(self, c: int) -> int:
        if not 0 <= _require_int("candidate", c) < len(self.candidates):
            raise ValueError(f"no candidate with id {c}")
        return c

    def _voter(self, v: int) -> int:
        if not 0 <= _require_int("voter", v) < len(self.voters):
            raise ValueError(f"voter {v} out of range for {len(self.voters)} voters")
        return v

    def name_of(self, c: int) -> str:
        return self.candidates[self._candidate(c)].name

    def id_of(self, name: str) -> int:
        for cand in self.candidates:
            if cand.name == name:
                return cand.id
        raise ValueError(f"no candidate named {name!r}")


@dataclass(frozen=True)
class ScoreCertificate:
    """An exact Carroll score plus the adjacent-swap witness realizing it.

    Each witness step (voter, position) swaps the entries at `position` and
    `position + 1` of that voter's ranking; replaying all steps in order
    yields a profile in which the candidate beats every rival.
    """

    candidate: int
    score: int
    witness: tuple[tuple[int, int], ...]


def max_score(e: Election) -> int:
    """Upper bound on any Carroll score: raise the candidate to every top."""
    return e.num_voters * (e.num_candidates - 1)


def pairwise_tally(e: Election) -> list[list[int]]:
    """Matrix N with N[a][b] = number of voters ranking a above b."""
    m = e.num_candidates
    tally = [[0] * m for _ in range(m)]
    for voter in e.voters:
        ranking = voter.ranking
        for i in range(m):
            for j in range(i + 1, m):
                tally[ranking[i]][ranking[j]] += 1
    return tally


def defeats(e: Election, a: int, b: int) -> bool:
    """Whether strictly more than half of the voters rank a above b."""
    if e._candidate(a) == e._candidate(b):
        raise ValueError("a candidate cannot face itself")
    return _defeats_in(pairwise_tally(e), a, b, e.num_voters)


def _defeats_in(tally: list[list[int]], a: int, b: int, num_voters: int) -> bool:
    """`defeats`, read off a `pairwise_tally`."""
    return 2 * tally[a][b] > num_voters


def _beats_all(tally: list[list[int]], c: int, num_voters: int) -> bool:
    return all(_defeats_in(tally, c, d, num_voters) for d in range(len(tally)) if d != c)


def condorcet_winner(e: Election) -> int | None:
    """The candidate beating all others pairwise, if one exists."""
    tally = pairwise_tally(e)
    for c in range(e.num_candidates):
        if _beats_all(tally, c, e.num_voters):
            return c
    return None


def _raise_swaps(e: Election, candidate: int, voter: int, steps: int) -> list[tuple[int, int]]:
    """A raise of a candidate by `steps` places in one voter's ranking, as
    the adjacent swaps that make it, each past the rival just above."""
    e._candidate(candidate)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    pos = e.voters[e._voter(voter)].ranking.index(candidate)
    if steps > pos:
        raise ValueError(
            f"candidate {candidate} sits at depth {pos} in voter {voter}, cannot raise {steps}"
        )
    return [(voter, pos - t) for t in range(1, steps + 1)]


def _apply_swaps(e: Election, swaps: Iterable[tuple[int, int]]) -> Election:
    """The election after these (voter, position) swaps, in order; each
    exchanges the entries at position and position + 1 of that ranking."""
    rankings = [list(voter.ranking) for voter in e.voters]
    for voter, position in swaps:
        ranking = rankings[e._voter(voter)]
        if not 0 <= position < len(ranking) - 1:
            raise ValueError(f"no adjacent pair at position {position}")
        ranking[position], ranking[position + 1] = ranking[position + 1], ranking[position]
    return Election(e.candidates, tuple([PreferenceOrder(tuple(r)) for r in rankings]))


def apply_swap(e: Election, voter: int, position: int) -> Election:
    """Exchange the adjacent entries at position and position+1 of one ranking."""
    return _apply_swaps(e, [(voter, position)])


def apply_raise(e: Election, candidate: int, voter: int, steps: int) -> Election:
    """Move a candidate up `steps` adjacent positions in one voter's ranking."""
    return _apply_swaps(e, _raise_swaps(e, candidate, voter, steps))


def replay_witness(e: Election, cert: ScoreCertificate) -> Election:
    """Apply a certificate's swap steps in order to the election."""
    return _apply_swaps(e, cert.witness)


def _solve_min_raises(e: Election, c: int, ledger: _Ledger) -> tuple[int, tuple[int, ...]]:
    """Minimum total raises of c making it beat every rival, with per-voter amounts.

    Only raises of c are searched: swaps not involving c leave its pairwise
    contests unchanged and lowering c never helps, so one raise amount per
    voter covers the optimum (the BFS oracle over arbitrary swaps confirms
    this on small instances).

    A dynamic program over states (voter index i, deficit vector D), where
    D[d] is how many more voters must rank c above rival d for a majority.
    Raising c by t in voter i passes the t rivals just above it, each
    lowering its deficit by one; the cheapest state at voter i + 1 is kept.
    Layers are filled forward, one per voter, so nothing recurses.  Two
    cuts keep it exact: a raise that stops right after passing a rival with
    no deficit costs more than stopping one step earlier and reaches the
    same state, and a state whose deficit against d exceeds the voters left
    that rank d above c can never reach the all-zero vector.  Every stored
    state is charged to `ledger`.
    """
    m = e.num_candidates
    n = e.num_voters
    tally = pairwise_tally(e)
    majority = n // 2 + 1
    start = tuple(max(0, majority - tally[c][d]) if d != c else 0 for d in range(m))
    if not any(start):
        return 0, (0,) * n
    goal = (0,) * m

    # above[i] = rivals ranked above c by voter i, nearest first; slack[i][d]
    # = voters from i on that rank d above c (the most d's deficit can fall)
    above = []
    for voter in e.voters:
        pos = voter.ranking.index(c)
        above.append(voter.ranking[:pos][::-1])
    slack = [[0] * m]
    for row in reversed(above):
        slack.append(slack[-1][:])
        for d in row:
            slack[-1][d] += 1
    slack.reverse()

    # layers[i][state] = (cost, state at voter i - 1, raise at voter i - 1)
    layers: list[dict] = [{start: (0, None, 0)}]
    left = ledger.left - 1
    for i in range(n):
        row = above[i]
        room = slack[i + 1]
        layer: dict = {}
        for state, (cost, _, _) in layers[i].items():
            # raise at least past every rival whose deficit would otherwise
            # outlast the voters left
            least = 0
            for t, d in enumerate(row, 1):
                if state[d] > room[d]:
                    least = t
            deficits = list(state)
            for t in range(len(row) + 1):
                if t:
                    d = row[t - 1]
                    if not deficits[d]:
                        continue
                    deficits[d] -= 1
                if t < least:
                    continue
                key = tuple(deficits)
                held = layer.get(key)
                if held is None:
                    if left <= 0:
                        raise BudgetExceededError("Carroll score", ledger.budget)
                    left -= 1
                elif held[0] <= cost + t:
                    continue
                layer[key] = (cost + t, state, t)
        layers.append(layer)
    ledger.left = left

    # the all-zero vector only ever steps on with t = 0, so it reaches the
    # last layer at its cheapest cost
    raises = [0] * n
    state = goal
    for i in range(n, 0, -1):
        _, state, raises[i - 1] = layers[i][state]
    return layers[n][goal][0], tuple(raises)


def carroll_score(e: Election, c: int, budget: int = DEFAULT_BUDGET) -> ScoreCertificate:
    """Exact Carroll score of candidate c with a replayable swap witness.

    Raises BudgetExceededError when the DP would store more than `budget`
    states.
    """
    score, raises = _solve_min_raises(e, e._candidate(c), _Ledger(budget))
    witness = []
    for voter, steps in enumerate(raises):
        if steps:
            witness += _raise_swaps(e, c, voter, steps)
    return ScoreCertificate(c, score, tuple(witness))


def _score(e: Election, c: int, ledger: _Ledger) -> int:
    """c's Carroll score, its states charged to `ledger`; no witness."""
    return _solve_min_raises(e, e._candidate(c), ledger)[0]


def score_at_most(e: Election, c: int, k: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether c's Carroll score is at most k."""
    return _score(e, c, _Ledger(budget)) <= k


def ties_or_defeats(e: Election, c: int, d: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether d's score is no smaller than c's."""
    if e._candidate(c) == e._candidate(d):
        raise ValueError("a candidate cannot face itself")
    ledger = _Ledger(budget)
    return _score(e, d, ledger) >= _score(e, c, ledger)


def is_carroll_winner(e: Election, c: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether c ties-or-defeats every other candidate (has minimum score)."""
    ledger = _Ledger(budget)
    mine = _score(e, c, ledger)
    return all(_score(e, d, ledger) >= mine for d in range(e.num_candidates) if d != c)


def all_winners(e: Election, budget: int = DEFAULT_BUDGET) -> frozenset[int]:
    """The nonempty set of candidates with minimum Carroll score."""
    ledger = _Ledger(budget)
    scores = [_score(e, c, ledger) for c in range(e.num_candidates)]
    low = min(scores)
    return frozenset(c for c, s in enumerate(scores) if s == low)
