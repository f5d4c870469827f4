import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dodgreedy import elections as el
from dodgreedy import oracles
from dodgreedy.elections import Candidate, Election, PreferenceOrder
from dodgreedy.errors import BudgetExceededError


def ids(e, *names):
    return tuple(e.id_of(name) for name in names)


def single(names, ranking):
    return Election.from_names(names, [ranking])


class TestValidation:
    def test_requires_candidates_and_voters(self):
        with pytest.raises(ValueError):
            Election((), (PreferenceOrder(()),))
        with pytest.raises(ValueError):
            Election((Candidate(0, "A"),), ())

    def test_rejects_non_permutation(self):
        cands = (Candidate(0, "A"), Candidate(1, "B"))
        with pytest.raises(ValueError):
            Election(cands, (PreferenceOrder((0, 0)),))
        with pytest.raises(ValueError):
            Election(cands, (PreferenceOrder((0,)),))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            Election(
                (Candidate(0, "A"), Candidate(1, "A")),
                (PreferenceOrder((0, 1)),),
            )

    @pytest.mark.parametrize("name", ["", "a b", "a\tb", "a#b", "#"])
    def test_rejects_names_the_text_format_cannot_hold(self, name):
        with pytest.raises(ValueError, match="without whitespace or `#`"):
            Election.from_names([name, "c"], [[name, "c"]])

    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            Election.from_names(["A", "B"], [["A", "X"]])

    def test_equality_and_hash(self):
        a = single(["A", "B"], ["A", "B"])
        b = single(["A", "B"], ["A", "B"])
        assert a == b and hash(a) == hash(b) == hash(a)
        assert a != single(["A", "B"], ["B", "A"])
        assert len({a, b, single(["A", "B"], ["B", "A"])}) == 2

    @pytest.mark.parametrize("c", [-1, 2])
    def test_name_of_rejects_id_outside_election(self, c):
        e = single(["A", "B"], ["B", "A"])
        assert [e.name_of(0), e.name_of(1)] == ["A", "B"]
        with pytest.raises(ValueError, match=f"no candidate with id {c}$"):
            e.name_of(c)

    def test_pickle_leaves_stored_hash_behind(self):
        # a str's hash is per process, so an unpickled copy computes its own
        e = single(["A", "B"], ["B", "A"])
        hash(e)
        copy = pickle.loads(pickle.dumps(e))
        assert copy == e and "_hash" not in vars(copy)
        assert hash(copy) == hash(e)


class TestPairwiseTally:
    def test_three_voter_cycle(self, three_voter):
        c, d, p = ids(three_voter, "C", "D", "P")
        tally = el.pairwise_tally(three_voter)
        assert tally[c][d] == 2
        assert tally[p][c] == 2
        assert tally[d][p] == 2

    def test_single_voter(self):
        e = single(["a", "b"], ["a", "b"])
        tally = el.pairwise_tally(e)
        assert tally[0][1] == 1
        assert tally[1][0] == 0

    def test_four_voter(self, four_voter):
        p, c, d = ids(four_voter, "P", "C", "D")
        tally = el.pairwise_tally(four_voter)
        assert tally[p][c] == 3
        assert tally[p][d] == 3

    def test_row_sums(self, four_voter):
        tally = el.pairwise_tally(four_voter)
        m, n = four_voter.num_candidates, four_voter.num_voters
        for a in range(m):
            assert tally[a][a] == 0
            for b in range(a + 1, m):
                assert tally[a][b] + tally[b][a] == n


class TestDefeats:
    def test_four_voter(self, four_voter):
        p, c = ids(four_voter, "P", "C")
        assert el.defeats(four_voter, p, c)

    def test_exact_half_is_no_defeat(self):
        e = Election.from_names(["a", "b"], [["a", "b"], ["b", "a"]])
        assert not el.defeats(e, 0, 1)
        assert not el.defeats(e, 1, 0)

    def test_cycle_edge(self, three_voter):
        c, d = ids(three_voter, "C", "D")
        assert el.defeats(three_voter, c, d)

    def test_same_candidate_rejected(self, four_voter):
        with pytest.raises(ValueError):
            el.defeats(four_voter, 0, 0)

    @pytest.mark.parametrize("a, b, bad", [(-1, 0, -1), (3, 0, 3), (0, 3, 3), (0, -1, -1)])
    def test_candidate_outside_election_rejected(self, three_voter, a, b, bad):
        with pytest.raises(ValueError, match=f"no candidate with id {bad}$"):
            el.defeats(three_voter, a, b)


class TestCondorcetWinner:
    def test_cycle_has_none(self, three_voter):
        assert el.condorcet_winner(three_voter) is None

    def test_four_voter(self, four_voter):
        assert el.condorcet_winner(four_voter) == four_voter.id_of("P")

    def test_single_candidate(self):
        assert el.condorcet_winner(single(["only"], ["only"])) == 0


class TestApplyRaise:
    def test_worked_single_raise(self, four_voter):
        c = four_voter.id_of("C")
        raised = el.apply_raise(four_voter, c, 1, 1)
        assert [four_voter.name_of(x) for x in raised.voters[1].ranking] == ["C", "P", "D"]

    def test_zero_steps_is_identity(self, four_voter):
        assert el.apply_raise(four_voter, 0, 0, 0) == four_voter

    def test_worked_double_raise(self, four_voter):
        c = four_voter.id_of("C")
        raised = el.apply_raise(four_voter, c, 3, 2)
        assert [four_voter.name_of(x) for x in raised.voters[3].ranking] == ["C", "D", "P"]

    def test_too_deep_rejected(self, four_voter):
        c = four_voter.id_of("C")
        with pytest.raises(ValueError):
            el.apply_raise(four_voter, c, 0, 1)  # C already tops voter 0

    def test_negative_steps_rejected(self, four_voter):
        with pytest.raises(ValueError):
            el.apply_raise(four_voter, 0, 1, -1)

    def test_matches_single_swaps(self, four_voter):
        c = four_voter.id_of("C")
        by_swaps = el.apply_swap(el.apply_swap(four_voter, 3, 1), 3, 0)
        assert el.apply_raise(four_voter, c, 3, 2) == by_swaps

    def test_voter_out_of_range_rejected(self, four_voter):
        c = four_voter.id_of("C")
        for voter in (-1, -4, 4):
            with pytest.raises(ValueError, match=f"voter {voter} out of range"):
                el.apply_raise(four_voter, c, voter, 0)
            with pytest.raises(ValueError, match=f"voter {voter} out of range"):
                el.apply_swap(four_voter, voter, 0)


class TestReplayWitness:
    def test_bad_position_rejected(self, four_voter):
        for position in (-1, 2):
            cert = el.ScoreCertificate(0, 1, ((0, position),))
            with pytest.raises(ValueError, match="adjacent pair"):
                el.replay_witness(four_voter, cert)

    def test_voter_out_of_range_rejected(self, four_voter):
        for voter in (-1, 4):
            cert = el.ScoreCertificate(2, 1, ((voter, 0),))
            with pytest.raises(ValueError, match=f"voter {voter} out of range"):
                el.replay_witness(four_voter, cert)

    def test_repeated_voter_steps_compose(self, four_voter):
        cert = el.ScoreCertificate(0, 3, ((3, 1), (3, 0), (1, 0)))
        step_by_step = four_voter
        for voter, position in cert.witness:
            step_by_step = el.apply_swap(step_by_step, voter, position)
        assert el.replay_witness(four_voter, cert) == step_by_step

    def test_empty_witness_is_identity(self, four_voter):
        cert = el.ScoreCertificate(0, 0, ())
        assert el.replay_witness(four_voter, cert) == four_voter


class TestCarrollScore:
    def test_golden_scores(self, four_voter):
        p, c, d = ids(four_voter, "P", "C", "D")
        assert el.carroll_score(four_voter, p).score == 0
        assert el.carroll_score(four_voter, c).score == 3
        assert el.carroll_score(four_voter, d).score == 3

    def test_condorcet_winner_scores_zero(self, four_voter):
        p = four_voter.id_of("P")
        cert = el.carroll_score(four_voter, p)
        assert cert.score == 0 and cert.witness == ()

    def test_witness_replays_to_victory(self, four_voter, three_voter):
        for e in (four_voter, three_voter):
            for c in range(e.num_candidates):
                cert = el.carroll_score(e, c)
                assert len(cert.witness) == cert.score
                assert el.condorcet_winner(el.replay_witness(e, cert)) == c

    def test_score_bounded(self, three_voter):
        for c in range(3):
            assert el.carroll_score(three_voter, c).score <= el.max_score(three_voter)

    def test_unknown_candidate(self, four_voter):
        with pytest.raises(ValueError):
            el.carroll_score(four_voter, 7)


class TestBudget:
    def test_budget_one_raises_on_a_deficit(self, four_voter):
        c = four_voter.id_of("C")
        with pytest.raises(BudgetExceededError) as info:
            el.carroll_score(four_voter, c, budget=1)
        assert info.value.what == "Carroll score" and info.value.budget == 1

    def test_condorcet_winner_needs_no_states(self, four_voter):
        p = four_voter.id_of("P")
        assert el.carroll_score(four_voter, p, budget=0).score == 0

    def test_verdicts_pass_the_budget_on(self, four_voter):
        c, d = ids(four_voter, "C", "D")
        for call in (
            lambda: el.score_at_most(four_voter, c, 3, budget=1),
            lambda: el.ties_or_defeats(four_voter, c, d, budget=1),
            lambda: el.is_carroll_winner(four_voter, c, budget=1),
            lambda: el.all_winners(four_voter, budget=1),
        ):
            with pytest.raises(BudgetExceededError):
                call()

    def test_ample_budget_gives_the_same_score(self, four_voter):
        c = four_voter.id_of("C")
        assert el.carroll_score(four_voter, c, budget=50).score == 3


class TestScoreAtMost:
    def test_golden_thresholds(self, four_voter):
        c = four_voter.id_of("C")
        assert not el.score_at_most(four_voter, c, 2)
        assert el.score_at_most(four_voter, c, 3)

    def test_cap_always_suffices(self, three_voter):
        cap = el.max_score(three_voter)
        for c in range(3):
            assert el.score_at_most(three_voter, c, cap)


class TestWinners:
    def test_ties_or_defeats_golden(self, four_voter):
        p, c, d = ids(four_voter, "P", "C", "D")
        assert el.ties_or_defeats(four_voter, c, d)
        assert el.ties_or_defeats(four_voter, d, c)
        assert el.ties_or_defeats(four_voter, p, c)
        assert not el.ties_or_defeats(four_voter, c, p)
        with pytest.raises(ValueError):
            el.ties_or_defeats(four_voter, c, c)

    def test_is_carroll_winner(self, four_voter):
        assert el.is_carroll_winner(four_voter, four_voter.id_of("P"))
        assert not el.is_carroll_winner(four_voter, four_voter.id_of("C"))

    def test_all_winners_golden(self, four_voter):
        assert el.all_winners(four_voter) == {four_voter.id_of("P")}

    def test_all_winners_symmetric_tie(self):
        e = Election.from_names(["A", "B"], [["A", "B"], ["B", "A"]])
        assert el.all_winners(e) == {0, 1}
        assert el.carroll_score(e, 0).score == el.carroll_score(e, 1).score == 1

    def test_single_candidate_wins(self):
        e = single(["only"], ["only"])
        assert el.is_carroll_winner(e, 0)
        assert el.all_winners(e) == {0}


def small_elections(max_candidates=3, max_voters=3):
    @st.composite
    def build(draw):
        m = draw(st.integers(1, max_candidates))
        n = draw(st.integers(1, max_voters))
        base = tuple(range(m))
        rankings = [draw(st.permutations(base)) for _ in range(n)]
        names = [f"c{i}" for i in range(m)]
        return Election(
            tuple(Candidate(i, name) for i, name in enumerate(names)),
            tuple(PreferenceOrder(tuple(r)) for r in rankings),
        )

    return build()


@given(small_elections())
@settings(deadline=None, max_examples=60)
def test_score_zero_iff_condorcet_winner(e):
    for c in range(e.num_candidates):
        zero = el.carroll_score(e, c).score == 0
        assert zero == (el.condorcet_winner(e) == c)


@given(small_elections())
@settings(deadline=None, max_examples=40)
def test_score_matches_bfs_oracle(e):
    for c in range(e.num_candidates):
        assert el.carroll_score(e, c).score == oracles.carroll_score_by_bfs(e, c)


@given(small_elections())
@settings(deadline=None, max_examples=40)
def test_score_threshold_monotone(e):
    cap = el.max_score(e)
    for c in range(e.num_candidates):
        row = [el.score_at_most(e, c, k) for k in range(cap + 1)]
        assert row[-1]
        for k in range(cap):
            assert not (row[k] and not row[k + 1])


@given(small_elections(), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=40)
def test_scores_invariant_under_renaming(e, rng):
    m = e.num_candidates
    perm = list(range(m))
    rng.shuffle(perm)
    voters = [PreferenceOrder(tuple(perm[x] for x in v.ranking)) for v in e.voters]
    rng.shuffle(voters)
    renamed = Election(
        tuple(Candidate(i, f"r{i}") for i in range(m)), tuple(voters)
    )
    for c in range(m):
        assert (
            el.carroll_score(e, c).score == el.carroll_score(renamed, perm[c]).score
        )


@given(small_elections())
@settings(deadline=None, max_examples=40)
def test_all_winners_is_argmin(e):
    scores = [el.carroll_score(e, c).score for c in range(e.num_candidates)]
    winners = el.all_winners(e)
    assert winners
    assert winners == {c for c, s in enumerate(scores) if s == min(scores)}
    for c in range(e.num_candidates):
        assert el.is_carroll_winner(e, c) == (c in winners)


@given(small_elections(max_candidates=5, max_voters=11))
@settings(deadline=None, max_examples=60)
def test_witness_soundness(e):
    for c in range(e.num_candidates):
        cert = el.carroll_score(e, c)
        replayed = el.replay_witness(e, cert)
        assert el.condorcet_winner(replayed) == c
        assert len(cert.witness) == cert.score


def deficit_sum(e, c):
    """Majority shortfalls of c summed over rivals: each adjacent swap closes
    at most one unit of one shortfall, so this lower-bounds the score."""
    tally = el.pairwise_tally(e)
    need = e.num_voters // 2 + 1
    return sum(max(0, need - tally[c][d]) for d in range(e.num_candidates) if d != c)


@given(small_elections(max_candidates=4, max_voters=4))
@settings(deadline=None, max_examples=40)
def test_dp_score_matches_bfs_oracle_beyond_three(e):
    for c in range(e.num_candidates):
        if deficit_sum(e, c) <= 3:  # BFS depth, and so its cost, grows with the score
            assert el.carroll_score(e, c).score == oracles.carroll_score_by_bfs(e, c)


@given(small_elections(max_candidates=5, max_voters=11))
@settings(deadline=None, max_examples=60)
def test_score_never_below_deficit_sum(e):
    for c in range(e.num_candidates):
        assert deficit_sum(e, c) <= el.carroll_score(e, c).score <= el.max_score(e)


def test_exhaustive_two_candidate_elections():
    for n in range(1, 4):
        for rankings in itertools.product([(0, 1), (1, 0)], repeat=n):
            e = Election(
                (Candidate(0, "a"), Candidate(1, "b")),
                tuple(PreferenceOrder(r) for r in rankings),
            )
            for c in (0, 1):
                assert el.carroll_score(e, c).score == oracles.carroll_score_by_bfs(e, c)
