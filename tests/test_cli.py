import subprocess
import sys
from pathlib import Path

import pytest

from dodgreedy import cli, elections, formats
from dodgreedy.graphs import Graph
from dodgreedy.selftest import CheckResult

FOUR_VOTER = "C D P\nC P D\nP C D\nP D C\nD P C\n"
THREE_VOTER = "C D P\nP C D\nD P C\nC D P\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def election_file(tmp_path):
    path = tmp_path / "four.election"
    path.write_text(FOUR_VOTER)
    return str(path)


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "three.election"
    path.write_text(THREE_VOTER)
    return str(path)


def graph_file(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(formats.format_graph(g))
    return str(path)


class TestElectionVerbs:
    def test_score(self, capsys, election_file):
        code, out, _ = run(capsys, "election-score", "--election", election_file,
                           "--candidate", "C")
        assert code == 0
        assert out == "score C = 3\n"

    def test_winner_all(self, capsys, election_file):
        code, out, _ = run(capsys, "election-winner", "--election", election_file)
        assert code == 0
        assert out == "winner = P\n"

    def test_winner_specific(self, capsys, election_file):
        code, out, _ = run(capsys, "election-winner", "--election", election_file,
                           "--candidate", "D")
        assert code == 0
        assert out == "winner D = no\n"

    def test_condorcet_present(self, capsys, election_file):
        code, out, _ = run(capsys, "condorcet", "--election", election_file)
        assert code == 0
        assert out.splitlines()[0] == "condorcet = P"

    def test_condorcet_cycle_reported(self, capsys, cycle_file):
        code, out, _ = run(capsys, "condorcet", "--election", cycle_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "condorcet = none"
        assert set(lines[1:]) == {"beats C D", "beats P C", "beats D P"}

    def test_condorcet_tallies_once_for_the_beats_lines(self, capsys, monkeypatch, cycle_file):
        # one tally for the winner and one for all the beats lines, not one per pair
        tallies = []
        tally = elections.pairwise_tally
        monkeypatch.setattr(elections, "pairwise_tally", lambda e: tallies.append(e) or tally(e))
        code, out, _ = run(capsys, "condorcet", "--election", cycle_file)
        assert code == 0
        assert out == "condorcet = none\nbeats C D\nbeats D P\nbeats P C\n"
        assert len(tallies) == 2

    def test_score_with_budget(self, capsys, election_file):
        code, out, _ = run(capsys, "election-score", "--election", election_file,
                           "--candidate", "C", "--budget", "100")
        assert code == 0 and out == "score C = 3\n"

    def test_budget_error_reported(self, capsys, election_file):
        for extra in ((), ("--candidate", "P")):
            code, out, err = run(capsys, "election-winner", "--election", election_file,
                                 "--budget", "1", *extra)
            assert code == 1
            assert out == "" and "error:" in err and "budget" in err

    def test_unknown_candidate_is_error(self, capsys, election_file):
        code, out, err = run(capsys, "election-score", "--election", election_file,
                             "--candidate", "X")
        assert code == 1
        assert out == "" and "error:" in err


class TestGraphVerbs:
    def test_alpha(self, capsys, tmp_path):
        path = graph_file(tmp_path, "c5", Graph.cycle(5))
        code, out, _ = run(capsys, "graph-alpha", "--graph", path)
        assert code == 0 and out == "alpha = 2\n"

    def test_mdg(self, capsys, tmp_path):
        path = graph_file(tmp_path, "star", Graph.star(3))
        code, out, _ = run(capsys, "graph-mdg", "--graph", path)
        assert code == 0 and out == "mdg = 3\n"

    def test_sr_yes(self, capsys, tmp_path):
        path = graph_file(tmp_path, "k4", Graph.complete(4))
        code, out, _ = run(capsys, "graph-sr", "--graph", path, "--r", "1")
        assert code == 0 and out == "in-S[1/1] = yes\n"

    def test_sr_no_is_still_exit_zero(self, capsys, tmp_path, greedy_gap_graph):
        path = graph_file(tmp_path, "gap", greedy_gap_graph)
        code, out, _ = run(capsys, "graph-sr", "--graph", path, "--r", "1")
        assert code == 0 and out == "in-S[1/1] = no\n"
        code, out, _ = run(capsys, "graph-sr", "--graph", path, "--r", "3/2")
        assert code == 0 and out == "in-S[3/2] = yes\n"

    def test_bad_ratio_is_error(self, capsys, tmp_path):
        path = graph_file(tmp_path, "k1", Graph(1))
        for bad in ("1/2", "zebra", "0"):
            code, _, err = run(capsys, "graph-sr", "--graph", path, "--r", bad)
            assert code == 1 and "error:" in err

    def test_parse_error_reported(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("p 2 1\ne 1 1\n")
        code, _, err = run(capsys, "graph-alpha", "--graph", str(path))
        assert code == 1 and "self-loop" in err

    def test_budget_error_reported(self, capsys, tmp_path):
        path = graph_file(tmp_path, "c12", Graph.cycle(12))
        code, _, err = run(capsys, "graph-mdg", "--graph", path, "--budget", "2")
        assert code == 1 and "budget" in err


class TestReductionVerbs:
    def test_reduce_emits_artifact(self, capsys, tmp_path):
        g = graph_file(tmp_path, "g", Graph(1))
        h = graph_file(tmp_path, "h", Graph(1))
        out_path = tmp_path / "artifact.graph"
        code, out, _ = run(capsys, "reduce", "--graph", g, "--graph2", h,
                           "--emit-artifact", str(out_path))
        assert code == 0
        assert "artifact vertices = 20" in out
        assert "ell = 6" in out
        emitted = formats.parse_graph(out_path.read_text())
        assert emitted.n == 20
        parts, joins = formats.parse_partmap((tmp_path / "artifact.graph.parts").read_text())
        assert len(parts) == 6 and len(joins) == 5

    def test_verify_reduction_pass(self, capsys, tmp_path):
        g = graph_file(tmp_path, "g", Graph(1))
        h = graph_file(tmp_path, "h", Graph(1))
        code, out, _ = run(capsys, "verify-reduction", "--graph", g, "--graph2", h)
        assert code == 0
        lines = out.splitlines()
        assert "reduction: PASS" in lines
        assert "alpha(Ghat) = 10" in lines
        assert "mdg(Ghat) = 10" in lines

    def test_verify_reduction_unequal_pair(self, capsys, tmp_path):
        g = graph_file(tmp_path, "g", Graph(1))
        h = graph_file(tmp_path, "h", Graph.empty(2))
        code, out, _ = run(capsys, "verify-reduction", "--graph", g, "--graph2", h)
        assert code == 0
        assert "alpha(Ghat) = 14" in out
        assert "mdg(Ghat) = 13" in out
        assert "reduction: PASS" in out

    def test_verify_emits_the_reduce_artifact(self, capsys, tmp_path):
        g = graph_file(tmp_path, "g", Graph.path(3))
        h = graph_file(tmp_path, "h", Graph.complete(2))
        for verb in ("reduce", "verify-reduction"):
            code, _, _ = run(capsys, verb, "--graph", g, "--graph2", h,
                             "--emit-artifact", str(tmp_path / verb))
            assert code == 0
        for suffix in ("", ".parts"):
            reduced = (tmp_path / f"reduce{suffix}").read_bytes()
            assert (tmp_path / f"verify-reduction{suffix}").read_bytes() == reduced

    def test_deterministic_output(self, capsys, tmp_path):
        g = graph_file(tmp_path, "g", Graph.path(3))
        h = graph_file(tmp_path, "h", Graph.complete(2))
        runs = [run(capsys, "verify-reduction", "--graph", g, "--graph2", h) for _ in range(2)]
        assert runs[0] == runs[1]


class TestSelftestVerb:
    def test_matrix_and_exit_codes(self, capsys, monkeypatch):
        fake = [
            CheckResult("alpha-beta", True, "all good", 0.01),
            CheckResult("gamma", False, "broke", 0.02),
        ]
        monkeypatch.setattr(cli.selftest, "run_all", lambda: fake)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "alpha-beta" in out and "PASS" in out and "FAIL" in out

        monkeypatch.setattr(cli.selftest, "run_all", lambda: fake[:1])
        code, out, _ = run(capsys, "selftest")
        assert code == 0


class TestImportCost:
    def test_cli_import_leaves_networkx_out(self):
        # networkx only serves the selftest tree corpus; loading it with the
        # CLI would cost every invocation its import time and memory
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import dodgreedy.cli; "
            "print('networkx' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-I", "-c", code],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        assert out == "False\n"


class TestParser:
    def test_missing_required_flag(self):
        with pytest.raises(SystemExit):
            cli.main(["election-score"])

    def test_missing_verb(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_negative_budget_is_a_usage_error(self, capsys, tmp_path):
        path = graph_file(tmp_path, "c5", Graph.cycle(5))
        for budget in ("-5", "five"):
            with pytest.raises(SystemExit) as info:
                cli.main(["graph-alpha", "--graph", path, "--budget", budget])
            assert info.value.code == 2
            assert "--budget" in capsys.readouterr().err
        code, _, err = run(capsys, "graph-alpha", "--graph", path, "--budget", "0")
        assert code == 1 and "budget of 0 exceeded" in err

    def test_parser_reuse_across_calls(self, capsys, tmp_path, election_file):
        # the parser is built once per process; a failed parse in between
        # must not leak into the next call's arguments
        path = graph_file(tmp_path, "c5", Graph.cycle(5))
        assert run(capsys, "graph-alpha", "--graph", path) == (0, "alpha = 2\n", "")
        with pytest.raises(SystemExit):
            cli.main(["graph-mdg", "--budget", "7"])
        assert "--graph" in capsys.readouterr().err
        code, out, _ = run(capsys, "election-winner", "--election", election_file)
        assert code == 0 and out == "winner = P\n"
