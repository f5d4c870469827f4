"""Command-line front door.

Domain answers go to stdout and always exit 0; nonzero exits are reserved
for real errors (bad input, resource limits), so scripts can tell a "no"
from a failure.  All report lines are deterministic.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from . import elections, formats, graphs, reductions
from .errors import BudgetExceededError, IntegrityError, ParseError
from .graphs import DEFAULT_BUDGET


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_election(path: str) -> elections.Election:
    return formats.parse_election(_read(path))


def _load_graph(path: str) -> graphs.Graph:
    return formats.parse_graph(_read(path))


def _parse_ratio(text: str) -> Fraction:
    try:
        r = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse ratio {text!r}, expected p/q") from None
    return graphs._check_ratio(r)


def _cmd_election_score(args) -> int:
    e = _load_election(args.election)
    c = e.id_of(args.candidate)
    cert = elections.carroll_score(e, c, args.budget)
    print(f"score {e.name_of(c)} = {cert.score}")
    return 0


def _cmd_election_winner(args) -> int:
    e = _load_election(args.election)
    if args.candidate is not None:
        c = e.id_of(args.candidate)
        verdict = "yes" if elections.is_carroll_winner(e, c, args.budget) else "no"
        print(f"winner {e.name_of(c)} = {verdict}")
    else:
        winners = sorted(elections.all_winners(e, args.budget))
        print(f"winner = {' '.join(e.name_of(c) for c in winners)}")
    return 0


def _cmd_condorcet(args) -> int:
    e = _load_election(args.election)
    winner = elections.condorcet_winner(e)
    print(f"condorcet = {e.name_of(winner) if winner is not None else 'none'}")
    tally = elections.pairwise_tally(e)
    for a in range(e.num_candidates):
        for b in range(e.num_candidates):
            if a != b and elections._defeats_in(tally, a, b, e.num_voters):
                print(f"beats {e.name_of(a)} {e.name_of(b)}")
    return 0


def _cmd_graph_alpha(args) -> int:
    g = _load_graph(args.graph)
    print(f"alpha = {graphs.independence_number(g, args.budget)}")
    return 0


def _cmd_graph_mdg(args) -> int:
    g = _load_graph(args.graph)
    print(f"mdg = {graphs.greedy_independence_number(g, args.budget)}")
    return 0


def _cmd_graph_sr(args) -> int:
    g = _load_graph(args.graph)
    r = _parse_ratio(args.r)
    verdict = "yes" if graphs.achieves_ratio(g, r, args.budget) else "no"
    print(f"in-S[{r.numerator}/{r.denominator}] = {verdict}")
    return 0


def _budget(text: str) -> int:
    """The --budget value: a state count, an integer of 0 or more."""
    try:
        if (budget := int(text)) >= 0:
            return budget
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer of 0 or more, got {text!r}")


def _emit_artifact(artifact: reductions.ReductionArtifact, path: str) -> None:
    Path(path).write_text(formats.format_graph(artifact.graph), encoding="utf-8")
    Path(path + ".parts").write_text(formats.format_partmap(artifact), encoding="utf-8")


def _cmd_reduce(args) -> int:
    g = _load_graph(args.graph)
    h = _load_graph(args.graph2)
    artifact = reductions.build_reduction(g, h)
    print(f"artifact vertices = {artifact.graph.n}")
    print(f"artifact edges = {artifact.graph.num_edges}")
    print(f"k = {artifact.k}")
    print(f"n = {artifact.n}")
    print(f"ell = {artifact.ell}")
    if args.emit_artifact:
        _emit_artifact(artifact, args.emit_artifact)
    return 0


def _cmd_verify_reduction(args) -> int:
    g = _load_graph(args.graph)
    h = _load_graph(args.graph2)
    report = reductions.verify_reduction(g, h, args.budget)
    for line in report.lines():
        print(line)
    if args.emit_artifact:
        _emit_artifact(report.artifact, args.emit_artifact)
    return 0


def _cmd_selftest(args) -> int:
    # loaded here so that no other verb pays for the suites and the oracles
    from . import selftest

    results = selftest.run_all()
    width = max(len(r.name) for r in results)
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {verdict}  ({r.seconds:.1f}s)  {r.detail}")
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="dodgreedy",
        description="Exact election scoring, greedy independent-set analysis, "
        "and the verified equality reduction.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, handler, **flags):
        p = sub.add_parser(verb)
        for flag, options in flags.items():
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
        return p

    election = {"--election": {"required": True, "metavar": "PATH"}}
    graph = {"--graph": {"required": True, "metavar": "PATH"}}
    two_graphs = {**graph, "--graph2": {"required": True, "metavar": "PATH"}}
    budget = {"--budget": {"type": _budget, "default": DEFAULT_BUDGET, "metavar": "STATES"}}
    emit = {"--emit-artifact": {"metavar": "PATH"}}

    add("election-score", _cmd_election_score, **election, **budget,
        **{"--candidate": {"required": True, "metavar": "NAME"}})
    add("election-winner", _cmd_election_winner, **election, **budget,
        **{"--candidate": {"metavar": "NAME"}})
    add("condorcet", _cmd_condorcet, **election)
    add("graph-alpha", _cmd_graph_alpha, **graph, **budget)
    add("graph-mdg", _cmd_graph_mdg, **graph, **budget)
    add("graph-sr", _cmd_graph_sr, **graph, **budget,
        **{"--r": {"required": True, "metavar": "P/Q"}})
    add("reduce", _cmd_reduce, **two_graphs, **emit)
    add("verify-reduction", _cmd_verify_reduction, **two_graphs, **budget, **emit)
    add("selftest", _cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValueError, BudgetExceededError, IntegrityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
