"""Line-oriented text formats for elections, graphs, and artifact part maps.

All formatters are deterministic (sorted, no timestamps) so that identical
inputs serialize byte-identically; every parser reports 1-based line
numbers on failure.
"""

from __future__ import annotations

import warnings

from .elections import Election
from .errors import ParseError
from .graphs import Graph
from .reductions import JOIN_PAIRS, PART_LABELS, ReductionArtifact, _layout


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip() if "#" in raw else raw.strip()
        if line:
            out.append((lineno, line))
    return out


def parse_election(text: str) -> Election:
    """Parse the election format: a candidate-name line, then one ranking
    per voter (most preferred first). `#` starts a comment."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("line 1: missing candidate line")
    first_no, header = lines[0]
    names = header.split()
    if len(set(names)) != len(names):
        raise ParseError(f"line {first_no}: duplicate candidate name")
    if not lines[1:]:
        raise ParseError(f"line {first_no}: election has no voters")
    rankings = []
    for lineno, line in lines[1:]:
        ranking = line.split()
        if sorted(ranking) != sorted(names):
            raise ParseError(
                f"line {lineno}: ranking is not a permutation of the candidates"
            )
        rankings.append(ranking)
    return Election.from_names(names, rankings)


def format_election(e: Election) -> str:
    lines = [" ".join(c.name for c in e.candidates)]
    for voter in e.voters:
        lines.append(" ".join(e.name_of(c) for c in voter.ranking))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """Parse the graph format: header `p <n> <m>`, then `m` edge lines
    `e <u> <v>` with 1-based endpoints. `c` lines are comments.

    Each edge is set straight into the adjacency rows, so a repeated edge
    is one bit test and the read is linear in the text. `format_graph`
    puts a row's run of consecutive neighbours on consecutive lines, so
    after an edge line `e <a> <b>` that ends in its last field the loop
    holds the line that would extend the run, the same text with b + 1
    in place of b (only while b + 1 is at most n and is not a itself). A
    line equal to it is taken whole, with no split, and only the new
    neighbour's row is set; row a gets the run's bits at once when the
    run ends, with a warning for each edge of it an earlier line gave.
    Every other line is split and checked here. Lines are counted as they
    are read, and a run's lines when it ends.
    """
    rows: list[int] | None = None
    n = m = edge_lines = lineno = 0
    expect = None  # the line that extends the open run a -> first..last
    first = last = 0  # a run is open while last > first
    lines = text.splitlines()
    lines.append("")  # a blank last line ends a run that reaches the end
    for raw in lines:
        if raw == expect:
            last += 1
            rows[last] |= a_bit
            expect = prefix + str(last + 2) if last + 2 <= stop else None
            continue
        if last > first:  # end the run: row a gets neighbours first+1..last
            run = (2 << last) - (2 << first)
            known = rows[a] & run
            rows[a] |= run
            edge_lines += last - first
            lineno += last - first
            while known:
                v = (known & -known).bit_length() - 1
                known ^= 1 << v
                warnings.warn(f"line {lineno - last + v}: duplicate edge {a + 1} {v + 1} collapsed")
            first = last
        lineno += 1
        expect = None
        fields = raw.split()
        if not fields:
            continue
        head = fields[0]
        if head == "e":
            if rows is None:
                raise ParseError(f"line {lineno}: edge before header")
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: edge must be `e <u> <v>`")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"line {lineno}: edge must be `e <u> <v>`") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: vertex out of range 1..{n}")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop at vertex {u}")
            edge_lines += 1
            a, first = u - 1, v - 1  # the row and first neighbour of a run this line may open
            last = first
            a_bit, bit = 1 << a, 1 << first
            row = rows[a]
            if row & bit:
                warnings.warn(f"line {lineno}: duplicate edge {u} {v} collapsed")
            else:
                rows[a] = row | bit
                rows[first] |= a_bit
            stop = a if v < u else n  # the run's names stay below u and at most n
            if v < stop and raw.endswith(fields[2]):
                prefix = raw[: -len(fields[2])]
                expect = prefix + str(v + 1)
        elif head[0] == "c":  # a comment: the line's first field starts with `c`
            continue
        elif head == "p":
            if rows is not None:
                raise ParseError(f"line {lineno}: repeated header")
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: header must be `p <n> <m>`")
            try:
                n, m = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"line {lineno}: header must be `p <n> <m>`") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: header counts must be nonnegative")
            rows = [0] * n
        else:
            raise ParseError(f"line {lineno}: unknown directive {head!r}")
    if rows is None:
        raise ParseError("line 1: missing `p <n> <m>` header")
    if edge_lines != m:
        raise ParseError(f"header declared {m} edges, found {edge_lines}")
    return Graph._from_rows(rows)


def format_graph(g: Graph) -> str:
    """The graph format, edges in sorted order, read off the adjacency rows.

    Each row is walked one run of consecutive neighbours at a time: skip
    to the lowest neighbour left, count the neighbours that follow it
    without a gap, and write the run's lines `e <u> <v>` as one string.
    The text is the same as one line per edge, at a fraction of the
    string building on the complete joins that make up an artifact."""
    names = [str(v) for v in range(1, g.n + 1)]  # names[v] is vertex v's 1-based number
    lines = [f"p {g.n} {g.num_edges}"]
    for u, row in enumerate(g._adj):
        row >>= u + 1  # bit i is now vertex u + 1 + i
        if row:
            prefix = f"e {names[u]} "
            v = u
            while row:
                step = (row & -row).bit_length()
                v += step
                row >>= step  # bit 0 is now vertex v + 1
                if row & 1:
                    run = (row ^ (row + 1)).bit_length()  # v and the ones that follow
                    lines.append(prefix + ("\n" + prefix).join(names[v : v + run]))
                    row >>= run
                    v += run
                else:
                    lines.append(prefix + names[v])
    lines.append("")  # the final newline, without copying the joined text again
    return "\n".join(lines)


def format_partmap(artifact: ReductionArtifact) -> str:
    """Sidecar part map: 1-based inclusive vertex ranges plus joined pairs."""
    lines = []
    for label, span in artifact.parts:
        lines.append(f"part {label} {span.start + 1}..{span.stop}")
    for pair in sorted(tuple(sorted(p)) for p in JOIN_PAIRS):
        lines.append(f"join {pair[0]} {pair[1]}")
    return "\n".join(lines) + "\n"


def _part_label(label: str, lineno: int) -> str:
    if label not in PART_LABELS:
        raise ParseError(f"line {lineno}: unknown part {label}")
    return label


def parse_partmap(text: str) -> tuple[dict[str, range], frozenset[frozenset[str]]]:
    parts: dict[str, range] = {}
    joins: set[frozenset[str]] = set()
    for lineno, line in _content_lines(text):
        fields = line.split()
        if fields[0] == "part" and len(fields) == 3 and ".." in fields[2]:
            label = _part_label(fields[1], lineno)
            lo_text, _, hi_text = fields[2].partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                lo = hi = 0  # not numbers: reported as a bad range below
            if not 1 <= lo <= hi:
                raise ParseError(f"line {lineno}: bad range {fields[2]!r}")
            if label in parts:
                raise ParseError(f"line {lineno}: repeated part {label}")
            parts[label] = range(lo - 1, hi)
        elif fields[0] == "join" and len(fields) == 3:
            joins.add(frozenset(_part_label(label, lineno) for label in fields[1:]))
        else:
            raise ParseError(f"line {lineno}: unknown part-map line")
    missing = [label for label in PART_LABELS if label not in parts]
    if missing:
        raise ParseError(f"part map is missing {', '.join(missing)}")
    n = len(parts["G1"])
    if parts != dict(_layout(n)) or joins != JOIN_PAIRS:
        raise ParseError(f"part map is not the layout of an artifact with n = {n}")
    return parts, frozenset(joins)
