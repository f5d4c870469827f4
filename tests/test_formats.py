import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dodgreedy import formats as fmt
from dodgreedy import reductions as red
from dodgreedy.elections import Election
from dodgreedy.errors import ParseError
from dodgreedy.graphs import Graph

FOUR_VOTER_TEXT = """\
# worked example, four voters
C D P
C P D
P C D

P D C
D P C  # most preferred first
"""


class TestElectionFormat:
    def test_parse_golden(self):
        e = fmt.parse_election(FOUR_VOTER_TEXT)
        assert e.num_candidates == 3 and e.num_voters == 4
        assert [c.name for c in e.candidates] == ["C", "D", "P"]
        assert e.voters[0].ranking == (0, 2, 1)

    def test_comments_and_blanks_ignored(self):
        bare = "C D P\nC P D\nP C D\nP D C\nD P C\n"
        assert fmt.parse_election(FOUR_VOTER_TEXT) == fmt.parse_election(bare)

    def test_round_trip(self):
        e = fmt.parse_election(FOUR_VOTER_TEXT)
        text = fmt.format_election(e)
        assert fmt.parse_election(text) == e
        assert fmt.format_election(fmt.parse_election(text)) == text

    def test_round_trip_of_punctuated_names(self):
        e = Election.from_names(["a-b", "c.d", "e'f", "g!"], [["g!", "a-b", "e'f", "c.d"]])
        assert fmt.parse_election(fmt.format_election(e)) == e

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="candidate line"):
            fmt.parse_election("# nothing here\n")

    def test_duplicate_candidate_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            fmt.parse_election("A B A\nA B\n")

    def test_zero_voters_rejected(self):
        with pytest.raises(ParseError, match="no voters"):
            fmt.parse_election("A B\n")

    def test_bad_ranking_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            fmt.parse_election("A B\nA B\nA A\n")

    def test_missing_candidate_in_ranking(self):
        with pytest.raises(ParseError, match="permutation"):
            fmt.parse_election("A B C\nA B\n")


class TestGraphFormat:
    def test_parse_triangle(self):
        g = fmt.parse_graph("c a triangle\np 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert g == Graph.complete(3)

    def test_parse_isolated(self):
        assert fmt.parse_graph("p 2 0\n") == Graph.empty(2)

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            fmt.parse_graph("p 2 1\ne 1 1\n")

    def test_duplicate_edge_warns(self):
        with pytest.warns(UserWarning, match="duplicate"):
            g = fmt.parse_graph("p 2 2\ne 1 2\ne 2 1\n")
        assert g.num_edges == 1

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError, match="line 2"):
            fmt.parse_graph("p 2 1\ne 1 3\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            fmt.parse_graph("p 2\ne 1 2\n")
        with pytest.raises(ParseError):
            fmt.parse_graph("p x y\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            fmt.parse_graph("e 1 2\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="declared"):
            fmt.parse_graph("p 3 2\ne 1 2\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="directive"):
            fmt.parse_graph("p 1 0\nq boom\n")

    def test_round_trip_byte_identical(self):
        for g in (Graph.complete(4), Graph.empty(3), Graph.cycle(5)):
            text = fmt.format_graph(g)
            assert fmt.parse_graph(text) == g
            assert fmt.format_graph(fmt.parse_graph(text)) == text

    @given(st.integers(0, 70), st.floats(0, 1), st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=60)
    def test_edges_written_in_sorted_order(self, n, density, rng):
        g = Graph(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < density])
        sorted_edges = [f"p {n} {g.num_edges}"] + [f"e {u + 1} {v + 1}" for u, v in sorted(g.edges)]
        assert fmt.format_graph(g) == "\n".join(sorted_edges) + "\n"


def reference_parse_graph(text: str) -> Graph:
    """The edge-list parser `parse_graph` replaced, kept verbatim as a referee."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    edge_lines = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise ParseError(f"line {lineno}: repeated header")
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: header must be `p <n> <m>`")
            try:
                n, m = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"line {lineno}: header must be `p <n> <m>`") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: header counts must be nonnegative")
            header = (n, m)
        elif fields[0] == "e":
            if header is None:
                raise ParseError(f"line {lineno}: edge before header")
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: edge must be `e <u> <v>`")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"line {lineno}: edge must be `e <u> <v>`") from None
            n = header[0]
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: vertex out of range 1..{n}")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop at vertex {u}")
            edge_lines += 1
            edge = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if edge in seen:
                warnings.warn(f"line {lineno}: duplicate edge {u} {v} collapsed")
            else:
                seen.add(edge)
                edges.append(edge)
        else:
            raise ParseError(f"line {lineno}: unknown directive {fields[0]!r}")
    if header is None:
        raise ParseError("line 1: missing `p <n> <m>` header")
    if edge_lines != header[1]:
        raise ParseError(f"header declared {header[1]} edges, found {edge_lines}")
    return Graph(header[0], edges)


def reference_format_graph(g: Graph) -> str:
    """The per-edge writer `format_graph` replaced, kept as a referee."""
    names = [str(v) for v in range(1, g.n + 1)]
    lines = [f"p {g.n} {g.num_edges}"]
    for u, row in enumerate(g._adj):
        row >>= u + 1
        if row:
            prefix = f"e {names[u]} "
            v = u
            while row:
                step = (row & -row).bit_length()
                v += step
                row >>= step
                lines.append(prefix + names[v])
    return "\n".join(lines) + "\n"


def complete_join(sizes: list[int], gaps: list[int]) -> Graph:
    """Consecutive parts of the given sizes, `gaps` isolated vertices
    after each, every part joined completely to every later part."""
    parts, top = [], 0
    for size, gap in zip(sizes, gaps):
        parts.append(range(top, top + size))
        top += size + gap
    return Graph(top, [(u, v) for i, a in enumerate(parts) for b in parts[i + 1 :] for u in a for v in b])


WRITER_GRAPHS = {
    "n=0": Graph.empty(0),
    "n=1": Graph.empty(1),
    "edgeless": Graph.empty(5),
    "K2": Graph.complete(2),
    "K13": Graph.complete(13),
    "K3,4": complete_join([3, 4], [0, 0]),
    "K5,1,6-gapped": complete_join([5, 1, 6], [2, 0, 1]),
    "runs-end-at-n": Graph(9, [(u, v) for u in range(9) for v in range(max(u + 1, 5), 9)]),
    "star-at-n": Graph(7, [(u, 6) for u in range(6)]),
    "band": Graph(12, [(i, i + d) for d in (1, 2) for i in range(12 - d)]),
}


@pytest.mark.parametrize("g", WRITER_GRAPHS.values(), ids=WRITER_GRAPHS.keys())
def test_format_graph_matches_per_edge_writer(g):
    text = fmt.format_graph(g)
    assert text == reference_format_graph(g)
    assert fmt.parse_graph(text) == g


BLANKS_AND_COMMENTS = ["", "   ", "\t", "c", "cfoo", "c e 1 2", "  c p 1 0", "ce 1 2"]
BAD_HEADERS = ["p 3", "p", "p x 2", "p 2 y", "p -1 0", "p 2 -1", "p 1 2 3", "p 2.0 1"]
BAD_LINES = [
    "e", "e 1", "e 1 2 3", "e x 1", "e 1 y", "e 0 1", "e 1 1", "e -1 2", "e 2 2",
    "x 1 2", "E 1 2", "pp 1 0", "ee 1 2", "q", "p 2 1", *BAD_HEADERS,
]


@st.composite
def graph_texts(draw):
    """Graph-format text: edges (duplicates in both orders, endpoints
    sometimes out of range or equal), blanks and comments, now and then a
    bad line, the header usually first but also late, missing or repeated,
    its edge count usually right, lines padded with assorted whitespace."""
    n = draw(st.integers(0, 6))
    wild = st.builds("e {} {}".format, st.integers(-1, n + 2), st.integers(-1, n + 2))
    pairs = [f"e {u} {v}" for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    edge = st.sampled_from(pairs or BLANKS_AND_COMMENTS)  # no valid edge below 2 vertices
    line = st.one_of(edge, edge, edge, edge, edge, edge, wild, st.sampled_from(BLANKS_AND_COMMENTS))
    body = draw(st.lists(line, max_size=16))
    for bad in draw(st.lists(st.sampled_from(BAD_LINES), max_size=2)):
        body.insert(draw(st.integers(0, len(body))), bad)
    edge_lines = sum(line.split()[:1] == ["e"] for line in body)
    m = draw(st.sampled_from([edge_lines] * 3 + [edge_lines + 1, abs(edge_lines - 1)]))
    for i in range(draw(st.sampled_from([1, 1, 1, 1, 0, 2]))):
        late = i or draw(st.sampled_from([False, False, False, True]))
        body.insert(draw(st.integers(0, len(body))) if late else 0, f"p {n} {m}")
    pad = st.sampled_from(["", "", " ", "\t", "  ", "\u00a0", "\x0c"])
    lines = [draw(pad) + line + draw(pad) for line in body]
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def parse_outcome(parse, text):
    """The graph or the ParseError text, and the warning messages in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except ParseError as exc:
            result = f"ParseError: {exc}"
    return result, [f"{w.category.__name__}: {w.message}" for w in caught]


@given(graph_texts())
@settings(deadline=None, max_examples=400)
def test_parse_graph_matches_reference_parser(text):
    assert parse_outcome(fmt.parse_graph, text) == parse_outcome(reference_parse_graph, text)


@given(st.integers(1, 9), st.data())
@settings(deadline=None, max_examples=100)
def test_parse_graph_matches_reference_on_valid_edge_lists(n, data):
    """Many valid edges and duplicates in both endpoint orders, no odd lines."""
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    edges = data.draw(st.lists(pairs, max_size=40))
    text = f"p {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    graph, caught = parse_outcome(fmt.parse_graph, text)
    assert (graph, caught) == parse_outcome(reference_parse_graph, text)
    assert isinstance(graph, Graph) and len(caught) == len(edges) - graph.num_edges


@st.composite
def written_shape_texts(draw):
    """Text laid out as `format_graph` writes it, one space between fields
    and no comments: distinct edges in either order, then up to two faults
    among names `int` reads but the writer never writes (`01`, `+2`, `1_0`,
    `٣`, a trailing form feed or tab), names out of range, a self-loop and
    a duplicate in either order; now and then a line with another first
    field, a stray line, a wrong edge count or no final newline."""
    n = draw(st.integers(1, 12))
    pairs = [(str(u), str(v)) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=24, unique_by=frozenset)) if pairs else []
    odd_name = st.one_of(
        st.sampled_from(["01", "+2", "1_0", "٣", "0", str(n + 1)]),
        st.builds("{}{}".format, st.integers(1, n), st.sampled_from(["\x0c", "\t"])),
    )
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["name", "loop", "duplicate"]))
        if fault == "loop":
            name = str(draw(st.integers(1, n)))
            edges.insert(draw(st.integers(0, len(edges))), (name, name))
        elif edges and fault == "duplicate":
            u, v = draw(st.sampled_from(edges))
            edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from([(u, v), (v, u)])))
        elif edges:
            i = draw(st.integers(0, len(edges) - 1))
            u, v = edges[i]
            odd = draw(odd_name)
            edges[i] = draw(st.sampled_from([(odd, v), (u, odd)]))
    heads = ["e"] * len(edges)
    if edges and draw(st.integers(0, 5)) == 0:
        heads[draw(st.integers(0, len(edges) - 1))] = draw(st.sampled_from(["c", "E", "x", "ee", "p"]))
    lines = [f"{head} {u} {v}" for head, (u, v) in zip(heads, edges)]
    if draw(st.integers(0, 7)) == 0:
        stray = draw(st.sampled_from(["", "e 1", "e 1 2 3", "p 1 0"]))
        lines.insert(draw(st.integers(0, len(lines))), stray)
    m = draw(st.sampled_from([len(lines)] * 4 + [len(lines) + 1, abs(len(lines) - 1)]))
    end = draw(st.sampled_from(["\n", "\n", "\n", ""]))
    return "\n".join([f"p {n} {m}", *lines]) + end


@given(written_shape_texts())
@example("p 3 1\ne 2\x0c 3\n")  # a form feed ends a line for `splitlines`
@example("p 2 1\ne 1 3\n")
@example("p 2 1\nc 1 2\n")
@example("P 2 1\ne 1 2\n")
@example("p 2 1\ne 1 2\ne 2 1")  # no final newline
@settings(deadline=None, max_examples=400)
def test_parse_graph_matches_reference_on_written_shape_texts(text):
    assert parse_outcome(fmt.parse_graph, text) == parse_outcome(reference_parse_graph, text)


@st.composite
def run_shaped_texts(draw):
    """Text in the writer's shape whose rows are runs of 1-12 consecutive
    names, as an artifact's joins are written, with up to two faults
    inside or at the end of a run: a run through the row's own vertex
    (`e 3 2`, `e 3 3`, `e 3 4`), a run past n (`e 1 <n>`, `e 1 <n+1>`),
    the run's last line repeated, or a name with a leading zero mid-run
    (`e 1 04`); now and then the runs out of order or a wrong edge count."""
    n = draw(st.integers(1, 30))
    runs = []
    for u in range(1, n + 1):
        v = u + 1
        for _ in range(draw(st.integers(0, 3))):
            start = v + draw(st.integers(0, 3))
            stop = min(start + draw(st.integers(1, 12)), n + 1)
            if start >= stop:
                break
            runs.append([(str(u), str(w)) for w in range(start, stop)])
            v = stop + 1
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["own", "past", "repeat", "name"]))
        if fault == "own":
            u = draw(st.integers(1, n))
            run = [(str(u), str(w)) for w in range(max(1, u - 1), min(n, u + 1) + 1)]
            runs.insert(draw(st.integers(0, len(runs))), run)
        elif fault == "past":
            u = draw(st.integers(1, n))
            run = [(str(u), str(w)) for w in range(draw(st.integers(max(1, n - 2), n)), n + 2)]
            runs.insert(draw(st.integers(0, len(runs))), run)
        elif runs and fault == "repeat":
            run = draw(st.sampled_from(runs))
            run.append(run[-1])
        elif fault == "name":
            long_runs = [run for run in runs if len(run) > 1]
            if long_runs:
                run = draw(st.sampled_from(long_runs))
                i = draw(st.integers(1, len(run) - 1))
                run[i] = (run[i][0], "0" + run[i][1])
    if draw(st.integers(0, 5)) == 0:
        runs = draw(st.permutations(runs))
    lines = [f"e {u} {v}" for run in runs for u, v in run]
    m = draw(st.sampled_from([len(lines)] * 4 + [len(lines) + 1, abs(len(lines) - 1)]))
    return "\n".join([f"p {n} {m}", *lines]) + "\n"


@given(run_shaped_texts())
@example("p 4 3\ne 3 2\ne 3 3\ne 3 4\n")  # a run through its own row's vertex
@example("p 4 2\ne 1 4\ne 1 5\n")  # a run past n, from a split line
@example("p 4 3\ne 1 3\ne 1 4\ne 1 5\n")  # a run past n, from a predicted line
@example("p 4 3\ne 1 2\ne 1 3\ne 1 3\n")  # the run's last line repeated
@example("p 5 3\ne 1 3\ne 1 04\ne 1 5\n")  # a leading zero mid-run
@example("p 4 4\ne 1 3\ne 1 2\ne 1 3\ne 1 4\n")  # a repeat that is the predicted line
@example("p 5 5\r\ne 1 4\r\ne 1 2\r\ne 1 3\r\ne 1 4\r\ne 1 5\r\n")  # CRLF line endings
@example("p 5 5\ne 1 4\ne 1 2\nc x\ne 1 3\ne 1 4\n\ne 1 5\n")  # a comment and a blank in a run
@example("p 23 2\ne 1 2 \ne 1 23\n")  # an opening line with a trailing blank
@example("p 5 4\ne 5 2\ne 1 2 \ne 5 3\ne 5 4\ne 5 5\n")  # a run held over a line that opens none
@example("p 4 4\ne  1  3\ne  1  2\ne  1  3\ne 1 4\n")  # double spaces
@example("p 4 4\ne 1 3\ne 1 2\ne 1 3\ne 1 4")  # a run at the end, no final newline
@settings(deadline=None, max_examples=400)
def test_parse_graph_matches_reference_on_run_shaped_texts(text):
    assert parse_outcome(fmt.parse_graph, text) == parse_outcome(reference_parse_graph, text)


class TestArtifactSizedText:
    """An emitted artifact's text, read whole and with a fault on its last line."""

    @pytest.fixture(scope="class")
    def artifact(self):
        a = red.build_reduction(Graph(5, [(0, 1)]), Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]))
        assert a.n >= 18 and a.graph.num_edges > 5000
        return a

    @staticmethod
    def with_last_line(artifact, line):
        """The artifact's text with `line` appended and m + 1 in the header."""
        g = artifact.graph
        head, _, body = fmt.format_graph(g).partition("\n")
        assert head == f"p {g.n} {g.num_edges}"
        return f"p {g.n} {g.num_edges + 1}\n{body}{line}\n"

    def test_round_trip(self, artifact):
        assert fmt.parse_graph(fmt.format_graph(artifact.graph)) == artifact.graph

    def test_written_like_the_per_edge_writer(self, artifact):
        assert fmt.format_graph(artifact.graph) == reference_format_graph(artifact.graph)

    def test_late_duplicate_warns_like_the_reference(self, artifact):
        u, v = max(artifact.graph.sorted_edges())
        text = self.with_last_line(artifact, f"e {u + 1} {v + 1}")
        graph, caught = parse_outcome(fmt.parse_graph, text)
        assert graph == artifact.graph
        m = artifact.graph.num_edges
        assert caught == [f"UserWarning: line {m + 2}: duplicate edge {u + 1} {v + 1} collapsed"]
        assert (graph, caught) == parse_outcome(reference_parse_graph, text)

    def test_late_self_loop_fails_like_the_reference(self, artifact):
        text = self.with_last_line(artifact, "e 1 1")
        outcome = parse_outcome(fmt.parse_graph, text)
        m = artifact.graph.num_edges
        assert outcome == (f"ParseError: line {m + 2}: self-loop at vertex 1", [])
        assert outcome == parse_outcome(reference_parse_graph, text)


class TestPartmapFormat:
    def test_round_trip(self):
        artifact = red.build_reduction(Graph(1), Graph.empty(2))
        text = fmt.format_partmap(artifact)
        parts, joins = fmt.parse_partmap(text)
        assert parts == dict(artifact.parts)
        assert joins == red.JOIN_PAIRS

    def test_missing_part_rejected(self):
        with pytest.raises(ParseError, match="missing"):
            fmt.parse_partmap("part G1 1..2\njoin G1 H2\n")

    def test_bad_range_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            fmt.parse_partmap("part G1 1..x\n")

    @pytest.mark.parametrize(
        "line, error",
        [
            ("part G1 5..1", "bad range '5..1'"),
            ("part G1 0..1", "bad range '0..1'"),
            ("part G1 -1..1", "bad range '-1..1'"),
            ("part X 1..1", "unknown part X"),
            ("join G1 Q", "unknown part Q"),
        ],
    )
    def test_bad_range_or_label_rejected(self, line, error):
        lines = fmt.format_partmap(red.build_reduction(Graph(1), Graph.empty(2))).splitlines()
        lines[0] = line  # in place of "part G1 1..3"
        with pytest.raises(ParseError, match=f"line 1: {error}"):
            fmt.parse_partmap("\n".join(lines))

    @pytest.mark.parametrize(
        "old, new",
        [
            ("part G2 4..6", "part G2 1..3"),  # overlaps G1
            ("part I2 21..28", "part I2 21..99"),  # runs past ell = 2n + 2
            ("join G1 H2", "join G1 G1"),
            ("join G1 H2", ""),
        ],
        ids=["overlap", "I2-too-long", "self-join", "missing-join"],
    )
    def test_layout_mismatch_rejected(self, old, new):
        text = fmt.format_partmap(red.build_reduction(Graph(1), Graph.empty(2)))
        assert old in text
        with pytest.raises(ParseError, match="not the layout of an artifact with n = 3"):
            fmt.parse_partmap(text.replace(old, new))

    def test_map_of_no_artifact_rejected(self):
        text = "\n".join([
            "part G1 1..2", "part G2 1..2", "part H1 3..4", "part H2 5..6",
            "part I1 7..12", "part I2 13..99", "join G1 G1", "join I1 I2",
        ])
        with pytest.raises(ParseError, match="n = 2"):
            fmt.parse_partmap(text)

