"""Spans for the traced run, recorded from outside the library.

`Tracer.install` wraps every public function of each layer module and puts
the wrapper in place of every binding to it in every loaded `dodgreedy`
module, so calls made through a name imported elsewhere (`reductions`
imports the graph solvers by name) are traced too.  Each call leaves one
span in memory: name, start, end, parent span, request id, the exception
type if it raised, and a note for the ratio metrics.  `uninstall` puts the
original functions back.  Library internals (private names, methods) are
never touched, so the spans survive refactors of the solvers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "formats", "graphs", "elections", "batch", "reductions")

NAME, START, END, PARENT, REQUEST, ERROR, NOTE = range(7)

SOLVERS = ("graphs.independence_number", "graphs.greedy_independence_number")
STAGES = ("reductions.pad_edges", "reductions.double_subdivision", "reductions.pad_vertices")


# Notes taken before the call, outside the span's clock: a hash of the
# instance a solve works on, and the number of queries in a batch.
NOTE_BEFORE = {
    "graphs.independence_number": lambda args: hash(args[0]),
    "graphs.greedy_independence_number": lambda args: hash(args[0]),
    "elections.carroll_score": lambda args: hash((args[0], args[1])),
    "batch.evaluate_batch": lambda args: len(args[0].queries),
}
# Notes taken from the result.
NOTE_AFTER = {"formats.parse_graph": lambda result: result.num_edges}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dodgreedy.{layer}")
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for name, module in list(sys.modules.items()):
            if name != "dodgreedy" and not name.startswith("dodgreedy."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = NOTE_BEFORE.get(name), NOTE_AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None,
                    before(args) if before else None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if after:
                span[NOTE] = after(result)
            return result

        return traced

    def write(self, path, walls: list[float]) -> None:
        """Write JSON lines: first the per-request walls, then one span per
        line as [name, start, end, parent, request, error]."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"request_walls_s": walls}) + "\n")
            for s in self.spans:
                out.write(json.dumps(s[:NOTE]) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _outermost(spans: list[list], i: int, same) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if same(spans[p][NAME]):
            return False
        p = spans[p][PARENT]
    return True


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, each as (value, unit).

    busy_s counts a layer's outermost spans (time inside the layer and
    everything it calls); self_s counts only the layer's own code.
    """
    own = self_times(spans)
    layer_of = [s[NAME].split(".", 1)[0] for s in spans]

    def busy(match) -> float:
        return sum(
            s[END] - s[START]
            for i, s in enumerate(spans)
            if match(s[NAME]) and _outermost(spans, i, match)
        )

    def fn(name: str):
        return lambda n: n == name

    def calls(*names: str) -> int:
        return sum(1 for s in spans if s[NAME] in names)

    def distinct_ratio(*names: str) -> float:
        """Distinct (function, instance) pairs per request over calls."""
        per_request: dict[int, set] = {}
        total = 0
        for s in spans:
            if s[NAME] in names:
                per_request.setdefault(s[REQUEST], set()).add((s[NAME], s[NOTE]))
                total += 1
        return sum(len(v) for v in per_request.values()) / total if total else 0.0

    def enclosing_batch(i: int) -> int:
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] != "batch.evaluate_batch":
            p = spans[p][PARENT]
        return p

    m: dict[str, tuple[float, str]] = {"requests.wall_s": (wall_s, "s")}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = (busy(lambda n, p=layer + ".": n.startswith(p)), "s")
        m[f"{layer}.self_s"] = (sum(t for t, l in zip(own, layer_of) if l == layer), "s")

    parse_busy = busy(fn("formats.parse_graph"))
    edges = sum(s[NOTE] for s in spans if s[NAME] == "formats.parse_graph" and s[NOTE])
    m["formats.parse_graph.calls"] = (calls("formats.parse_graph"), "count")
    m["formats.parse_graph.busy_s"] = (parse_busy, "s")
    m["formats.parse_graph.edges_per_s"] = (edges / parse_busy if parse_busy else 0.0, "1/s")
    m["formats.format_graph.busy_s"] = (busy(fn("formats.format_graph")), "s")
    m["formats.parse_election.busy_s"] = (busy(fn("formats.parse_election")), "s")

    m["graphs.alpha.calls"] = (calls(SOLVERS[0]), "count")
    m["graphs.alpha.busy_s"] = (busy(fn(SOLVERS[0])), "s")
    m["graphs.greedy.calls"] = (calls(SOLVERS[1]), "count")
    m["graphs.greedy.busy_s"] = (busy(fn(SOLVERS[1])), "s")
    m["graphs.budget_exceeded"] = (
        sum(1 for s in spans if s[NAME] in SOLVERS and s[ERROR] == "BudgetExceededError"),
        "count",
    )
    m["graphs.distinct_solve_ratio"] = (distinct_ratio(*SOLVERS), "ratio")

    scores = [s[END] - s[START] for s in spans if s[NAME] == "elections.carroll_score"]
    m["elections.score.calls"] = (len(scores), "count")
    m["elections.score.busy_s"] = (busy(fn("elections.carroll_score")), "s")
    m["elections.score.max_ms"] = (1000 * max(scores, default=0.0), "ms")
    m["elections.distinct_score_ratio"] = (distinct_ratio("elections.carroll_score"), "ratio")

    batches = [i for i, s in enumerate(spans) if s[NAME] == "batch.evaluate_batch"]
    queries = sum(spans[i][NOTE] for i in batches)
    # a query's instance is what its solve works on, so distinct instances
    # per batch are the distinct solves made under it
    instances = {
        (enclosing_batch(i), s[NAME], s[NOTE])
        for i, s in enumerate(spans)
        if s[NAME] in SOLVERS + ("elections.carroll_score",)
    }
    m["batch.evaluate.calls"] = (len(batches), "count")
    m["batch.queries"] = (queries, "count")
    m["batch.evaluate.busy_s"] = (busy(fn("batch.evaluate_batch")), "s")
    m["batch.evaluate.self_s"] = (sum(own[i] for i in batches), "s")
    m["batch.distinct_query_ratio"] = (
        sum(1 for key in instances if key[0] >= 0) / queries if queries else 0.0,
        "ratio",
    )

    verifies = [i for i, s in enumerate(spans) if s[NAME] == "reductions.verify_reduction"]
    m["reductions.verify.calls"] = (len(verifies), "count")
    m["reductions.verify.busy_s"] = (busy(fn("reductions.verify_reduction")), "s")
    m["reductions.verify.self_s"] = (sum(own[i] for i in verifies), "s")
    m["reductions.build.calls"] = (calls("reductions.build_reduction"), "count")
    m["reductions.build.busy_s"] = (busy(fn("reductions.build_reduction")), "s")
    m["reductions.stage_calls_per_verify"] = (
        calls(*STAGES) / len(verifies) if verifies else 0.0,
        "count",
    )
    return m
