"""Tests of the benchmark itself: its declared metrics, a short run of every
workload, the traced run's span accounting, and its refusal to run without
the library's sources."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import END, PARENT, REQUEST, START, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_metrics_are_well_formed():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    for name in e2e + layers + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layers)) == len(e2e) + len(layers)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_answers_everything_right(workload):
    proc = _run("--workload", workload, "--seed", str(run.DEFAULT_SEED), "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_accounts_for_its_time(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    result = run.run(WORKLOADS["reduction-audit"], 2, 1.0, trace=True)
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared

    with (tmp_path / "spans-reduction-audit-2.jsonl").open() as lines:
        walls = json.loads(next(lines))["request_walls_s"]
        spans = [json.loads(line) + [None] for line in lines]
    assert spans and len(walls) == result["attempted"]
    own = self_times(spans)
    assert min(own) >= -1e-9
    per_request: dict[int, float] = {}
    for s, t in zip(spans, own):
        per_request[s[REQUEST]] = per_request.get(s[REQUEST], 0.0) + t
        if s[PARENT] >= 0:
            parent = spans[s[PARENT]]
            assert parent[START] <= s[START] <= s[END] <= parent[END]
    for request, total in per_request.items():
        assert total <= walls[request]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "greedy-exact", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
