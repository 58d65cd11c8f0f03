"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common, lint_wl  # noqa: E402
from perfbench.client import Server, closed_loop  # noqa: E402
from perfbench.oracle import Spec  # noqa: E402
from perfbench import gen  # noqa: E402


def _run(workload: str, trace: int) -> dict:
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert process.returncode == 0, process.stderr
    lines = process.stdout.strip().splitlines()
    provenance = json.loads(lines[-2])["provenance"]
    assert provenance["seed"] == 3 and provenance["nproc"] >= 1
    return json.loads(lines[-1])


WORKLOADS = [entry["name"] for entry in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = dict(common.declared(bool(trace)))
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float)


def test_tampered_expected_lint_answer_is_counted_failed(tmp_path, monkeypatch):
    for name in ("examples.json", "lint_corpus.json"):
        (tmp_path / name).write_text((common.EXPECTED / name).read_text())
    tampered = json.loads((tmp_path / "examples.json").read_text())
    tampered["video"]["codes"]["SA304"] += 1
    (tmp_path / "examples.json").write_text(json.dumps(tampered))
    monkeypatch.setattr(common, "EXPECTED", tmp_path)
    outcome = lint_wl.run_lint(seed=3, seconds=0.1, traced=False)
    tally = outcome["tally"]
    assert tally.failed == 1
    assert any("video: lint codes" in problem for problem in tally.failures)


def test_tampered_plan_answer_is_counted_failed():
    from repro.serve import ControlPlane, PlanRequest, to_wire

    text = gen.example_text("video")
    spec = Spec(text)
    source = spec.configurations["source"]
    target = spec.configurations["target"]
    answer = ControlPlane().dispatch(
        PlanRequest(source="source", target="target", manifest=text)
    )
    result = json.loads(to_wire(answer))["result"]
    assert spec.check_plan(result, source, target) is None
    plan = result["plan"]
    tally = common.Tally()
    tally.check(spec.check_plan(dict(result, plan=dict(plan, cost=40.0)), source, target))
    tally.check(spec.check_plan(
        dict(result, plan=dict(plan, steps=plan["steps"][:-1])), source, target
    ))
    assert tally.failed == 2 and len(tally.failures) == 2


def test_server_is_reaped_when_the_client_raises():
    def broken_episode():
        yield ("GET", "/healthz", b"")
        raise RuntimeError("client bug")

    server = Server()
    with pytest.raises(RuntimeError, match="client bug"):
        with server:
            closed_loop(server.port, iter([broken_episode()]), 5, common.Scaled())
    assert server.process.returncode is not None
    with pytest.raises(ProcessLookupError):
        os.kill(server.process.pid, 0)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert process.returncode != 0
    assert process.stdout == ""
