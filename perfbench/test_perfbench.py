"""Tests of the benchmark itself: tiny smokes of every workload.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, BenchFailure, FabricRingFlaky  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)

TINY = 0.02


def _metrics(name, trace, tmp_path, seed=3):
    out = run.benchmark(
        name, seed, 0.0, trace, scale=TINY, probes=1, span_dir=str(tmp_path)
    )
    result = out["result"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return out, result["metrics"]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_emits_every_end_to_end_metric(name, tmp_path):
    out, metrics = _metrics(name, False, tmp_path)
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == wanted
    assert all(v["value"] > 0 for v in metrics.values())
    assert set(out["env"]) >= {"nproc", "python", "kernel", "mmsg", "note"}
    # The unscaled wall figures travel with the host-speed-scaled ones.
    assert set(out["summary"]) >= {"wall_us_per_msg", "host_slowdown", "setup_wall_s"}
    assert all(s > 0 for s in out["summary"]["host_slowdown"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_emits_every_layer_metric(name, tmp_path):
    out, metrics = _metrics(name, True, tmp_path)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == wanted
    selfs = [v["value"] for k, v in metrics.items() if k.endswith("self_s")]
    assert all(value >= -1e-9 for value in selfs)
    assert sum(selfs) <= metrics["trace.wall_s"]["value"] + 1e-6
    assert os.path.exists(os.path.join(os.path.dirname(HERE), out["summary"]["spans_file"]))


def test_counters_repeat_across_runs(tmp_path):
    first, _ = _metrics("fabric-ring-flaky", False, tmp_path, seed=5)
    second, _ = _metrics("fabric-ring-flaky", False, tmp_path, seed=5)
    assert first["summary"]["exact"] == second["summary"]["exact"]
    other, _ = _metrics("fabric-ring-flaky", False, tmp_path, seed=6)
    assert other["summary"]["exact"] != first["summary"]["exact"]


def test_violated_verdict_fails_the_run(tmp_path, monkeypatch):
    # The dedup ablation makes retransmission races reach the verdicts.
    build = FabricRingFlaky.build

    def ablated(self, seed):
        spec, seed = build(self, seed)
        spec.exactly_once = False
        return spec, seed

    monkeypatch.setattr(FabricRingFlaky, "build", ablated)
    with pytest.raises(BenchFailure, match="VIOLATED"):
        run.benchmark("fabric-ring-flaky", 1, 0.0, False, scale=0.2, probes=1)


def test_changed_counters_fail_the_run():
    unit = run.Unit(delivered=1, attempted=1, counts={"steps": 1})
    first = {0: unit}
    with pytest.raises(BenchFailure, match="changed"):
        run._check_repeat(first, 0, run.Unit(1, 1, counts={"steps": 2}), "w")


def test_tracer_self_time_and_restore():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Box.__dict__["outer"]
    tracer = Tracer()
    with tracer.installed({"a": [(Box, "outer")], "b": [(Box, "inner")]}):
        with tracer.span():
            assert Box().outer() == 2
    assert Box.__dict__["outer"] is original
    totals = tracer.layer_self_s()
    assert tracer.layer_calls() == {"bench": 1, "a": 1, "b": 1}
    assert all(value >= 0 for value in totals.values())
    # The root span covers everything: its duration is the sum of selves.
    root = tracer.col_end[-1] - tracer.col_start[-1]
    assert sum(totals.values()) == pytest.approx(root)
    assert list(tracer.col_parent)[:2] == [tracer.col_id[1], tracer.col_id[2]]


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "link-faulty",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _session_members(sid):
    members = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_campaign_run_leaves_no_process_behind():
    # Forked campaign workers and the resource tracker must all be ended
    # and waited for before the benchmark exits.
    done = subprocess.Popen(
        [sys.executable, *SPEC["command"][1:], "--workload", "campaign-short",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=os.path.dirname(HERE), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, _ = done.communicate(timeout=170)
    assert done.returncode == 0
    assert json.loads(out.splitlines()[-1])["correct"] is True
    assert _session_members(done.pid) == []
