"""Smoke test of the benchmark at tiny sizes: every workload passes its
checks, untraced and traced, and the checks catch a flipped log byte and a
replay entered from another call site.

    python3 -m pytest fpxbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "fpxbench")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fpx import demos  # noqa: E402
from fpx.classify import EventKind  # noqa: E402
from fpx.injector import Injector, ReplayDivergenceWarning  # noqa: E402

TINY = {
    "clean_stencil": {"steps": 6, "cells": 12},
    "blowup_report": {"steps": 8, "cells": 16},
    "fuzz_replay_native": {"n_points": 200, "degree": 4, "odds": 50},
}


def _tiny(name, tmp_path, seed=3):
    return workloads.make(name, seed, tmp_path / name, **TINY[name])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_checks_pass_untraced_and_traced(name, tmp_path):
    workload = _tiny(name, tmp_path)
    plain = workload.repetition(workloads.PhaseClock())
    tracer = tracing.Tracer()
    traced = workload.repetition(workloads.PhaseClock(tracer))
    for rep in (plain, traced):
        assert rep.checks and all(rep.checks.values()), rep.checks
        assert rep.ops > 0 and rep.plain_s > 0
    layers = tracer.layer_metrics(sum(traced.phases.values()))
    assert all(workload.trace_checks(traced, layers).values())
    assert layers["trace.remainder_s"] >= 0
    assert plain.log_digest == traced.log_digest or name == "fuzz_replay_native"


def test_tracer_restores_every_patch(tmp_path):
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS]
    _tiny("blowup_report", tmp_path).repetition(workloads.PhaseClock(tracing.Tracer()))
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS] == originals


def test_flipped_log_byte_fails_the_log_checks(tmp_path):
    size = TINY["blowup_report"]
    result = demos.demo_sim(size["steps"], size["cells"], blowup=True)
    paths = result.session.ledger.flush(tmp_path)
    assert all(workloads.log_checks(result.session, paths).values())
    golden = workloads.BlowupReport.GOLDEN_DIGESTS[(size["steps"], size["cells"])]
    assert workloads.read_logs(paths)[0] == golden

    prop = paths[EventKind.PROP]
    data = bytearray(prop.read_bytes())
    data[data.index(b'"hex": "0x') + len(b'"hex": "0x') + 15] ^= 1
    prop.write_bytes(bytes(data))
    checks = workloads.log_checks(result.session, paths)
    assert not checks["parse_equals_events.prop"]
    assert workloads.read_logs(paths)[0] != golden


def test_replay_from_another_call_site_fails_the_replay_checks(tmp_path):
    workload = _tiny("fuzz_replay_native", tmp_path)
    inputs = workload.inputs
    fuzzed = workloads.native_session(Injector.fuzz(workload.config))
    fuzz_outcome = workloads.run_kernel(fuzzed, inputs)
    replayed = workloads.native_session(Injector.replay(fuzzed.injector.recording))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ReplayDivergenceWarning)
        replay_outcome = workloads.run_kernel(replayed, inputs)
    assert fuzzed.injector.recording.points
    checks = workloads.replay_checks(fuzzed, fuzz_outcome, replayed, replay_outcome)
    assert not checks["replay.no_divergences"]
    assert not checks["replay.events_equal"]


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = list(tracing.Tracer().layer_metrics(1.0))
    layers += ["trace.untraced_wall_s", "trace.overhead_x"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, tracing.unit_of(name), tracing.better(name)) for name in layers]


def test_runner_refuses_a_directory_without_fpx(tmp_path):
    shutil.copytree(ROOT / "fpxbench", tmp_path / "fpxbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "fpxbench/run.py", "--workload", "clean_stencil", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
