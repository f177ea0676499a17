"""The experiment scripts run end to end and keep their pinned output."""

import ast
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out


def test_fuzz_campaign_injection_ops_are_pinned():
    """Seeds 0-4 at odds 5, three injections each: the ops the fuzzer picks
    are part of the seeded sequence and every recording replays exactly."""
    out = _run_script("fuzz_campaign.py", "5", "5", "3")
    ops = {int(seed): ast.literal_eval(at) for seed, at in re.findall(
        r"^seed=(\d+)\s+injected=3 at ops (\[[\d, ]*\]).*replay=ok$", out.stdout, re.M)}
    assert ops == {0: [6, 7, 8], 1: [5, 6, 19], 2: [3, 8, 14], 3: [2, 3, 5], 4: [8, 16, 23]}
    assert out.stdout.rstrip().endswith("5/5 seeds replayed exactly")


def test_blowup_report_dot_files_are_pinned(tmp_path):
    """The full gen graph and the early-vs-late split diff, byte for byte:
    both DOT emitters end to end on the unstable simulation."""
    _run_script("blowup_report.py", str(tmp_path))
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("gen.dot", "gen-split.dot")}
    assert digests == {
        "gen.dot": "a885ea27f197c49b497e7832742e1fb90c9437ee9a5cfe17fd00e9394c65fadb",
        "gen-split.dot": "0db8a76384da7465d42417d5d70048ae33cf3ef55ee0656698c35f1572994d67",
    }


def test_loc_counts_code_lines_only(tmp_path):
    """Blank lines, comments and docstrings are not code; every line of a
    multi-line call, and of a string that is no docstring, is."""
    (tmp_path / "m.py").write_text(
        '"""Module docstring."""\n'
        "\n"
        "import os  # a trailing comment\n"
        "# a comment line\n"
        "\n"
        "def f(a, b):\n"
        '    """A docstring\n'
        '    over two lines."""\n'
        "    return max(a,\n"
        "               b)\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        '    y = """not a\n'
        'docstring"""\n', encoding="utf-8")
    (tmp_path / "n.py").write_text("x = 1\n", encoding="utf-8")
    out = _run_script("loc.py", str(tmp_path))
    assert out.stdout.splitlines() == ["     7  m.py", "     1  n.py", "     8  total"]


def _pairs_module():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "scripts" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_line(correct, **values):
    return json.dumps({"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
                       "metrics": {m: {"value": v, "unit": "s"} for m, v in values.items()}})


def test_pairs_summarizes_canned_runs():
    """Seeds spell as ranges and lists; of a run's stdout only the env line
    and the last line are read; per metric each side's median and
    inclusive quartiles, the pairs the change won in the metric's better
    direction, and the bound test of the medians."""
    pairs = _pairs_module()
    assert pairs.parse_seeds("11-14") == [11, 12, 13, 14]
    assert pairs.parse_seeds("3,5-6,9") == [3, 5, 6, 9]
    env = {"commit": "abc", "src_sha256": "0f"}
    stdout = "\n".join(["env " + json.dumps(env), "clean_stencil: 9 timed repetitions",
                        '  {"not": "the result"}', _result_line(True, wall_s=1.0)])
    assert pairs.read_run(stdout) == (env, json.loads(_result_line(True, wall_s=1.0)))
    parent = [(100.0, 1.0), (110.0, 1.0), (120.0, 1.0), (130.0, 1.0)]
    change = [(120.0, 1.3), (105.0, 1.3), (125.0, 1.2), (140.0, 1.3)]
    runs = [tuple(json.loads(_result_line(True, **{"a.tracked_ops_per_s": ops, "a.wall_s": s}))
                  for ops, s in side) for side in (parent, change)]
    spec = [{"name": "tracked_ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
    metrics = pairs.summarize(list(zip(*runs)), spec)
    ops, wall = metrics["a.tracked_ops_per_s"], metrics["a.wall_s"]
    assert ops["parent"] == {"median": 115.0, "q1": 107.5, "q3": 122.5}
    assert ops["change"] == {"median": 122.5, "q1": 116.25, "q3": 128.75}
    assert (ops["change_wins"], ops["pairs"], ops["within_bound"]) == (3, 4, True)
    assert wall["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert (wall["change"]["median"], wall["change_wins"], wall["within_bound"]) == (1.3, 0, False)
    assert pairs.quartiles([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0}


def test_pairs_runs_both_checkouts_end_to_end(tmp_path):
    """One seed of one workload at one second over one tree given twice: the
    file names every end-to-end metric of BENCHMARK.json and every run was
    correct. No bound is asserted: setup_s alone moves more than its bound
    between two processes."""
    out = tmp_path / "BENCH.json"
    run = _run_script("pairs.py", str(ROOT), str(ROOT), "--workload", "clean_stencil",
                      "--seeds", "1", "--seconds", "1", "--out", str(out))
    document = json.loads(out.read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    assert sorted(document["metrics"]) == sorted(m["name"] for m in spec)
    assert document["runs"] == [{"seed": 1, "side": side, "correct": True}
                                for side in ("parent", "change")]
    assert document["parent"] == document["change"] and run.stdout.endswith(f"wrote {out}\n")
