"""The fuzz campaign script runs end to end and keeps its pinned output."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fuzz_campaign_injection_ops_are_pinned():
    """Seeds 0-4 at odds 5, three injections each: the ops the fuzzer picks
    are part of the seeded sequence and every recording replays exactly."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fuzz_campaign.py"), "5", "5", "3"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    ops = {int(seed): ast.literal_eval(at) for seed, at in re.findall(
        r"^seed=(\d+)\s+injected=3 at ops (\[[\d, ]*\]).*replay=ok$", out.stdout, re.M)}
    assert ops == {0: [6, 7, 8], 1: [5, 6, 19], 2: [3, 8, 14], 3: [2, 3, 5], 4: [8, 16, 23]}
    assert out.stdout.rstrip().endswith("5/5 seeds replayed exactly")
