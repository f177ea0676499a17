"""The experiment scripts run end to end and keep their pinned output."""

import ast
import hashlib
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
