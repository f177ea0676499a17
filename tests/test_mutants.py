"""The mutation gate's table still applies to today's source: every edit's
source text occurs exactly once in its file, every mutated file compiles,
and every killer's node id, its parameter included, collects a test.
`python3 scripts/mutants.py` runs the mutants themselves."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_edit_applies_exactly_once(mutant):
    """Every edit applies, and the mutated file compiles: a mutant that broke
    the syntax would fail every test on import and count as killed."""
    text = (mutants.PACKAGE / mutant.file).read_text(encoding="utf-8")
    for source, replacement in mutant.edits:
        assert text.count(source) == 1, source
        assert source != replacement
    mutated = mutants.apply_edits(text, mutant)
    assert mutated != text
    compile(mutated, mutant.file, "exec")


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_has_killers_or_a_reason(mutant):
    assert bool(mutant.killers) != bool(mutant.equivalent)


def test_every_killer_collects():
    """Every killer node id, its parameter included, is a test that one
    collection of the killers' files lists, so no mutant's run stops on an
    id whose test or parameter is gone; the failure names each such id. The
    files are collected, not the ids: given one id that matches nothing,
    pytest lists no test and names that one without its parameter. An id
    without a parameter stands for every parameter of its test."""
    killers = sorted({k for m in mutants.MUTANTS for k in m.killers})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *sorted({k.split("::")[0] for k in killers})],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    collected = set(run.stdout.splitlines())
    collected |= {c.split("[")[0] for c in collected}
    assert [k for k in killers if k not in collected] == []
