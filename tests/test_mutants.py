"""The mutation gate's table still applies to today's source: every edit's
source text occurs exactly once in its file, every mutated file compiles,
and every killer names a test that exists. `python3 scripts/mutants.py`
runs the mutants themselves."""

import importlib.util
import re
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
    for node_id in mutant.killers:
        path, *names = node_id.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        for name in names:
            assert re.search(rf"^\s*(def|class) {re.escape(name.split('[')[0])}\b", source,
                             re.M), node_id
