"""A mutation gate for fpx's fast paths: each mutant must be killed by its tests.

A mutant is one or more exact edits to one file of src/fpx, each source text
occurring there exactly once, and the test node ids that should kill it. For
each mutant the script copies src/fpx to a temporary directory, applies the
edits and runs those tests with PYTHONPATH pointing at the copy. A mutant
whose tests all pass survived. Before any mutant it runs every killer on an
unmutated copy, which must pass. An equivalent mutant provably changes no
output; it is listed with the reason and not run.

Run it from the root of an fpx checkout:

    python3 scripts/mutants.py

Exit 0 when every mutant run is killed, 1 when one survives, its tests fail
to run, or the unmutated copy fails a killer. The whole table, 16 mutants
run, took 65 s on a shared 2-core x86-64 VM.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fpx"


class Mutant(NamedTuple):
    name: str
    file: str               # relative to src/fpx
    edits: tuple            # (source text, replacement) pairs
    killers: tuple = ()     # pytest node ids, relative to the checkout
    equivalent: str = ""    # why the mutant changes no output; then it is not run


_NOT_DECIDED = "        if injected_value is None:\n            injector = sess.injector\n"
_COMPARISON = "                if is_comparison and x - x == y - y:\n"
_REFERENCE = ("tests/test_reference.py::test_programs_match_the_reference",
              "tests/test_reference.py::test_capped_and_filtered_runs_keep_the_reference_prefix")
_OUTCOME_LIMIT = ("tests/test_tracked.py::"
                  "test_outcome_table_holds_no_signalling_set_and_is_cleared_past_its_limit")
_PER_LINE = "tests/test_ledger.py::test_parse_log_matches_one_decode_per_line[%s]"
_COUNTED = ("tests/test_cstg_reference.py::test_counted_cstg_and_diff_match_the_event_path",
            "tests/test_cstg_reference.py::test_counted_split_with_blank_lines_at_the_cut")

MUTANTS = (
    # The one log reader, ledger._scan, and the counted cstg path over it.
    Mutant("head-regex-takes-leading-zeros", "ledger.py",
           ((r'\{"seq": ([1-9][0-9]{0,17})', r'\{"seq": ([0-9]{1,18})'),),
           (_PER_LINE % "leading-zero", _PER_LINE % "zero")),
    Mutant("parse-log-reuses-a-tail-holding-a-seq-key", "ledger.py",
           (("(_holds_no_seq_key(tail) or decode(", "(True or decode("),),
           (_PER_LINE % "duplicate-seq-key", _PER_LINE % "escaped-seq-key",
            _PER_LINE % "seq-1-in-tails")),
    Mutant("parse-log-drops-the-second-decode", "ledger.py",
           ((" or decode(\n            _json_object(_HEAD % 2 + tail, None, LogFormatError))"
             "[0] != seq)", ")"),),
           (_PER_LINE % "seq-in-trace-names",)),
    Mutant("failing-run-reports-its-failing-keys-line", "ledger.py",
           (("                decode(_json_object(line, n, LogFormatError), n)\n",
             "                if ''.join(key) in line:\n"
             "                    decode(_json_object(line, n, LogFormatError), n)\n"),),
           (_PER_LINE % "two-bad-keys", _PER_LINE % "many-bad-keys",
            *(f"tests/test_cstg_reference.py::test_counted_path_names_the_first_of_two_bad_keys"
              f"[{seed}]" for seed in range(8)))),
    Mutant("split-cut-one-trace-late", "stackgraph.py",
           (("cut = math.ceil(fraction * len(traces))",
             "cut = math.ceil(fraction * len(traces)) + 1"),),
           ("tests/test_stackgraph.py::TestSlice::test_ceiling_split_examples",)),
    Mutant("counted-split-groups-lines-by-key", "ledger.py",
           (("map(traces.__getitem__, keys)", "map(traces.__getitem__, counts.elements())"),),
           _COUNTED),
    # PR 26: one compute-then-decide tail in tracked._finish.
    Mutant("finish-counts-an-event-op-under-off", "tracked.py",
           (("if status == result_status == 0 and injector.mode is _OFF:",
             "if injector.mode is _OFF:"),),
           ("tests/test_tracked.py::test_clean_float64_ops_bypass_apply_and_decide",)),
    Mutant("finish-counts-a-clean-op-under-fuzz-or-replay", "tracked.py",
           (("if status == result_status == 0 and injector.mode is _OFF:",
             "if status == result_status == 0:"),),
           ("tests/test_tracked.py::test_clean_float64_ops_decide_in_their_method[fuzz]",
            "tests/test_tracked.py::test_clean_float64_ops_decide_in_their_method[replay]",
            "tests/test_operators.py::test_operator_methods_match_apply[('+', 2)-f64]")),
    Mutant("finish-keeps-the-computed-status-after-an-injection", "tracked.py",
           (("            result_status = 2 if result == result else 1\n"
             "    injected = ", "    injected = "),),
           (*_REFERENCE, "tests/test_cli.py::TestRun::test_fuzz_value_accepts_inf_spellings")),
    Mutant("comparison-shortcut-without-its-operand-test", "tracked.py",
           ((_COMPARISON, "                if is_comparison:\n"),),
           ("tests/test_tracked.py::test_comparison_kills",
            "tests/test_tracked.py::test_nan_and_inf_operands_match_the_bare_ufunc[('<', 2)]",
            "tests/test_tracked.py::test_fused_methods_match_apply[__lt__]")),
    Mutant("comparison-shortcut-taken-for-a-numeric-row", "tracked.py",
           ((_COMPARISON, "                if x - x == y - y:\n"),),
           ("tests/test_tracked.py::test_fused_methods_match_apply[__truediv__]",)),
    # The outcome table of ops over Python floats with a NaN or an Inf operand.
    Mutant("outcome-table-stores-a-signalling-set", "tracked.py",
           (("if key is not None and (x == x or bits[6] & 8) and (y == y or bits[14] & 8):",
             "if key is not None:"),),
           (_OUTCOME_LIMIT, "tests/test_tracked.py::test_only_two_quiet_nans_skip_errstate")),
    Mutant("outcome-table-never-cleared", "tracked.py",
           (("                _OUTCOMES.clear()\n", "                pass\n"),),
           (_OUTCOME_LIMIT,)),
    Mutant("outcome-table-keyed-by-the-first-operand", "tracked.py",
           (("bits = _pack_dd(x, y)", "bits = _pack_dd(x, x)"),),
           (*_REFERENCE, _OUTCOME_LIMIT)),
    # The packed tail key of ledger flush.
    Mutant("packed-key-omits-the-result", "ledger.py",
           (("_PACKS[n](*operands, result)", "_PACKS[n](*operands, 0.0)"),),
           ("tests/test_ledger.py::"
            "test_all_float_rows_apart_only_in_their_bits_are_encoded_apart",)),
    # A np.float64 and a float of one bit pattern encode to the same text, so
    # this mutant writes the same bytes; the routing test keeps numpy scalars
    # out of the packed key, whose key would otherwise lose the scalar's type.
    Mutant("packed-path-takes-a-numpy-float64", "ledger.py",
           (("type(operands[0]) is type(operands[-1]) is type(result) is float",
             "isinstance(operands[0], float) and isinstance(operands[-1], float) "
             "and isinstance(result, float)"),),
           ("tests/test_ledger.py::test_only_rows_of_exact_floats_take_the_packed_key",)),
    Mutant("finish-decides-before-the-compute", "tracked.py",
           (("    impl, is_comparison, op, exact = row\n",
             "    impl, is_comparison, op, exact = row\n"
             "    decided = (injected_value is None and not is_comparison\n"
             "               and sess.injector.mode is not _OFF)\n"
             "    if decided:\n"
             "        injected_value = sess.injector.decide(op, sess.traces.capture)\n"),
            (_NOT_DECIDED, _NOT_DECIDED.replace("is None:", "is None and not decided:"))),
           equivalent="under FUZZ and REPLAY every op but a comparison decides, whatever its "
                      "result, and the compute is pure, so deciding first numbers, draws and "
                      "injects the same ops; OFF is unchanged"),
)


def apply_edits(text: str, mutant: Mutant) -> str:
    for source, replacement in mutant.edits:
        if text.count(source) != 1:
            raise ValueError(f"{mutant.name}: source text occurs {text.count(source)} times "
                             f"in {mutant.file}: {source!r}")
        text = text.replace(source, replacement)
    return text


def _run_tests(package_parent: Path, node_ids) -> int:
    env = dict(os.environ, PYTHONPATH=str(package_parent), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=600).returncode


def _copy(tmp: Path, name: str) -> Path:
    parent = tmp / name
    shutil.copytree(PACKAGE, parent / "fpx", ignore=shutil.ignore_patterns("__pycache__"))
    return parent


def main() -> int:
    for m in MUTANTS:        # every edit applies before any test runs
        apply_edits((PACKAGE / m.file).read_text(encoding="utf-8"), m)
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        killers = sorted({k for m in MUTANTS if not m.equivalent for k in m.killers})
        if killers and _run_tests(_copy(Path(tmp), "unmutated"), killers) != 0:
            print("the unmutated package fails a killer test")
            return 1
        for i, m in enumerate(MUTANTS):
            if m.equivalent:
                print(f"equivalent  {m.name}: {m.equivalent}")
                continue
            parent = _copy(Path(tmp), f"mutant{i}")
            path = parent / "fpx" / m.file
            path.write_text(apply_edits(path.read_text(encoding="utf-8"), m), encoding="utf-8")
            code = _run_tests(parent, m.killers)
            # pytest exits 1 when a test failed; any other code means the tests did not run
            status = "killed" if code == 1 else "SURVIVED" if code == 0 else f"ERROR {code}"
            survivors += status != "killed"
            print(f"{status:<11} {m.name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
