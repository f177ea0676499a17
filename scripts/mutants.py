"""A mutation gate for fpx's fast paths: each mutant must be killed by each of its tests.

A mutant is one or more exact edits to one file of src/fpx, each source text
occurring there exactly once, and the test node ids that should kill it. For
each mutant the script copies src/fpx to a temporary directory, applies the
edits and runs every one of those tests, none stopping the run, with
PYTHONPATH pointing at the copy and a fixed hash seed, so a test whose
outcome follows set order gives one verdict; it reads each test's outcome
from a JUnit report. A mutant is killed when each of its tests fails; one
whose tests all pass survived, and one that only some of them fail is
partial, and the tests that passed against it are named. Before any mutant
it runs every killer on an unmutated copy, which must pass. An equivalent
mutant provably changes no output; it is listed with the reason and not
run.

Run it from the root of an fpx checkout:

    python3 scripts/mutants.py

Exit 0 when every mutant run is killed by each of its tests, 1 when one
survives or is partial, its tests fail to run, or the unmutated copy fails a
killer. The whole table, 53 mutants run, took 155 s on a shared 2-core
x86-64 VM.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fpx"


class Mutant(NamedTuple):
    name: str
    file: str               # relative to src/fpx
    edits: tuple            # (source text, replacement) pairs
    killers: tuple = ()     # pytest node ids, relative to the checkout
    equivalent: str = ""    # why the mutant changes no output; then it is not run


_NOT_DECIDED = "    if injected_value is None:\n        injector = sess.injector\n"
_FINISH_OFF = "injector = sess.injector\n        if injector.mode is _OFF:"
_ACCEPT = "offered() < self._cap"
_DROP = "            key = kind, value_class\n"
_COMPARISON = "                if is_comparison and x - x == y - y:\n"
_FUSED_COUNT = "(row, (x, y), key)\n                injector.count_op()\n"
_FUSED_FINISH = ("tests/test_tracked.py::"
                 "test_an_off_nan_or_inf_sum_difference_or_product_finishes_in_its_method")
_REFERENCE = ("tests/test_reference.py::test_programs_match_the_reference",
              "tests/test_reference.py::test_capped_and_filtered_runs_keep_the_reference_prefix")
_OUTCOME_LIMIT = ("tests/test_tracked.py::"
                  "test_outcome_table_holds_every_exceptional_set_and_is_cleared_past_its_limit")
_PIN = "tests/test_tracked.py::test_the_pin_matches_the_former_transfer_payload%s"
_NARROW_PIN = "            return fpbits.transfer_payload(raw_result, x)\n"
_PER_LINE = "tests/test_ledger.py::test_parse_log_matches_one_decode_per_line[%s]"
_WRITE = "                writes[row[0]](encode(seq, *row))\n"
_CAST_GENS = "    for source, cast in born:\n"
_GRAPHS = "tests/test_cli.py::TestGraphCommands::%s"
_RUNS = "tests/test_cstg_reference.py::%s"
_HIT = "frames.append(sites[frame.f_lasti])"
_NATIVE = "tests/test_traces.py::TestNativeCallSiteTable::%s"
_ROW_READS = "tests/test_ledger.py::TestFlush::test_reading_the_rows_copies_no_row_list"
_REFUSES = "tests/test_operators.py::test_numpy_entry_refuses_what_it_does_not_map"
_UNWRAP = "        if type(x) is np.ndarray and x.shape == ():\n            x = x[()]\n"

MUTANTS = (
    # The one log reader, ledger._scan, and the counted cstg path over it.
    Mutant("head-regex-takes-leading-zeros", "ledger.py",
           ((r'\{"seq": ([1-9][0-9]{0,17})', r'\{"seq": ([0-9]{1,18})'),),
           (_PER_LINE % "leading-zero",)),
    Mutant("tail-always-takes-the-heads-seq", "ledger.py",
           (('own = line or "seq" in obj', "own = line"),),
           (_PER_LINE % "duplicate-seq-key", _PER_LINE % "escaped-seq-key",
            _PER_LINE % "seq-1-in-tails")),
    Mutant("tail-reads-a-null-seq-as-absent", "ledger.py",
           (('"seq" in obj', 'obj.get("seq") is not None'),),
           (_PER_LINE % "seq-null-in-tails",
            "tests/test_cstg_reference.py::test_counted_cstg_and_diff_match_the_event_path[31]")),
    # Decoded in set order, the first key of a run that fails is not always
    # on the run's first bad line, yet that key's first line is reported.
    Mutant("failing-run-reports-its-failing-keys-line", "ledger.py",
           (("for key in dict.fromkeys(keys):", "for key in set(keys):"),),
           ("tests/test_ledger.py::test_a_runs_new_keys_decode_in_first_occurrence_order",
            _PER_LINE % "many-bad-keys",
            "tests/test_cstg_reference.py::test_counted_path_names_the_first_of_two_bad_keys")),
    # Log I/O in runs: flush writes each line to its kind's file, and cstg and
    # diff stream a file whose first run shows it is a log, that run first.
    Mutant("flush-writes-a-kill-row-to-the-prop-file", "ledger.py",
           ((_WRITE, _WRITE.replace("writes[row[0]]", "writes[EventKind.PROP if row[0] is "
                                                       "EventKind.KILL else row[0]]")),),
           (_REFERENCE[0], "tests/test_ledger.py::test_flush_bytes_golden",
            "tests/test_ledger.py::TestFlush::test_counts_per_file")),
    Mutant("first-run-of-one-value-streams-as-a-log", "cli.py",
           (("            log = False\n", "            log = True\n"),),
           (_GRAPHS % "test_diff_graph_documents", _GRAPHS % "test_diff_document_is_named_as_one",
            _GRAPHS % "test_cstg_on_graph_document_points_to_diff",
            _RUNS % "test_other_files_past_one_run_take_the_whole_text_path")),
    Mutant("stream-skips-the-first-run", "cli.py",
           (("_line_traces(chain((first,), runs)", "_line_traces(runs"),),
           (_GRAPHS % "test_cstg_dot_on_stdout",
            _RUNS % "test_counted_cstg_and_diff_match_the_event_path",
            _RUNS % "test_logs_past_one_run_match_the_event_path")),
    # ledger._utf8 decides which error a reader raises: when its block fails,
    # the rest of the file is read, so a later line that is not UTF-8 wins.
    Mutant("stream-error-skips-the-rest-of-the-log", "ledger.py",
           (("deque(_runs(fh), 0)", "pass"),),
           ("tests/test_cli.py::test_a_later_undecodable_line_outranks_an_earlier_error",)),
    # A failing run names its bad line, taken from the run as a text file's lines.
    Mutant("scan-error-reads-the-next-line", "ledger.py",
           (("islice(io.StringIO(run), n, None)", "islice(io.StringIO(run), n + 1, None)"),),
           ("tests/test_cstg_reference.py::test_a_malformed_line_past_the_first_run_is_named",)),
    # Plain-text traces: only "\n" ends a line, as in a log.
    Mutant("trace-text-splits-on-every-line-end", "stackgraph.py",
           (('text.split("\\n")', "text.splitlines()"),),
           ("tests/test_stackgraph.py::TestPortableFormats::"
            "test_text_trace_only_newline_ends_a_line",
            _GRAPHS % "test_cstg_reads_a_log_once_with_universal_newlines")),
    Mutant("split-cut-one-trace-late", "stackgraph.py",
           (("cut = math.ceil(fraction * len(traces))",
             "cut = math.ceil(fraction * len(traces)) + 1"),),
           ("tests/test_stackgraph.py::TestSlice::test_ceiling_split_examples",)),
    Mutant("counted-split-groups-lines-by-key", "ledger.py",
           (("map(traces.__getitem__, keys)", "map(traces.__getitem__, counts.elements())"),),
           (_RUNS % "test_counted_cstg_and_diff_match_the_event_path",
            _RUNS % "test_logs_past_one_run_match_the_event_path[repeated]")),
    # One compute-then-decide tail in tracked._finish: under OFF every op only counts.
    Mutant("finish-decides-an-event-op-under-off", "tracked.py",
           ((_FINISH_OFF, _FINISH_OFF.replace("if ", "if status == result_status == 0 and ")),),
           ("tests/test_tracked.py::test_clean_float64_ops_bypass_apply_and_decide",)),
    Mutant("finish-counts-a-clean-op-under-fuzz-or-replay", "tracked.py",
           ((_FINISH_OFF, _FINISH_OFF.replace(":", " or status == result_status == 0:")),),
           ("tests/test_tracked.py::test_clean_float64_ops_decide_in_their_method[fuzz]",
            "tests/test_tracked.py::test_clean_float64_ops_decide_in_their_method[replay]",
            "tests/test_operators.py::test_operator_methods_match_apply[('+', 2)-f64]")),
    Mutant("finish-keeps-the-computed-status-after-an-injection", "tracked.py",
           (("        result_status = 2 if result == result else 1\n"
             "    events = ", "    events = "),),
           (*_REFERENCE, "tests/test_cli.py::TestRun::test_fuzz_value_accepts_inf_spellings")),
    # The fused finish of a + - * with a NaN or an Inf operand: OFF only,
    # counted, and logged with the table's events.
    Mutant("fused-hit-taken-under-fuzz-or-replay", "tracked.py",
           (("if injector.mode is _OFF and x - x != y - y:", "if x - x != y - y:"),),
           ("tests/test_tracked.py::test_fused_methods_match_apply[__add__]",
            "tests/test_tracked.py::test_clean_float64_ops_decide_in_their_method[fuzz]",
            "tests/test_tracked.py::test_clean_float64_ops_decide_in_their_method[replay]")),
    Mutant("fused-hit-skips-count-op", "tracked.py",
           ((_FUSED_COUNT, _FUSED_COUNT.replace("injector.count_op()", "pass")),),
           (_FUSED_FINISH, "tests/test_tracked.py::test_fused_methods_match_apply[__mul__]",
            "tests/test_tracked.py::test_clean_float64_ops_bypass_apply_and_decide")),
    Mutant("fused-hit-logs-the-wrong-events-row", "tracked.py",
           (("_EVENTS[status][result_status], result)", "_EVENTS[status][1], result)"),),
           ("tests/test_tracked.py::test_fused_methods_match_apply[__sub__]",
            "tests/test_tracked.py::test_nan_and_inf_operands_match_the_bare_ufunc[('+', 2)]")),
    Mutant("comparison-shortcut-without-its-operand-test", "tracked.py",
           ((_COMPARISON, "                if is_comparison:\n"),),
           ("tests/test_tracked.py::test_comparison_kills",
            "tests/test_tracked.py::test_nan_and_inf_operands_match_the_bare_ufunc[('<', 2)]",
            "tests/test_tracked.py::test_fused_methods_match_apply[__lt__]")),
    Mutant("comparison-shortcut-taken-for-a-numeric-row", "tracked.py",
           ((_COMPARISON, "                if x - x == y - y:\n"),),
           ("tests/test_tracked.py::test_fused_methods_match_apply[__truediv__]",)),
    # The one path of an op over Python floats: a comparison is never
    # numbered, an operand's cast gens come before the op's own events, and
    # only Python floats take the fused block.
    Mutant("finish-counts-a-comparison", "tracked.py",
           (("    if is_comparison:\n        return _logged(",
             "    if is_comparison:\n        sess.injector.count_op()\n        return _logged("),),
           (_REFERENCE[0], _REFERENCE[1],
            "tests/test_tracked.py::test_truth_of_exceptional_value_is_a_kill",
            "tests/test_tracked.py::test_fused_methods_match_apply[__lt__]")),
    Mutant("clean-block-counts-a-comparison", "tracked.py",
           tuple((f"                    return exact({xs})\n",
                  f"                    current_session().injector.count_op()\n"
                  f"                    return exact({xs})\n") for xs in ("x", "x, y")),
           (_REFERENCE[0],
            "tests/test_tracked.py::test_clean_comparisons_call_neither_apply_nor_decide",
            "tests/test_tracked.py::test_clean_float64_ops_bypass_apply_and_decide")),
    Mutant("cast-gens-logged-after-the-ops-events", "tracked.py",
           (("def _cast(cls, values):", "def _cast(cls, values, late=None):"),
            (_CAST_GENS, "    if late is not None:\n        late.extend(born)\n"
                         "        born = ()\n" + _CAST_GENS),
            ("    return _finish(current_session(), cls, row, _cast(cls, values))\n",
             "    late = []\n"
             "    result = _finish(current_session(), cls, row, _cast(cls, values, late))\n"
             "    for source, cast in late:\n"
             "        sess = current_session()\n"
             "        sess.ledger.record(EventKind.GEN, ValueClass.INF, _CAST, (source,), cast,\n"
             "                           False, sess.traces.capture)\n"
             "    return result\n")),
           (_REFERENCE[0], "tests/test_tracked.py::test_fast_path_boundary_events[16]",
            "tests/test_cast.py::test_overflowing_plain_operand_is_a_cast_gen_before_the_op")),
    Mutant("fused-path-takes-a-python-int", "tracked.py",
           (("            if type(y) is float:\n", "            if type(y) in (float, int):\n"),),
           (_REFERENCE[0], "tests/test_tracked.py::test_fused_methods_match_apply[__lt__]",
            "tests/test_operators.py::test_operator_methods_match_apply[('<', 2)-f64]")),
    # The outcome table of ops over Python floats with a NaN or an Inf operand.
    Mutant("outcome-table-skips-a-signalling-set", "tracked.py",
           (("    if key is not None:\n",
             "    if key is not None and (x == x or key[1][6] & 8)"
             " and (y == y or key[1][14] & 8):\n"),),
           (_OUTCOME_LIMIT,
            "tests/test_tracked.py::test_remembered_two_quiet_nan_results_are_the_bare_ufunc_bits",
            "tests/test_tracked.py::test_outcome_table_hit_calls_neither_the_ufunc_nor_the_pin")),
    Mutant("outcome-table-never-cleared", "tracked.py",
           (("            _OUTCOMES.clear()\n", "            pass\n"),),
           (_OUTCOME_LIMIT,)),
    Mutant("outcome-table-keyed-by-the-first-operand", "tracked.py",   # both lookups
           (("                key = impl, _pack_dd(x, y)\n",
             "                key = impl, _pack_dd(x, x)\n"),
            ("key = impl, _pack_dd(x, y)      #", "key = impl, _pack_dd(x, x)      #")),
           (_REFERENCE[0], _OUTCOME_LIMIT)),
    # The one NaN payload pin, classify.propagate_payload, and fpbits.transfer_payload.
    Mutant("pin-skipped-at-width-32", "classify.py",
           ((_NARROW_PIN, "            if fpbits.width_of(raw_result) == 32:\n"
                          "                return raw_result\n" + _NARROW_PIN),),
           (_PIN % "[32]", "tests/test_tracked.py::"
            "test_nan_result_takes_the_leftmost_nan_operand_payload[float32]")),
    Mutant("pin-skipped-at-width-16", "classify.py",
           ((_NARROW_PIN, "            if fpbits.width_of(raw_result) == 16:\n"
                          "                return raw_result\n" + _NARROW_PIN),),
           (_PIN % "[16]", "tests/test_tracked.py::"
            "test_nan_result_takes_the_leftmost_nan_operand_payload[float16]")),
    # The ufuncs' own NaN results already hold the leftmost NaN operand's
    # payload at float64 on x86-64, so no op's output changes; the tests that
    # call the pin or fake a payload-less substrate see it.
    Mutant("pin-skipped-at-width-64", "classify.py",
           (("                bits, source = _unpack_qq(",
             "                return float(raw_result)\n"
             "                bits, source = _unpack_qq("),),
           (_PIN % "[64]", "tests/test_classify.py::TestPropagatePayload::test_leftmost_nan_wins",
            "tests/test_tracked.py::"
            "test_nan_result_takes_the_leftmost_nan_operand_payload[float64-two-nans]")),
    Mutant("float64-pin-mask-misses-bit-50", "classify.py",
           (("_PAYLOAD64 = fpbits.PAYLOAD_MASK[64]", "_PAYLOAD64 = fpbits.PAYLOAD_MASK[64] >> 1"),),
           (_PIN % "[64]",)),
    Mutant("transfer-payload-mask-misses-its-top-bit", "fpbits.py",
           (("    mask = PAYLOAD_MASK[w]\n", "    mask = PAYLOAD_MASK[w] >> 1\n"),),
           (_PIN % "[32]", _PIN % "[16]")),
    # The native capture keys a frame's site by its code object and f_lasti;
    # a hit is two subscripts, and a KeyError sends the frame to _site.
    Mutant("native-capture-ignores-f-lasti", "traces.py",
           ((_HIT, _HIT.replace("frame.f_lasti", "0")),
            ("site = sites.get(frame.f_lasti)", "site = sites.get(0)"),
            ("self._store(sites, frame.f_lasti, Frame(", "self._store(sites, 0, Frame(")),
           ("tests/test_traces.py::test_scoped_native_fuzz_matches_a_reference_walk",)),
    Mutant("native-hit-reads-the-codes-first-site", "traces.py",
           ((_HIT, _HIT.replace("[frame.f_lasti]", "[next(iter(sites), frame.f_lasti)]")),),
           ("tests/test_traces.py::test_scoped_native_fuzz_matches_a_reference_walk",
            _NATIVE % "test_recursion_from_one_call_site")),
    Mutant("native-miss-returns-an-unstored-frame", "traces.py",
           (("site = self._store(sites, frame.f_lasti, Frame(\n"
             "                code.co_name, code.co_filename, frame.f_lineno))",
             "site = Frame(code.co_name, code.co_filename, frame.f_lineno)"),),
           (_NATIVE % "test_a_hit_returns_the_stored_frames",)),
    Mutant("native-skip-verdict-inverted", "traces.py",
           (("None if code.co_filename.startswith(SKIP_PREFIX) else {}",
             "{} if code.co_filename.startswith(SKIP_PREFIX) else None"),),
           (_NATIVE % "test_nested_calls",
            "tests/test_traces.py::TestSkipPrefix::test_only_files_inside_the_package_are_skipped")),
    # Ledger.record: a ticket per kept kind below the cap stores, any other
    # event is counted by (kind, class) and captures no trace.
    Mutant("record-cap-off-by-one", "ledger.py",
           ((_ACCEPT, "offered() <= self._cap"),),
           ("tests/test_ledger.py::TestRecord::test_rejects_at_bound",
            "tests/test_ledger.py::TestDropped::test_capped_chain_counts_each_drop", _REFERENCE[1])),
    Mutant("record-counts-drops-under-the-nan-class", "ledger.py",
           ((_DROP, _DROP.replace("value_class", "ValueClass.NAN")),),
           ("tests/test_ledger.py::TestDropped::test_capped_chain_counts_each_drop",
            _REFERENCE[1])),
    Mutant("record-drop-takes-a-seq", "ledger.py",
           ((_DROP, _DROP + "            self._rows.append(None)\n"),
            ("if kind is None or row[0] is kind]",
             "if row is not None and (kind is None or row[0] is kind)]"),
            ("row[0] for row in self._stored())", "row[0] for row in self._stored() if row)"),
            (_WRITE, "                if row is not None:\n    " + _WRITE)),
           ("tests/test_ledger.py::TestRecord::test_seq_strictly_increases_across_kinds",
            _REFERENCE[1])),
    Mutant("record-leaves-unlogged-kinds-uncounted", "ledger.py",
           (("        with self._lock:\n" + _DROP,
             "        if offered is None:\n            return False\n"
             "        with self._lock:\n" + _DROP),),
           ("tests/test_ledger.py::TestDropped::test_excluded_kind_is_counted", _REFERENCE[1])),
    Mutant("record-leaves-gen-uncapped", "ledger.py",
           ((_ACCEPT, f"({_ACCEPT} or kind is EventKind.GEN)"),),
           ("tests/test_ledger.py::TestRecord::test_bound_is_per_kind", _REFERENCE[1])),
    Mutant("record-captures-before-the-ticket", "ledger.py",
           (("        offered = self._offered.get(kind)\n",
             "        trace = capture()\n        offered = self._offered.get(kind)\n"),
            ("injected,\n                               capture()))",
             "injected,\n                               trace))")),
           ("tests/test_ledger.py::TestDropped::test_dropped_event_never_captures_a_trace",
            "tests/test_ledger.py::TestRecord::test_lazy_capture_thunk")),
    # Ledger._stored: readers walk the first len() rows in place.
    Mutant("stored-stops-a-row-short", "ledger.py",
           (("islice(self._rows, len(self._rows))", "islice(self._rows, len(self._rows) - 1)"),),
           ("tests/test_ledger.py::TestFlush::test_counts_per_file", _ROW_READS)),
    Mutant("stored-copies-the-row-list", "ledger.py",
           (("islice(self._rows, len(self._rows))", "self._rows[:]"),),
           (_ROW_READS,)),
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
    # numpy's entry, TrackedFloat.__array_ufunc__: a row's ufunc called with no
    # keyword runs the row's operator method, the reflected one for a tracked
    # right operand, and a numpy scalar left of a comparison comes as a 0-d array.
    Mutant("ufunc-entry-accepts-keywords", "tracked.py",
           ((' or method != "__call__" or kwargs:', ' or method != "__call__":'),),
           (_REFUSES,)),
    Mutant("ufunc-entry-runs-the-forward-method-for-a-tracked-right-operand", "tracked.py",
           (("return methods[1](inputs[1], ", "return methods[0](inputs[1], "),),
           ("tests/test_operators.py::test_numpy_ufuncs_match_apply[('-', 2)-f64]",
            "tests/test_operators.py::test_numpy_ufuncs_match_apply[('<', 2)-f32]")),
    Mutant("ufunc-entry-unwraps-a-one-element-array", "tracked.py",
           ((_UNWRAP, _UNWRAP.replace("x.shape == ()", "x.size == 1")
                            .replace("x[()]", "x.reshape(())[()]")),),
           (_REFUSES,)),
    # Injector.count_op is an itertools.count's next(), atomic in CPython. A
    # plain read-modify-write counter passed every test: its threads seldom
    # switch inside it, so the sleep(0) widens its window until they do.
    Mutant("count-op-reads-then-writes", "injector.py",
           (("        self.count_op = self._ops.__next__     # numbers one operation\n",
             "        def count_op():\n"
             "            n = int(repr(self._ops)[len('count('):-1])\n"
             "            __import__('time').sleep(0)\n"
             "            self._ops = itertools.count(n + 1)\n"
             "            return n\n"
             "        self.count_op = count_op\n"),),
           ("tests/test_tracked.py::test_threads_sharing_an_off_session_count_every_op",)),
    # The other lock-free structures, each made a read, a yield and a write,
    # for the reason above: the ledger's per-kind ticket, the outcome table's
    # store, the native table's entry count and the REPLAY pop.
    Mutant("ledger-ticket-reads-then-writes", "ledger.py",
           (("        self._offered = {kind: itertools.count().__next__ "
             "for kind in cfg.log_kinds}\n",
             "        def ticket():\n"
             "            n = [0]\n"
             "            def offered():\n"
             "                k = n[0]\n"
             "                __import__('time').sleep(0)\n"
             "                n[0] = k + 1\n"
             "                return k\n"
             "            return offered\n"
             "        self._offered = {kind: ticket() for kind in cfg.log_kinds}\n"),),
           ("tests/test_ledger.py::TestRecord::"
            "test_capped_concurrent_records_store_exactly_the_cap",)),
    Mutant("outcome-store-publishes-then-fills", "tracked.py",
           (("        _OUTCOMES[key] = result, status, result_status\n",
             "        _OUTCOMES[key] = outcome = [None, status, result_status]\n"
             "        __import__('time').sleep(0)\n"
             "        outcome[0] = result\n"),),
           ("tests/test_tracked.py::test_threads_sharing_the_outcome_table_get_the_bare_bits",)),
    Mutant("native-entry-count-reads-then-writes", "traces.py",
           (("        with self._lock:\n            if self._entries",
             "        if True:\n            if self._entries"),
            ("            self._entries += 1\n",
             "            entries = self._entries\n"
             "            __import__('time').sleep(0)\n"
             "            self._entries = entries + 1\n")),
           (_NATIVE % "test_threads_missing_at_once_lose_no_count",
            _NATIVE % "test_stores_yielding_the_gil_interleave_clears_with_walks")),
    Mutant("replay-pop-reads-then-deletes", "injector.py",
           (("            point = self._pending.pop(self.count_op(), None)\n",
             "            n = self.count_op()\n"
             "            point = self._pending.get(n)\n"
             "            __import__('time').sleep(0)\n"
             "            if point is not None:\n"
             "                del self._pending[n]\n"),),
           equivalent="count_op gives each op its own number, so only the thread holding n "
                      "reads and deletes key n, and a dict's get and del are each atomic: "
                      "every point is returned to one op and removed, as by pop"),
    Mutant("finish-decides-before-the-compute", "tracked.py",
           (("    impl, is_comparison, op, _ = row\n",
             "    impl, is_comparison, op, _ = row\n"
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


def _junit_id(node_id: str):
    """The (classname, name) a JUnit report gives the test of a pytest node id."""
    path, *names = node_id.split("::")
    return ".".join([path.removesuffix(".py").replace("/", "."), *names[:-1]]), names[-1]


def _run_tests(package_parent: Path, node_ids):
    """Runs every test of node_ids against the fpx in package_parent: pytest's
    exit code, and the node ids that failed, read from a JUnit report. A node
    id without a parameter stands for every parameter of its test, and fails
    when one of them does."""
    report = package_parent / "report.xml"
    env = dict(os.environ, PYTHONPATH=str(package_parent), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    code = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--junitxml={report}", *node_ids],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=600).returncode
    failed = set()
    for case in ElementTree.parse(report).iter("testcase") if report.exists() else ():
        if case.find("failure") is not None or case.find("error") is not None:
            cls, name = case.get("classname"), case.get("name")
            failed |= {(cls, name), (cls, name.split("[")[0])}
    return code, {k for k in node_ids if _junit_id(k) in failed}


def _copy(tmp: Path, name: str) -> Path:
    parent = tmp / name
    shutil.copytree(PACKAGE, parent / "fpx", ignore=shutil.ignore_patterns("__pycache__"))
    return parent


def main() -> int:
    for m in MUTANTS:        # every edit applies before any test runs
        apply_edits((PACKAGE / m.file).read_text(encoding="utf-8"), m)
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        killers = sorted({k for m in MUTANTS if not m.equivalent for k in m.killers})
        if killers:
            code, failed = _run_tests(_copy(Path(tmp), "unmutated"), killers)
            if code != 0:
                print("the unmutated package fails a killer test:", *sorted(failed),
                      sep="\n    ")
                return 1
        for i, m in enumerate(MUTANTS):
            if m.equivalent:
                print(f"equivalent  {m.name}: {m.equivalent}")
                continue
            parent = _copy(Path(tmp), f"mutant{i}")
            path = parent / "fpx" / m.file
            path.write_text(apply_edits(path.read_text(encoding="utf-8"), m), encoding="utf-8")
            code, failed = _run_tests(parent, m.killers)
            # pytest exits 1 when a test failed, 0 when none did; any other
            # code means the tests did not run (a missing node id is 4)
            status = (f"ERROR {code}" if code not in (0, 1) else
                      "killed" if len(failed) == len(m.killers) else
                      "SURVIVED" if not failed else "PARTIAL")
            failures += status != "killed"
            print(f"{status:<11} {m.name}")
            if status == "PARTIAL":
                for k in m.killers:
                    if k not in failed:
                        print(f"            passed against it: {k}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
