"""CLI wiring: subcommands, exit codes, file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fpx import cli as fpx_cli, stackgraph
from fpx.cli import _parse_fuzz, build_parser, cli_main
from fpx.injector import InjectionConfig
from fpx.ledger import parse_log

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_run_max_writes_three_logs(self, tmp_path, capsys):
        out = tmp_path / "logs"
        code, stdout, _ = run_cli(capsys, "run", "max", "--out", str(out))
        assert code == 0
        assert "max1=4.0" in stdout and "max2=NaN" in stdout
        for name in ("gen.jsonl", "prop.jsonl", "kill.jsonl"):
            assert (out / name).exists()
        assert len(parse_log(out / "kill.jsonl")) == 2

    def test_unknown_demo_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "run", "nope", "--out", str(tmp_path))
        assert code == 1
        assert "unknown demo" in stderr

    def test_parser_is_built_once_per_process(self, tmp_path, capsys):
        """Every cli_main call parses with the one parser, which parsing leaves
        unchanged: a flag of one call is not a default of the next."""
        assert run_cli(capsys, "run", "max", "--no-prop", "--out", str(tmp_path / "a"))[0] == 0
        builds = build_parser.cache_info().misses
        assert run_cli(capsys, "run", "max", "--out", str(tmp_path / "b"))[0] == 0
        assert build_parser.cache_info().misses == builds == 1
        assert (tmp_path / "b" / "prop.jsonl").read_bytes() != b""

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "run", "max", "--nonsense")
        assert code == 1

    def test_no_prop_drops_prop_stream(self, tmp_path, capsys):
        out = tmp_path / "logs"
        code, _, _ = run_cli(capsys, "run", "max", "--out", str(out), "--no-prop")
        assert code == 0
        assert (out / "prop.jsonl").read_bytes() == b""
        assert len(parse_log(out / "kill.jsonl")) == 2

    def test_max_logs_caps_streams(self, tmp_path, capsys):
        out = tmp_path / "logs"
        code, _, _ = run_cli(capsys, "run", "loop", "--inject", "--out", str(out),
                             "--max-logs", "5")
        assert code == 0
        assert len(parse_log(out / "kill.jsonl")) == 5
        assert len(parse_log(out / "prop.jsonl")) == 5

    @pytest.mark.parametrize("argv, first_line", [
        ((), "completed: work_iterations=10 guard_evaluations=10"),
        (("--max-iters", "5"), "stopped: work_iterations=5 guard_evaluations=5"),
        (("--max-iters", "10"), "completed: work_iterations=10 guard_evaluations=10"),
        (("--inject", "--max-iters", "5"), "LIVELOCK: work_iterations=0 guard_evaluations=5")])
    def test_loop_state_names_how_it_ended(self, tmp_path, capsys, argv, first_line):
        """LIVELOCK only for a guard that made no progress: a healthy loop cut
        short by --max-iters is stopped."""
        code, stdout, _ = run_cli(capsys, "run", "loop", *argv, "--out", str(tmp_path))
        assert code == 0 and stdout.splitlines()[0] == first_line

    def test_record_requires_fuzz(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "run", "sim", "--out", str(tmp_path),
                                  "--record", str(tmp_path / "r.jsonl"))
        assert code == 1
        assert "--record requires --fuzz" in stderr

    def test_values_accept_nan_and_inf_spellings(self, tmp_path, capsys):
        code, stdout, _ = run_cli(capsys, "run", "max", "--out", str(tmp_path),
                                  "--values", " 1, +Inf ,nan,-INF")
        assert code == 0
        # the NaN-killing scan ends on -Inf; the propagating fold keeps the NaN
        assert "max1=-Inf max2=NaN" in stdout

    def test_fuzz_value_accepts_inf_spellings(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "run", "sim", "--out", str(tmp_path),
                             "--fuzz", "odds=1", "n=1", "value= -infinity")
        assert code == 0
        first = parse_log(tmp_path / "gen.jsonl")[0]
        assert first.injected and first.result == float("-inf")

    def test_negative_max_logs_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "run", "sim", "--blowup", "--out", str(tmp_path),
                                  "--max-logs", "-1")
        assert code == 1
        assert "max_logs" in stderr
        assert not (tmp_path / "gen.jsonl").exists()

    def test_zero_cells_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "run", "sim", "--cells", "0", "--out", str(tmp_path))
        assert code == 1
        assert "cells" in stderr

    @pytest.mark.parametrize("argv, message", [
        (("loop", "--max-iters", "0"), "max_iters must be >= 1"),
        (("loop", "--max-iters", "-3"), "max_iters must be >= 1"),
        (("sim", "--steps", "-2"), "steps must be >= 0")])
    def test_a_bound_that_can_only_misreport_is_usage_error(self, tmp_path, capsys, argv,
                                                           message):
        """A loop allowed no guard evaluation would print LIVELOCK, and a sim of
        negative steps would run none and exit 0."""
        code, stdout, stderr = run_cli(capsys, "run", *argv, "--out", str(tmp_path))
        assert (code, stdout, stderr) == (1, "", f"fpx: {message}\n")
        assert not (tmp_path / "gen.jsonl").exists()

    def test_bad_fuzz_token(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "run", "sim", "--out", str(tmp_path),
                                  "--fuzz", "odds")
        assert code == 1

    @pytest.mark.parametrize("token, message", [
        ("bogus=1", "unknown --fuzz key 'bogus'"),
        ("odds=x", "invalid literal for int()"),
        ("odds=1.5", "invalid literal for int()"),
        ("value=nonsense", "could not convert string to float"),
        ("seed=-1", "seed must be an integer >= 0"),
    ])
    def test_bad_fuzz_value(self, tmp_path, capsys, token, message):
        code, _, stderr = run_cli(capsys, "run", "sim", "--out", str(tmp_path),
                                  "--fuzz", "seed=1", token)
        assert code == 1
        assert stderr.startswith("fpx: ") and message in stderr
        assert token.partition("=")[0] in stderr

    @pytest.mark.parametrize("token", ["functions=", "libraries=a,,b", "functions=f,"])
    def test_empty_fuzz_scope_entry_is_usage_error(self, tmp_path, capsys, token):
        code, stdout, stderr = run_cli(capsys, "run", "sim", "--out", str(tmp_path),
                                       "--fuzz", "seed=1", token)
        assert code == 1
        assert stderr.startswith("fpx: ") and token.partition("=")[0] in stderr
        assert stdout == "" and not list(tmp_path.iterdir())

    def test_fuzz_tokens_set_only_the_given_fields(self):
        # repr, because the default injection value is a NaN, unequal to itself
        assert repr(_parse_fuzz(["seed=3"])) == repr(InjectionConfig(seed=3))
        assert _parse_fuzz(["odds=4", "n=2", "seed=5", "value=-inf",
                            "functions=f,g", "libraries=lib/"]) == InjectionConfig(
            odds=4, n_inject=2, functions=("f", "g"), libraries=("lib/",),
            value=float("-inf"), seed=5)


class TestFuzzReplay:
    def test_replay_reproduces_fuzzed_ledger(self, tmp_path, capsys):
        out0, out1, out2 = (tmp_path / n for n in ("orig", "rep1", "rep2"))
        rec = tmp_path / "rec.jsonl"
        code, _, _ = run_cli(capsys, "run", "sim", "--steps", "20",
                             "--out", str(out0), "--fuzz", "odds=5", "n=3", "seed=42",
                             "--record", str(rec))
        assert code == 0
        assert rec.exists()
        for out in (out1, out2):
            code, _, stderr = run_cli(capsys, "run", "sim", "--replay", str(rec),
                                      "--steps", "20", "--out", str(out))
            assert code == 0
            assert "divergence" not in stderr
        for name in ("gen.jsonl", "prop.jsonl", "kill.jsonl"):
            original = (out0 / name).read_bytes()
            assert original == (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_replay_divergence_is_reported_once(self, tmp_path, capsys):
        """The CLI's warning line is the only report of a divergence on stderr."""
        rec = tmp_path / "rec.jsonl"
        assert run_cli(capsys, "run", "sim", "--out", str(tmp_path / "orig"),
                       "--fuzz", "odds=5", "n=1", "seed=42", "--record", str(rec))[0] == 0
        header, point = rec.read_text(encoding="utf-8").splitlines()
        rec.write_text(header + "\n" + json.dumps({**json.loads(point), "trace_fp": "0" * 16})
                       + "\n", encoding="utf-8")
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "fpx.cli", "run", "sim", "--replay", str(rec),
             "--out", str(tmp_path / "rep")],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stderr.count("replay divergence at op") == 1, out.stderr
        assert out.stderr.startswith("warning: replay divergence at op")

    def test_replay_missing_recording_is_io_error(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "run", "sim", "--replay", str(tmp_path / "missing.jsonl"),
                             "--out", str(tmp_path))
        assert code == 2

    def test_replay_of_a_decreasing_op_counter_is_a_format_error(self, tmp_path, capsys):
        rec = tmp_path / "rec.jsonl"
        point = '{"op_counter": %d, "op": "+", "value_hex": "0x7ff8000000000000", ' \
                '"trace_fp": "aaaaaaaaaaaaaaaa"}\n'
        rec.write_text('{"seed": 1}\n' + point % 9 + point % 4, encoding="utf-8")
        code, stdout, stderr = run_cli(capsys, "run", "max", "--replay", str(rec),
                                       "--out", str(tmp_path / "out"))
        assert code == 2 and stdout == ""
        assert stderr == "fpx: line 3: op_counter not strictly increasing\n"

    @pytest.mark.parametrize("counter", [0, -5])
    def test_replay_of_a_point_before_op_one_is_a_format_error(self, tmp_path, capsys, counter):
        """Ops are numbered from 1, so such a point could never fire."""
        rec = tmp_path / "rec.jsonl"
        rec.write_text('{"seed": 1}\n{"op_counter": %d, "op": "+", "value_hex": '
                       '"0x7ff8000000000000", "trace_fp": "aaaaaaaaaaaaaaaa"}\n' % counter,
                       encoding="utf-8")
        code, stdout, stderr = run_cli(capsys, "run", "max", "--replay", str(rec),
                                       "--out", str(tmp_path / "out"))
        assert code == 2 and stdout == ""
        assert stderr == "fpx: line 2: op_counter must be >= 1: ops are numbered from 1\n"

    def test_replay_into_another_op_is_reported_once(self, tmp_path, capsys):
        """A recorded op name the op at that number does not have is a
        divergence; the recorded value is injected anyway."""
        rec = tmp_path / "rec.jsonl"
        assert run_cli(capsys, "run", "sim", "--out", str(tmp_path / "orig"),
                       "--fuzz", "odds=5", "n=1", "seed=42", "--record", str(rec))[0] == 0
        header, point = rec.read_text(encoding="utf-8").splitlines()
        point = json.loads(point)
        rec.write_text(header + "\n" + json.dumps({**point, "op": "atan2"}) + "\n",
                       encoding="utf-8")
        code, _, stderr = run_cli(capsys, "run", "sim", "--replay", str(rec),
                                  "--out", str(tmp_path / "rep"))
        assert code == 0
        assert stderr == (f"warning: replay divergence at op {point['op_counter']}: recorded "
                          f"op 'atan2', current {point['op']!r}; injecting anyway\n")
        for name in ("gen.jsonl", "prop.jsonl", "kill.jsonl"):
            assert (tmp_path / "orig" / name).read_bytes() == (tmp_path / "rep" / name).read_bytes()

    def test_replay_of_a_negative_seed_is_a_format_error(self, tmp_path, capsys):
        rec = tmp_path / "rec.jsonl"
        rec.write_text('{"seed": -3}\n', encoding="utf-8")
        code, stdout, stderr = run_cli(capsys, "run", "max", "--replay", str(rec),
                                       "--out", str(tmp_path / "out"))
        assert code == 2 and stdout == ""
        assert stderr.startswith("fpx: line 1: missing seed header")

    def test_replay_reports_unconsumed_points(self, tmp_path, capsys):
        rec = tmp_path / "rec.jsonl"
        rec.write_text('{"seed": 1}\n'
                       '{"op_counter": 999999, "op": "+", '
                       '"value_hex": "0x7ff8000000000000", "trace_fp": "aaaaaaaaaaaaaaaa"}\n',
                       encoding="utf-8")
        code, _, stderr = run_cli(capsys, "run", "max", "--replay", str(rec),
                                  "--out", str(tmp_path / "out"))
        assert code == 0
        assert "unconsumed" in stderr

    def test_replay_is_an_option_of_run(self, tmp_path, capsys):
        """`fpx replay` is no command, and `run --replay` takes neither --fuzz
        (the recording decides every injection) nor --record."""
        rec = tmp_path / "rec.jsonl"
        rec.write_text('{"seed": 1}\n', encoding="utf-8")
        for argv, message in [
            (["replay", str(rec), "sim"], "invalid choice: 'replay'"),
            (["run", "sim", "--replay", str(rec), "--fuzz", "seed=1"],
             "--replay takes no --fuzz"),
            (["run", "sim", "--replay", str(rec), "--fuzz", "seed=1",
              "--record", str(tmp_path / "again.jsonl")], "--replay takes no --fuzz"),
            (["run", "sim", "--replay", str(rec), "--record", str(tmp_path / "again.jsonl")],
             "--record requires --fuzz"),
        ]:
            code, stdout, stderr = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
            assert code == 1 and stdout == "", argv
            assert stderr.startswith("fpx: ") and message in stderr, (argv, stderr)
        assert sorted(tmp_path.iterdir()) == [rec]


    def test_unwritable_record_path_fails_before_the_run(self, tmp_path, capsys):
        """A --record path that cannot be written exits 2 before the demo
        runs, so no log is written and no fuzzed failure goes unrecorded; a
        run that fails before saving leaves an existing --record file as it
        was and makes no new one, and a run that saves replaces it."""
        out, fuzz = tmp_path / "out", ["--fuzz", "odds=5", "n=1", "seed=1"]
        for record, message in [(tmp_path / "nodir" / "r.jsonl", "No such file or directory"),
                                (tmp_path, "Is a directory")]:
            code, stdout, stderr = run_cli(capsys, "run", "sim", *fuzz, "--record", str(record),
                                           "--out", str(out))
            assert (code, stdout) == (2, ""), stderr
            assert stderr.startswith("fpx: ") and message in stderr
            assert stderr.count("\n") == 1
        assert not out.exists() and not (tmp_path / "nodir").exists()
        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        old.write_text("kept\n", encoding="utf-8")
        for record in (old, new):
            code, _, stderr = run_cli(capsys, "run", "nope", *fuzz, "--record", str(record),
                                      "--out", str(out))
            assert code == 1 and "unknown demo" in stderr
        assert old.read_text(encoding="utf-8") == "kept\n" and not new.exists()
        assert not out.exists()
        assert run_cli(capsys, "run", "max", *fuzz, "--record", str(old),
                       "--out", str(out))[0] == 0
        assert old.read_text(encoding="utf-8").startswith('{"seed": 1}\n')


class TestGraphCommands:
    @pytest.fixture
    def gen_log(self, tmp_path, capsys):
        out = tmp_path / "logs"
        assert run_cli(capsys, "run", "sim", "--blowup", "--out", str(out))[0] == 0
        return out / "gen.jsonl"

    def test_cstg_dot_on_stdout(self, gen_log, capsys):
        code, stdout, _ = run_cli(capsys, "cstg", str(gen_log))
        assert code == 0
        assert stdout.startswith("digraph G {")
        assert "stencil_update" in stdout

    def test_cstg_runs_a_handler_patched_after_the_parser_is_built(self, gen_log, capsys,
                                                                   monkeypatch):
        """The parser is built once per process, yet each call runs the module's
        cmd_cstg of that moment, as a tracer that wraps it expects."""
        build_parser()
        calls = []
        monkeypatch.setattr(fpx_cli, "cmd_cstg", lambda args: calls.append(args.log) or 0)
        assert run_cli(capsys, "cstg", str(gen_log)) == (0, "", "")
        assert calls == [str(gen_log)]

    def test_cstg_deterministic_file_output(self, gen_log, tmp_path, capsys):
        d1, d2 = tmp_path / "a.dot", tmp_path / "b.dot"
        assert run_cli(capsys, "cstg", str(gen_log), "--dot", str(d1))[0] == 0
        assert run_cli(capsys, "cstg", str(gen_log), "--dot", str(d2))[0] == 0
        assert d1.read_bytes() == d2.read_bytes()

    def test_cstg_json_document(self, gen_log, tmp_path, capsys):
        doc = tmp_path / "g.json"
        assert run_cli(capsys, "cstg", str(gen_log), "--json", str(doc))[0] == 0
        obj = json.loads(doc.read_text())
        assert obj["format"] == "stackgraph-v1"
        assert obj["trace_total"] == len(parse_log(gen_log))

    def test_cstg_split_emits_diff(self, gen_log, capsys):
        code, stdout, _ = run_cli(capsys, "cstg", str(gen_log), "--split", "0.1")
        assert code == 0
        assert stdout.startswith("digraph G {")

    def test_cstg_coarse(self, gen_log, capsys):
        code, stdout, _ = run_cli(capsys, "cstg", str(gen_log), "--coarse")
        assert code == 0
        assert ".py:" not in stdout.replace("heat1d.py", "")  # nodes keyed by function

    def test_diff_graph_documents(self, gen_log, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(capsys, "cstg", str(gen_log), "--json", str(a))[0] == 0
        assert run_cli(capsys, "cstg", str(gen_log), "--json", str(b))[0] == 0
        code, stdout, _ = run_cli(capsys, "diff", str(a), str(b))
        assert code == 0
        assert stdout == "digraph G { }\n"  # identical graphs: empty diff

    def test_diff_logs_directly(self, gen_log, tmp_path, capsys):
        out2 = tmp_path / "logs2"
        assert run_cli(capsys, "run", "sim", "--blowup", "--steps", "14",
                       "--out", str(out2))[0] == 0
        code, stdout, _ = run_cli(capsys, "diff", str(gen_log),
                                  str(out2 / "gen.jsonl"))
        assert code == 0
        assert "green" in stdout or stdout == "digraph G { }\n"

    def test_cstg_on_graph_document_points_to_diff(self, gen_log, tmp_path, capsys):
        doc = tmp_path / "g.json"
        assert run_cli(capsys, "cstg", str(gen_log), "--json", str(doc))[0] == 0
        code, _, stderr = run_cli(capsys, "cstg", str(doc))
        assert code == 2
        assert stderr.startswith("fpx: ") and stderr.count("\n") == 1
        assert "stack-graph document" in stderr and "fpx diff" in stderr

    def test_cstg_missing_file(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "cstg", str(tmp_path / "none.jsonl"))
        assert code == 2

    def test_cstg_malformed_log(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"seq": oops\n', encoding="utf-8")
        code, _, stderr = run_cli(capsys, "cstg", str(bad))
        assert code == 2
        assert "line 1" in stderr

    def test_cstg_plain_text_traces(self, tmp_path, capsys):
        txt = tmp_path / "traces.txt"
        txt.write_text("inner\ta.py:1\nouter\tb.py:2\n\ninner\ta.py:1\nouter\tb.py:2\n",
                       encoding="utf-8")
        code, stdout, _ = run_cli(capsys, "cstg", str(txt))
        assert code == 0
        assert 'label="2"' in stdout
        # an empty or blank file holds no traces: an empty graph and an empty diff
        empty, blank = tmp_path / "empty.txt", tmp_path / "blank.txt"
        empty.write_text("", encoding="utf-8")
        blank.write_text(" \n\n\t\n", encoding="utf-8")
        for argv in (["cstg", str(empty)], ["cstg", str(blank)],
                     ["diff", str(empty), str(blank)]):
            assert run_cli(capsys, *argv) == (0, "digraph G { }\n", ""), argv

    def test_diff_document_golden(self, tmp_path, capsys):
        """`cstg --split --json` and `diff --json` of the same two halves write
        the same stackgraph-diff-v1 bytes, and the same DOT."""
        block = {"inner": "inner\ta.py:1\nmid\tm.py:5\nouter\tb.py:2\n",
                 "leaf": "leaf\tc.py:3\nmid\tm.py:5\nouter\tb.py:2\n"}
        head, tail = [block["inner"]] * 2, [block["leaf"]] * 3
        files = {}
        for name, blocks in (("all", head + tail), ("head", head), ("tail", tail)):
            files[name] = tmp_path / f"{name}.txt"
            files[name].write_text("\n".join(blocks), encoding="utf-8")
        for argv in (["cstg", str(files["all"]), "--split", "0.4"],
                     ["diff", str(files["head"]), str(files["tail"])]):
            doc, dot = tmp_path / "d.json", tmp_path / "d.dot"
            assert run_cli(capsys, *argv, "--json", str(doc), "--dot", str(dot)) == (0, "", "")
            assert doc.read_bytes() == (
                b'{\n  "format": "stackgraph-diff-v1",\n  "key_policy": "fine",\n'
                b'  "edges": [\n'
                b'    {\n      "parent": "mid m.py:5",\n      "child": "inner a.py:1",\n'
                b'      "delta": -2\n    },\n'
                b'    {\n      "parent": "mid m.py:5",\n      "child": "leaf c.py:3",\n'
                b'      "delta": 3\n    },\n'
                b'    {\n      "parent": "outer b.py:2",\n      "child": "mid m.py:5",\n'
                b'      "delta": 1\n    }\n  ]\n}\n'), argv
            assert dot.read_bytes() == (
                b'digraph G {\n  node [shape=box];\n'
                b'  "inner a.py:1";\n  "leaf c.py:3";\n  "mid m.py:5";\n  "outer b.py:2";\n'
                b'  "mid m.py:5" -> "inner a.py:1" [label="-2", color="red", penwidth=3.00];\n'
                b'  "mid m.py:5" -> "leaf c.py:3" [label="+3", color="green", penwidth=4.00];\n'
                b'  "outer b.py:2" -> "mid m.py:5" [label="+1", color="green", penwidth=2.00];\n'
                b'}\n'), argv

    def test_diff_document_is_named_as_one(self, tmp_path, capsys):
        """A stackgraph-diff-v1 document, indented as --json writes it or on
        one line, is no input: cstg and diff exit 2 and say what it is."""
        traces = tmp_path / "traces.txt"
        traces.write_text("inner\ta.py:1\nouter\tb.py:2\n\nleaf\tc.py:3\nouter\tb.py:2\n",
                          encoding="utf-8")
        indented, one_line = tmp_path / "d.json", tmp_path / "d1.json"
        assert run_cli(capsys, "cstg", str(traces), "--split", "0.5",
                       "--json", str(indented))[0] == 0
        one_line.write_text(json.dumps(json.loads(indented.read_text(encoding="utf-8"))) + "\n",
                            encoding="utf-8")
        for doc in (indented, one_line):
            for argv in (["cstg", str(doc)], ["diff", str(doc), str(doc)],
                         ["diff", str(traces), str(doc)]):
                assert run_cli(capsys, *argv) == (
                    2, "", f"fpx: {doc} is a stack-graph diff document, which fpx writes "
                           "but does not read\n"), argv

    def test_cstg_reads_a_log_once_with_universal_newlines(self, gen_log, tmp_path, capsys,
                                                         monkeypatch):
        """cstg and diff parse the text they read to sniff the file, not the
        file again. Its lines are those of a text-mode read: a log with CRLF
        or CR line ends makes the same graph, and a U+2028 or U+0085 inside a
        frame name ends no line. The same holds for the same traces written
        as plain-text trace blocks."""
        text = gen_log.read_text(encoding="utf-8").replace("stencil_update",
                                                           "stencil\u2028\x85update")
        log, empty = tmp_path / "log.jsonl", tmp_path / "empty.txt"
        blocks = tmp_path / "traces.txt"
        log.write_text(text, encoding="utf-8")
        empty.write_text("", encoding="utf-8")
        traces = [e.trace for e in parse_log(log)]
        graph = stackgraph.build(traces, "fine")
        trace_text = "\n\n".join("\n".join(f"{f.function}\t{f.file}:{f.line}" for f in trace)
                                 for trace in traces) + "\n"
        expected = stackgraph.emit_dot(graph)
        expected_diff = stackgraph.emit_dot_diff(stackgraph.diff(stackgraph.build([]), graph))
        assert all("stencil\u2028\x85update" in dot for dot in (expected, expected_diff))

        def reread(path):
            raise AssertionError(f"{path} read twice")
        monkeypatch.setattr("fpx.cli.parse_log", reread)
        for newline in ("\n", "\r\n", "\r"):
            log.write_text(text, encoding="utf-8", newline=newline)
            assert run_cli(capsys, "cstg", str(log)) == (0, expected, ""), repr(newline)
            assert run_cli(capsys, "diff", str(empty), str(log)) == (
                0, expected_diff, ""), repr(newline)
            blocks.write_text(trace_text, encoding="utf-8", newline=newline)
            assert run_cli(capsys, "cstg", str(blocks)) == (0, expected, ""), repr(newline)

    def test_cstg_value_class_on_plain_text_traces_is_usage_error(self, tmp_path, capsys):
        txt = tmp_path / "traces.txt"
        txt.write_text("inner\ta.py:1\nouter\tb.py:2\n", encoding="utf-8")
        code, stdout, stderr = run_cli(capsys, "cstg", str(txt), "--value-class", "nan")
        assert code == 1
        assert stderr.startswith("fpx: ") and "--value-class" in stderr
        assert stdout == ""

    def test_cstg_value_class_filter(self, gen_log, tmp_path, capsys):
        full = tmp_path / "full.json"
        only_inf = tmp_path / "inf.json"
        assert run_cli(capsys, "cstg", str(gen_log), "--json", str(full))[0] == 0
        assert run_cli(capsys, "cstg", str(gen_log), "--value-class", "inf",
                       "--json", str(only_inf))[0] == 0
        full_total = json.loads(full.read_text())["trace_total"]
        inf_total = json.loads(only_inf.read_text())["trace_total"]
        assert 0 < inf_total < full_total

    def test_bad_split_fraction_is_usage_error(self, gen_log, capsys):
        code, _, _ = run_cli(capsys, "cstg", str(gen_log), "--split", "1.5")
        assert code == 1

    def test_bad_values_list_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "run", "max", "--values", "1,banana",
                             "--out", str(tmp_path))
        assert code == 1

    def test_diff_of_a_graph_with_an_unlisted_node_exits_2(self, gen_log, tmp_path, capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        assert run_cli(capsys, "cstg", str(gen_log), "--json", str(good))[0] == 0
        doc = json.loads(good.read_text(encoding="utf-8"))
        doc["nodes"] = doc["nodes"][1:]
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, stdout, stderr = run_cli(capsys, "diff", str(good), str(bad))
        assert code == 2 and stdout == ""
        assert stderr.startswith("fpx: ") and "bad stack-graph document" in stderr

    def test_diff_policy_mismatch_is_usage_error(self, gen_log, tmp_path, capsys):
        fine, coarse = tmp_path / "fine.json", tmp_path / "coarse.json"
        assert run_cli(capsys, "cstg", str(gen_log), "--json", str(fine))[0] == 0
        assert run_cli(capsys, "cstg", str(gen_log), "--coarse",
                       "--json", str(coarse))[0] == 0
        code, _, stderr = run_cli(capsys, "diff", str(fine), str(coarse))
        assert code == 1
        assert "cannot diff" in stderr


class TestRender:
    def test_blocks_match_log_layout(self, tmp_path, capsys):
        out = tmp_path / "logs"
        assert run_cli(capsys, "run", "max", "--out", str(out))[0] == 0
        code, stdout, _ = run_cli(capsys, "render", str(out / "kill.jsonl"))
        assert code == 0
        first_block = stdout.split("\n\n")[0].splitlines()
        assert first_block[0] == "<=([NaN, 5.0])"
        assert first_block[1] == "max1  demo/find_max.py:12"


LOG_LINE = ('{"seq": 1, "kind": "gen", "class": "nan", "op": "-", "arity": 2, '
            '"operands": [], "result": true, "injected": false, "trace": []}')
LONG_INT = "9" * 5000          # past the 4300 digits int() reads by default
LONG_SEQ_LINE = LOG_LINE.replace('"seq": 1', '"seq": ' + LONG_INT)
GRAPH = {"format": "stackgraph-v1", "key_policy": "fine", "trace_total": 1,
         "nodes": ["a x.py:1", "b y.py:2"],
         "edges": [{"parent": "a x.py:1", "child": "b y.py:2", "count": 1}]}


def _graph(**changes):
    """GRAPH as a saved document, with fields changed; None removes a field."""
    doc = {**GRAPH, **changes}
    return json.dumps({k: v for k, v in doc.items() if v is not None}, indent=2) + "\n"


# kind: (file content, the commands to feed it to, the bad line or None).
# FILE stands for the malformed file, OUT for an output directory.
MALFORMED = {
    "log line": (LOG_LINE + "\n" + LOG_LINE.replace('"seq": 1', '"seq": "x"') + "\n",
                 [["cstg", "FILE"], ["render", "FILE"], ["diff", "FILE", "FILE"]], 2),
    "recording line": ('{"seed": 3}\n{"op_counter": 3.7, "op": "+", "value_hex": '
                       '"0x7ff8000000000000", "trace_fp": "0000000000000000"}\n',
                       [["run", "sim", "--replay", "FILE", "--out", "OUT"]], 2),
    "log hex with an underscore": (LOG_LINE + "\n" + LOG_LINE.replace(
        '"operands": []', '"operands": [{"dec": "Inf", "hex": "0x7ff0_00000000000"}]') + "\n",
        [["render", "FILE"], ["cstg", "FILE"]], 2),
    "recording float32 value": ('{"seed": 3}\n{"op_counter": 3, "op": "+", "value_hex": '
                                '"0x7fc00001", "trace_fp": "0000000000000000"}\n',
                                [["run", "sim", "--replay", "FILE", "--out", "OUT"]], 2),
    "recording hex with a space": ('{"seed": 3}\n{"op_counter": 3, "op": "+", "value_hex": '
                                   '"0x7ff800000000000 ", "trace_fp": "0000000000000000"}\n',
                                   [["run", "sim", "--replay", "FILE", "--out", "OUT"]], 2),
    "log over-long seq": (LOG_LINE + "\n" + LONG_SEQ_LINE + "\n",
                          [["cstg", "FILE"], ["render", "FILE"], ["diff", "FILE", "FILE"]], 2),
    "log over-long seq on line 1": (LONG_SEQ_LINE + "\n", [["render", "FILE"]], 1),
    "log over-long seq on line 1, sniffed": (LONG_SEQ_LINE + "\n", [["cstg", "FILE"],
                                                                   ["diff", "FILE", "FILE"]], None),
    "graph over-long trace_total": (_graph().replace('"trace_total": 1', '"trace_total": '
                                                     + LONG_INT),
                                    [["diff", "FILE", "FILE"], ["cstg", "FILE"]], None),
    "recording over-long op_counter": ('{"seed": 3}\n{"op_counter": %s, "op": "+", "value_hex": '
                                       '"0x7ff8000000000000", "trace_fp": "0000000000000000"}\n'
                                       % LONG_INT,
                                       [["run", "sim", "--replay", "FILE", "--out", "OUT"]], 2),
    "graph missing key_policy": (_graph(key_policy=None),
                                 [["diff", "FILE", "FILE"], ["cstg", "FILE"]], None),
    "graph edge missing count": (_graph(edges=[{"parent": "a x.py:1", "child": "b y.py:2"}]),
                                 [["diff", "FILE", "FILE"], ["cstg", "FILE"]], None),
    "graph unknown key policy": (_graph(key_policy="bogus"),
                                 [["diff", "FILE", "FILE"], ["cstg", "FILE"]], None),
    "graph nodes a string": (_graph(nodes="ab"), [["diff", "FILE", "FILE"]], None),
    "graph duplicate edge": (_graph(edges=GRAPH["edges"] * 2), [["diff", "FILE", "FILE"]], None),
    "graph negative trace_total": (_graph(trace_total=-1), [["diff", "FILE", "FILE"]], None),
    "trace line": ("inner\ta.py:1\nouter\tb.py:2\n\ninner\ta.py:one\n",
                   [["cstg", "FILE"], ["diff", "FILE", "FILE"]], 4),
    "trace line number over-long": ("inner\ta.py:1\n\ninner\ta.py:" + LONG_INT + "\n",
                                    [["cstg", "FILE"], ["diff", "FILE", "FILE"]], 3),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_file_is_format_error(kind, tmp_path, capsys):
    """Every malformed input file exits 2 with a one-line message, never a
    traceback; a line-based format names the bad line."""
    content, commands, line = MALFORMED[kind]
    bad = tmp_path / "bad"
    bad.write_text(content, encoding="utf-8")
    for command in commands:
        argv = [{"FILE": str(bad), "OUT": str(tmp_path / "out")}.get(a, a) for a in command]
        code, _, stderr = run_cli(capsys, *argv)
        assert code == 2, (command, stderr)
        assert "Traceback" not in stderr
        assert stderr.startswith("fpx: ") and stderr.count("\n") == 1
        if line is not None:
            assert f"line {line}" in stderr, (command, stderr)


def test_undecodable_file_is_format_error(tmp_path, capsys):
    """Bytes that are not UTF-8 are a format error naming their line, also
    past the first run of a log that parse_log reads in runs and past the
    first chunk of a recording, with lines numbered as a text file's whatever
    their line ends."""
    lines = 700         # about 90 KB of valid lines before the bad one
    point = '{"op_counter": %d, "op": "+", "value_hex": "0x7ff8000000000000", ' \
            '"trace_fp": "aaaaaaaaaaaaaaaa"}'
    for newline in (b"\n", b"\r\n", b"\r"):
        bad, late = tmp_path / "bad.jsonl", tmp_path / "late.jsonl"
        bad.write_bytes(LOG_LINE.encode() + newline + b"\xff\xfe" + newline)
        late.write_bytes((LOG_LINE.encode() + newline) * lines + b'{"seq": 1, \xff' + newline
                         + LOG_LINE.encode() + newline)
        rec, late_rec = tmp_path / "rec.jsonl", tmp_path / "late_rec.jsonl"
        rec.write_bytes(b'{"seed": 1}' + newline + b"\xff\xfe" + newline)
        late_rec.write_bytes(newline.join(
            [b'{"seed": 1}', *((point % n).encode() for n in range(1, lines)),
             b'{"op_counter": \xff', b""]))
        logs = (["cstg", "FILE"], ["render", "FILE"], ["diff", "FILE", "FILE"])
        replay = (["run", "sim", "--replay", "FILE", "--out", str(tmp_path / "out")],)
        for path, line, commands in ((bad, 2, logs), (late, lines + 1, logs),
                                     (rec, 2, replay), (late_rec, lines + 1, replay)):
            for command in commands:
                command = [str(path) if a == "FILE" else a for a in command]
                code, stdout, stderr = run_cli(capsys, *command)
                assert code == 2 and stdout == "", (command, stderr)
                assert "utf-8" in stderr
                assert f"line {line}: " in stderr, (newline, command, stderr)


def test_a_later_undecodable_line_outranks_an_earlier_error(tmp_path, capsys):
    """Every reader streams its file, yet a line that is not UTF-8 past the
    first run is the error, as for a file read whole, ahead of an error met
    first: a malformed log line in the first run, which render, cstg and diff
    meet, a --split fraction out of range, or a recording's bad header, bad
    JSON line or bad injection point."""
    log = tmp_path / "log.jsonl"
    log.write_bytes((LOG_LINE.encode() + b"\n") * 3 + b"not json\n"
                    + (LOG_LINE.encode() + b"\n") * 700 + b'{"seq": 1, \xff\n')
    for argv in (["render", str(log)], ["cstg", str(log)], ["cstg", str(log), "--split", "1.5"],
                 ["diff", str(log), str(log)]):
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 2 and stdout == "", argv
        assert stderr.startswith("fpx: line 705: not UTF-8 text: "), argv
    point = ('{"op_counter": %d, "op": "+", "value_hex": "0x7ff8000000000000", '
             '"trace_fp": "aaaaaaaaaaaaaaaa"}\n')
    points = "".join(point % n for n in range(3, 400)).encode() + b'{"op_counter": \xff\n'
    rec = tmp_path / "rec.jsonl"
    for head in ('{"seed": -1}\n' + point % 2, '{"seed": 1}\nnot json\n',
                 '{"seed": 1}\n' + point.replace("value_hex", "value") % 2,
                 '{"seed": 1}\n' + point.replace('"+"', "7") % 2):
        rec.write_bytes(head.encode() + points)
        code, stdout, stderr = run_cli(capsys, "run", "sim", "--replay", str(rec),
                                       "--out", str(tmp_path / "out"))
        assert code == 2 and stdout == "", head
        assert stderr.startswith("fpx: line 400: not UTF-8 text: "), (head, stderr)
    assert not (tmp_path / "out").exists()


def test_broken_graph_document_is_reported_as_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(_graph(key_policy="bogus"), encoding="utf-8")
    code, _, stderr = run_cli(capsys, "diff", str(bad), str(bad))
    assert code == 2
    assert "unknown key policy: 'bogus'" in stderr
