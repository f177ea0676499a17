"""`fpx cstg` and `fpx diff` count a log's lines by tail; over a seeded family
of logs they give the bytes and exit codes of the event path: the traces of
one JSON parse and record decode per line, filtered by class, through
`slice_traces` and `stackgraph.build`. They stream a log in runs; over logs
and other files longer than one run they give the bytes of each file read
whole."""

import json
import math
import random
import tracemalloc

import pytest

from fpx import ledger, stackgraph
from fpx.classify import EventKind, OpIdentity, ValueClass
from fpx.cli import cli_main
from fpx.ledger import ExceptionEvent, FormatError, LogFormatError, event_to_line
from fpx.traces import Frame

NAN, INF = float("nan"), float("inf")
FRAMES = (Frame("kernel", "lib/k.py", 10), Frame("step", "lib/s.py", 5),
          Frame("run", "main.py", 3), Frame("café", "lib/k.py", 12), Frame("seq", "seq.py", 4))
OPERANDS = ((NAN, 1.0), (INF, 2.0), (1.0, -INF), (NAN, NAN), (0.5, INF))
OPS = (OpIdentity("+", 2), OpIdentity("-", 2), OpIdentity("-", 1))
SPLITS = ("0.1", "0.5", "0.75", "0.999")

# Valid heads that are not canonical: the line is decoded whole
VALID_HEADS = ('{"seq":%d', '{"seq": 1234567890123456789', ' {"seq": %d', '{ "seq": %d',
               '{"seq": %d ')
# Tail ends that put a seq key after the head's, or could spell one
SEQ_TAILS = (', "seq": 9', ', "s\\u0065q": 9', ', "note": "\\u00e9"')
# Malformed lines, one a tail with its own null seq; %s is an event line's tail
MALFORMED = ('{"seq": 1, "kind": \n', '{"seq": 07%s', "not json\n", "[1, 2]\n",
             '{"seq": 1, "seq": "x"}\n',
             '{"seq": 1, "kind": "gen", "class": "nan", "op": "+", "arity": 2, "operands": [], '
             '"result": true, "injected": 5, "trace": []}\n', '{"seq": 3, "seq": null%s')


def _line(rng, seq, distinct):
    kind = rng.choice(list(EventKind))
    value_class = rng.choice(list(ValueClass))
    operands = (float(seq) + 0.5, NAN) if distinct else rng.choice(OPERANDS)
    op = rng.choice(OPS)
    trace = tuple(rng.sample(FRAMES, rng.randint(0, 3)))
    return event_to_line(ExceptionEvent(seq, kind, value_class, op, operands[:op.arity],
                                        NAN if value_class is ValueClass.NAN else INF,
                                        rng.random() < 0.2, trace))


def _log(seed) -> str:
    """Seeded log text: repeated or all-distinct tails, with blank lines, odd
    heads, tails holding a seq key or an escape, odd line ends, and at times a
    malformed line."""
    rng = random.Random(seed)
    distinct = seed % 4 == 0
    n = rng.randint(1, 40)
    lines = [_line(rng, seq, distinct) for seq in range(1, n + 1)]
    if not distinct:
        lines *= rng.randint(1, 3)          # whole repeats under new seqs
        lines = [line.replace(line[:line.index(",")], '{"seq": %d' % i, 1)
                 for i, line in enumerate(lines, 1)]
    for i, line in enumerate(lines):
        r = rng.random()
        if r < 0.08:
            head = rng.choice(VALID_HEADS)
            lines[i] = (head % (i + 1) if "%" in head else head) + line[line.index(","):]
        elif r < 0.16:
            lines[i] = line[:-2] + rng.choice(SEQ_TAILS) + "}\n"
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(("\n", "  \n", "\t\n", " \n")))
    if seed % 5 == 1:        # after the first event line, so the file still reads as a log
        bad = MALFORMED[seed // 5 % len(MALFORMED)]
        first = next(i for i, line in enumerate(lines) if line.strip())
        tail = lines[first][lines[first].index(","):]
        lines.insert(rng.randint(first + 1, len(lines)), bad % tail if "%s" in bad else bad)
    text = "".join(lines)
    if rng.random() < 0.15:
        text = text[:-1]                     # no final line end
    return text


def _cut_blank(n, fraction) -> str:
    """n repeated event lines with a blank line just after the split's cut."""
    rng = random.Random(n)
    lines = [_line(rng, seq, False) for seq in range(1, n + 1)]
    cut = math.ceil(fraction * n)
    return "".join(lines[:cut] + ["\n", "  \n"] + lines[cut:])


def _events(path):
    """A log's events, from one json.loads and record decode per non-blank line
    in file order, with no line table."""
    decode, events = ledger._decoder(), []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:       # a JSONDecodeError, or an int past the digit limit
                raise LogFormatError(f"not valid JSON: {getattr(exc, 'msg', exc)}", n) from exc
            if not isinstance(obj, dict):
                raise LogFormatError("record must be a JSON object", n)
            seq, row = decode(obj, n)
            events.append(ExceptionEvent(seq, *row))
    return events


def _whole(path, value_class):
    """A file read whole, as the CLI once read every file: a graph document's
    JSON object, a diff document an error, text that opens with "{" a log
    whose traces _events gives, filtered by class, and any other text
    plain-text traces."""
    text = path.read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        obj = None
    document = obj.get("format") if isinstance(obj, dict) else None
    if document == stackgraph.DIFF_FORMAT:
        raise FormatError(f"{path} is a stack-graph diff document, which fpx writes "
                          "but does not read")
    if document == stackgraph.GRAPH_FORMAT:
        return obj
    if not text.lstrip().startswith("{"):
        return stackgraph.parse_trace_text(text)
    return [e.trace for e in _events(path)
            if value_class is None or e.value_class is ValueClass(value_class)]


def _reference(argv, paths):
    """(exit code, DOT, JSON document, stderr) of argv on the event path,
    each file read whole."""
    policy = "coarse" if "--coarse" in argv else "fine"
    value_class = argv[argv.index("--value-class") + 1] if "--value-class" in argv else None
    split = float(argv[argv.index("--split") + 1]) if "--split" in argv else None
    try:
        contents = []
        for path in paths:
            content = _whole(path, value_class)
            if isinstance(content, dict):
                if argv[0] == "cstg":
                    raise FormatError(f"{path} is a stack-graph document, not a log or trace "
                                      "file; fpx diff reads graph documents")
                content = stackgraph.graph_from_json(content)
            contents.append(content)
    except FormatError as exc:
        return 2, "", None, f"fpx: {exc}\n"
    if argv[0] == "diff":
        d = stackgraph.diff(*(c if isinstance(c, stackgraph.StackGraph)
                              else stackgraph.build(c, policy) for c in contents))
        return 0, stackgraph.emit_dot_diff(d), stackgraph.diff_to_json(d), ""
    if split is not None:
        head, tail = stackgraph.slice_traces(contents[0], split)
        d = stackgraph.diff(stackgraph.build(head, policy), stackgraph.build(tail, policy))
        return 0, stackgraph.emit_dot_diff(d), stackgraph.diff_to_json(d), ""
    g = stackgraph.build(contents[0], policy)
    return 0, stackgraph.emit_dot(g), stackgraph.graph_to_json(g), ""


def _check(argv, paths, tmp_path, capsys):
    doc = tmp_path / "out.json"
    doc.unlink(missing_ok=True)
    code = cli_main([*argv, "--json", str(doc)])
    captured = capsys.readouterr()
    expected_code, dot, document, err = _reference(argv, paths)
    assert (code, captured.out, captured.err) == (expected_code, dot, err), argv
    if document is None:
        assert not doc.exists()
    else:
        assert doc.read_text(encoding="utf-8") == json.dumps(document, indent=2) + "\n", argv


def _commands(path, rng):
    yield ["cstg", path]
    yield ["cstg", path, "--coarse"]
    yield ["cstg", path, "--value-class", rng.choice(("nan", "inf"))]
    for split in SPLITS:
        yield ["cstg", path, "--split", split]
    yield ["cstg", path, "--split", rng.choice(SPLITS),
           "--value-class", rng.choice(("nan", "inf"))]


@pytest.mark.parametrize("seed", range(40))
def test_counted_cstg_and_diff_match_the_event_path(seed, tmp_path, capsys):
    rng = random.Random(-seed)
    log, other = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    log.write_text(_log(seed), encoding="utf-8", newline=rng.choice(("\n", "\n", "\r\n", "\r")))
    other.write_text(_log(seed + 1000), encoding="utf-8")
    for argv in _commands(str(log), rng):
        _check(argv, [log], tmp_path, capsys)
    _check(["diff", str(log), str(other)], [log, other], tmp_path, capsys)
    _check(["diff", str(other), str(log), "--coarse"], [other, log], tmp_path, capsys)


@pytest.mark.parametrize("n,fraction", [(1, "0.5"), (4, "0.5"), (7, "0.1"), (9, "0.999")])
def test_counted_split_with_blank_lines_at_the_cut(n, fraction, tmp_path, capsys):
    log = tmp_path / "cut.jsonl"
    log.write_text(_cut_blank(n, float(fraction)), encoding="utf-8")
    for value_class in (None, "nan"):
        argv = ["cstg", str(log), "--split", fraction]
        _check(argv + (["--value-class", value_class] if value_class else []), [log],
               tmp_path, capsys)


def test_counted_path_past_the_line_table_limit(tmp_path, capsys):
    """More distinct tails than the per-call table holds, in runs longer than
    one scan: the table is cleared between runs and the counts still match."""
    rng = random.Random(3)
    lines = [_line(rng, seq, True) for seq in range(1, 1400)]
    log = tmp_path / "long.jsonl"
    log.write_text("".join(lines + lines[:300]), encoding="utf-8")
    for argv in (["cstg", str(log)], ["cstg", str(log), "--split", "0.6"]):
        _check(argv, [log], tmp_path, capsys)


@pytest.mark.parametrize("seed", range(8))
def test_counted_path_names_the_first_of_two_bad_keys(seed, tmp_path, capsys):
    """Two different malformed lines in one run: the error and line number are
    the first one's."""
    rng = random.Random(seed)
    lines = [_line(rng, n, False) for n in range(1, rng.randint(3, 30))]
    tail = lines[0][lines[0].index(","):]
    first, second = rng.sample(range(1, len(lines) + 1), 2)
    for at in sorted((first, second), reverse=True):
        bad = MALFORMED[(seed + (at == first)) % len(MALFORMED)]
        lines.insert(at, bad % tail if "%s" in bad else bad)
    log = tmp_path / "two.jsonl"
    log.write_text("".join(lines), encoding="utf-8", newline=rng.choice(("\n", "\r\n", "\r")))
    for argv in _commands(str(log), rng):
        _check(argv, [log], tmp_path, capsys)


def _long_log(seed, distinct) -> list:
    """The lines of a log of more than two runs: every tail distinct, or 40
    lines repeated under new seqs."""
    rng = random.Random(seed)
    if distinct:
        return [_line(rng, seq, True) for seq in range(1, 700)]
    lines = [_line(rng, seq, False) for seq in range(1, 41)] * 18
    return [line.replace(line[:line.index(",")], '{"seq": %d' % i, 1)
            for i, line in enumerate(lines, 1)]


def _past_first_run(lines, n) -> bool:
    """Whether line n (1-based) of lines starts past the first run."""
    return len("".join(lines[:n - 1])) > ledger._CHUNK


@pytest.mark.parametrize("distinct", [False, True], ids=["repeated", "distinct"])
def test_logs_past_one_run_match_the_event_path(distinct, tmp_path, capsys):
    """cstg and diff stream a log of several runs and give the bytes of the
    event path: counts, --coarse, --value-class, and a --split whose cut
    falls in a later run."""
    lines = _long_log(5, distinct)
    log, other = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    log.write_text("".join(lines), encoding="utf-8")
    other.write_text("".join(_long_log(6, not distinct)), encoding="utf-8")
    assert _past_first_run(lines, math.ceil(0.75 * len(lines)))
    for argv in (["cstg", str(log)], ["cstg", str(log), "--coarse"],
                 ["cstg", str(log), "--value-class", "nan"],
                 ["cstg", str(log), "--value-class", "inf", "--coarse"],
                 ["cstg", str(log), "--split", "0.75"],
                 ["cstg", str(log), "--split", "0.75", "--value-class", "inf"]):
        _check(argv, [log], tmp_path, capsys)
    _check(["diff", str(log), str(other)], [log, other], tmp_path, capsys)
    _check(["diff", str(other), str(log), "--coarse"], [other, log], tmp_path, capsys)


@pytest.mark.parametrize("bad", range(len(MALFORMED)))
def test_a_malformed_line_past_the_first_run_is_named(bad, tmp_path, capsys):
    """A malformed line in a later run fails cstg, its --split and diff with
    the event path's message and line number."""
    lines = _long_log(9, False)
    at = 400
    tail = lines[0][lines[0].index(","):]
    lines.insert(at - 1, MALFORMED[bad] % tail if "%s" in MALFORMED[bad] else MALFORMED[bad])
    assert _past_first_run(lines, at)
    log, good = tmp_path / "bad.jsonl", tmp_path / "good.jsonl"
    log.write_text("".join(lines), encoding="utf-8")
    good.write_text("".join(_long_log(10, False)), encoding="utf-8")
    code, _, _, stderr = _reference(["cstg"], [log])
    assert code == 2 and stderr.startswith(f"fpx: line {at}: ")
    for argv, paths in ((["cstg", str(log)], [log]), (["cstg", str(log), "--split", "0.5"], [log]),
                        (["diff", str(good), str(log)], [good, log])):
        _check(argv, paths, tmp_path, capsys)


def test_other_files_past_one_run_take_the_whole_text_path(tmp_path, capsys):
    """A graph document, a diff document, plain-text traces and a single JSON
    value that is no document, each longer than one run, indented or on one
    line: cstg and diff read them as the whole text reads."""
    rng = random.Random(11)
    traces = [tuple(Frame(f"fn{rng.randrange(400)}", f"lib/m{rng.randrange(9)}.py",
                          rng.randrange(1, 99)) for _ in range(rng.randint(1, 5)))
              for _ in range(1500)]
    graph = stackgraph.build(traces)
    log = tmp_path / "log.jsonl"
    log.write_text("".join(_long_log(12, False)), encoding="utf-8")
    files = {
        "graph.json": json.dumps(stackgraph.graph_to_json(graph), indent=2) + "\n",
        "graph1.json": json.dumps(stackgraph.graph_to_json(graph)) + "\n",
        "diff.json": json.dumps(stackgraph.diff_to_json(
            stackgraph.diff(stackgraph.build(traces[:99]), graph)), indent=2) + "\n",
        "diff1.json": json.dumps(stackgraph.diff_to_json(
            stackgraph.diff(stackgraph.build(traces[:99]), graph))) + "\n",
        "traces.txt": "\n".join("".join(f"{f.function}\t{f.file}:{f.line}\n" for f in trace)
                                for trace in traces),
        "value1.json": json.dumps({"note": "x" * ledger._CHUNK}) + "\n",
        "value.json": json.dumps({"notes": list(range(20000))}, indent=2) + "\n",
        "array.json": json.dumps(list(range(20000)), indent=2) + "\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert len(text) > ledger._CHUNK, name
        for argv, paths in ((["cstg", str(path)], [path]),
                            (["cstg", str(path), "--split", "0.3"], [path]),
                            (["diff", str(path), str(log)], [path, log]),
                            (["diff", str(log), str(path)], [log, path])):
            _check(argv, paths, tmp_path, capsys)


def test_cstg_and_diff_peaks_do_not_grow_with_the_log(tmp_path, capsys):
    """cstg and diff hold one run of a log at a time: with ten times the lines
    of repeating tails, the tracemalloc peak of a call rises by less than one
    run."""
    lines = _long_log(13, False)
    small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
    small.write_text("".join(lines), encoding="utf-8")
    large.write_text("".join(lines * 10), encoding="utf-8")

    def peak(argv):
        tracemalloc.start()
        try:
            assert cli_main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()
    for small_argv, large_argv in ((["cstg", str(small)], ["cstg", str(large)]),
                                   (["diff", str(small), str(small)],
                                    ["diff", str(large), str(large)])):
        peak(small_argv)        # once first, so module-level caches are warm
        assert peak(large_argv) - peak(small_argv) < ledger._CHUNK, large_argv[0]
