"""`fpx cstg` and `fpx diff` count a log's lines by tail; over a seeded family
of logs they give the bytes and exit codes of the event path: the traces of
one JSON parse and record decode per line, filtered by class, through
`slice_traces` and `stackgraph.build`."""

import json
import math
import random

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


def _reference(argv, paths):
    """(exit code, DOT, JSON document, stderr) of argv on the event path."""
    policy = "coarse" if "--coarse" in argv else "fine"
    value_class = argv[argv.index("--value-class") + 1] if "--value-class" in argv else None
    split = float(argv[argv.index("--split") + 1]) if "--split" in argv else None
    try:
        traces = [[e.trace for e in _events(p)
                   if value_class is None or e.value_class is ValueClass(value_class)]
                  for p in paths]
    except FormatError as exc:
        return 2, "", None, f"fpx: {exc}\n"
    if argv[0] == "diff":
        d = stackgraph.diff(*(stackgraph.build(t, policy) for t in traces))
        return 0, stackgraph.emit_dot_diff(d), stackgraph.diff_to_json(d), ""
    if split is not None:
        head, tail = stackgraph.slice_traces(traces[0], split)
        d = stackgraph.diff(stackgraph.build(head, policy), stackgraph.build(tail, policy))
        return 0, stackgraph.emit_dot_diff(d), stackgraph.diff_to_json(d), ""
    g = stackgraph.build(traces[0], policy)
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
