"""Command-line front end.

Subcommands:
  run     execute a demo and write gen/prop/kill logs; --fuzz injects NaN/Inf
          results and --record saves them, --replay re-fires a saved
          recording's injections: fpx run sim --replay rec.jsonl
  cstg    coalesce a log (or plain-text traces) into a stack graph / DOT
  diff    diff two stack graphs (or logs) and emit polarity-colored DOT
  render  print a log in the human block format

Exit codes: 0 success, 1 usage error, 2 I/O or file-format error (a
malformed log, recording, graph document or trace file).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

from . import fpbits, stackgraph
from .classify import EventKind, ValueClass
from .demos import demo_loop_kill, demo_max, demo_sim
from .injector import (InjectionConfig, Injector, ReplayDivergenceWarning,
                       load_recording, save_recording)
from .ledger import (FormatError, LedgerConfig, _line_traces, _runs, _utf8, parse_log,
                     render_human)
from .session import explicit_session


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _split_list(raw) -> tuple:
    return tuple(raw.split(","))


# --fuzz token key -> (InjectionConfig field, converter of the raw value)
_FUZZ_KEYS = {
    "odds": ("odds", int),
    "n": ("n_inject", int),
    "seed": ("seed", int),
    "value": ("value", float),
    "functions": ("functions", _split_list),
    "libraries": ("libraries", _split_list),
}


def _parse_fuzz(tokens) -> InjectionConfig:
    fields = {}
    for token in tokens:
        key, sep, raw = token.partition("=")
        if not sep:
            raise UsageError(f"--fuzz expects key=value tokens, got {token!r}")
        if key not in _FUZZ_KEYS:
            raise UsageError(f"unknown --fuzz key {key!r}")
        field, convert = _FUZZ_KEYS[key]
        try:
            fields[field] = convert(raw)
        except ValueError as exc:
            raise UsageError(f"--fuzz {key}: {exc}") from exc
    try:
        return InjectionConfig(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _ledger_config(args) -> LedgerConfig:
    kinds = set(EventKind)
    if args.no_prop:
        kinds.discard(EventKind.PROP)
    return LedgerConfig(max_logs=args.max_logs, log_kinds=frozenset(kinds))


def _run_demo(name, args, session):
    if name == "max":
        result = demo_max(tuple(map(float, args.values.split(","))), session=session)
        print(f"max1={fpbits.format_dec(result.max1)} "
              f"max2={fpbits.format_dec(result.max2)}")
    elif name == "loop":
        result = demo_loop_kill(inject_tdir=args.inject, max_iters=args.max_iters,
                                session=session)
        state = ("LIVELOCK" if result.livelocked else "stopped" if result.stopped
                 else "completed")
        print(f"{state}: work_iterations={result.work_iterations} "
              f"guard_evaluations={result.guard_evaluations}")
    elif name == "sim":
        result = demo_sim(steps=args.steps, cells=args.cells, blowup=args.blowup,
                          session=session)
        print("final field: " + " ".join(fpbits.format_dec(x) for x in result.field))
    else:
        raise UsageError(f"unknown demo {name!r} (choose from max, loop, sim)")
    return result


def _check_writable(path) -> None:
    """Raise the OSError that writing path would, before any work: an existing
    file is left as it was, and a new one is not kept."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def cmd_run(args) -> int:
    if args.record and not args.fuzz:
        raise UsageError("--record requires --fuzz")
    if args.replay and args.fuzz:
        raise UsageError("--replay takes no --fuzz: the recording decides every injection")
    if args.record:
        _check_writable(args.record)     # a run whose recording is lost cannot be replayed
    injector = Injector(_parse_fuzz(args.fuzz) if args.fuzz else None,
                        load_recording(args.replay) if args.replay else None)
    session = explicit_session(_ledger_config(args), injector)
    with warnings.catch_warnings():
        # each divergence is reported once, by the warning line below
        warnings.simplefilter("ignore", ReplayDivergenceWarning)
        _run_demo(args.demo, args, session)
    counts = session.ledger.counts()
    print("events: " + " ".join(f"{k.value}={counts[k]}" for k in EventKind))
    if args.record:     # saved first, so a failed flush loses no fuzzed failure
        save_recording(injector.recording, args.record)
    out = Path(args.out)
    session.ledger.flush(out)
    print(f"logs written to {out}")
    if args.record:
        print(f"recording written to {args.record}")
    for message in injector.divergences:
        print(f"warning: {message}", file=sys.stderr)
    pending = injector.unconsumed_points()
    if pending:
        print(f"replay divergence: {len(pending)} unconsumed injection point(s):",
              file=sys.stderr)
        for p in pending:
            print(f"  op_counter={p.op_counter} op={p.op}", file=sys.stderr)
    return 0


@contextmanager
def _content(path, value_class=None):
    """What path holds, for the block, read under ledger._utf8's one error
    rule: a graph document's JSON object, or the file's traces in file order;
    a diff document is an error. Only log events carry a value class to
    filter on. A log whose first run shows it is one is streamed, its runs
    read by ledger._runs as the block uses its traces up: the run opens with
    "{" after whitespace, and json.loads rejects it only for data after its
    first value, so the whole text fails alike at the same place and is no
    document. Any other file is read whole: a text that opens with "{" is
    then a log of one run, and any other holds plain-text trace blocks."""
    with _utf8(path) as fh:
        runs = _runs(fh)
        first = next(runs, "")
        try:
            json.loads(first)
            log = False
        except ValueError as exc:
            log = getattr(exc, "msg", None) == "Extra data" and first.lstrip().startswith("{")
        if not log:
            first, runs = first + fh.read(), ()      # the whole text, as one run
            try:
                obj = json.loads(first)
            except json.JSONDecodeError:
                obj = None
            except ValueError as exc:       # an int longer than int() reads
                raise FormatError(f"not valid JSON: {exc}") from exc
            document_format = obj.get("format") if isinstance(obj, dict) else None
            if document_format == stackgraph.DIFF_FORMAT:
                raise FormatError(f"{path} is a stack-graph diff document, which fpx writes "
                                  "but does not read")
            if document_format == stackgraph.GRAPH_FORMAT:
                yield obj
                return
            if not first.lstrip().startswith("{"):
                if value_class is not None and first.strip():
                    raise UsageError("--value-class applies to ledger logs, not plain-text traces")
                yield stackgraph.parse_trace_text(first)
                return
        wanted = None if value_class is None else ValueClass(value_class)
        yield chain.from_iterable(_line_traces(chain((first,), runs), wanted))


def _load_graph_any(path, key_policy):
    """A saved graph document, or a log/trace file coalesced on the fly. Only
    a file that is not a graph document is coalesced: a broken one is an
    error that names path, as a diff document's does, so that of diff's two
    inputs the broken one is told."""
    with _content(path) as content:
        try:
            return (stackgraph.graph_from_json(content) if isinstance(content, dict)
                    else stackgraph.build(content, key_policy))
        except stackgraph.GraphFormatError as exc:     # only a graph document's
            raise FormatError(f"{path}: {exc}") from exc


def _emit(text, dest) -> None:
    if dest:
        Path(dest).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_diff(d, args) -> None:
    """The diff as DOT (to --dot or stdout), and as a JSON document to --json."""
    _emit(stackgraph.emit_dot_diff(d), args.dot)
    if args.json:
        Path(args.json).write_text(
            json.dumps(stackgraph.diff_to_json(d), indent=2) + "\n", encoding="utf-8")


def cmd_cstg(args) -> int:
    key_policy = "coarse" if args.coarse else "fine"
    with _content(args.log, args.value_class) as traces:
        if isinstance(traces, dict):
            raise FormatError(f"{args.log} is a stack-graph document, not a log or trace "
                              "file; fpx diff reads graph documents")
        if args.split is not None:
            head, tail = stackgraph.slice_traces(traces, args.split)
            _emit_diff(stackgraph.diff(stackgraph.build(head, key_policy),
                                       stackgraph.build(tail, key_policy)), args)
            return 0
        g = stackgraph.build(traces, key_policy)
    _emit(stackgraph.emit_dot(g), args.dot)
    if args.json:
        stackgraph.save_graph(g, args.json)
    return 0


def cmd_diff(args) -> int:
    key_policy = "coarse" if args.coarse else "fine"
    before = _load_graph_any(args.before, key_policy)
    after = _load_graph_any(args.after, key_policy)
    _emit_diff(stackgraph.diff(before, after), args)
    return 0


def cmd_render(args) -> int:
    wanted = None if args.value_class is None else ValueClass(args.value_class)
    print("\n\n".join(render_human(e) for e in parse_log(args.log)
                      if wanted in (None, e.value_class)))
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built at the first call of a process and shared by
    every later one: parsing leaves it unchanged."""
    parser = _Parser(prog="fpx", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a demo and write logs")
    p_run.add_argument("demo", help="max | loop | sim")
    p_run.add_argument("--out", default="fpx-logs", help="log output directory (default fpx-logs)")
    p_run.add_argument("--max-logs", type=int, default=None,
                       help="per-kind cap on stored events")
    p_run.add_argument("--no-prop", action="store_true", help="do not log prop events")
    p_run.add_argument("--values", default="1,5,NaN,4", help="max demo input list")
    p_run.add_argument("--inject", action="store_true",
                       help="loop demo: seed the loop direction with NaN")
    p_run.add_argument("--max-iters", type=int, default=100,
                       help="loop demo: guard-evaluation bound")
    p_run.add_argument("--steps", type=int, default=12, help="sim demo: time steps")
    p_run.add_argument("--cells", type=int, default=16, help="sim demo: grid cells")
    p_run.add_argument("--blowup", action="store_true",
                       help="sim demo: use an unstable coefficient")
    p_run.add_argument("--fuzz", nargs="+", metavar="KEY=VALUE",
                       help="fuzz parameters: odds=N n=K seed=S "
                            "[value=nan|inf|-inf] [functions=a,b] [libraries=p,q]")
    p_run.add_argument("--record", help="save the injection recording to this path")
    p_run.add_argument("--replay", metavar="REC",
                       help="re-fire the injections of a recording from --record")

    p_cstg = sub.add_parser("cstg", help="coalesce a log into a stack graph")
    p_cstg.add_argument("log", help="ledger jsonl or plain-text trace file")
    p_cstg.add_argument("--coarse", action="store_true", help="key nodes by function only")
    p_cstg.add_argument("--value-class", choices=("nan", "inf"), default=None,
                        help="only events of this class (ledger inputs)")
    p_cstg.add_argument("--dot", help="write DOT here instead of stdout")
    p_cstg.add_argument("--json", help="also write the portable graph document "
                                       "(the diff document under --split)")
    p_cstg.add_argument("--split", type=float, default=None,
                        help="diff the first FRACTION of traces against the rest")

    p_diff = sub.add_parser("diff", help="diff two stack graphs")
    p_diff.add_argument("before")
    p_diff.add_argument("after")
    p_diff.add_argument("--coarse", action="store_true",
                        help="key policy when building from logs")
    p_diff.add_argument("--dot", help="write DOT here instead of stdout")
    p_diff.add_argument("--json", help="also write the diff document")

    p_render = sub.add_parser("render", help="print a log in human block form")
    p_render.add_argument("log")
    p_render.add_argument("--value-class", choices=("nan", "inf"), default=None,
                          help="only events of this class")

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # the handler is looked up at each call, so a patched cmd_* is the one run
        return globals()[f"cmd_{args.command}"](args)
    except (FormatError, OSError) as exc:
        print(f"fpx: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        # bad flag values, malformed --values lists, key-policy mismatches
        print(f"fpx: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
