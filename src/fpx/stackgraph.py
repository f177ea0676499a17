"""Coalesced stack-trace graphs: build, diff, and DOT emission.

Many stack traces collapse into one weighted digraph: frames become nodes
(keyed by function+file:line, or function only under the coarse policy) and
each caller->callee adjacency adds one to its edge count. Diffs subtract edge
counts between two graphs built with the same key policy; a policy mismatch is
a ValueError. DOT output is deterministic so renders and golden files are
stable. build takes an iterable of traces, in any order: ledger events' traces
(those of the session a `use_session` block selected), a log's traces grouped
by line tail, as `fpx cstg` passes them, or parse_trace_text's blocks.
save_graph writes a graph document and graph_from_json reads its parsed JSON
back; a malformed document is a GraphFormatError.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .ledger import FormatError
from .traces import Frame

GRAPH_FORMAT = "stackgraph-v1"
DIFF_FORMAT = "stackgraph-diff-v1"
KEY_POLICIES = ("fine", "coarse")


class GraphFormatError(FormatError):
    """A malformed graph document or plain-text trace file."""


def frame_key(frame: Frame, key_policy: str = "fine") -> str:
    if key_policy == "coarse":
        return frame.function
    return f"{frame.function} {frame.file}:{frame.line}"


@dataclass
class StackGraph:
    key_policy: str = "fine"
    nodes: set = field(default_factory=set)
    edges: dict = field(default_factory=dict)   # (parent_key, child_key) -> count
    trace_total: int = 0


@dataclass
class GraphDiff:
    key_policy: str = "fine"
    edges: dict = field(default_factory=dict)   # (parent_key, child_key) -> delta


def build(traces, key_policy: str = "fine") -> StackGraph:
    """Coalesce traces (innermost-first) into a weighted caller->callee digraph.
    Equal traces are walked once and weighted by how often they occur."""
    if key_policy not in KEY_POLICIES:
        raise ValueError(f"unknown key policy: {key_policy!r}")
    g = StackGraph(key_policy=key_policy)
    for trace, count in Counter(map(tuple, traces)).items():
        g.trace_total += count
        keys = [frame_key(f, key_policy) for f in reversed(trace)]  # outermost first
        g.nodes.update(keys)
        for edge in zip(keys, keys[1:]):
            g.edges[edge] = g.edges.get(edge, 0) + count
    return g


def diff(before: StackGraph, after: StackGraph) -> GraphDiff:
    """Per-edge count deltas (after - before); zero deltas are dropped."""
    if before.key_policy != after.key_policy:
        raise ValueError(
            f"cannot diff {before.key_policy!r} graph against {after.key_policy!r} graph"
        )
    d = GraphDiff(key_policy=before.key_policy)
    for edge in set(before.edges) | set(after.edges):
        delta = after.edges.get(edge, 0) - before.edges.get(edge, 0)
        if delta != 0:
            d.edges[edge] = delta
    return d


def slice_traces(traces, fraction: float):
    """Split in ledger order: head gets the first ceil(fraction*n) traces."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be strictly between 0 and 1")
    traces = list(traces)
    cut = math.ceil(fraction * len(traces))
    return traces[:cut], traces[cut:]


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(nodes, edges, attributes) -> str:
    """DOT body: sorted nodes, then sorted edges whose pen width scales with
    the weight's magnitude; `attributes(weight)` gives the label and colour."""
    if not nodes and not edges:
        return "digraph G { }\n"
    max_mag = max(map(abs, edges.values()), default=1)
    lines = ["digraph G {", "  node [shape=box];"]
    lines.extend(f"  {_quote(node)};" for node in sorted(nodes))
    for (parent, child), weight in sorted(edges.items()):
        width = 1.0 + 3.0 * abs(weight) / max_mag
        lines.append(f"  {_quote(parent)} -> {_quote(child)} "
                     f"[{attributes(weight)}, penwidth={width:.2f}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot(g: StackGraph) -> str:
    return _dot(g.nodes, g.edges, lambda count: f'label="{count}"')


def emit_dot_diff(d: GraphDiff) -> str:
    return _dot({k for edge in d.edges for k in edge}, d.edges,
                lambda delta: f'label="+{delta}", color="green"' if delta > 0
                else f'label="{delta}", color="red"')


def graph_to_json(g: StackGraph) -> dict:
    return {
        "format": GRAPH_FORMAT,
        "key_policy": g.key_policy,
        "trace_total": g.trace_total,
        "nodes": sorted(g.nodes),
        "edges": [
            {"parent": p, "child": c, "count": g.edges[(p, c)]}
            for (p, c) in sorted(g.edges)
        ],
    }


def graph_from_json(obj: dict) -> StackGraph:
    if not isinstance(obj, dict) or obj.get("format") != GRAPH_FORMAT:
        raise GraphFormatError("not a stack-graph document")
    try:
        nodes, edges = obj["nodes"], obj["edges"]
        g = StackGraph(key_policy=obj["key_policy"], trace_total=obj["trace_total"],
                       nodes=set(nodes),
                       edges={(e["parent"], e["child"]): e["count"] for e in edges})
    except (KeyError, TypeError) as exc:
        raise GraphFormatError(f"bad stack-graph document: {exc!r}") from exc
    if g.key_policy not in KEY_POLICIES:
        raise GraphFormatError(f"unknown key policy: {g.key_policy!r}")
    if (type(nodes) is not list or type(edges) is not list or len(g.edges) != len(edges)
            or len(g.nodes) != len(nodes) or g.nodes.union(*g.edges) != g.nodes
            or type(g.trace_total) is not int or g.trace_total < 0
            or not all(type(c) is int and c > 0 for c in g.edges.values())
            or not all(isinstance(k, str) for k in g.nodes)):
        raise GraphFormatError("bad stack-graph document: nodes and edges must be arrays "
                               "listing each node and each (parent, child) edge once, "
                               "edges between listed nodes, trace_total a non-negative "
                               "integer, counts positive integers and node keys strings")
    return g


def diff_to_json(d: GraphDiff) -> dict:
    return {
        "format": DIFF_FORMAT,
        "key_policy": d.key_policy,
        "edges": [
            {"parent": p, "child": c, "delta": d.edges[(p, c)]}
            for (p, c) in sorted(d.edges)
        ],
    }


def save_graph(g: StackGraph, path) -> None:
    Path(path).write_text(json.dumps(graph_to_json(g), indent=2) + "\n", encoding="utf-8")


def parse_trace_text(text: str) -> list:
    """Plain-text traces: blank-line-separated blocks of `function<TAB>file:line`,
    innermost frame first, for interoperability with other collectors. Only
    "\n" ends a line, as in a log and in a file read in text mode, which
    turns every line end into one: a U+2028 or U+0085 may sit in a name."""
    traces = []
    current = []
    # the end of the text ends the last block, as a blank line does
    for line_number, raw in enumerate([*text.split("\n"), ""], start=1):
        line = raw.rstrip()
        if not line:
            if current:
                traces.append(tuple(current))
                current = []
            continue
        function, _, location = line.partition("\t")
        file, _, lineno = location.rpartition(":")
        if not function or not file or not lineno.isdecimal():
            raise GraphFormatError(f"bad trace line: {raw!r}", line_number)
        try:
            current.append(Frame(function, file, int(lineno)))
        except ValueError as exc:       # more digits than int() reads
            raise GraphFormatError(f"bad trace line number: {exc}", line_number) from exc
    return traces
