"""Stack-graph construction, diffing, DOT output, and trace formats. The
figure's counts, edge-count conservation and the diff laws are acceptance
criteria 5 and 6."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpx import stackgraph
from fpx.stackgraph import (GraphFormatError, build, diff, emit_dot,
                            emit_dot_diff, frame_key, graph_from_json,
                            graph_to_json, parse_trace_text, save_graph,
                            slice_traces)
from fpx.traces import Frame


def _trace(*names):
    """Innermost-first trace from outermost-first names (figure reading order)."""
    return tuple(Frame(n, f"{n}.py", 1) for n in reversed(names))


def _keys(*names):
    return [frame_key(Frame(n, f"{n}.py", 1)) for n in names]


class TestBuild:
    def test_empty_input(self):
        g = build([])
        assert g.nodes == set() and g.edges == {} and g.trace_total == 0

    def test_single_trace(self):
        g = build([_trace("A", "B")])
        a, b = _keys("A", "B")
        assert g.nodes == {a, b}
        assert g.edges == {(a, b): 1}

    def test_single_frame_trace_contributes_node_only(self):
        g = build([_trace("A")])
        assert g.nodes == set(_keys("A"))
        assert g.edges == {}

    def test_coarse_policy_keys_by_function(self):
        t1 = (Frame("f", "a.py", 1), Frame("g", "b.py", 2))
        t2 = (Frame("f", "other.py", 99), Frame("g", "b.py", 2))
        fine = build([t1, t2], "fine")
        coarse = build([t1, t2], "coarse")
        assert len(fine.nodes) == 3
        assert coarse.nodes == {"f", "g"}
        assert coarse.edges[("g", "f")] == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            build([], "medium")


_names = st.sampled_from(["alpha", "beta", "gamma", "delta", "eps"])
_trace_strategy = st.lists(_names, min_size=1, max_size=6).map(lambda ns: _trace(*ns))
_traces_strategy = st.lists(_trace_strategy, max_size=12)


@settings(max_examples=100, deadline=None)
@given(_traces_strategy, st.randoms(use_true_random=False))
def test_order_insensitivity(traces, rng):
    g1 = build(traces)
    shuffled = list(traces)
    rng.shuffle(shuffled)
    g2 = build(shuffled)
    assert g1.nodes == g2.nodes and g1.edges == g2.edges


def _reference_build(traces, key_policy):
    """build() as one walk per trace, each adding 1 to its edges."""
    nodes, edges = set(), {}
    for trace in traces:
        keys = [frame_key(f, key_policy) for f in reversed(trace)]
        nodes.update(keys)
        for edge in zip(keys, keys[1:]):
            edges[edge] = edges.get(edge, 0) + 1
    return nodes, edges, len(traces)


def _copy(trace):
    """An equal trace that shares no tuple with the original."""
    return tuple(Frame(*f) for f in trace)


_counted_traces = st.lists(
    st.one_of(st.just(()), _trace_strategy,
              st.sampled_from([_trace("alpha", "beta"), _trace("gamma"), ()])),
    max_size=20)


@settings(max_examples=200, deadline=None)
@given(_counted_traces, st.randoms(use_true_random=False),
       st.sampled_from(stackgraph.KEY_POLICIES))
def test_counted_build_equals_one_walk_per_trace(traces, rng, key_policy):
    """Equal traces, whether or not they are one object, count once each."""
    traces = [_copy(t) if rng.random() < 0.5 else t for t in traces]
    g = build(traces, key_policy)
    assert (g.nodes, g.edges, g.trace_total) == _reference_build(traces, key_policy)
    assert g.key_policy == key_policy
    for fraction in (0.1, 0.25, 0.5, 0.9):
        head, tail = slice_traces(traces, fraction)
        d = diff(build(head, key_policy), build(tail, key_policy))
        ref_head = _reference_build(head, key_policy)[1]
        ref_tail = _reference_build(tail, key_policy)[1]
        expected = {e: ref_tail.get(e, 0) - ref_head.get(e, 0)
                    for e in set(ref_head) | set(ref_tail)}
        assert d.edges == {e: n for e, n in expected.items() if n}


class TestDiff:
    def test_positive_delta(self):
        before = build([_trace("X", "Y")] * 2)
        after = build([_trace("X", "Y")] * 5)
        (edge, delta), = diff(before, after).edges.items()
        assert delta == 3

    def test_disappeared_flow_goes_negative(self):
        before = build([_trace("X", "Y")] * 4)
        after = build([])
        (edge, delta), = diff(before, after).edges.items()
        assert delta == -4

    def test_policy_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cannot diff 'fine' graph against "
                                             "'coarse' graph") as err:
            diff(build([], "fine"), build([], "coarse"))
        assert type(err.value) is ValueError


class TestDot:
    def test_edge_line_format(self):
        g = build([(Frame("B", "B.py", 1), Frame("A", "A.py", 1))])
        dot = emit_dot(g)
        assert '"A A.py:1" -> "B B.py:1" [label="1"' in dot
        assert dot.startswith("digraph G {")
        assert dot.endswith("}\n")

    def test_empty_graph_skeleton(self):
        assert emit_dot(build([])) == "digraph G { }\n"
        assert emit_dot_diff(diff(build([]), build([]))) == "digraph G { }\n"

    def test_deterministic(self):
        traces = [_trace("A", "B", "C"), _trace("A", "C"), _trace("B", "C")]
        assert emit_dot(build(traces)) == emit_dot(build(list(reversed(traces))))

    def test_penwidth_scales(self):
        g = build([_trace("A", "B")] * 3 + [_trace("A", "C")])
        dot = emit_dot(g)
        assert 'label="3", penwidth=4.00' in dot
        assert 'label="1", penwidth=2.00' in dot

    def test_diff_colors_and_labels(self):
        before = build([_trace("X", "Y")] * 4)
        after = build([_trace("X", "Z")] * 2)
        dot = emit_dot_diff(diff(before, after))
        assert 'label="-4", color="red"' in dot
        assert 'label="+2", color="green"' in dot

    def test_quoting(self):
        g = build([(Frame('we"ird', "a\\b.py", 1),)])
        dot = emit_dot(g)
        assert '"we\\"ird a\\\\b.py:1";' in dot


# A fixed graph for the full-byte goldens: counts 3 and 1, a single-frame
# trace (a node with no edge), and a name that needs DOT escaping.
QUOTED = (Frame('say "hi"', "a\\b.py", 7), Frame("main", "m.py", 1))
DEEP = (Frame("leaf", "l.py", 2), Frame("mid", "m.py", 5), Frame("main", "m.py", 1))
SOLO = (Frame("solo", "s.py", 9),)
OTHER = (Frame("other", "o.py", 3), Frame("mid", "m.py", 5), Frame("main", "m.py", 1))

DOT_GOLDEN = (
    'digraph G {\n'
    '  node [shape=box];\n'
    '  "leaf l.py:2";\n'
    '  "main m.py:1";\n'
    '  "mid m.py:5";\n'
    '  "say \\"hi\\" a\\\\b.py:7";\n'
    '  "solo s.py:9";\n'
    '  "main m.py:1" -> "mid m.py:5" [label="1", penwidth=2.00];\n'
    '  "main m.py:1" -> "say \\"hi\\" a\\\\b.py:7" [label="3", penwidth=4.00];\n'
    '  "mid m.py:5" -> "leaf l.py:2" [label="1", penwidth=2.00];\n'
    '}\n'
)

DIFF_DOT_GOLDEN = (
    'digraph G {\n'
    '  node [shape=box];\n'
    '  "leaf l.py:2";\n'
    '  "main m.py:1";\n'
    '  "mid m.py:5";\n'
    '  "other o.py:3";\n'
    '  "say \\"hi\\" a\\\\b.py:7";\n'
    '  "main m.py:1" -> "mid m.py:5" [label="+2", color="green", penwidth=4.00];\n'
    '  "main m.py:1" -> "say \\"hi\\" a\\\\b.py:7" [label="-2", color="red", penwidth=4.00];\n'
    '  "mid m.py:5" -> "leaf l.py:2" [label="-1", color="red", penwidth=2.50];\n'
    '  "mid m.py:5" -> "other o.py:3" [label="+1", color="green", penwidth=2.50];\n'
    '}\n'
)


class TestDotGoldens:
    """Every byte of both emitters on fixed inputs."""

    def test_emit_dot_golden(self):
        assert emit_dot(build([QUOTED, QUOTED, DEEP, SOLO, QUOTED])) == DOT_GOLDEN

    def test_emit_dot_diff_golden(self):
        before = build([QUOTED, QUOTED, DEEP, SOLO, QUOTED])
        after = build([QUOTED, DEEP[1:], DEEP[1:], OTHER])
        d = diff(before, after)
        assert sorted(d.edges.values()) == [-2, -1, 1, 2]
        assert emit_dot_diff(d) == DIFF_DOT_GOLDEN


class TestSlice:
    def test_ceiling_split_examples(self):
        traces = [_trace("A")] * 10
        head, tail = slice_traces(traces, 0.1)
        assert (len(head), len(tail)) == (1, 9)
        head, tail = slice_traces([_trace("A")] * 100, 0.1)
        assert (len(head), len(tail)) == (10, 90)
        head, tail = slice_traces([_trace("A")] * 3, 0.5)
        assert (len(head), len(tail)) == (2, 1)

    def test_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                slice_traces([_trace("A")], bad)

    @given(st.lists(st.integers(), max_size=30),
           st.floats(0.01, 0.99, allow_nan=False))
    def test_split_preserves_order(self, items, fraction):
        head, tail = slice_traces(items, fraction)
        assert head + tail == items


class TestPortableFormats:
    def test_graph_json_roundtrip(self, tmp_path):
        g = build([_trace("A", "B", "D"), _trace("A", "C", "D")])
        path = tmp_path / "g.json"
        save_graph(g, path)
        loaded = graph_from_json(json.loads(path.read_text(encoding="utf-8")))
        assert loaded.nodes == g.nodes
        assert loaded.edges == g.edges
        assert loaded.trace_total == g.trace_total
        assert loaded.key_policy == g.key_policy

    def test_load_rejects_non_graph(self):
        for obj in ({"seq": 1}, "not json", [], None):
            with pytest.raises(GraphFormatError, match="not a stack-graph document"):
                graph_from_json(obj)

    def test_text_trace_roundtrip(self):
        traces = [_trace("A", "B"), _trace("C",), _trace("A", "C", "D")]
        # a reference writer of the format parse_trace_text reads
        text = "\n\n".join("\n".join(f"{f.function}\t{f.file}:{f.line}" for f in t)
                           for t in traces) + "\n"
        assert parse_trace_text(text) == traces

    def test_text_trace_format_shape(self):
        text = "inner\tsrc/a.py:12\nouter\tsrc/b.py:3\n\nonly\tc.py:1\n"
        t1, t2 = parse_trace_text(text)
        assert t1 == (Frame("inner", "src/a.py", 12), Frame("outer", "src/b.py", 3))
        assert t2 == (Frame("only", "c.py", 1),)

    def test_text_trace_bad_line(self):
        with pytest.raises(GraphFormatError):
            parse_trace_text("no_tab_here\n")

    def test_text_trace_bad_line_is_numbered(self):
        with pytest.raises(GraphFormatError) as err:
            parse_trace_text("inner\ta.py:1\n\nouter\tb.py:x\n")
        assert err.value.line_number == 3
        assert str(err.value).startswith("line 3: ")

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c",
                                      "\x1c", "\x1d", "\x1e"])
    def test_text_trace_only_newline_ends_a_line(self, char):
        """A character str.splitlines() breaks at stays in the frame name, and
        a bad line after it is reported under its own line number."""
        text = f"f{char}g\ta.py:3\nh\tb.py:4\n\nk\tc.py:5\n"
        assert parse_trace_text(text) == [
            (Frame(f"f{char}g", "a.py", 3), Frame("h", "b.py", 4)), (Frame("k", "c.py", 5),)]
        with pytest.raises(GraphFormatError) as err:
            parse_trace_text(f"f{char}g\ta.py:3\n\nno_tab_here\n")
        assert err.value.line_number == 3
        assert str(err.value) == "line 3: bad trace line: 'no_tab_here'"

    @pytest.mark.parametrize("line", [
        "f\ta.py:\u00b2", "f\ta.py:", "f\t:3", "\ta.py:3",
        pytest.param("f\ta.py:" + "9" * 5000, id="more digits than int() reads")])
    def test_text_trace_bad_location_is_a_format_error(self, line):
        with pytest.raises(GraphFormatError) as err:
            parse_trace_text(line + "\n")
        assert err.value.line_number == 1


def _document(**changes):
    doc = graph_to_json(build([QUOTED, QUOTED, DEEP]))
    doc.update(changes)
    return doc


class TestGraphDocumentValidation:
    """A malformed stackgraph-v1 document is a GraphFormatError, never a
    KeyError, a TypeError or a silently accepted graph."""

    def test_well_formed_document_loads(self):
        g = graph_from_json(_document())
        assert g.key_policy == "fine" and g.trace_total == 3 and len(g.edges) == 3

    @pytest.mark.parametrize("field", ["key_policy", "trace_total", "nodes", "edges"])
    def test_missing_field(self, field):
        doc = _document()
        del doc[field]
        with pytest.raises(GraphFormatError, match=field):
            graph_from_json(doc)

    @pytest.mark.parametrize("field", ["parent", "child", "count"])
    def test_edge_missing_field(self, field):
        doc = _document()
        del doc["edges"][0][field]
        with pytest.raises(GraphFormatError, match=field):
            graph_from_json(doc)

    def test_unknown_key_policy(self):
        with pytest.raises(GraphFormatError, match="unknown key policy"):
            graph_from_json(_document(key_policy="bogus"))

    @pytest.mark.parametrize("changes", [
        {"trace_total": "3"},
        {"trace_total": 3.0},
        {"nodes": [["a"]]},
        {"nodes": 5},
        {"nodes": [1, 2]},
        {"edges": [{"parent": "a", "child": "b", "count": "2"}]},
        {"edges": [{"parent": "a", "child": "b", "count": True}]},
        {"edges": [{"parent": "a", "child": "b", "count": 0}]},
        {"edges": [{"parent": 1, "child": "b", "count": 2}]},
        {"edges": [["a", "b", 2]]},
        {"edges": 7},
    ])
    def test_ill_typed_fields(self, changes):
        with pytest.raises(GraphFormatError):
            graph_from_json(_document(**changes))

    @pytest.mark.parametrize("changes", [
        {"nodes": "ab"},
        {"edges": [{"parent": "a", "child": "b", "count": 2},
                   {"parent": "a", "child": "b", "count": 3}]},
        {"trace_total": -1},
    ], ids=["string-nodes", "duplicate-edge", "negative-trace-total"])
    def test_malformed_but_well_typed_documents(self, changes):
        """A string of nodes is not split into letters, a repeated edge does
        not keep its last count, and no graph holds fewer than zero traces."""
        with pytest.raises(GraphFormatError, match="bad stack-graph document"):
            graph_from_json(_document(**changes))

    @pytest.mark.parametrize("change", ["repeat-node", "unlisted-parent", "unlisted-child"])
    def test_document_must_agree_with_itself(self, change):
        """Each node is listed once, and every edge joins two listed nodes."""
        doc = _document()
        if change == "repeat-node":
            doc["nodes"].append(doc["nodes"][0])
        else:
            doc["edges"][0]["parent" if change == "unlisted-parent" else "child"] = "x y.py:9"
        with pytest.raises(GraphFormatError, match="bad stack-graph document"):
            graph_from_json(doc)

    def test_recursion_counts_an_edge_past_the_trace_total(self):
        """One trace b->a->b->a crosses the edge b->a twice: a document may
        hold an edge count above its trace_total, and it round-trips."""
        g = build([_trace("b", "a", "b", "a")])
        a, b = _keys("a", "b")
        assert g.trace_total == 1 and g.edges[(b, a)] == 2
        loaded = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
        assert (loaded.nodes, loaded.edges, loaded.trace_total) == (g.nodes, g.edges, 1)
