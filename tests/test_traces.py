"""Stack-trace providers: explicit scopes and native capture."""

import asyncio
import contextlib
import contextvars
import os
import sys
import threading
import time

import pytest

import fpx
from conftest import run_threads, thread_changes
from fpx import fpbits, traces
from fpx.injector import InjectionConfig, Injector
from fpx.ledger import Ledger
from fpx.session import TrackerSession, explicit_session, use_session
from fpx.traces import (ExplicitContextProvider, Frame, NativeTraceProvider,
                        SENTINEL_FRAME, trace_fingerprint)
from fpx.tracked import TrackedFloat64, unwrap

NAN = float("nan")


class TestExplicitProvider:
    def test_capture_innermost_first(self):
        p = ExplicitContextProvider()
        with p.scope("main", "app.py", 1), p.scope("solve!", "solver.py", 40):
            trace = p.capture()
        assert [f.function for f in trace] == ["solve!", "main"]

    def test_nested_ordering_matches_log_layout(self):
        p = ExplicitContextProvider()
        with contextlib.ExitStack() as stack:
            for name in ("run_model", "time_integration", "rhs!", "momentum_u!"):
                stack.enter_context(p.scope(name))
            trace = p.capture()
        assert trace[0].function == "momentum_u!"
        assert trace[-1].function == "run_model"

    def test_pop_restores(self):
        p = ExplicitContextProvider()
        with p.scope("a"):
            pass
        with p.scope("b"):
            assert [f.function for f in p.capture()] == ["b"]

    def test_capture_is_pure_function_of_stack(self):
        p, q = ExplicitContextProvider(), ExplicitContextProvider()
        with p.scope("f", "x.py", 3), p.scope("g", "y.py", 9):
            with q.scope("f", "x.py", 3), q.scope("g", "y.py", 9):
                assert p.capture() == q.capture()
                assert p.capture() == p.capture()

    def test_scope_context_manager(self):
        p = ExplicitContextProvider()
        with p.scope("outer"):
            with p.scope("inner"):
                assert [f.function for f in p.capture()] == ["inner", "outer"]
            assert [f.function for f in p.capture()] == ["outer"]
        assert p.capture() == ()

    def test_scopes_are_thread_local(self):
        p = ExplicitContextProvider()

        def worker(_):
            with p.scope("worker_thread"):
                return p.capture()

        with p.scope("main_thread"):
            [trace] = run_threads(worker, [None])
            assert [f.function for f in trace] == ["worker_thread"]
            assert [f.function for f in p.capture()] == ["main_thread"]

    def test_scopes_are_task_local(self):
        """Two asyncio tasks on one thread share one explicit session and
        interleave awaits inside their own scopes; each event carries only
        the scopes of the task that logged it."""
        session = explicit_session()
        scope = session.traces.scope

        async def task(name, turns):
            with use_session(session), scope(name, "tasks.py", 1):
                for i in range(turns):
                    with scope(f"{name}_step", "tasks.py", 2):
                        await asyncio.sleep(0)
                        TrackedFloat64(NAN) < 1.0
                    await asyncio.sleep(0)

        async def main():
            with scope("main", "tasks.py", 9):
                await asyncio.gather(task("task_a", 3), task("task_b", 2))

        asyncio.run(main())
        traces = [[f.function for f in e.trace] for e in session.ledger.events()]
        assert sorted(traces) == ([["task_a_step", "task_a", "main"]] * 3
                                  + [["task_b_step", "task_b", "main"]] * 2)
        assert session.traces.capture() == ()

    def test_scope_left_in_another_context_is_an_error(self):
        """A scope must be left in the context that entered it; leaving it
        elsewhere raises instead of popping someone else's frame."""
        p = ExplicitContextProvider()
        scope = p.scope("entered_elsewhere")
        contextvars.copy_context().run(scope.__enter__)
        with pytest.raises(ValueError):
            scope.__exit__(None, None, None)
        assert p.capture() == ()

    def test_a_scope_is_entered_only_once(self):
        p = ExplicitContextProvider()
        scope = p.scope("once")
        with scope:
            with pytest.raises(RuntimeError, match="only once"):
                scope.__enter__()
            assert [f.function for f in p.capture()] == ["once"]
        with pytest.raises(RuntimeError, match="only once"):
            with scope:
                pass
        assert p.capture() == ()


class TestExplicitFrameTable:
    """Each provider builds one Frame per (function, file, line)."""

    def test_equal_sites_share_one_frame(self):
        p = ExplicitContextProvider()
        captured = []
        for _ in range(3):
            with p.scope("f", "x.py", 3), p.scope("g", "x.py", 4), p.scope("f", "x.py", 3):
                captured.append(p.capture())
        assert captured[0] == (Frame("f", "x.py", 3), Frame("g", "x.py", 4),
                               Frame("f", "x.py", 3))
        frames = [frame for trace in captured for frame in trace]
        assert all(frame is frames[0] for frame in frames[::3] + frames[2::3])
        assert all(frame is frames[1] for frame in frames[1::3])
        with p.scope("f", "x.py", 5), p.scope("f", "y.py", 3), p.scope("h", "x.py", 3):
            assert all(frame not in frames for frame in p.capture())

    def test_table_is_cleared_past_its_limit(self, monkeypatch):
        limit = 8
        monkeypatch.setattr(traces, "SITE_TABLE_LIMIT", limit)
        p = ExplicitContextProvider()
        first = None
        for line in range(3 * limit):
            with p.scope("f", "x.py", line):
                if line == 0:
                    [first] = p.capture()
                assert p.capture() == (Frame("f", "x.py", line),)
            assert len(p._frames) <= limit
        with p.scope("f", "x.py", 0):
            assert p.capture() == (first,) and p.capture()[0] is not first

    def test_two_providers_share_nothing(self):
        p, q = ExplicitContextProvider(), ExplicitContextProvider()
        with p.scope("f", "x.py", 3):
            with q.scope("f", "x.py", 3):
                [from_p], [from_q] = p.capture(), q.capture()
        assert from_p == from_q and from_p is not from_q
        assert p._frames is not q._frames

    def test_each_scope_of_a_site_enters_once(self):
        p = ExplicitContextProvider()
        first, second = p.scope("once", "x.py", 1), p.scope("once", "x.py", 1)
        assert first is not second
        with first:
            with second:
                assert [f.function for f in p.capture()] == ["once", "once"]
            with pytest.raises(RuntimeError, match="only once"):
                second.__enter__()
        with pytest.raises(RuntimeError, match="only once"):
            first.__enter__()
        assert p.capture() == ()


class TestNativeProvider:
    def test_capture_walks_call_stack(self):
        p = NativeTraceProvider()

        def inner():
            return p.capture()

        def outer():
            return inner()

        trace = outer()
        names = [f.function for f in trace]
        assert names[0] == "inner"
        assert names[1] == "outer"

    def test_tracker_frames_filtered(self, session):
        from fpx import TrackedFloat64
        from fpx.session import use_session
        from fpx.traces import NativeTraceProvider
        session.traces = NativeTraceProvider()
        with use_session(session):
            TrackedFloat64(0.0) / TrackedFloat64(0.0)
        (event,) = session.ledger.events()
        fpx_dir = fpx.__file__.rsplit("/", 1)[0]
        assert event.trace
        assert all(not f.file.startswith(fpx_dir) for f in event.trace)

    def test_sentinel_on_failure(self, monkeypatch):
        p = NativeTraceProvider()

        def boom(*a):
            raise RuntimeError

        monkeypatch.setattr(sys, "_getframe", boom)
        assert p.capture() == (SENTINEL_FRAME,)


def _reference_capture():
    """NativeTraceProvider.capture without its call-site table: a fresh walk."""
    frame = sys._getframe(1)
    frames = []
    while frame is not None:
        path = frame.f_code.co_filename
        if not path.startswith(traces.SKIP_PREFIX):
            frames.append(Frame(frame.f_code.co_name, path, frame.f_lineno))
        frame = frame.f_back
    return tuple(frames) if frames else (SENTINEL_FRAME,)


def _both(p):
    """The memoized and the reference capture of one stack (same caller line)."""
    return p.capture(), _reference_capture()


def _table_size(p):
    """What the native table holds, the count SITE_TABLE_LIMIT bounds: its
    codes plus their call sites."""
    return sum(1 + len(sites or ()) for _, sites in p._codes.values())


def _stack_depth():
    """Frames on the caller's stack, the caller's own included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _made(source, filename, name):
    """The function `name` of `source`, compiled under `filename`; no file is written."""
    namespace = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


class TestNativeCallSiteTable:
    """The memoized capture returns what a fresh walk of the stack returns."""

    def _assert_same(self, pairs):
        assert pairs
        for memo, ref in pairs:
            assert memo == ref

    def test_nested_calls(self):
        p = NativeTraceProvider()

        def inner():
            return _both(p)

        def middle():
            return [inner(), _both(p)]

        def outer():
            return middle() + [inner()]

        pairs = outer() + outer() + [inner()]
        self._assert_same(pairs)
        assert [f.function for f in pairs[0][0][:4]] == ["_both", "inner", "middle", "outer"]

    def test_recursion_from_one_call_site(self):
        p = NativeTraceProvider()

        def rec(n):
            if n == 0:
                return _both(p)
            return rec(n - 1)

        pairs = [rec(depth) for depth in (3, 1, 5, 1, 3, 0, 5)]
        self._assert_same(pairs)
        assert [len(memo) for memo, _ in pairs[:3]] == [
            len(pairs[1][0]) + 2, len(pairs[1][0]), len(pairs[1][0]) + 4]

    def test_generator_frames(self):
        p = NativeTraceProvider()

        def gen():
            for _ in range(3):
                yield _both(p)

        def first(g):
            return next(g)

        def second(g):
            return next(g)

        g = gen()
        pairs = [first(g), second(g), first(g)] + list(gen())
        self._assert_same(pairs)
        # a resumed generator frame hangs under whoever resumed it
        assert [f.function for f in pairs[0][0][1:3]] == ["gen", "first"]
        assert [f.function for f in pairs[1][0][1:3]] == ["gen", "second"]

    def test_two_threads_share_a_provider(self):
        p = NativeTraceProvider()
        rounds = []

        def leaf():
            return _both(p)

        def branch_a():
            return [leaf()]

        def branch_b():
            return [leaf(), _both(p)]

        def worker(body):
            pairs = []
            for _ in range(200):
                time.sleep(0)
                pairs += body()
                rounds.append(threading.get_ident())
            return pairs

        a, b = run_threads(worker, (branch_a, branch_b))
        self._assert_same(a)
        self._assert_same(b)
        assert a[0][0][2].function == "branch_a"
        assert b[0][0][2].function == "branch_b"
        # each round yields, so rounds changed thread 200 to 370 times in 400
        assert thread_changes(rounds) > 100

    @pytest.mark.parametrize("skip", [(__file__,), ("/nonexistent-prefix",),
                                      (__file__, threading.__file__)])
    def test_custom_skip_prefixes(self, skip, monkeypatch):
        monkeypatch.setattr(traces, "SKIP_PREFIX", skip)
        p = NativeTraceProvider()

        def call():
            return _both(p)

        pairs = [call(), call(), _both(p)]
        self._assert_same(pairs)
        memo = pairs[0][0]
        assert all(not f.file.startswith(skip) for f in memo)
        assert (memo[0].function == "_both") == (skip == ("/nonexistent-prefix",))

    def test_every_frame_skipped_gives_sentinel(self, monkeypatch):
        monkeypatch.setattr(traces, "SKIP_PREFIX", "")
        p = NativeTraceProvider()

        def call():
            return _both(p)

        self._assert_same([call(), call()])
        assert p.capture() == p.capture() == (SENTINEL_FRAME,)

    def test_code_made_at_run_time_reuses_ids_without_stale_frames(self, monkeypatch):
        limit = 64
        monkeypatch.setattr(traces, "SITE_TABLE_LIMIT", limit)
        p = NativeTraceProvider()
        code_ids = []
        for i in range(300):
            blank = i % 7
            namespace = {}
            source = "\n" * blank + f"def f_{i}(both):\n    return both()\n"
            exec(compile(source, f"<made {i}>", "exec"), namespace)
            fn = namespace[f"f_{i}"]
            code_ids.append(id(fn.__code__))
            memo, ref = fn(lambda: _both(p))
            del fn, namespace
            assert memo == ref
            assert memo[2] == Frame(f"f_{i}", f"<made {i}>", blank + 2)
            assert _table_size(p) <= limit
        # the table let go of old code objects, and their ids came back
        assert len(set(code_ids)) < len(code_ids)

    def test_call_sites_of_one_code_count_toward_the_limit(self, monkeypatch):
        """One code object with more call sites than the limit: every site
        counts, the table stays within the limit by clearing, and each
        capture is still the fresh walk's."""
        limit = 2 * _stack_depth() + 16     # room for this stack's codes and sites
        monkeypatch.setattr(traces, "SITE_TABLE_LIMIT", limit)
        p = NativeTraceProvider()
        many = _made("def many(both, check):\n" + "    check(both())\n" * (3 * limit),
                     "<many sites>", "many")
        sizes, lines = [], []

        def check(pair):
            memo, ref = pair
            assert memo == ref
            lines.append(memo[2].line)
            sizes.append(_table_size(p))

        many(lambda: _both(p), check)
        assert lines == list(range(2, 3 * limit + 2))
        assert max(sizes) <= limit
        assert sum(b < a for a, b in zip(sizes, sizes[1:])) >= 2    # cleared, more than once

    def test_threads_missing_at_once_lose_no_count(self, monkeypatch):
        """More threads than cores miss on fresh call sites at a short switch
        interval, yielding the GIL between captures: every capture is the
        fresh walk's, and after every capture the table holds no more than
        it counted, nor more than the limit."""
        limit = 2 * _stack_depth() + 64
        monkeypatch.setattr(traces, "SITE_TABLE_LIMIT", limit)
        p = NativeTraceProvider()
        source = "def many(both, check):\n" + "    check(both())\n" * 200
        checked_by = []

        def check(pair):
            time.sleep(0)
            checked_by.append(threading.get_ident())
            with p._lock:       # the lock every store takes, so the count is whole
                assert _table_size(p) <= p._entries <= limit
            assert pair[0] == pair[1]

        def worker(k):
            for i in range(5):      # fresh code objects, so every site misses
                _made(source, f"<worker {k} round {i}>", "many")(lambda: _both(p), check)

        run_threads(worker, range(6))
        assert _table_size(p) <= p._entries <= limit
        # each check yields, so checks changed thread about 5,900 times in
        # 6,000; without the yield, 100 to 250 times
        assert thread_changes(checked_by) > 1000

    def test_stores_yielding_the_gil_interleave_clears_with_walks(self, monkeypatch):
        """Each store yields the GIL, so other threads capture, store and
        clear a small shared table between two frames of a walk. Four
        threads capture from fresh code objects and from one repeated call
        site: every capture is the fresh walk's, and after every capture the
        table holds no more than it counted, nor more than the limit."""
        limit = 2 * _stack_depth() + 16
        monkeypatch.setattr(traces, "SITE_TABLE_LIMIT", limit)
        stored_by, real = [], NativeTraceProvider._store

        def store(self, table, key, value):
            time.sleep(0)
            stored_by.append(threading.get_ident())
            return real(self, table, key, value)
        monkeypatch.setattr(NativeTraceProvider, "_store", store)
        p = NativeTraceProvider()
        source = "def many(both, check):\n" + "    check(both())\n" * 40
        captures = []

        def check(pair):
            captures.append(pair)
            with p._lock:
                assert _table_size(p) <= p._entries <= limit
            assert pair[0] == pair[1]

        def repeated():
            return _both(p)

        def worker(k):
            for i in range(10):     # fresh code objects, so every site misses
                _made(source, f"<worker {k} round {i}>", "many")(lambda: _both(p), check)
                for _ in range(20):
                    check(repeated())

        run_threads(worker, range(4))
        assert len(captures) == 4 * 10 * (40 + 20)
        assert _table_size(p) <= p._entries <= limit
        # without the yield, consecutive stores changed thread about a dozen
        # times in 5,000; with it, about 24,000 times in 32,000
        assert thread_changes(stored_by) > 1000

    def test_a_hit_returns_the_stored_frames(self):
        """Repeated captures of one stack return the very Frame objects the
        first one stored, and store nothing more."""
        p = NativeTraceProvider()

        def call():
            return p.capture()

        captured, sizes = [], []
        for _ in range(6):
            captured.append(call())
            sizes.append(_table_size(p))
        first = captured[0]
        assert first[0] == Frame("call", __file__, first[0].line)
        for trace in captured[1:]:
            assert len(trace) == len(first)
            assert all(a is b for a, b in zip(trace, first))
        assert sizes == [sizes[0]] * 6

    def test_a_skipped_code_holds_one_entry(self, monkeypatch):
        """A code of this package is one (code, None) entry, however many
        call sites run, so its sites never fill the table."""
        limit = 2 * _stack_depth() + 16
        monkeypatch.setattr(traces, "SITE_TABLE_LIMIT", limit)
        p = NativeTraceProvider()
        filename = os.path.join(os.path.dirname(traces.__file__), "many.py")
        many = _made("def many(both, check):\n" + "    check(both())\n" * (3 * limit),
                     filename, "many")
        sizes = []

        def check(pair):
            memo, ref = pair
            assert memo == ref and all(f.file != filename for f in memo)
            sizes.append(_table_size(p))

        many(lambda: _both(p), check)
        assert sizes == [sizes[0]] * (3 * limit)
        assert [entry for entry in p._codes.values() if entry[0] is many.__code__] == [
            (many.__code__, None)]


class TestSkipPrefix:
    """SKIP_PREFIX is the package directory with a trailing separator, so only
    files inside it are skipped, not files whose name merely starts with it."""

    def test_prefix_ends_in_a_separator(self):
        fpx_dir = os.path.dirname(os.path.abspath(traces.__file__))
        assert traces.SKIP_PREFIX == fpx_dir + os.sep

    @pytest.mark.parametrize("inside", [False, True])
    def test_only_files_inside_the_package_are_skipped(self, inside):
        fpx_dir = os.path.dirname(os.path.abspath(traces.__file__))
        filename = (os.path.join(fpx_dir, "x.py") if inside
                    else traces.SKIP_PREFIX.rstrip(os.sep) + "_user.py")
        user_kernel = _made("def user_kernel(both):\n    return both()\n",
                            filename, "user_kernel")
        p = NativeTraceProvider()
        for _ in range(2):      # a miss, then a hit
            memo, ref = user_kernel(lambda: _both(p))
            assert memo == ref
            assert (Frame("user_kernel", filename, 2) in memo) is not inside

    @pytest.mark.parametrize("inside", [False, True])
    def test_functions_filter_fires_beside_the_package(self, inside):
        """functions= reaches a kernel in a file named like the package
        directory, and never one inside it."""
        fpx_dir = os.path.dirname(os.path.abspath(traces.__file__))
        filename = (os.path.join(fpx_dir, "x.py") if inside
                    else traces.SKIP_PREFIX.rstrip(os.sep) + "_user.py")
        user_kernel = _made("def user_kernel(x):\n    return x + 1.0\n",
                            filename, "user_kernel")
        injector = Injector.fuzz(InjectionConfig(odds=1, functions=("user_kernel",)))
        session = TrackerSession(ledger=Ledger(), injector=injector,
                                 traces=NativeTraceProvider())
        with use_session(session):
            result = unwrap(user_kernel(TrackedFloat64(2.0)))
        assert (result != result) is not inside
        assert len(injector.recording.points) == (0 if inside else 1)


class ReferenceTraceProvider(NativeTraceProvider):
    """The native provider with its table replaced by a fresh walk per capture."""

    capture = staticmethod(_reference_capture)


# A small Horner kernel in a made-up library file, with ops in and out of
# every scope: horner is in both scopes, scale only in libraries=,
# horner_tail only in functions=, and evaluate's own op in neither. Its ops
# sit on two lines of horner, so one code object has two call sites.
LIB_DIR = os.path.join(os.sep, "fpx-test-lib", "")
_LIB = {}
exec(compile("def horner(coeffs, x):\n"
             "    acc = coeffs[0]\n"
             "    for c in coeffs[1:]:\n"
             "        acc = acc * x\n"
             "        acc = acc + c\n"
             "    return acc\n"
             "def scale(y, k):\n"
             "    return y * k\n", LIB_DIR + "kernels.py", "exec"), _LIB)
COEFFS = (0.5, -1.25, 2.0, 0.75, -0.5)


def horner_tail(y, x):
    return y - x


def evaluate(points):
    return [horner_tail(_LIB["scale"](_LIB["horner"](COEFFS, x), 0.5), x) + 1.0
            for x in points]


def _scoped_run(provider, injector, out_dir):
    """Recording points, events, op count, flushed bytes and result bits of
    evaluate over tracked points under one native session."""
    session = TrackerSession(ledger=Ledger(), injector=injector, traces=provider)
    points = [TrackedFloat64(0.125 * k - 0.75) for k in range(13)]
    with use_session(session):
        values = evaluate(points)
    paths = session.ledger.flush(out_dir)
    assert not injector.divergences and not injector.unconsumed_points()
    return (injector.recording.points, session.ledger.events(), injector.op_counter,
            {kind: path.read_bytes() for kind, path in paths.items()},
            [fpbits.to_bits(unwrap(v)) for v in values])


@pytest.mark.parametrize("scope", [{"functions": ("horner",)},
                                   {"libraries": (LIB_DIR,)},
                                   {"functions": ("horner",), "libraries": (LIB_DIR,)}],
                         ids=["functions", "libraries", "both"])
def test_scoped_native_fuzz_matches_a_reference_walk(scope, tmp_path):
    """Scoped fuzz and its replay over the call-site table give what they
    give over a fresh walk per capture: the same points, events, op count,
    log bytes and results, for each filter and a few seeds."""
    injected = 0
    for seed in (1, 2, 5, 11):
        config = InjectionConfig(odds=4, n_inject=3, seed=seed, **scope)
        runs = {}
        for provider in (NativeTraceProvider, ReferenceTraceProvider):
            recording = None
            for phase in ("fuzz", "replay"):
                injector = (Injector.fuzz(config) if recording is None
                            else Injector.replay(recording))
                # one call site for every run, so that fingerprints agree
                runs[provider, phase] = _scoped_run(
                    provider(), injector, tmp_path / f"{seed}-{provider.__name__}-{phase}")
                recording = injector.recording
        for phase in ("fuzz", "replay"):
            assert runs[NativeTraceProvider, phase] == runs[ReferenceTraceProvider, phase]
        injected += len(runs[NativeTraceProvider, "fuzz"][0])
    assert injected > 0


def test_fingerprint_stability():
    trace = (Frame("f", "a.py", 1), Frame("g", "b.py", 2))
    assert trace_fingerprint(trace) == trace_fingerprint(tuple(trace))
    assert len(trace_fingerprint(trace)) == 16
    assert trace_fingerprint(trace) != trace_fingerprint(trace[:1])
    assert trace_fingerprint(()) == trace_fingerprint(())
