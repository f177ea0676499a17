"""What a run loads: `import fpx` brings the tracker only, and the fuzzer's
generator and the fingerprint hash load when a run first needs them."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Loaded only by fuzzing, fingerprints, the demos, the stack graphs or the CLI.
NOT_FOR_TRACKING = ("numpy.random", "hashlib", "fpx.demos", "fpx.stackgraph", "fpx.cli")

# Run in a fresh interpreter. The snapshot follows `import numpy`, so a numpy
# that loads numpy.random (or hashlib) eagerly does not fail the guard.
PROBE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy
before = set(sys.modules)

def loaded():
    return sorted(set(sys.modules) - before)

import fpx
from fpx import InjectionConfig, InjectionRecording, Injector, RecordedInjection
nan = float("nan")

def ops():
    x = fpx.TrackedFloat64(1.0) / 0.0           # Inf gen
    y = x - x                                   # NaN gen, Inf kill
    y < 1.0                                     # NaN kill
    fpx.TrackedFloat32(2.0) * y + 3             # NaN props, an int operand
    fpx.sqrt(fpx.TrackedFloat16(-1.0))          # NaN gen on a narrow width

ops()                                           # the default session: native traces
session = fpx.explicit_session()
with fpx.use_session(session):
    ops()
far = InjectionRecording(points=[RecordedInjection(10**6, "+", nan, "0" * 16)])
replay = fpx.explicit_session(injector=Injector(recording=far))
with fpx.use_session(replay):
    ops()
tracking = loaded()
fuzz = fpx.explicit_session(injector=Injector(InjectionConfig(odds=1)))
with fpx.use_session(fuzz):
    fpx.TrackedFloat64(1.0) + 1.0
print(json.dumps({
    "tracking": tracking,
    "events": [len(s.ledger.events()) for s in (fpx.current_session(), session, replay)],
    "replay_ops": replay.injector.op_counter,
    "fuzz_injected": fuzz.injector.injected_so_far,
    "fuzz_loaded": "numpy.random" in sys.modules,
}))
"""


def _probe() -> dict:
    out = subprocess.run([sys.executable, "-c", PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_tracking_loads_no_fuzzer_fingerprint_or_tool_modules():
    """import fpx, OFF sessions logging events with native and explicit traces,
    and a replay whose only point is never reached load none of them; the
    first fuzz decision builds the generator, so it loads numpy.random."""
    probe = _probe()
    assert probe["events"][0] > 0 and probe["events"][1] == probe["events"][2] > 0
    assert probe["replay_ops"] > 0 and probe["fuzz_injected"] == 1
    assert [m for m in probe["tracking"]
            if m in NOT_FOR_TRACKING or m.startswith("numpy.random.")] == []
    assert "fpx.tracked" in probe["tracking"]
    assert probe["fuzz_loaded"]


def test_fpx_classify_is_the_module():
    """The package exports no name that shadows its submodule `fpx.classify`."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import fpx.classify; "
             "assert fpx.classify is sys.modules['fpx.classify'], fpx.classify; "
             "print(fpx.classify.ValueClass.NAN.value, fpx.classify.classify.__name__)")
    out = subprocess.run([sys.executable, "-c", probe, str(SRC)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "nan classify\n"
