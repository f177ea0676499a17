"""The CLI golden: a fixed list of `fpx` commands, run in order through
cli_main over fixture files written to a fresh directory, must give the
committed digest table (tests/cli_golden.json) byte for byte. Per command the
table holds the exit code, stderr, the SHA-256 of stdout, and the SHA-256 of
every file the command wrote or changed, with the directory's path written
as <tmp>. A deliberate output change edits the table in the same change;
`python3 tests/test_cli_golden.py` rewrites it from the code as it is.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from fpx.cli import cli_main

TABLE = Path(__file__).with_name("cli_golden.json")



def _mixed_log(n=600):
    """A prop log whose events' traces and classes interleave, long enough to
    be read in several runs."""
    value = {"nan": {"dec": "NaN", "hex": "0x7ff8000000000000"},
             "inf": {"dec": "Inf", "hex": "0x7ff0000000000000"}}
    lines = []
    for i in range(n):
        fn, cls = ("solve", "step", "flux")[i % 3], ("nan", "inf")[i % 2]
        lines.append(json.dumps({
            "seq": i + 1, "kind": "prop", "class": cls, "op": "+", "arity": 2,
            "operands": [value[cls], {"dec": "1.0", "hex": "0x3ff0000000000000"}],
            "result": value[cls], "injected": False,
            "trace": [{"fn": fn, "file": "m.py", "line": len(fn)},
                      {"fn": "main", "file": "m.py", "line": 1}]}) + "\n")
    return "".join(lines)


# fixture files: name -> text
FIXTURES = {
    "mixed.jsonl": _mixed_log(),
    "traces.txt": "inner\ta.py:1\nmid\tm.py:5\nouter\tb.py:2\n\n"
                  "leaf\tc.py:3\nmid\tm.py:5\nouter\tb.py:2\n\n"
                  "inner\ta.py:1\nmid\tm.py:5\nouter\tb.py:2\n",
    "bad.jsonl": '{"seq": 1, "kind": "gen", "class": "nan", "op": "-", "arity": 2, '
                 '"operands": [], "result": true, "injected": false, "trace": []}\n'
                 '{"seq": oops\n',
}

# each command's argv, "{}" standing for the directory; run in this order
COMMANDS = [
    "run max --out {}/max",
    "run max --values 1,+Inf,nan,-INF --no-prop --out {}/max2",
    "run loop --out {}/loop",
    "run loop --inject --max-iters 5 --max-logs 3 --out {}/loop2",
    "run sim --blowup --out {}/sim",
    "run sim --blowup --steps 14 --out {}/sim14",
    "run sim --blowup --steps 24 --cells 48 --out {}/big",
    "run sim --fuzz odds=3 n=4 seed=7 --record {}/rec.jsonl --out {}/fuzz",
    "run sim --replay {}/rec.jsonl --out {}/replay",
    "run sim --steps 3 --replay {}/rec.jsonl --out {}/short",
    "run max --replay {}/rec.jsonl --out {}/unconsumed",
    "run max --fuzz odds=1 n=2 seed=1 value=-inf functions=max2 --record {}/rec2.jsonl "
    "--out {}/scoped",
    "run sim --replay {}/rec2.jsonl --out {}/diverged",
    "run sim --out {}/x --record {}/r.jsonl",
    "run sim --fuzz odds=1 --replay {}/rec.jsonl --out {}/x",
    "run nope --out {}/x",
    "run max --values 1,banana --out {}/x",
    "run sim --replay {}/missing.jsonl --out {}/x",
    "run sim --replay {}/bad.jsonl --out {}/x",
    "cstg {}/sim/gen.jsonl",
    "cstg {}/big/prop.jsonl --dot {}/prop.dot --json {}/prop.json",
    "cstg {}/big/prop.jsonl --split 0.3 --json {}/split.json",
    "cstg {}/big/prop.jsonl --split 0.7 --coarse --dot {}/split.dot",
    "cstg {}/big/prop.jsonl --coarse",
    "cstg {}/big/prop.jsonl --value-class inf",
    "cstg {}/big/kill.jsonl --value-class nan --coarse --json {}/kill.json",
    "cstg {}/fuzz/gen.jsonl --split 0.5 --value-class nan",
    "cstg {}/mixed.jsonl",
    "cstg {}/mixed.jsonl --split 0.5",
    "cstg {}/mixed.jsonl --split 0.2 --value-class inf --json {}/msplit.json",
    "cstg {}/traces.txt",
    "cstg {}/traces.txt --split 0.4 --json {}/tsplit.json",
    "cstg {}/traces.txt --value-class nan",
    "cstg {}/prop.json",
    "cstg {}/bad.jsonl",
    "cstg {}/missing.jsonl",
    "cstg {}/sim/gen.jsonl --split 1.5",
    "diff {}/prop.json {}/prop.json",
    "diff {}/sim/gen.jsonl {}/sim14/gen.jsonl --json {}/diff.json --dot {}/diff.dot",
    "diff {}/sim/prop.jsonl {}/fuzz/prop.jsonl --coarse",
    "diff {}/traces.txt {}/big/prop.jsonl",
    "diff {}/mixed.jsonl {}/traces.txt --coarse",
    "diff {}/prop.json {}/kill.json",
    "diff {}/split.json {}/prop.json",
    "render {}/max/kill.jsonl",
    "render {}/sim/gen.jsonl --value-class inf",
    "render {}/bad.jsonl",
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): _sha(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def _digests(root: Path, readouterr) -> list:
    """Runs COMMANDS over FIXTURES in root, reading each command's stdout and
    stderr with readouterr: one table row per command."""
    for name, text in FIXTURES.items():
        (root / name).write_text(text, encoding="utf-8")
    rows, before = [], _files(root)
    for command in COMMANDS:
        code = cli_main(command.replace("{}", str(root)).split())
        out, err = readouterr()
        after = _files(root)
        rows.append({"command": command, "code": code,
                     "stdout": _sha(out.replace(str(root), "<tmp>").encode("utf-8")),
                     "stderr": err.replace(str(root), "<tmp>"),
                     "files": {k: v for k, v in after.items() if before.get(k) != v}})
        before = after
    return rows


def test_commands_match_the_digest_table(tmp_path, capsys):
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    assert [row["command"] for row in expected] == COMMANDS
    rows = _digests(tmp_path, lambda: tuple(capsys.readouterr()))
    assert {row["code"] for row in rows} == {0, 1, 2}
    for row, want in zip(rows, expected):
        assert row == want


if __name__ == "__main__":
    out, err = io.StringIO(), io.StringIO()

    def readouterr():
        text = out.getvalue(), err.getvalue()
        for stream in (out, err):
            stream.seek(0), stream.truncate()
        return text
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        table = _digests(Path(tmp), readouterr)
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} rows to {TABLE}")
