"""Check that other Python interpreters give the CLI's exact bytes.

    python3 tools/cross_python.py PYTHON [PYTHON ...]

Runs a fixed list of ``fuzzint`` CLI calls, with ``PYTHONPATH`` set to this
checkout's ``src``, under the running interpreter and under each PYTHON (a
path to an interpreter binary).  The list covers every subcommand in text
and in JSON, the refusals of a cyclic document and of one that is not a
lattice, one sampled ``laws`` run, one run under ``python -O``, the help
texts, and operands that repeat the lattice file inline and spell one grade
five ways (plain ``"1/2"`` and four that only ``Fraction``'s parser reads).
Python 3.10's ``Fraction`` reads no underscores, so there the two calls on
``"1_0/20"`` exit 2 where later versions accept the grade.
Every call's exit code, stdout and stderr must equal the running
interpreter's, byte for byte.  Prints one line per interpreter, and one per
differing call; exits 1 on any difference or on an interpreter that does
not start, 2 on a usage error, else 0.  Stdlib only; needs no install.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TIMEOUT_S = 300

_CHAIN3 = {"name": "c3", "elements": ["0", "1", "2"], "covers": [["0", "1"], ["1", "2"]]}
DOCUMENTS = {
    "chain3.json": _CHAIN3,
    "n5.json": {"name": "n5", "elements": ["0", "a", "b", "c", "1"],
                "covers": [["0", "a"], ["a", "b"], ["b", "1"], ["0", "c"], ["c", "1"]]},
    "cyclic.json": {"name": "cyc", "elements": ["x", "y"], "covers": [["x", "y"], ["y", "x"]]},
    "two-bottoms.json": {"name": "no-meet", "elements": ["0", "a", "b", "c", "1"],
                         "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"], ["c", "1"]]},
    "left.json": {"lattice": _CHAIN3, "memberships": {"0": "1/2", "1": "1", "2": "1/3"}},
    "right.json": {"lattice": "chain3", "memberships": {"0": "0", "1": "2/3", "2": "1"}},
    "split.json": {"lattice": _CHAIN3, "memberships": {"0": "1", "1": "0", "2": "1"}},
}
HALF_SPELLINGS = ("1/2", "0.5", " 1/2 ", "1_0/20", "\u0661/\u0662")  # the last in Arabic-Indic
DOCUMENTS.update((f"half{i}.json", {"lattice": _CHAIN3,
                                    "memberships": {"0": "1", "1": spelling, "2": "1/3"}})
                 for i, spelling in enumerate(HALF_SPELLINGS))

_SAMPLED = ["laws", "--fixture", "m3", "--grades", "0,1/3,2/3,1", "--budget", "300",
            "--seed", "3"]
CALLS: list[list[str]] = [
    *([*args, *fmt] for fmt in ([], ["--format", "json"]) for args in (
        ["validate", "n5.json"],
        ["validate", "cyclic.json"],
        ["validate", "two-bottoms.json"],
        ["classify", "chain3.json", "left.json"],
        ["classify", "chain3.json", "split.json"],
        ["op", "meet", "chain3.json", "left.json", "right.json", "--cuts"],
        ["op", "join", "chain3.json", "left.json", "right.json"],
        ["op", "join", "chain3.json", "left.json", "split.json"],
        ["laws", "--fixture", "chain3"],
        ["laws", "n5.json", "--suite", "crisp-axioms"],
        ["enumerate", "--fixture", "n5"],
        ["enumerate", "--fixture", "chain2", "--kind", "fuzzy-intervals"],
    )),
    [*_SAMPLED, "--format", "json"],
    ["-O", *_SAMPLED, "--format", "json"],
    *(["op", "meet", "chain3.json", "left.json", f"half{i}.json", "--cuts"]
      for i in range(len(HALF_SPELLINGS))),
    *(["classify", "chain3.json", f"half{i}.json", "--format", "json"]
      for i in range(len(HALF_SPELLINGS))),
    ["--help"],
    ["laws", "--help"],
]


def run(python: str, call: list[str], cwd: str) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, stderr) of ``python [-O] -m fuzzint ...``."""
    flags, args = (["-O"], call[1:]) if call[:1] == ["-O"] else ([], call)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([python, *flags, "-m", "fuzzint", *args], cwd=cwd, env=env,
                          capture_output=True, timeout=TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr


def main(argv: list[str]) -> int:
    if not argv or any(arg.startswith("-") for arg in argv):
        print("usage: python3 tools/cross_python.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as cwd:
        for name, doc in DOCUMENTS.items():
            Path(cwd, name).write_text(json.dumps(doc), encoding="utf-8")
        expected = [run(sys.executable, call, cwd) for call in CALLS]
        for python in argv:
            try:
                got = [run(python, call, cwd) for call in CALLS]
            except (OSError, subprocess.TimeoutExpired) as exc:
                print(f"{python}: could not run: {exc}")
                failed = True
                continue
            diffs = [(call, [part for part, a, b in zip(("exit code", "stdout", "stderr"),
                                                        want, have) if a != b])
                     for call, want, have in zip(CALLS, expected, got) if want != have]
            print(f"{python}: {len(CALLS) - len(diffs)} of {len(CALLS)} calls "
                  f"give the bytes of {sys.executable}")
            for call, parts in diffs:
                print(f"  differs in {', '.join(parts)}: fuzzint {' '.join(call)}")
            failed = failed or bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
