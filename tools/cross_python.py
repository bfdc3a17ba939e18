"""Check that other Python interpreters give the CLI's exact bytes.

    python3 tools/cross_python.py PYTHON [PYTHON ...]

Runs a fixed list of ``fuzzint`` CLI calls, with ``PYTHONPATH`` set to this
checkout's ``src``, under the running interpreter and under each PYTHON (a
path to an interpreter binary).  The list covers every subcommand in text
and in JSON, the refusals of a cyclic document and of one that is not a
lattice, one sampled ``laws`` run, one run under ``python -O``, the help
texts, operands that repeat the lattice file inline and spell one grade
five ways (plain ``"1/2"`` and four that only ``Fraction``'s parser reads),
and inline lattices that match the lattice file only by their order
(elements reversed with a transitive cover; covers reordered and repeated)
or do not match it (another order, not a lattice, a cycle), and the argv
edge cases of the command dispatch (``ARGV_EDGE_CASES``: help and usage
errors before and after the command, abbreviations, ``--``, arguments left
over).  Three lattice files go through ``validate``: one with a longer
cycle, one with repeated and transitive covers (also fed to ``op``, which
emits its Hasse covers), and a non-distributive product carrier, whose
witness the command prints.
``as_grade`` drops an underscore between two digits before ``Fraction``
reads a grade, so the two calls on ``"1_0/20"`` read 1/2 on Python 3.10
too, whose ``Fraction`` reads no underscores.
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
_N5 = ["0", "a", "b", "c", "1"]
_N5_COVERS = [["0", "a"], ["a", "b"], ["b", "1"], ["0", "c"], ["c", "1"]]
DOCUMENTS.update({
    # the walk meets the cycle b -> c -> d -> b after leaving a
    "cycle3.json": {"name": "cyc3", "elements": ["d", "c", "b", "a"],
                    "covers": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "b"]]},
    # boolean2 with each cover twice and the transitive pair 00 <= 11
    "transitive.json": {"name": "b2", "elements": ["11", "10", "01", "00"],
                        "covers": [["00", "11"], ["10", "11"], ["00", "01"], ["01", "11"],
                                   ["00", "10"], ["10", "11"], ["00", "01"]]},
    # n5 x chain3 with its elements rendered as pairs
    "n5xc3.json": {"name": "n5xc3",
                   "elements": [f"({x},{y})" for x in _N5 for y in "012"],
                   "covers": [[f"({lo},{y})", f"({hi},{y})"] for lo, hi in _N5_COVERS
                              for y in "012"]
                   + [[f"({x},{lo})", f"({x},{hi})"] for x in _N5 for lo, hi in ("01", "12")]},
    "b2-left.json": {"lattice": "boolean2",
                     "memberships": {"00": "1/3", "01": "1", "10": "1/3", "11": "1/2"}},
    "b2-right.json": {"lattice": "boolean2",
                      "memberships": {"00": "1", "01": "2/3", "10": "0", "11": "0"}},
})
HALF_SPELLINGS = ("1/2", "0.5", " 1/2 ", "1_0/20", "\u0661/\u0662")  # the last in Arabic-Indic
DOCUMENTS.update((f"half{i}.json", {"lattice": _CHAIN3,
                                    "memberships": {"0": "1", "1": spelling, "2": "1/3"}})
                 for i, spelling in enumerate(HALF_SPELLINGS))
# inline chain3 documents that are no verbatim copy of chain3.json, so the
# order decides: two that match it, and three refusals (exit 2, 1 and 1)
INLINE_ORDERS = {
    "reversed": (["2", "1", "0"], [["1", "2"], ["0", "2"], ["0", "1"]]),
    "repeated": (["0", "1", "2"], [["1", "2"], ["0", "1"], ["1", "2"], ["0", "1"]]),
    "other-order": (["0", "1", "2"], [["0", "2"], ["2", "1"]]),
    "not-a-lattice": (["0", "1", "2"], [["0", "1"], ["0", "2"]]),
    "cycle": (["0", "1", "2"], [["0", "1"], ["1", "2"], ["2", "0"]]),
}
DOCUMENTS.update((f"{key}.json", {"lattice": {"name": "c3", "elements": elements,
                                              "covers": covers},
                                  "memberships": {"0": "1", "1": "1/2", "2": "0"}})
                 for key, (elements, covers) in INLINE_ORDERS.items())

# argv that the CLI parses by a command's own subparser, or by the full
# parser when no command leads or arguments are left over; each must give
# the bytes of the full parser alone
_OP = ["chain3.json", "left.json", "right.json"]
ARGV_EDGE_CASES: list[list[str]] = [
    [],
    ["-h"],
    ["validate"],
    ["validate", "n5.json", "extra"],
    ["validate", "n5.json", "-h"],
    ["validate", "-h", "n5.json"],
    ["validate", "n5.json", "--format=json"],
    ["validate", "n5.json", "--form", "json"],
    ["validate", "--", "n5.json"],
    ["op", "--", "meet", *_OP],
    ["validate", "n5.json", "--format"],
    ["validate", "n5.json", "--bogus"],
    ["--bogus", "validate", "n5.json"],
    ["validate", "n5.json", "--cuts"],
    ["op", "join", *_OP, "--cuts", "--format", "json"],
    ["op", "frobnicate", *_OP],
    ["vali", "n5.json"],
    ["validate", "n5.json", "--format", "json", "--format", "text"],
    ["--h"],
    ["validate", "--h"],
    ["classify", "--help"],
    ["laws", "--fixture", "chain2", "--format", "json"],
]

_SAMPLED = ["laws", "--fixture", "m3", "--grades", "0,1/3,2/3,1", "--budget", "300",
            "--seed", "3"]
CALLS: list[list[str]] = [
    *([*args, *fmt] for fmt in ([], ["--format", "json"]) for args in (
        ["validate", "n5.json"],
        ["validate", "cyclic.json"],
        ["validate", "two-bottoms.json"],
        ["validate", "cycle3.json"],
        ["validate", "transitive.json"],
        ["validate", "n5xc3.json"],
        ["op", "join", "transitive.json", "b2-left.json", "b2-right.json"],
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
    *(call for key in INLINE_ORDERS for call in (
        ["op", "meet", "chain3.json", "left.json", f"{key}.json"],
        ["classify", "chain3.json", f"{key}.json", "--format", "json"])),
    ["--help"],
    ["laws", "--help"],
    *ARGV_EDGE_CASES,
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
