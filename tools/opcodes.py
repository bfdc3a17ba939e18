"""Count the bytecodes that one warm pass of a benchmark workload executes.

    python3 tools/opcodes.py WORKLOAD [--seed S]

WORKLOAD is one of ``perfbench/workloads.py``'s workloads.  The tool sets it
up, runs one untraced pass over the requests of seed S (default 0), so that
every cache a request fills is warm, then runs the same requests again
under ``sys.settrace`` with opcode events on, and checks every output of
both passes.  Prints one JSON line: the workload, the seed, the total
opcode count of the traced pass, the functions with the most opcodes, as
``[path:qualified name, count]`` (the plain name before Python 3.11), and
the opcodes of each source file, as ``[path, count]`` from the most (a
standard-library file by its name alone, such as ``argparse.py``).
Exits 1 when an output is wrong.

A count does not drift with the host's speed, so it compares two trees of
the code where seconds cannot; it counts Python bytecodes only, so work
done inside C functions is free.  Stdlib only; needs no install.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOP = 15


def _name(code) -> str:
    path = Path(code.co_filename)
    try:
        path = path.resolve().relative_to(ROOT)
    except ValueError:  # outside the checkout: the standard library, for one
        path = Path(path.name)
    return f"{path.as_posix()}:{getattr(code, 'co_qualname', code.co_name)}"


def count_pass(workload, requests) -> tuple[Counter, list]:
    """(opcodes per code object, outputs) of one pass under ``sys.settrace``."""
    counts: Counter = Counter()

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        if event == "opcode":
            counts[frame.f_code] += 1
        return trace

    outputs = []
    sys.settrace(trace)
    try:
        for request in requests:
            outputs.append(workload.execute(request))
    finally:
        sys.settrace(None)
    return counts, outputs


def measure(name: str, workload, seed: int) -> dict:
    """The report of one warm pass of ``workload`` over the requests of
    ``seed``: what ``main`` prints."""
    try:
        requests = workload.requests(seed)
        workload.setup()
        warm = [workload.execute(request) for request in requests]
        counts, traced = count_pass(workload, requests)
        wrong = sum(not workload.check(request, out)
                    for outputs in (warm, traced) for request, out in zip(requests, outputs))
    finally:
        cleanup = getattr(workload, "cleanup", None)
        if cleanup is not None:
            cleanup()
    by_name: Counter = Counter()
    for code, count in counts.items():
        by_name[_name(code)] += count
    by_file: Counter = Counter()
    for qualified, count in by_name.items():
        by_file[qualified.rpartition(":")[0]] += count
    return {"workload": name, "seed": seed, "opcodes": sum(by_name.values()), "wrong": wrong,
            "top": by_name.most_common(TOP), "files": by_file.most_common()}


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    report = measure(args.workload, WORKLOADS[args.workload](), args.seed)
    print(json.dumps(report))
    return 1 if report["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
