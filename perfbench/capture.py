"""Capture the golden outputs the benchmark checks against.

    python3 perfbench/capture.py [workload ...]

Run it only on a commit whose outputs are known to be right: every later
run of the benchmark compares against what this writes to ``golden/``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import GOLDEN, WORKLOADS  # noqa: E402


def main(argv) -> int:
    GOLDEN.mkdir(exist_ok=True)
    for name in argv or sorted(WORKLOADS):
        golden = WORKLOADS[name]().capture()
        path = GOLDEN / f"{name}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
