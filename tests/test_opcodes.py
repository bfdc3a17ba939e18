import importlib.util
import json
import sys
import types
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "opcodes.py"
HERE = "tests/test_opcodes.py"


def _tool():
    spec = importlib.util.spec_from_file_location("opcodes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _loop(n):
    total = 0
    for i in range(n):
        total += i
    return total


class StubWorkload:
    """Two requests: a loop in this file, and an indented ``json.dumps``,
    which runs the standard library's pure-Python encoder."""

    def __init__(self, wrong_key=None):
        self.wrong_key = wrong_key
        self.calls = []

    def requests(self, seed):
        return [("loop", 50 + seed), ("dumps", {"a": [1, 2, {"b": 3}]})]

    def setup(self):
        self.calls.append("setup")

    def execute(self, request):
        kind, arg = request
        return _loop(arg) if kind == "loop" else json.dumps(arg, indent=2)

    def check(self, request, out):
        if request[0] == self.wrong_key:
            return False
        return out == (_loop(request[1]) if request[0] == "loop"
                       else json.dumps(request[1], indent=2))

    def cleanup(self):
        self.calls.append("cleanup")


def test_opcodes_reports_totals_per_function_and_per_file():
    tool = _tool()
    stub = StubWorkload()
    report = tool.measure("stub", stub, 3)
    assert stub.calls == ["setup", "cleanup"]
    assert (report["workload"], report["seed"], report["wrong"]) == ("stub", 3, 0)
    files = dict(report["files"])
    assert report["opcodes"] == sum(files.values()) > 0
    assert files[HERE] > 0 and files["encoder.py"] > 0
    assert [count for _, count in report["files"]] == sorted(files.values(), reverse=True)
    # every function's count lands in its own file's total
    top = dict(report["top"])
    assert len(top) <= tool.TOP
    for name, count in top.items():
        assert files[name.rpartition(":")[0]] >= count
    # a longer loop executes more opcodes in its own function
    longer = dict(tool.measure("stub", StubWorkload(), 13)["top"])
    assert longer[f"{HERE}:_loop"] > top[f"{HERE}:_loop"] > 0


def test_opcodes_counts_a_wrong_output_in_both_passes():
    tool = _tool()
    stub = StubWorkload(wrong_key="dumps")
    report = tool.measure("stub", stub, 0)
    assert report["wrong"] == 2  # the warm pass and the traced pass
    assert stub.calls == ["setup", "cleanup"]


def test_opcodes_main_lists_the_top_n_functions(monkeypatch, capsys):
    """``--top N`` lists the N functions with the most opcodes; without it
    the list stops at ``TOP``, here lowered below the stub's function count."""
    tool = _tool()
    monkeypatch.setattr(tool, "TOP", 4)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends perfbench/
    monkeypatch.setitem(sys.modules, "workloads",
                        types.SimpleNamespace(WORKLOADS={"stub": StubWorkload}))

    def counts(*flags):
        assert tool.main(["stub", *flags]) == 0
        return [count for _, count in json.loads(capsys.readouterr().out)["top"]]

    every = counts("--top", "1000")
    assert 4 < len(every) < 1000 and every == sorted(every, reverse=True)
    assert counts() == every[:4]
    assert counts("--top", "2") == every[:2]
