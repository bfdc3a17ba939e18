import json

import pytest

from fuzzint import RouteDisagreement, cli
from fuzzint.cli import main
from fuzzint.laws import SUITES

M3_DOC = {
    "name": "m3",
    "elements": ["0", "a", "b", "c", "1"],
    "covers": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]],
}
CHAIN3_DOC = {
    "name": "chain3",
    "elements": ["0", "1", "2"],
    "covers": [["0", "1"], ["1", "2"]],
}


@pytest.fixture()
def m3_file(tmp_path):
    path = tmp_path / "m3.json"
    path.write_text(json.dumps(M3_DOC))
    return str(path)


@pytest.fixture()
def chain3_file(tmp_path):
    path = tmp_path / "chain3.json"
    path.write_text(json.dumps(CHAIN3_DOC))
    return str(path)


def fuzzy_file(tmp_path, name, memberships, lattice="m3"):
    path = tmp_path / name
    path.write_text(json.dumps({"lattice": lattice, "memberships": memberships}))
    return str(path)


def test_validate_text(m3_file, capsys):
    assert main(["validate", m3_file]) == 0
    out = capsys.readouterr().out
    assert "elements: 5" in out
    assert "distributive: false" in out
    assert "witness: (a, b, c)" in out


def test_validate_json(chain3_file, capsys):
    assert main(["validate", chain3_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"lattice": "chain3", "elements": 3, "bottom": "0",
                   "top": "2", "distributive": True}


def test_validate_cyclic_exits_1(tmp_path, capsys):
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps({"name": "c", "elements": ["x", "y"],
                                "covers": [["x", "y"], ["y", "x"]]}))
    assert main(["validate", str(path)]) == 1
    assert "cycle" in capsys.readouterr().err


def test_validate_not_a_lattice_exits_1(tmp_path, capsys):
    path = tmp_path / "nl.json"
    path.write_text(json.dumps({"name": "v", "elements": ["x", "y", "z"],
                                "covers": [["x", "y"], ["x", "z"]]}))
    assert main(["validate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_malformed_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["validate", str(path)]) == 2


def test_missing_file_exits_2(capsys):
    assert main(["validate", "/no/such/file.json"]) == 2


def test_classify_text(m3_file, tmp_path, capsys):
    fs = fuzzy_file(tmp_path, "fs.json",
                    {"0": "1", "a": "1", "b": "1", "c": "0", "1": "1"})
    assert main(["classify", m3_file, fs]) == 0
    out = capsys.readouterr().out
    assert "classification: fuzzy-sublattice" in out
    assert "failed: fuzzy-convex-sublattice" in out
    assert "witness: (0, 1, c)" in out


def test_classify_json(m3_file, tmp_path, capsys):
    fs = fuzzy_file(tmp_path, "fi.json",
                    {"0": "1", "a": "1/2", "b": "0", "c": "0", "1": "0"})
    assert main(["classify", m3_file, fs, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"classification": "fuzzy-interval"}


def test_route_disagreement_exits_1(m3_file, tmp_path, capsys, monkeypatch):
    def disagreeing(m):
        raise RouteDisagreement("fuzzy-interval", m, {"cut-shape": True, "cut-convexity": False})

    monkeypatch.setattr(cli, "classify", disagreeing)
    fs = fuzzy_file(tmp_path, "fi.json",
                    {"0": "1", "a": "1/2", "b": "0", "c": "0", "1": "0"})
    assert main(["classify", m3_file, fs]) == 1
    assert "fuzzy-interval routes disagree" in capsys.readouterr().err


def test_classify_lattice_mismatch_exits_2(m3_file, tmp_path, capsys):
    fs = fuzzy_file(tmp_path, "fs.json", {"0": "1", "1": "1", "2": "1"},
                    lattice="chain3")
    assert main(["classify", m3_file, fs]) == 2


def test_classify_unknown_fixture_name_exits_2(m3_file, tmp_path, capsys):
    # the same message as an unknown --fixture
    fs = fuzzy_file(tmp_path, "fs.json", {"0": "1"}, lattice="dodecahedron")
    assert main(["classify", m3_file, fs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown lattice fixture 'dodecahedron'\n"


def test_classify_fixture_name_is_checked_against_the_lattice(tmp_path, capsys):
    # a 5-chain that calls itself m3 is not the m3 fixture the document names
    lat = tmp_path / "lat.json"
    labels = ["0", "1", "2", "3", "4"]
    lat.write_text(json.dumps({"name": "m3", "elements": labels,
                               "covers": [list(pair) for pair in zip(labels, labels[1:])]}))
    fs = fuzzy_file(tmp_path, "fs.json", dict.fromkeys(labels, "1"), lattice="m3")
    assert main(["classify", str(lat), fs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the fuzzy set's lattice does not match "
                            "the provided lattice\n")


@pytest.mark.parametrize("command", ["classify", "op"])
def test_product_fixture_document_matches_its_lattice_file(command, tmp_path, capsys):
    lat = tmp_path / "lat.json"
    labels = ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]
    lat.write_text(json.dumps({"name": "product(chain2,chain2)", "elements": labels,
                               "covers": [["(0,0)", "(0,1)"], ["(0,0)", "(1,0)"],
                                          ["(0,1)", "(1,1)"], ["(1,0)", "(1,1)"]]}))
    memberships = dict(zip(labels, ["1", "1", "1/2", "1/2"]))
    fs = fuzzy_file(tmp_path, "fs.json", memberships, lattice="product(chain2,chain2)")
    argv = (["classify", str(lat), fs] if command == "classify"
            else ["op", "meet", str(lat), fs, fs])
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == "classify":
        assert captured.out == "classification: fuzzy-interval\n"
    else:
        assert json.loads(captured.out)["memberships"] == memberships


def test_op_meet(m3_file, tmp_path, capsys):
    a = fuzzy_file(tmp_path, "a.json", {"0": "1", "a": "1/2", "b": "0", "c": "0", "1": "0"})
    b = fuzzy_file(tmp_path, "b.json", {"0": "1", "a": "0", "b": "1/2", "c": "0", "1": "0"})
    assert main(["op", "meet", m3_file, a, b]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["memberships"] == {"0": "1", "a": "0", "b": "0", "c": "0", "1": "0"}


def test_op_join_with_cuts(m3_file, tmp_path, capsys):
    a = fuzzy_file(tmp_path, "a.json", {"0": "1", "a": "1/2", "b": "0", "c": "0", "1": "0"})
    b = fuzzy_file(tmp_path, "b.json", {"0": "0", "a": "0", "b": "1/2", "c": "0", "1": "0"})
    assert main(["op", "join", m3_file, a, b, "--cuts"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    # the 1/2-cut must be the hull [0, a⊔b] = the whole diamond
    assert doc["memberships"] == {"0": "1", "a": "1/2", "b": "1/2", "c": "1/2", "1": "1/2"}
    assert "cuts:" in captured.err
    assert "1/2: [0,1]" in captured.err


# Operands with different grade sets, {0, 1/3, 1} and {0, 1/2, 1}; the
# expected bytes were captured before grades were stored as chain ranks.
THIRDS = {"0": "1", "a": "1/3", "b": "0", "c": "0", "1": "0"}
HALVES = {"0": "1/2", "a": "0", "b": "1", "c": "0", "1": "0"}
CROSS_CHAIN = {
    "join": ('{\n  "lattice": "m3",\n  "memberships": {\n    "0": "1",\n    "1": "1/3",\n'
             '    "a": "1/3",\n    "b": "1",\n    "c": "1/3"\n  }\n}\n',
             "cuts:\n  0: [0,1]\n  1/3: [0,1]\n  1: [0,b]\n"),
    "meet": ('{\n  "lattice": "m3",\n  "memberships": {\n    "0": "1/2",\n    "1": "0",\n'
             '    "a": "0",\n    "b": "0",\n    "c": "0"\n  }\n}\n',
             "cuts:\n  0: [0,1]\n  1/2: [0,0]\n  1: empty\n"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("operation", ["join", "meet"])
def test_op_across_grade_sets_is_pinned(m3_file, tmp_path, capsys, operation, fmt):
    a = fuzzy_file(tmp_path, "thirds.json", THIRDS)
    b = fuzzy_file(tmp_path, "halves.json", HALVES)
    assert main(["op", operation, m3_file, a, b, "--format", fmt]) == 0
    stdout, cuts = CROSS_CHAIN[operation]
    assert capsys.readouterr() == (stdout, "")
    assert main(["op", operation, m3_file, a, b, "--format", fmt, "--cuts"]) == 0
    assert capsys.readouterr() == (stdout, cuts)


def test_op_rejects_non_interval_operand(m3_file, tmp_path, capsys):
    bad = fuzzy_file(tmp_path, "bad.json",
                     {"0": "1", "a": "1", "b": "1", "c": "0", "1": "1"})
    ok = fuzzy_file(tmp_path, "ok.json",
                    {"0": "1", "a": "0", "b": "0", "c": "0", "1": "0"})
    assert main(["op", "meet", m3_file, bad, ok]) == 1
    err = capsys.readouterr().err
    assert "not a fuzzy interval" in err
    assert "classification: fuzzy-sublattice" in err


def test_op_rejects_non_interval_right_operand(m3_file, tmp_path, capsys):
    ok = fuzzy_file(tmp_path, "ok.json",
                    {"0": "1", "a": "0", "b": "0", "c": "0", "1": "0"})
    bad = fuzzy_file(tmp_path, "bad.json",
                     {"0": "0", "a": "1", "b": "1", "c": "0", "1": "1"})
    assert main(["op", "join", m3_file, ok, bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {bad} is not a fuzzy interval",
        "  classification: none",
        "  failed: fuzzy-sublattice",
        "  witness: (a, b)",
    ]


def test_op_result_roundtrips_as_input(m3_file, tmp_path, capsys):
    a = fuzzy_file(tmp_path, "a.json", {"0": "1", "a": "1/2", "b": "0", "c": "0", "1": "0"})
    b = fuzzy_file(tmp_path, "b.json", {"0": "0", "a": "0", "b": "1/2", "c": "0", "1": "0"})
    main(["op", "join", m3_file, a, b])
    out = capsys.readouterr().out
    result = tmp_path / "result.json"
    result.write_text(out)
    assert main(["classify", m3_file, str(result), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"classification": "fuzzy-interval"}


def test_laws_fixture_pass(capsys):
    assert main(["laws", "--fixture", "chain2", "--suite", "axioms"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out


def test_laws_sampled_text_names_the_sample(capsys):
    # chain3 has 22 fuzzy intervals over {0, 1/2, 1}: 484 pairs, 300 drawn
    assert main(["laws", "--fixture", "chain3", "--budget", "300", "--seed", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert ("  PASS   commutativity-join                 checked=300 "
            "[sampled(300 of 484, seed=3)]") in lines


def test_laws_nonpositive_budget_exits_2(capsys):
    assert main(["laws", "--fixture", "chain3", "--budget", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --budget must be positive\n"


def test_laws_file_and_fixture_conflict(m3_file, capsys):
    assert main(["laws", m3_file, "--fixture", "m3"]) == 2


def test_laws_requires_some_lattice(capsys):
    assert main(["laws"]) == 2


def test_laws_json_output(capsys):
    assert main(["laws", "--fixture", "chain2", "--suite", "distributivity",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["suite"] == "distributivity"
    assert doc["reports"][0]["passed"] is True


def test_laws_asserted_failure_exits_1(capsys):
    # a 3-chain's interval lattice embeds a pentagon: asserted laws fail
    assert main(["laws", "--fixture", "chain3", "--suite", "distributivity"]) == 1
    out = capsys.readouterr().out
    assert "result: FAIL" in out


def test_laws_non_distributive_finding_exits_0(capsys):
    assert main(["laws", "--fixture", "n5", "--grades", "0,1",
                 "--suite", "distributivity"]) == 0
    out = capsys.readouterr().out
    assert "FAIL*" in out
    assert "result: PASS" in out


def test_laws_bad_grades_exit_2(capsys):
    assert main(["laws", "--fixture", "chain2", "--grades", "1/2,1"]) == 2
    assert main(["laws", "--fixture", "chain2", "--grades", "0,half,1"]) == 2
    assert main(["laws", "--fixture", "chain2", "--grades", "0,3/2,1"]) == 2


def test_laws_unknown_fixture_exits_2(capsys):
    for spec in ("tetrahedron", "chain²", "boolean¹", "chain٣"):
        assert main(["laws", "--fixture", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown lattice fixture {spec!r}\n"


def test_laws_oversized_fixture_exits_2(capsys):
    assert main(["laws", "--fixture", "product(boolean12,chain2)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lattice with 8192 elements exceeds the cap of 4096\n"
    assert main(["laws", "--fixture", "boolean20000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lattice with 2^20000 elements exceeds the cap of 4096\n"


def test_laws_deeply_nested_fixture_exits_2(capsys):
    spec = "product(" * 1200 + "m3" + ",m3)" * 1200
    assert main(["laws", "--fixture", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lattice fixture nests product(...) more than 64 levels deep\n"


def test_laws_unknown_suite_exits_2(capsys):
    assert main(["laws", "--fixture", "chain2", "--suite", "nonsense"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: unknown suite 'nonsense'; choose from "
                            + ", ".join(SUITES + ("all",)) + "\n")


def test_laws_custom_file(chain3_file, capsys):
    assert main(["laws", chain3_file, "--suite", "structure"]) == 0


def test_enumerate_intervals_text(capsys):
    assert main(["enumerate", "--fixture", "chain3", "--kind", "intervals"]) == 0
    out = capsys.readouterr().out
    assert "count: 7" in out
    assert "[0,2]" in out


def test_enumerate_fuzzy_json(capsys):
    assert main(["enumerate", "--fixture", "chain2", "--kind", "fuzzy-intervals",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 9
    assert {"0": "1", "1": "1"} in doc["fuzzy_intervals"]


def test_enumerate_grades_respected(capsys):
    assert main(["enumerate", "--fixture", "chain2", "--kind", "fuzzy-intervals",
                 "--grades", "0,1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 4


def test_usage_error_exits_2(capsys):
    assert main(["op", "frobnicate", "x", "y", "z"]) == 2
    assert main(["no-such-command"]) == 2


def test_one_parser_serves_every_call_like_a_fresh_process(m3_file, tmp_path, capsys):
    import os
    import subprocess
    import sys
    assert cli.build_parser() is cli.build_parser()
    a = fuzzy_file(tmp_path, "a.json", {"0": "1", "a": "1/2", "b": "0", "c": "0", "1": "0"})
    b = fuzzy_file(tmp_path, "b.json", {"0": "0", "a": "0", "b": "1/2", "c": "0", "1": "0"})
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    calls = [["validate", m3_file, "--format", "json"],
             ["op", "frobnicate", m3_file, a, b],
             ["classify", m3_file, a],
             ["op", "join", m3_file, a, b, "--cuts"],
             ["op", "join", m3_file, a, b]]
    seen = []
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "fuzzint", *argv],
                               capture_output=True, text=True, env=env)
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        seen.append((code, out, err))
    assert [code for code, _, _ in seen] == [0, 2, 0, 0, 0]
    assert seen[2][1].startswith("classification: ")  # --format json did not stay
    assert seen[3][2].startswith("cuts:") and seen[4][2] == ""  # nor did --cuts


def test_console_script_entry_point(m3_file, tmp_path):
    """Run the ``[project.scripts]`` entry through the wrapper pip writes for it.

    The wrapper is generated from ``pyproject.toml`` and run against ``src/``,
    so the wiring is checked from a checkout without an install.
    """
    import os
    import subprocess
    import sys
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, attr = scripts["fuzzint"].split(":")
    script = tmp_path / "fuzzint"
    script.write_text(
        "import re\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({attr}())\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, str(script), "validate", m3_file],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "distributive: false" in proc.stdout


def test_python_dash_m_runs_without_install():
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "fuzzint", "laws", "--fixture", "chain2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout.splitlines()
