import json
import runpy
import sys

import pytest

from fuzzint import RouteDisagreement, boolean_lattice, cli, laws
from fuzzint.cli import main
from fuzzint.formats import lattice_to_json, load_lattice
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
    assert capsys.readouterr().err == "error: cover relation contains a cycle: 'x' -> 'y' -> 'x'\n"


def test_validate_not_a_lattice_exits_1(tmp_path, capsys):
    path = tmp_path / "nl.json"
    path.write_text(json.dumps({"name": "v", "elements": ["x", "y", "z"],
                                "covers": [["x", "y"], ["x", "z"]]}))
    assert main(["validate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_malformed_exits_2(tmp_path, capsys):
    for name, content in (("bad.json", b"{broken"), ("deep.json", b"[" * 200_000),
                          ("latin.json", b'{"name": "\xe9"}'),
                          ("long.json", b'{"name": ' + b"1" * 5000 + b"}")):
        path = tmp_path / name
        path.write_bytes(content)
        assert main(["validate", str(path)]) == 2
        assert str(path) in capsys.readouterr().err  # the message names the file


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


def _graded(lattice, cuts):
    """Memberships of the fuzzy interval whose cut at each ``(grade, lo, hi)``
    is ``[lo, hi]``; ``cuts`` nest, ascending by grade."""
    return {x: next((g for g, lo, hi in reversed(cuts)
                     if lattice.leq(lo, x) and lattice.leq(x, hi)), "0")
            for x in lattice.elements}


@pytest.mark.parametrize("operation", ["join", "meet"])
def test_op_on_a_fresh_lattice_fills_one_table_entry_per_level(tmp_path, monkeypatch, capsys,
                                                              operation):
    """An op over an inline boolean5 document derives no Int(L) (244 items)
    and fills at most one op-table entry per level that its walk visits."""
    b5 = boolean_lattice(5)
    doc = lattice_to_json(b5)
    lat_file = tmp_path / "b5.json"
    lat_file.write_text(json.dumps(doc))
    falling = _graded(b5, [("1/6", "00000", "11110"), ("1/3", "00000", "11100"),
                           ("1/2", "00000", "11000"), ("2/3", "00000", "10000"),
                           ("1", "00000", "00000")])
    rising = _graded(b5, [("1/5", "00001", "11111"), ("2/5", "00011", "11111"),
                          ("3/5", "00111", "11111"), ("4/5", "01111", "11111")])
    operands = [fuzzy_file(tmp_path, f"{name}.json", memberships, lattice=doc)
                for name, memberships in (("falling", falling), ("rising", rising))]
    levels = len({"0", "1"} | set(falling.values()) | set(rising.values()))
    assert levels == 10

    def refuse(*args):
        raise AssertionError("the op derived Int(L)")

    monkeypatch.setattr(laws, "enumerate_intervals", refuse)
    monkeypatch.setattr(laws, "_interval_space", refuse)
    loaded = []

    def load(path):
        loaded.append(load_lattice(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_lattice", load)
    assert main(["op", operation, str(lat_file), *operands, "--cuts"]) == 0
    capsys.readouterr()
    (lattice,) = loaded
    assert 0 < sum(map(len, lattice._codes.tables)) <= levels


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
    capsys.readouterr()
    assert main(["laws", "--fixture", "chain2", "--grades", "0,1e-100000000,1"]) == 2
    assert capsys.readouterr().err == "error: grade '1e-100000000' has an exponent beyond 4300\n"


@pytest.mark.parametrize("command", ["classify", "op"])
def test_a_grade_too_long_to_render_exits_2_naming_its_element(chain3_file, tmp_path, capsys,
                                                               command):
    fs = str(tmp_path / "long.json")
    (tmp_path / "long.json").write_text(json.dumps(
        {"lattice": CHAIN3_DOC, "memberships": {"0": "1e-5000", "1": "0", "2": "0"}}))
    assert main(["classify", chain3_file, fs] if command == "classify"
                else ["op", "meet", chain3_file, fs, fs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bad grade for '0': grade '1e-5000' has an exponent "
                            "beyond 4300\n")


def test_a_grade_beyond_a_lowered_int_digit_limit_exits_2_naming_it(chain3_file, tmp_path):
    """Under ``PYTHONINTMAXSTRDIGITS=640`` a grade must render in 640 digits,
    so ``1e-1000``, which the default limit takes, is refused up front."""
    import os
    import subprocess
    import sys
    fs = str(tmp_path / "long.json")
    (tmp_path / "long.json").write_text(json.dumps(
        {"lattice": CHAIN3_DOC, "memberships": {"0": "1e-1000", "1": "0", "2": "0"}}))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS="640")
    proc = subprocess.run([sys.executable, "-m", "fuzzint", "op", "meet", chain3_file, fs, fs],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: bad grade for '0': grade '1e-1000' has an exponent beyond 640\n"


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


def test_commands_that_check_no_law_leave_the_law_checker_unloaded(m3_file):
    """``fuzzint.laws`` loads on first use, and not for a command that checks
    no law; its names stay in ``__all__`` and bind as before, and the suite
    names and defaults are the objects the CLI's parser reads."""
    import os
    import subprocess
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = ("import contextlib, io, sys\n"
              "import fuzzint, fuzzint.cli, fuzzint.formats\n"
              "print('fuzzint.laws' in sys.modules)\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = fuzzint.cli.main(['validate', {m3_file!r}])\n"
              "print(code, 'fuzzint.laws' in sys.modules)\n"
              "print(fuzzint.laws.__name__)\n"
              "names = {}\n"
              "exec('from fuzzint import *', names)\n"
              "print([n for n in fuzzint.__all__ if n not in names])\n"
              "print(fuzzint.run_suite is fuzzint.laws.run_suite is names['run_suite'])\n"
              "print(all(getattr(fuzzint.laws, n) is getattr(fuzzint.cli, n, None)\n"
              "          for n in ('SUITES', 'DEFAULT_BUDGET', 'DEFAULT_SEED')))\n"
              "try:\n"
              "    fuzzint.no_such_name\n"
              "except AttributeError as exc:\n"
              "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False", "0 False", "fuzzint.laws", "[]", "True", "True",
        "module 'fuzzint' has no attribute 'no_such_name'"]


def test_argv_routed_to_a_command_parser_gives_the_full_parsers_bytes(tmp_path, monkeypatch,
                                                                       capsys):
    """Each argv edge case of ``tools/cross_python.py`` gives the exit code,
    stdout and stderr that the full parser alone gives; a plain command
    argv skips the full parser."""
    import importlib.util
    import os
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "cross_python.py")
    spec = importlib.util.spec_from_file_location("cross_python", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for name, doc in tool.DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli.build_parser()
    assert len(tool.ARGV_EDGE_CASES) == 22
    for argv in tool.ARGV_EDGE_CASES:
        routed = (main(argv), *capsys.readouterr())
        with monkeypatch.context() as m:
            m.setattr(parser, "commands", {})  # no argv reaches a command parser first
            full = (main(argv), *capsys.readouterr())
        assert routed == full, argv
    with monkeypatch.context() as m:
        m.setattr(type(parser), "parse_args", None)
        assert main(["validate", "n5.json", "--format=json"]) == 0
    assert json.loads(capsys.readouterr().out)["lattice"] == "n5"


HELP = {
    "--help": """\
usage: fuzzint [-h] {validate,classify,op,laws,enumerate} ...

Fuzzy intervals over finite lattices: validate, classify, operate, and verify
laws.

positional arguments:
  {validate,classify,op,laws,enumerate}
    validate            check a lattice document
    classify            classify a fuzzy set over a lattice
    op                  meet or join of two fuzzy intervals
    laws                run law-verification suites
    enumerate           dump interval or fuzzy-interval enumerations

options:
  -h, --help            show this help message and exit
""",
    "laws --help": """\
usage: fuzzint laws [-h] [--fixture FIXTURE] [--grades GRADES] [--suite SUITE]
                    [--budget BUDGET] [--seed SEED] [--format {text,json}]
                    [lattice]

positional arguments:
  lattice               lattice JSON file

options:
  -h, --help            show this help message and exit
  --fixture FIXTURE     built-in lattice name (chain3, boolean2, m3, n5,
                        product(chain2,chain3), ...)
  --grades GRADES       comma-separated grade chain (default: 0,1/2,1)
  --suite SUITE         one of: axioms, distributivity, cut-identities,
                        endpoints, structure, crisp-axioms, crisp-
                        distributivity, all
  --budget BUDGET       max instances per exhaustive loop before sampling
  --seed SEED           seed for sampled checking
  --format {text,json}  output format (default: text)
""",
}


@pytest.mark.parametrize("argv", sorted(HELP))
def test_help_text_is_pinned(argv, monkeypatch, capsys):
    """The parser reads the suite names and defaults from ``laws`` when it is
    built; the help text at 80 columns keeps its bytes."""
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv.split()) == 0
    assert capsys.readouterr() == (HELP[argv], "")


@pytest.mark.parametrize("path, text", [
    ("./missing.json", "[Errno 2] No such file or directory: 'missing.json'"),
    ("dir//missing.json", "[Errno 2] No such file or directory: 'dir/missing.json'"),
    ("dir", "[Errno 21] Is a directory: 'dir'"),
    ("./dir//", "[Errno 21] Is a directory: 'dir'"),
    ("latin1.json", "'utf-8' codec can't decode byte 0xe9 in position 3: unexpected end of data"),
])
def test_read_errors_name_the_normalized_path(path, text, tmp_path, monkeypatch, capsys):
    """The OS error names the path as ``pathlib`` normalizes it; the message
    keeps the path as given."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin1.json").write_bytes(b"caf\xe9")
    assert main(["validate", path]) == 2
    assert capsys.readouterr() == ("", f"error: cannot read {path}: {text}\n")


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


def test_python_dash_m_exits_with_the_command_status(m3_file, monkeypatch, capsys):
    """``python -m fuzzint``, run in-process: ``__main__`` calls ``entry``,
    which exits with the status ``main`` returns."""
    monkeypatch.setattr(sys, "argv", ["fuzzint", "validate", m3_file])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("fuzzint", run_name="__main__")
    assert exc.value.code == 0
    assert "distributive: false" in capsys.readouterr().out
