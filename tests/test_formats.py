import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lattice_of, random_lattices
from fuzzint import (CycleError, FiniteLattice, FormatError, FuzzyInterval, FuzzySet,
                     LatticeMismatch, NotALattice, chain, cli, m3, product_lattice,
                     standard_lattice)
from fuzzint import formats
from fuzzint.errors import InvalidGrade
from fuzzint.formats import (dumps_canonical, fuzzy_set_from_json,
                             fuzzy_set_to_json, lattice_from_json,
                             lattice_to_json, load_fuzzy_set, load_lattice)
from fuzzint.fuzzysets import as_grade
from fuzzint.lattice import format_element

M3_DOC = {
    "name": "m3",
    "elements": ["0", "a", "b", "c", "1"],
    "covers": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]],
}


def test_lattice_from_json():
    lat = lattice_from_json(M3_DOC)
    assert lat == m3()
    assert lat.name == "m3"


def test_lattice_doc_requires_exact_keys():
    with pytest.raises(FormatError):
        lattice_from_json({"elements": ["x"], "covers": []})
    with pytest.raises(FormatError):
        lattice_from_json({**M3_DOC, "extra": 1})


def test_lattice_doc_type_errors():
    with pytest.raises(FormatError):
        lattice_from_json({"name": "x", "elements": "abc", "covers": []})
    with pytest.raises(FormatError):
        lattice_from_json({"name": "x", "elements": ["a"], "covers": [["a"]]})
    with pytest.raises(FormatError):
        lattice_from_json({"name": "x", "elements": ["a", "a"], "covers": []})
    with pytest.raises(FormatError):
        lattice_from_json({"name": "x", "elements": ["a", "b"], "covers": [["a", "zz"]]})
    with pytest.raises(FormatError, match="^lattice name must be a string$"):
        lattice_from_json({"name": 7, "elements": ["a"], "covers": []})
    shape = "^covers must be an array of \\[lower, upper\\] string pairs$"
    for covers in ("ab", [["a", "b"], "ab"], [["a", "b", "a"]], [["a", 1]], [[None, "b"]]):
        with pytest.raises(FormatError, match=shape):
            lattice_from_json({"name": "x", "elements": ["a", "b"], "covers": covers})
    with pytest.raises(FormatError, match="^elements must be"):  # checked before the covers
        lattice_from_json({"name": "x", "elements": [], "covers": "ab"})


def test_lattice_roundtrip_is_byte_identical():
    lat = lattice_from_json(M3_DOC)
    s1 = dumps_canonical(lattice_to_json(lat))
    again = lattice_from_json(json.loads(s1))
    s2 = dumps_canonical(lattice_to_json(again))
    assert s1 == s2
    assert again == lat


def test_fuzzy_set_roundtrip_normalizes_grades():
    lat = m3()
    doc = {"lattice": "m3",
           "memberships": {"0": "1", "a": "2/4", "b": "0", "c": "1", "1": "1/3"}}
    m = fuzzy_set_from_json(doc, lat)
    assert m("a") == Fraction(1, 2)
    out = dumps_canonical(fuzzy_set_to_json(m))
    assert '"1/2"' in out
    again = fuzzy_set_from_json(json.loads(out), lat)
    assert dumps_canonical(fuzzy_set_to_json(again)) == out


def test_fuzzy_set_rejects_floats():
    with pytest.raises(FormatError) as exc:
        fuzzy_set_from_json({"lattice": "m3", "memberships": {
            "0": 0.5, "a": "1", "b": "1", "c": "1", "1": "1"}}, m3())
    assert "float" in str(exc.value)


def test_fuzzy_set_rejects_booleans():
    for flag in (True, False):
        with pytest.raises(FormatError) as exc:
            fuzzy_set_from_json({"lattice": "m3", "memberships": {
                "0": "1", "a": flag, "b": "1", "c": "1", "1": "1"}}, m3())
        assert str(exc.value) == "grade for 'a' must be a string"


def test_fuzzy_set_must_be_total():
    with pytest.raises(FormatError):
        fuzzy_set_from_json({"lattice": "m3", "memberships": {"0": "1"}}, m3())
    with pytest.raises(FormatError):
        fuzzy_set_from_json({"lattice": "m3", "memberships": {
            "0": "1", "a": "1", "b": "1", "c": "1", "1": "1", "zz": "0"}}, m3())


def test_fuzzy_set_bad_grade_string():
    with pytest.raises(FormatError):
        fuzzy_set_from_json({"lattice": "m3", "memberships": {
            "0": "3/2", "a": "1", "b": "1", "c": "1", "1": "1"}}, m3())


NESTED = "product(" * 70 + "m3" + ",m3)" * 70


@pytest.mark.parametrize("lattice, memberships, text", [
    ("dodecahedron", {}, "unknown lattice fixture 'dodecahedron'"),
    ("chain²", {}, "unknown lattice fixture 'chain²'"),
    (NESTED, {}, "lattice fixture nests product(...) more than 64 levels deep"),
    (7, {}, "the lattice field must be a name or an inline lattice object"),
    ("m3", ["1"] * 5, "memberships must be an object"),
    ("m3", {"0": "1", "zz": "1"}, "membership for unknown element 'zz'"),
    ("m3", {"0": 0.5, "zz": "1"},
     "grade for '0' is a JSON float; use a string for an exact value"),
    ("m3", {"0": "1", "a": "1"}, "memberships must be total; missing: 1, b, c"),
    ("m3", {"0": "1", "a": "1", "b": "1", "c": "1", "zz": "1"},
     "membership for unknown element 'zz'"),
    ("product(chain2,chain2)", {"(0,0)": "1", "0": "1"}, "membership for unknown element '0'"),
    ("product(chain2,chain2)", {"(0,0)": "1", "(0,1)": "1"},
     "memberships must be total; missing: (1,0), (1,1)"),
], ids=["unknown-fixture", "non-ascii-size", "nested", "not-a-name", "memberships-list",
        "unknown-element", "float-first", "missing", "unknown-for-missing", "product-unknown",
        "product-missing"])
def test_fuzzy_set_document_errors_keep_their_message(lattice, memberships, text):
    with pytest.raises(FormatError) as exc:
        fuzzy_set_from_json({"lattice": lattice, "memberships": memberships})
    assert str(exc.value) == text


# a fault, as it is placed on a document: a grade that replaces an element's
# own, or a key of its own (an unknown element), or the removal of an element
GRADE_FAULTS = {"float": 0.5, "bool": True, "list": ["1"], "unparseable": "1/x",
                "out-of-range": "3/2", "negative": -1}
MEMBERSHIP_FAULTS = (*GRADE_FAULTS, "unknown", "missing")
VALID_GRADES = ("0", "1", "1/2", "2/4", " 1/3", "0.25", 0, 1)


def _first_fault_by_scan(raw: dict, names) -> str:
    """The message for the first fault of ``raw``, read key by key in
    document order, as the reader's refusals are stated."""
    for key, grade in raw.items():
        if key not in names:
            return f"membership for unknown element {key!r}"
        if isinstance(grade, float):
            return f"grade for {key!r} is a JSON float; use a string for an exact value"
        if not isinstance(grade, (str, int)) or isinstance(grade, bool):
            return f"grade for {key!r} must be a string"
        try:
            as_grade(grade)
        except InvalidGrade as exc:
            return f"bad grade for {key!r}: {exc}"
    return "memberships must be total; missing: " + ", ".join(sorted(set(names) - set(raw)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_lattices().map(lambda case: lattice_to_json(lattice_of(case))),
                 st.just("product(chain2,chain2)")), st.data())
def test_a_refused_document_names_its_first_fault_in_document_order(lattice_doc, data):
    """Documents over a random lattice (or a product fixture, whose names
    are renderings) with zero, one or two faults at drawn places, in a drawn
    key order: a faultless one reads each grade by ``as_grade``, and any
    other raises the message of a document-order scan."""
    lattice = (standard_lattice(lattice_doc) if isinstance(lattice_doc, str)
               else lattice_from_json(lattice_doc))
    names = [format_element(x) for x in lattice.elements]
    raw = {name: data.draw(st.sampled_from(VALID_GRADES)) for name in names}
    faults = data.draw(st.lists(st.sampled_from(MEMBERSHIP_FAULTS), max_size=2))
    for fault in faults:
        key = data.draw(st.sampled_from(names))
        if fault == "unknown":
            raw[f"zz{len(raw)}"] = "1"
        elif fault == "missing":
            raw.pop(key, None)
        else:
            raw[key] = GRADE_FAULTS[fault]
    raw = dict(data.draw(st.permutations(list(raw.items()))))
    doc = {"lattice": lattice_doc, "memberships": raw}
    if not faults:  # each fault leaves one, even where a second lands on its key
        assert list(fuzzy_set_from_json(doc).values) == [as_grade(raw[x]) for x in names]
        return
    with pytest.raises(FormatError) as exc:
        fuzzy_set_from_json(doc)
    assert str(exc.value) == _first_fault_by_scan(raw, names)


def test_fuzzy_set_lattice_reference_mismatch():
    doc = {"lattice": "chain3", "memberships": {"0": "1", "1": "1", "2": "1"}}
    with pytest.raises(LatticeMismatch):
        fuzzy_set_from_json(doc, m3())
    # but it resolves on its own against the named fixture
    m = fuzzy_set_from_json(doc)
    assert m.lattice == chain(3)


def test_fixture_name_reference_is_compared_like_an_inline_lattice():
    impostor = FiniteLattice(["0", "1", "2", "3", "4"],
                             [("0", "1"), ("1", "2"), ("2", "3"), ("3", "4")], name="m3")
    doc = {"lattice": "m3", "memberships": dict.fromkeys(impostor.elements, "1")}
    with pytest.raises(LatticeMismatch):
        fuzzy_set_from_json(doc, impostor)
    inline = {"lattice": M3_DOC, "memberships": doc["memberships"]}
    with pytest.raises(LatticeMismatch):
        fuzzy_set_from_json(inline, impostor)


def test_product_fixture_document_matches_its_lattice_file():
    # a product fixture's elements are tuples, a lattice file's their renderings
    fixture = standard_lattice("product(chain2,chain2)")
    m = FuzzySet.from_values(fixture, [1, 1, Fraction(1, 2), Fraction(1, 2)])
    doc = fuzzy_set_to_json(m)
    assert doc == {"lattice": "product(chain2,chain2)",
                   "memberships": {"(0,0)": "1", "(0,1)": "1", "(1,0)": "1/2", "(1,1)": "1/2"}}
    from_file = lattice_from_json(json.loads(dumps_canonical(lattice_to_json(fixture))))
    assert from_file != fixture
    read = fuzzy_set_from_json(doc, from_file)
    assert read.lattice is from_file
    assert read.values == m.values
    with pytest.raises(LatticeMismatch):
        fuzzy_set_from_json({**doc, "lattice": "product(chain2,chain3)"}, from_file)


def test_inline_lattice_reference():
    doc = {"lattice": {"name": "", "elements": ["x", "y"], "covers": [["x", "y"]]},
           "memberships": {"x": "1", "y": "0"}}
    m = fuzzy_set_from_json(doc)
    assert m.lattice == FiniteLattice(["x", "y"], [("x", "y")])
    emitted = fuzzy_set_to_json(m)
    assert isinstance(emitted["lattice"], dict)  # not a fixture, stays inline


DIAMOND = ["0", "a", "b", "c", "1"]
ALL_ONE = dict.fromkeys(DIAMOND, "1")


def _inline(covers, elements=DIAMOND):
    return {"lattice": {"name": "diamond", "elements": elements, "covers": covers},
            "memberships": ALL_ONE}


@pytest.mark.parametrize("doc", [
    _inline([["c", "1"], ["b", "1"], ["a", "1"], ["0", "c"], ["0", "b"], ["0", "a"]]),
    _inline(M3_DOC["covers"] + [["0", "1"]]),
    _inline(M3_DOC["covers"], ["1", "c", "b", "a", "0"]),
    _inline(M3_DOC["covers"] + [["0", "a"], ["c", "1"], ["0", "a"]]),
], ids=["covers-reordered", "transitive-edge", "elements-permuted", "repeated-cover"])
def test_inline_lattice_with_the_same_order_resolves_to_the_given_lattice(doc):
    lat = m3()
    assert fuzzy_set_from_json(doc, lat).lattice is lat


def _inclusion(masks):
    """The order the masks give element ``e<i>``: pairs (i, j) with masks[i] ⊆ masks[j]."""
    return {(i, j) for i, a in enumerate(masks) for j, b in enumerate(masks) if a & b == a}


def _case_document(masks, covers):
    labels = [f"e{i}" for i in range(len(masks))]
    return {"lattice": {"name": "case", "elements": labels, "covers": [list(c) for c in covers]},
            "memberships": dict.fromkeys(labels, "1")}


@settings(max_examples=100, deadline=None)
@given(random_lattices(), random_lattices(), st.data())
def test_inline_lattices_resolve_exactly_when_their_inclusion_orders_agree(case, other, data):
    """A document of the case with shuffled elements and covers, repeats and
    transitive pairs resolves to the given lattice itself.  A second case
    resolves exactly when its masks give the same inclusion order as the
    first's, read from the masks and not from ``order_closure``; else
    ``LatticeMismatch``.  The second cases are the case relabelled by a
    drawn permutation, which has its element count, and an unrelated case."""
    masks, covers = case
    lat = lattice_of(case)
    n = len(masks)
    pairs = sorted(_inclusion(masks) - {(i, i) for i in range(n)})
    extra = data.draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    doc = _case_document(masks, covers)
    doc["lattice"]["elements"] = data.draw(st.permutations(doc["lattice"]["elements"]))
    doc["lattice"]["covers"] = data.draw(st.permutations(
        doc["lattice"]["covers"] + [[f"e{i}", f"e{j}"] for i, j in extra]))
    assert fuzzy_set_from_json(doc, lat).lattice is lat

    perm = data.draw(st.permutations(range(n)))  # element e<i> becomes e<perm[i]>
    relabelled = ([masks[perm.index(k)] for k in range(n)],
                  [(f"e{perm[int(lo[1:])]}", f"e{perm[int(hi[1:])]}") for lo, hi in covers])
    for masks2, covers2 in (relabelled, other):
        doc2 = _case_document(masks2, covers2)
        if len(masks2) == n and _inclusion(masks2) == _inclusion(masks):
            assert fuzzy_set_from_json(doc2, lat).lattice is lat
        else:
            with pytest.raises(LatticeMismatch):
                fuzzy_set_from_json(doc2, lat)


def test_an_inline_copy_of_the_lattice_document_resolves_without_a_check(monkeypatch):
    """An operand that repeats the lattice file inline is matched by one
    comparison with the document the lattice was read from."""
    lat = lattice_from_json(json.loads(json.dumps(M3_DOC)))
    memberships = dict.fromkeys(M3_DOC["elements"], "1")

    def refuse(*args, **kwargs):
        raise AssertionError("the inline copy was checked field by field")

    with monkeypatch.context() as patch:
        patch.setattr(formats, "_lattice_fields", refuse)
        assert fuzzy_set_from_json({"lattice": M3_DOC, "memberships": memberships},
                                   lat).lattice is lat
    renamed = {**M3_DOC, "name": "other"}  # names are metadata: the checked route matches
    assert fuzzy_set_from_json({"lattice": renamed, "memberships": memberships},
                               lat).lattice is lat


def test_the_lattice_keeps_its_own_copy_of_the_document():
    doc = json.loads(json.dumps(M3_DOC))
    lat = lattice_from_json(doc)
    doc["covers"].append(["a", "b"])  # now a pentagon; the lattice is still m3
    with pytest.raises(LatticeMismatch):
        fuzzy_set_from_json({"lattice": doc, "memberships": ALL_ONE}, lat)
    assert fuzzy_set_from_json({"lattice": M3_DOC, "memberships": ALL_ONE}, lat).lattice is lat


@pytest.mark.parametrize("covers, error, text", [
    ([["0", "a"], ["a", "b"], ["b", "c"], ["c", "1"]], LatticeMismatch,
     "the fuzzy set's lattice does not match the provided lattice"),
    ([["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"], ["c", "1"]], NotALattice,
     "elements '0' and 'c' have no unique greatest lower bound"),
    ([["0", "a"], ["a", "b"], ["b", "0"], ["c", "1"]], CycleError,
     "cover relation contains a cycle: '0' -> 'a' -> 'b' -> '0'"),
    ([["0", "a"], ["0", "zz"]], FormatError,
     "cover refers to an undeclared element: unknown element 'zz' of lattice 'diamond'"),
], ids=["other-order", "not-a-lattice", "cycle", "undeclared"])
def test_inline_lattice_rejections_keep_their_type_and_text(covers, error, text):
    with pytest.raises(error) as exc:
        fuzzy_set_from_json(_inline(covers), m3())
    assert type(exc.value) is error and str(exc.value) == text


@pytest.mark.parametrize("command", ["classify", "op"])
def test_matching_inline_documents_build_one_lattice_per_request(
        command, tmp_path, monkeypatch, capsys):
    """An operand that repeats the lattice file verbatim builds no lattice
    of its own.  One with the elements reordered gives the same output,
    and each operand document of it builds its lattice to compare."""
    lat_path = tmp_path / "lat.json"
    lat_path.write_text(json.dumps({**M3_DOC, "name": "diamond"}))
    builds = []
    init = FiniteLattice.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(kwargs.get("name"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(FiniteLattice, "__init__", counting_init)
    outputs = []
    for elements, operand_builds in ((DIAMOND, 0), (DIAMOND[::-1], 1)):
        fs_path = tmp_path / f"fs{operand_builds}.json"
        fs_path.write_text(json.dumps(_inline(M3_DOC["covers"], elements)))
        operands = [str(fs_path)] * (1 if command == "classify" else 2)
        argv = (["classify", str(lat_path), *operands] if command == "classify"
                else ["op", "meet", str(lat_path), *operands])
        builds.clear()
        assert cli.main(argv) == 0
        assert builds == ["diamond"] * (1 + operand_builds * len(operands))
        out, err = capsys.readouterr()
        assert err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_a_fixture_name_of_another_size_is_never_built(monkeypatch):
    """A lattice named after a fixture of another size is dumped inline and
    refused as a document's lattice without building that fixture."""
    small = FiniteLattice(["x", "y"], [("x", "y")], name="chain4000")
    m = FuzzySet.constant(small, 1)
    init = FiniteLattice.__init__

    def refusing_init(self, elements, *args, **kwargs):
        if len(elements) > 64:
            raise RuntimeError(f"built a {len(elements)}-element lattice")
        init(self, elements, *args, **kwargs)

    monkeypatch.setattr(FiniteLattice, "__init__", refusing_init)
    doc = fuzzy_set_to_json(m)
    assert doc["lattice"] == lattice_to_json(small)
    with pytest.raises(LatticeMismatch,
                       match="^the fuzzy set's lattice does not match the provided lattice$"):
        fuzzy_set_from_json({**doc, "lattice": "chain4000"}, small)


# fuzzy_set_to_json of the meet below, as compact sorted JSON: once under the
# fixture's name, and once renamed, so the lattice is written inline
PRODUCT_MEET_MEMBERSHIPS = ('{"(0,0)":"1/3","(0,1)":"1/2","(1,0)":"1/4","(1,1)":"1/4",'
                            '"(a,0)":"1/3","(a,1)":"2/3","(b,0)":"1/4","(b,1)":"1/4",'
                            '"(c,0)":"1/4","(c,1)":"1/4"}')
PRODUCT_MEET_LATTICE = (
    '{"covers":[["(0,0)","(0,1)"],["(0,0)","(a,0)"],["(0,0)","(b,0)"],["(0,0)","(c,0)"],'
    '["(0,1)","(a,1)"],["(0,1)","(b,1)"],["(0,1)","(c,1)"],["(1,0)","(1,1)"],'
    '["(a,0)","(1,0)"],["(a,0)","(a,1)"],["(a,1)","(1,1)"],["(b,0)","(1,0)"],'
    '["(b,0)","(b,1)"],["(b,1)","(1,1)"],["(c,0)","(1,0)"],["(c,0)","(c,1)"],'
    '["(c,1)","(1,1)"]],"elements":["(0,0)","(0,1)","(1,0)","(1,1)","(a,0)","(a,1)",'
    '"(b,0)","(b,1)","(c,0)","(c,1)"],"name":"m3xc2"}')


def test_an_op_result_over_a_product_carrier_keeps_its_bytes():
    """Tuple elements still render as "(x,y)", in the memberships and in an
    inline lattice's elements and covers."""
    fixture = product_lattice(m3(), chain(2))
    renamed = FiniteLattice(fixture.elements, fixture.covers(), name="m3xc2")
    for lat, lattice_json in ((fixture, '"product(m3,chain2)"'), (renamed, PRODUCT_MEET_LATTICE)):
        left = {e: 1 if e[0] == "a" else Fraction(1, 2) if e[0] == "0" else Fraction(1, 4)
                for e in lat}
        right = {e: 1 if e == ("b", "1") else Fraction(2, 3) if e[1] == "1" else Fraction(1, 3)
                 for e in lat}
        meet = FuzzyInterval(FuzzySet(lat, left)).meet(FuzzyInterval(FuzzySet(lat, right)))
        doc = fuzzy_set_to_json(meet.fuzzy)
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == (
            f'{{"lattice":{lattice_json},"memberships":{PRODUCT_MEET_MEMBERSHIPS}}}')


def test_fixture_name_emitted_for_standard_lattices():
    m = FuzzySet.constant(chain(3), 1)
    assert fuzzy_set_to_json(m)["lattice"] == "chain3"


def test_load_helpers(tmp_path):
    lat_path = tmp_path / "lat.json"
    lat_path.write_text(json.dumps(M3_DOC))
    lat = load_lattice(lat_path)
    assert lat == m3()

    fs_path = tmp_path / "fs.json"
    fs_path.write_text(json.dumps({
        "lattice": "m3",
        "memberships": {"0": "1", "a": "1", "b": "1", "c": "1", "1": "1"}}))
    m = load_fuzzy_set(fs_path, lat)
    assert m == FuzzySet.constant(lat, 1)


def test_load_errors(tmp_path):
    with pytest.raises(FormatError):
        load_lattice(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        load_lattice(bad)
    top = tmp_path / "top.json"
    top.write_text('["array"]')
    with pytest.raises(FormatError):
        load_lattice(top)
    deep = tmp_path / "deep.json"  # nested past the decoder's recursion limit
    deep.write_text("[" * 200_000)
    with pytest.raises(FormatError, match=f"^{re.escape(str(deep))} is not valid JSON: "):
        load_lattice(deep)
    long = tmp_path / "long.json"  # an integer literal past the int-conversion digit limit
    long.write_text('{"name": ' + "1" * 5000 + "}")
    with pytest.raises(FormatError, match=f"^{re.escape(str(long))} is not valid JSON: Exceeds"):
        load_lattice(long)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"name": "\xe9"}')
    with pytest.raises(FormatError, match=f"^cannot read {re.escape(str(latin))}: 'utf-8' codec"):
        load_lattice(latin)
