import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRADES3, GRADES4, enumerate_fuzzy_sets
from fuzzint import (CutFamily, FuzzyInterval, FuzzySet, InvalidFamily, InvalidGrade,
                     LatticeMismatch, UnknownElement, as_grade, chain,
                     equal_by_cuts, format_grade, from_cut_family)
from fuzzint.fuzzysets import meet_family
from fuzzint.laws import check_distributivity, check_lattice_axioms

H = Fraction(1, 2)


def test_as_grade_accepts_exact_forms():
    assert as_grade("1/2") == H
    assert as_grade("2/4") == H
    assert as_grade(1) == 1
    assert as_grade(Fraction(3, 4)) == Fraction(3, 4)


def test_as_grade_rejects_floats_and_out_of_range():
    with pytest.raises(InvalidGrade):
        as_grade(0.5)
    with pytest.raises(InvalidGrade):
        as_grade("3/2")
    with pytest.raises(InvalidGrade):
        as_grade(-1)
    with pytest.raises(InvalidGrade):
        as_grade("zero")


@pytest.mark.parametrize("value", [True, False])
def test_as_grade_rejects_booleans(chain3, value):
    """``True == 1`` and ``False == 0``, but a boolean is not a grade; every
    public entry refuses it, as ``from_values`` and the JSON reader do."""
    with pytest.raises(InvalidGrade, match="refusing bool grade"):
        as_grade(value)
    with pytest.raises(InvalidGrade):
        FuzzySet(chain3, {"0": value, "1": "1/2", "2": 1})
    with pytest.raises(InvalidGrade):
        FuzzySet.from_values(chain3, (value, H, Fraction(1)))


def test_format_grade():
    assert format_grade(Fraction(2, 4)) == "1/2"
    assert format_grade(Fraction(0)) == "0"
    assert format_grade(Fraction(1)) == "1"


def test_membership_must_be_total(chain3):
    with pytest.raises(ValueError):
        FuzzySet(chain3, {"0": "1", "1": "1"})
    with pytest.raises(UnknownElement):
        FuzzySet(chain3, {"0": "1", "1": "1", "2": "1", "9": "1"})


def test_call_and_membership(chain3):
    m = FuzzySet(chain3, {"0": "1", "1": "1/2", "2": "0"})
    assert m("1") == H
    assert m.membership() == {"0": 1, "1": H, "2": 0}


def test_pointwise_ops(chain3):
    m = FuzzySet(chain3, {"0": "1", "1": "1/2", "2": "1/4"})
    n = FuzzySet(chain3, {"0": "1/3", "1": "1", "2": "0"})
    assert m.meet(n).membership() == {"0": Fraction(1, 3), "1": H, "2": 0}
    assert m.join(n).membership() == {"0": 1, "1": 1, "2": Fraction(1, 4)}
    assert m.meet(n).leq(m) and m.leq(m.join(n))


def test_ops_require_same_lattice(chain3, diamond):
    m = FuzzySet.constant(chain3, 1)
    n = FuzzySet.constant(diamond, 1)
    with pytest.raises(LatticeMismatch):
        m.meet(n)


def test_cuts(chain3):
    m = FuzzySet(chain3, {"0": "1", "1": "1/2", "2": "1/4"})
    assert m.cut(Fraction(0)) == frozenset(chain3)
    assert m.cut(Fraction(1, 4)) == frozenset(chain3)
    assert m.cut(H) == frozenset({"0", "1"})
    assert m.cut(Fraction(1)) == frozenset({"0"})
    assert m.cut(Fraction(3, 4)) == frozenset({"0"})  # between attained values


def test_thresholds_are_attained_plus_bounds(chain3):
    m = FuzzySet(chain3, {"0": "1/2", "1": "1/2", "2": "1/4"})
    assert m.thresholds() == (0, Fraction(1, 4), H, 1)
    k = FuzzySet.constant(chain3, H)
    assert k.thresholds() == (0, H, 1)


def test_characteristic(b2):
    m = FuzzySet.characteristic(b2, {"01", "11"})
    assert m("01") == 1 and m("00") == 0
    assert m.cut(Fraction(1)) == frozenset({"01", "11"})


def test_cut_family_roundtrip_exhaustive(chain3):
    for values in itertools.product(GRADES4, repeat=3):
        m = FuzzySet.from_values(chain3, values)
        fam = m.cut_family()
        assert fam.thresholds[0] == 0
        assert fam.sets[Fraction(0)] == frozenset(chain3)
        for lo, hi in zip(fam.thresholds, fam.thresholds[1:]):
            assert fam.sets[hi] <= fam.sets[lo]
        assert from_cut_family(fam) == m


def test_cut_family_zero_only_reconstructs_constant_zero(chain3):
    fam = CutFamily(chain3, {Fraction(0): frozenset(chain3)})
    assert from_cut_family(fam) == FuzzySet.constant(chain3, 0)


def test_invalid_families(chain3):
    with pytest.raises(InvalidFamily):
        from_cut_family(CutFamily(chain3, {H: frozenset(chain3)}))  # no 0 level
    with pytest.raises(InvalidFamily):
        from_cut_family(CutFamily(chain3, {Fraction(0): frozenset({"0"})}))
    with pytest.raises(InvalidFamily):
        from_cut_family(CutFamily(chain3, {
            Fraction(0): frozenset(chain3),
            H: frozenset({"0"}),
            Fraction(1): frozenset({"1"}),  # not nested in the 1/2 level
        }))
    with pytest.raises(InvalidFamily):
        from_cut_family(CutFamily(chain3, {Fraction(0): frozenset(chain3) | {"zz"}}))
    # two keys for one grade would leave the family to the dict's order
    for sets in ({0: chain3, "1/2": {"1"}, "0.5": {"1", "2"}},
                 {0: chain3, "0.5": {"1", "2"}, H: {"1"}}):
        with pytest.raises(InvalidFamily, match="names grade 1/2 twice"):
            from_cut_family(CutFamily(chain3, sets))


def test_equal_by_cuts_agrees_with_pointwise(chain3):
    sets = enumerate_fuzzy_sets(chain3, GRADES3)
    for m, n in itertools.product(sets[:12], sets[:12]):
        assert equal_by_cuts(m, n) == (m == n)


def test_fuzzy_sets_form_distributive_lattice(chain2):
    sets = enumerate_fuzzy_sets(chain2, GRADES3)
    assert len(sets) == 9
    report = check_lattice_axioms(
        sets, FuzzySet.join, FuzzySet.meet, FuzzySet.leq,
        suite="fs-axioms", lattice_name="chain2", grades=GRADES3)
    assert report.passed, report.to_text()
    dist = check_distributivity(sets, FuzzySet.join, FuzzySet.meet,
                                suite="fs-dist", lattice_name="chain2", grades=GRADES3)
    assert dist.passed, dist.to_text()


def test_equal_sets_on_different_chains_hash_alike(chain3):
    m = FuzzySet(chain3, {"0": "1", "1": "1/2", "2": "0"})
    zero = FuzzySet(chain3, {"0": "0", "1": "1/3", "2": "0"}).meet(FuzzySet.constant(chain3, 0))
    n = m.join(zero)  # the same grades, ranked in the chain {0, 1/3, 1/2, 1}
    assert m.chain == (0, H, 1) and n.chain == (0, Fraction(1, 3), H, 1)
    assert m.ranks != n.ranks
    assert m == n and n == m and hash(m) == hash(n)
    assert {m: "m"}[n] == "m" and {n: "n"}[m] == "n"
    assert FuzzyInterval(m) == FuzzyInterval(n)
    assert hash(FuzzyInterval(m)) == hash(FuzzyInterval(n))
    assert n != FuzzySet(chain3, {"0": "1", "1": "1/3", "2": "0"})
    assert n.thresholds() == (0, H, 1)  # 1/3 is in the chain but not attained


def test_grades_read_back_as_the_input_fractions(chain3):
    grades = {"0": Fraction(2, 3), "1": Fraction(1, 3), "2": Fraction(0)}
    m = FuzzySet(chain3, grades)
    assert m.values == (Fraction(2, 3), Fraction(1, 3), 0)
    assert [m(e) for e in chain3] == list(grades.values())
    assert m.thresholds() == (0, Fraction(1, 3), Fraction(2, 3), 1)
    for grade in (*m.values, *m.thresholds(), *(m(e) for e in chain3)):
        assert type(grade) is Fraction


def test_from_values_turns_ints_into_fractions(chain3):
    m = FuzzySet.from_values(chain3, (0, 1, 0))
    assert m.values == (0, 1, 0)
    assert all(type(grade) is Fraction for grade in (*m.values, *m.thresholds(), m("1")))
    assert repr(m) == "{0: 0, 1: 1, 2: 0}"


@pytest.mark.parametrize("values, error, text", [
    ((0, Fraction(3, 2), 1), InvalidGrade, "grade Fraction(3, 2) must be a Fraction in [0, 1]"),
    ((0, -1, 1), InvalidGrade, "grade -1 must be a Fraction in [0, 1]"),
    ((0, 0.5, 1), InvalidGrade, "grade 0.5 must be a Fraction in [0, 1]"),
    ((0, "1/2", 1), InvalidGrade, "grade '1/2' must be a Fraction in [0, 1]"),
    ((H,), ValueError, "1 grades for 3 elements"),
    ((0, H, 1, 1), ValueError, "4 grades for 3 elements"),
    # equal to a bound, so they hash onto it, but still not exact grades
    ((0.0, True, 1.0), InvalidGrade, "grade 0.0 must be a Fraction in [0, 1]"),
    ((0, 1, 1.0), InvalidGrade, "grade 1.0 must be a Fraction in [0, 1]"),
    ((False, 1, 1), InvalidGrade, "grade False must be a Fraction in [0, 1]"),
    ((0, True, 1), InvalidGrade, "grade True must be a Fraction in [0, 1]"),
], ids=["above-one", "negative", "float", "string", "too-few", "too-many",
        "float-bounds", "float-one", "bool-zero", "bool-one"])
def test_from_values_rejects_what_is_not_one_grade_per_element(chain3, values, error, text):
    with pytest.raises(error) as exc:
        FuzzySet.from_values(chain3, values)
    assert type(exc.value) is error and str(exc.value) == text


def test_cut_family_equality_and_repr(chain3):
    fam = FuzzySet.from_values(chain3, (1, H, 0)).cut_family()
    assert fam == CutFamily(chain3, {0: chain3, H: {"0", "1"}, 1: {"0"}})
    assert fam != CutFamily(chain3, {0: chain3, H: {"0"}, 1: {"0"}})
    assert fam != CutFamily(chain(3), {0: chain3, 1: {"0"}})
    assert fam != CutFamily(chain(2), {0: chain(2), H: {"0", "1"}, 1: {"0"}})
    assert fam.__eq__("not a family") is NotImplemented
    assert repr(fam) == "CutFamily(0: {0, 1, 2}, 1/2: {0, 1}, 1: {0})"


def test_meet_family_of_no_sets_is_constant_one(chain3):
    assert meet_family(chain3, []) == FuzzySet.constant(chain3, 1)


def test_repr_is_readable(chain2):
    m = FuzzySet(chain2, {"0": "1", "1": "1/2"})
    assert "1/2" in repr(m)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([Fraction(0), Fraction(1, 3), H, Fraction(2, 3), Fraction(1)]),
                min_size=4, max_size=4))
def test_cut_family_roundtrip_random(values):
    lat = chain(4)
    m = FuzzySet.from_values(lat, tuple(values))
    assert from_cut_family(m.cut_family()) == m
    assert equal_by_cuts(from_cut_family(m.cut_family()), m)
