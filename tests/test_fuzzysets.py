import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GRADES3, GRADES4, enumerate_fuzzy_sets
from fuzzint import (CutFamily, FiniteLattice, FuzzyInterval, FuzzySet, InvalidFamily,
                     InvalidGrade, LatticeMismatch, UnknownElement, as_grade, chain,
                     equal_by_cuts, format_grade, from_cut_family)
from fuzzint import fuzzysets
from fuzzint.fuzzysets import MAX_GRADE_DIGITS, _grade_chain, _merge_chains, meet_family
from fuzzint.laws import check_distributivity, check_lattice_axioms

H = Fraction(1, 2)


def test_as_grade_accepts_exact_forms():
    assert as_grade("1/2") == H
    assert as_grade("2/4") == H
    assert as_grade(1) == 1
    assert as_grade(Fraction(3, 4)) == Fraction(3, 4)
    assert as_grade("2.5e-1") == Fraction(1, 4)
    assert format_grade(as_grade("1e-4299")) == "1/1" + "0" * 4299  # the most digits allowed


def test_as_grade_returns_a_fraction_itself():
    """An exact grade is checked, not copied; a bad one is still refused."""
    grade = Fraction(2, 3)
    assert as_grade(grade) is grade
    for bad in (Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(InvalidGrade, match=r"lies outside \[0, 1\]$"):
            as_grade(bad)


def test_as_grade_rejects_floats_and_out_of_range():
    with pytest.raises(InvalidGrade):
        as_grade(0.5)
    with pytest.raises(InvalidGrade):
        as_grade("3/2")
    with pytest.raises(InvalidGrade):
        as_grade(-1)
    with pytest.raises(InvalidGrade):
        as_grade("zero")


@pytest.mark.parametrize("value, text", [
    ("1e-100000000", "grade '1e-100000000' has an exponent beyond 4300"),
    ("1E-4_301", "grade '1E-4_301' has an exponent beyond 4300"),
    ("0e99999999", "grade '0e99999999' has an exponent beyond 4300"),
    ("1e-4300", "grade has more than 4300 digits in its numerator or denominator"),
    ("0.5e-4300", "grade has more than 4300 digits in its numerator or denominator"),
    (Fraction(1, 10 ** 4300), "grade has more than 4300 digits in its numerator or denominator"),
])
def test_as_grade_refuses_what_format_grade_cannot_render(value, text):
    """A huge exponent is refused before ``Fraction`` computes ten to its power."""
    start = time.perf_counter()
    with pytest.raises(InvalidGrade) as exc:
        as_grade(value)
    assert time.perf_counter() - start < 0.2
    assert str(exc.value) == text


@pytest.mark.parametrize("value, expected", [
    ("1/0", "cannot parse grade '1/0'"),
    ("1" * 4301 + "/2", "cannot parse grade '" + "1" * 4301 + "/2'"),
    ("1/", "cannot parse grade '1/'"),
    ("/2", "cannot parse grade '/2'"),
    (" 1/2 ", H),
    ("1_0/20", H),
    ("\u0661/\u0662", H),  # Arabic-Indic digits
    ("\uff11/\uff12", H),  # fullwidth digits
    ("007/120", Fraction(7, 120)),
    ("3/2", "grade 3/2 lies outside [0, 1]"),
    ("0/5", Fraction(0)),
], ids=["zero-denominator", "4301-digits", "no-denominator", "no-numerator", "spaces",
        "underscore", "arabic-indic", "fullwidth", "leading-zeros", "above-one", "zero"])
def test_as_grade_keeps_each_string_result(value, expected):
    """Plain ASCII ``n`` and ``n/d`` skip ``Fraction``'s regex; every string
    keeps the grade, or the refusal and its text, that the regex route gives."""
    if isinstance(expected, Fraction):
        grade = as_grade(value)
        assert grade == expected and type(grade) is Fraction
    else:
        with pytest.raises(InvalidGrade) as exc:
            as_grade(value)
        assert str(exc.value) == expected


def _regex_route(text: str):
    """``as_grade`` of a string with every string parsed by ``Fraction(str)``:
    the grade, or the text of the refusal."""
    sep, exponent = text.lower().rpartition("e")[1:]
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if sep and digits.isdecimal() and (len(digits) > len(str(MAX_GRADE_DIGITS))
                                       or int(digits) > MAX_GRADE_DIGITS):
        return f"grade {text!r} has an exponent beyond {MAX_GRADE_DIGITS}"
    try:
        grade = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return f"cannot parse grade {text!r}"
    if max(abs(grade.numerator), grade.denominator) >= 10 ** MAX_GRADE_DIGITS:
        return (f"grade has more than {MAX_GRADE_DIGITS} digits "
                "in its numerator or denominator")
    if not 0 <= grade <= 1:
        return f"grade {grade} lies outside [0, 1]"
    return grade


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from("0123456789\u0661\u0662\uff11\uff15\u00b2/_.eE+- "),
               max_size=10))
@example("0/0")
@example("1/0")
@example("007/120")
@example("1e-4300")
def test_as_grade_matches_the_regex_route_on_every_string(text):
    try:
        got = as_grade(text)
    except InvalidGrade as exc:
        got = str(exc)
    expected = _regex_route(text)
    assert got == expected and type(got) is type(expected)


@st.composite
def underscored_grades(draw):
    """``(text, grade)``: a grade in [0, 1] written ``n/d`` or ``0.ddd`` in
    ASCII digits, with one to four underscores drawn into any positions,
    a repeated position giving two in a row."""
    den = draw(st.integers(1, 10 ** 6))
    num = draw(st.integers(0, den))
    if draw(st.booleans()):
        text, grade = f"{num}/{den}", Fraction(num, den)
    else:
        digits = draw(st.text("0123456789", min_size=1, max_size=8))
        text, grade = f"0.{digits}", Fraction(int(digits), 10 ** len(digits))
    chars = list(text)
    for pos in sorted(draw(st.lists(st.integers(0, len(text)), min_size=1, max_size=4)),
                      reverse=True):
        chars.insert(pos, "_")
    return "".join(chars), grade


@settings(max_examples=300, deadline=None)
@given(underscored_grades())
@example(("1_0/20", H))
@example(("1__0/20", H))
def test_as_grade_reads_an_underscore_only_between_two_digits(case):
    """The stated grammar, not the running ``Fraction``: a string whose
    every underscore has a digit on either side reads as the grade written
    without them, on every Python version; any other is refused."""
    text, grade = case
    between_digits = all(0 < i < len(text) - 1 and text[i - 1].isdigit() and text[i + 1].isdigit()
                         for i, ch in enumerate(text) if ch == "_")
    if between_digits:
        assert as_grade(text) == grade
    else:
        with pytest.raises(InvalidGrade) as exc:
            as_grade(text)
        assert str(exc.value) == f"cannot parse grade {text!r}"


def test_as_grade_hands_fraction_no_underscore(monkeypatch):
    """``Fraction`` before Python 3.11 reads no underscores, so ``as_grade``
    drops them first: here under a ``Fraction`` that refuses them."""
    def fraction(*args):
        if any(isinstance(arg, str) and "_" in arg for arg in args):
            raise ValueError("no underscores before Python 3.11")
        return Fraction(*args)
    monkeypatch.setattr(fuzzysets, "Fraction", fraction)
    assert [as_grade(text) for text in ("1_0/20", "0.2_5", "2_5e-2")] == [H] + [Fraction(1, 4)] * 2


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


def test_from_values_reads_an_iterator_once():
    grades = tuple(Fraction(i, 3) for i in range(4))
    for values in ((g for g in grades), map(Fraction, grades), iter(list(grades))):
        assert FuzzySet.from_values(chain(4), values).values == grades


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


@pytest.mark.parametrize("values", [
    (Fraction(1), Fraction(1, 10 ** 5000)),
    (Fraction(10 ** 5000 + 1, 10 ** 5000), 0),
    (0, 10 ** 5000),
], ids=["tiny", "above-one", "huge-int"])
def test_from_values_refuses_a_grade_too_long_to_render(chain2, values):
    with pytest.raises(InvalidGrade) as exc:
        FuzzySet.from_values(chain2, values)
    assert str(exc.value) == "grade has more than 4300 digits in its numerator or denominator"


@pytest.mark.parametrize("limit, bound", [("640", 640), ("0", 4300)])
def test_the_grade_digit_bound_follows_a_lowered_interpreter_limit(limit, bound):
    """A limit below 4300 bounds the grades; no limit keeps 4300, so a huge
    exponent is still refused before it is computed."""
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = ("from fuzzint import InvalidGrade\n"
              "from fuzzint.fuzzysets import MAX_GRADE_DIGITS, as_grade\n"
              "print(MAX_GRADE_DIGITS)\n"
              "for text in ('1e-1000', '1e-5000'):\n"
              "    try:\n"
              "        print(as_grade(text).denominator == 10 ** 1000)\n"
              "    except InvalidGrade as exc:\n"
              "        print(type(exc).__name__, exc)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS=limit))
    assert proc.returncode == 0, proc.stderr
    first = ("True" if bound > 1000
             else f"InvalidGrade grade '1e-1000' has an exponent beyond {bound}")
    assert proc.stdout.splitlines() == [
        str(bound), first, f"InvalidGrade grade '1e-5000' has an exponent beyond {bound}"]


THIRD = Fraction(1, 3)
NEAR_THIRD = Fraction(10 ** 20 + 1, 3 * 10 ** 20)  # another grade with 1/3's float
GRADE_POOL = (0, 1, Fraction(0), Fraction(1), THIRD, NEAR_THIRD, H, Fraction(2, 3))
NOT_GRADES = (0.5, 1.0, 0.0, True, False, "1/2", Fraction(3, 2), -1, 2)


def _reference_chain(values):
    """``(chain, ranks)`` the plain way: the sorted set of the grades and 0, 1."""
    wrong_type = [v for v in values if type(v) not in (Fraction, int)]
    for v in wrong_type or [v for v in values if not 0 <= v <= 1]:  # types first
        raise InvalidGrade(f"grade {v!r} must be a Fraction in [0, 1]")
    chain = sorted({Fraction(0), Fraction(1), *values})
    return tuple(chain), tuple(chain.index(v) for v in values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(GRADE_POOL), st.booleans()), max_size=12),
       st.none() | st.tuples(st.sampled_from(NOT_GRADES), st.integers(0, 12)))
# 1/2 built twice; 1/3 and 1/2 share a numerator, as do 1/2 and 1
@example([(H, True), (H, True), (THIRD, False), (Fraction(1), False)], None)
# the ints 0 and 1 beside equal Fractions, in both orders
@example([(0, False), (Fraction(0), True), (1, False), (Fraction(1), True), (H, False)], None)
@example([(Fraction(1), True), (1, False), (Fraction(0), True), (0, False)], None)
# a bool or float equal to a bound is refused all the same
@example([(0, False), (1, False)], (True, 1))
@example([(Fraction(0), True), (H, False)], (False, 0))
@example([(1, False), (H, False)], (1.0, 2))
@example([(Fraction(0), True)], (0.0, 1))
def test_grade_chain_matches_a_sorted_set_of_the_grades(drawn, bad):
    """Shared objects, equal but distinct ``Fraction``s, the ints 0 and 1, and
    distinct grades with one float all land where a sorted set puts them; a
    value that is no grade is refused with the reference's message."""
    assert float(THIRD) == float(NEAR_THIRD) and THIRD < NEAR_THIRD
    values = [Fraction(g) if fresh else g for g, fresh in drawn]  # a fresh copy is equal, not the same
    if bad is not None:
        values.insert(bad[1], bad[0])
    try:
        expected = _reference_chain(values)
    except InvalidGrade as exc:
        with pytest.raises(InvalidGrade) as got:
            _grade_chain(values)
        assert str(got.value) == str(exc)
        return
    chain, ranks = _grade_chain(values)
    assert (chain, ranks) == expected
    assert all(type(g) is Fraction for g in chain)


CHAIN_GRADES = st.sets(st.fractions(0, 1, max_denominator=12)
                      | st.sampled_from((THIRD, NEAR_THIRD)), max_size=6)


@settings(max_examples=300, deadline=None)
@given(CHAIN_GRADES, CHAIN_GRADES)
def test_merge_chains_matches_a_sorted_union(xs, ys):
    """The merged chain and where each operand's ranks land in it, also for
    distinct grades with one float."""
    a, b = (tuple(sorted({Fraction(0), Fraction(1), *grades})) for grades in (xs, ys))
    merged, pos_a, pos_b = _merge_chains(a, b)
    union = sorted(set(a) | set(b))
    assert list(merged) == union
    assert pos_a == [union.index(g) for g in a]
    assert pos_b == [union.index(g) for g in b]


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


def test_sets_compare_by_lattice_and_grades(chain2):
    m = FuzzySet(chain2, {"0": "1", "1": "1/2"})
    assert m.__eq__({"0": 1, "1": H}) is NotImplemented and m != {"0": 1, "1": H}
    assert m != FuzzySet(FiniteLattice(["x", "y"], [("x", "y")]), {"x": "1", "y": "1/2"})
    assert m == FuzzySet(chain(2), {"0": "1", "1": "1/2"})
    assert hash(m) == hash(FuzzySet(chain(2), {"0": "1", "1": "1/2"}))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([Fraction(0), Fraction(1, 3), H, Fraction(2, 3), Fraction(1)]),
                min_size=4, max_size=4))
def test_cut_family_roundtrip_random(values):
    lat = chain(4)
    m = FuzzySet.from_values(lat, tuple(values))
    assert from_cut_family(m.cut_family()) == m
    assert equal_by_cuts(from_cut_family(m.cut_family()), m)
