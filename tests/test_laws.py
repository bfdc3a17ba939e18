import gc
import hashlib
import importlib
import inspect
import itertools
import json
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import GRADES2, GRADES3, GRADES4, enumerate_fuzzy_sets, random_lattices
from fuzzint import (CrispInterval, FiniteLattice, FuzzyInterval, FuzzySet,
                     GradeSetInvalid, boolean_lattice, chain, classify, format_grade,
                     is_fuzzy_convex_sublattice, is_fuzzy_interval, is_fuzzy_sublattice,
                     m3, n5, run_suite, standard_lattice, validate_grades)
from fuzzint import laws
from fuzzint.errors import RouteDisagreement
from fuzzint.fuzzysets import meet_family
from fuzzint.intervals import _IntervalCodes
from fuzzint.laws import (SUITES, LawReport, check_distributivity,
                          check_lattice_axioms, enumerate_fuzzy_intervals,
                          enumerate_intervals, render_operand)

H = Fraction(1, 2)


# -- independent reference routes ----------------------------------------------


def enumerate_fuzzy_intervals_by_filter(lattice, grades):
    """Every grade-valued fuzzy set that passes the interval predicate (all
    implementation routes): the reference for the chain-based enumeration."""
    return [FuzzyInterval(m) for m in enumerate_fuzzy_sets(lattice, grades)
            if is_fuzzy_interval(m)]


def oracle_join(collection, m, n):
    """Definitional join: the pointwise infimum of every collection member
    that dominates both operands.

    ``collection`` must be the full enumeration for the operands' lattice
    and grade set (then the constant-1 member guarantees an upper bound).
    """
    uppers = [fi.fuzzy for fi in collection if m.leq(fi) and n.leq(fi)]
    if not uppers:
        raise ValueError("the collection contains no common upper bound")
    return FuzzyInterval(meet_family(m.lattice, uppers))


def test_validate_grades():
    validate_grades(GRADES3)
    with pytest.raises(GradeSetInvalid):
        validate_grades((Fraction(0), H))
    with pytest.raises(GradeSetInvalid):
        validate_grades((H, Fraction(1)))
    with pytest.raises(GradeSetInvalid):
        validate_grades(5)  # not an iterable
    with pytest.raises(GradeSetInvalid):
        validate_grades(["x"])  # not a grade


@pytest.mark.parametrize("text", ["01", "0,1", "0,1/2,1", "", b"\x00\x01"])
def test_a_string_grade_set_is_refused(chain2, text):
    """A string is not read one character at a time: "01" is not {0, 1},
    and "0,1" does not fail on its comma; nor are bytes read as ints."""
    refused = "must be a sequence of grades"
    with pytest.raises(GradeSetInvalid, match=refused):
        validate_grades(text)
    with pytest.raises(GradeSetInvalid, match=refused):
        run_suite("structure", chain2, text)
    with pytest.raises(GradeSetInvalid, match=refused):
        enumerate_fuzzy_intervals(chain2, text)
    assert validate_grades(["0", "1/2", "1"]) == GRADES3  # a sequence of strings is read


def test_enumerate_fuzzy_sets_counts(chain3):
    assert len(enumerate_fuzzy_sets(chain3, GRADES3)) == 27
    assert len(enumerate_fuzzy_sets(chain3, GRADES2)) == 8


def test_fuzzy_interval_counts(chain2, chain3, b2, b3, diamond, pentagon):
    expect = [
        (chain2, GRADES3, 9),
        (chain2, GRADES2, 4),
        (chain3, GRADES3, 22),
        (b2, GRADES3, 35),
        (diamond, GRADES3, 48),
        (diamond, GRADES2, 13),
        (pentagon, GRADES3, 59),
        (b3, GRADES3, 153),
    ]
    for lat, grades, count in expect:
        assert len(enumerate_fuzzy_intervals(lat, grades)) == count


def test_generator_agrees_with_filter(chain3, b2, diamond, pentagon):
    for lat in (chain3, b2, diamond, pentagon):
        gen = {fi.fuzzy for fi in enumerate_fuzzy_intervals(lat, GRADES3)}
        filt = {fi.fuzzy for fi in enumerate_fuzzy_intervals_by_filter(lat, GRADES3)}
        assert gen == filt


@settings(max_examples=60, deadline=None)
@given(random_lattices(), st.data())
def test_generator_agrees_with_filter_on_random_lattices(case, data):
    """At one, two or three positive grades, wherever the |grades|^|L|
    candidate sets number at most 1,000: the chains enumerate each fuzzy
    interval once, and exactly those the filter finds."""
    lattice = _lattice_of(case)
    fitting = [g for g in (GRADES2, GRADES3, GRADES4) if len(g) ** len(lattice) <= 1000]
    assume(fitting)
    grades = data.draw(st.sampled_from(fitting))
    fis = [fi.fuzzy for fi in enumerate_fuzzy_intervals(lattice, grades)]
    assert len(set(fis)) == len(fis)
    assert set(fis) == {fi.fuzzy for fi in enumerate_fuzzy_intervals_by_filter(lattice, grades)}


@pytest.mark.parametrize("grades", [GRADES2, GRADES3, GRADES4], ids=["k1", "k2", "k3"])
@pytest.mark.parametrize("lattice", [chain(1), boolean_lattice(0)], ids=["chain1", "boolean0"])
def test_one_element_carriers_pass_every_suite(lattice, grades):
    """Over one element, the fuzzy intervals are the k + 1 constants for k
    positive grades, and every law of every suite passes."""
    fis = enumerate_fuzzy_intervals(lattice, grades)
    assert [fi.fuzzy.values for fi in fis] == [(g,) for g in grades]
    for report in run_suite("all", lattice, grades):
        assert report.passed, report.to_text()
        assert all(c.status == "pass" for c in report.checks), report.to_text()


def test_enumeration_is_duplicate_free(pentagon):
    fis = enumerate_fuzzy_intervals(pentagon, GRADES3)
    assert len({fi.fuzzy for fi in fis}) == len(fis)


def test_enumeration_leaves_no_reference_cycles(diamond):
    gc.collect()
    gc.disable()
    try:
        fis = enumerate_fuzzy_intervals(diamond, GRADES4)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert len(fis) == 118
    assert unreachable == 0


def test_axiom_suite_passes_on_fixtures(chain3, diamond, pentagon):
    for lat in (chain3, diamond, pentagon):
        report = run_suite("axioms", lat, GRADES3)[0]
        assert report.passed, report.to_text()
        assert {c.law for c in report.checks} >= {
            "closure-join", "closure-meet", "commutativity-join",
            "associativity-meet", "absorption-meet-join", "order-consistency",
            "join-least-upper-bound", "meet-greatest-lower-bound",
            "join-definitional-oracle",
        }


def test_crisp_axiom_suite_passes(chain5, b3, diamond, pentagon):
    for lat in (chain5, b3, diamond, pentagon):
        report = run_suite("crisp-axioms", lat)[0]
        assert report.passed, report.to_text()


def test_oracle_join_matches_fast_join(diamond):
    fis = enumerate_fuzzy_intervals(diamond, GRADES3)
    for a, b in itertools.product(fis[:24], fis[:24]):
        assert a.join(b) == oracle_join(fis, a, b)


def _lattice_of(case):
    masks, covers = case
    return FiniteLattice([f"e{i}" for i in range(len(masks))], covers)


@settings(max_examples=40, deadline=None)
@given(random_lattices(), st.data())
def test_ops_match_independent_routes_across_chains(case, data):
    """Join against ``oracle_join``, meet against the pointwise minimum and
    ``leq`` against pointwise ``<=`` on the grades.  One operand comes from
    the enumeration, the other is rebuilt on its own grade chain, so every
    op first merges the two chains."""
    lat = _lattice_of(case)
    fis = enumerate_fuzzy_intervals(lat, GRADES3)
    a, b = data.draw(st.sampled_from(fis)), data.draw(st.sampled_from(fis))
    rebuilt = FuzzyInterval(FuzzySet.from_values(lat, b.values))
    assert rebuilt.fuzzy.chain is not a.fuzzy.chain
    assert rebuilt == b and hash(rebuilt) == hash(b)
    join = oracle_join(fis, a, b)
    meet = tuple(map(min, a.values, b.values))
    for x, y in ((a, rebuilt), (rebuilt, a)):
        assert x.join(y) == join
        assert x.meet(y).values == meet
        assert x.leq(y) == all(p <= q for p, q in zip(x.values, y.values))


@settings(max_examples=40, deadline=None)
@given(random_lattices(), st.data())
def test_fuzzy_set_routes_agree_across_grade_sets(case, data):
    """Pointwise ops of fuzzy sets over {0,1/2,1} and {0,1/3,2/3,1}, and the
    classification routes on each operand and result."""
    lat = _lattice_of(case)
    n = len(lat.elements)
    m = FuzzySet.from_values(lat, data.draw(st.lists(st.sampled_from(GRADES3),
                                                     min_size=n, max_size=n)))
    k = FuzzySet.from_values(lat, data.draw(st.lists(st.sampled_from(GRADES4),
                                                     min_size=n, max_size=n)))
    meet, join = m.meet(k), m.join(k)
    assert meet.values == tuple(map(min, m.values, k.values))
    assert join.values == tuple(map(max, m.values, k.values))
    assert m.leq(k) == all(p <= q for p, q in zip(m.values, k.values))
    assert meet.leq(m) and meet.leq(k) and m.leq(join) and k.leq(join)
    for s in (m, k, meet, join):
        label = classify(s).label
        assert (label == "fuzzy-interval") == is_fuzzy_interval(s) == \
            is_fuzzy_convex_sublattice(s)
        assert (label != "none") == is_fuzzy_sublattice(s)
    if is_fuzzy_interval(m) and is_fuzzy_interval(k):
        assert FuzzyInterval(m).meet(FuzzyInterval(k)).values == meet.values


def test_distributivity_passes_only_on_short_lattices(chain2):
    report = run_suite("distributivity", chain2, GRADES3)[0]
    assert report.passed
    assert all(c.status == "pass" for c in report.checks)


def test_distributivity_fails_on_taller_lattices(chain3):
    # the interval lattice of a 3-chain embeds a pentagon, so both laws break
    report = run_suite("distributivity", chain3, GRADES3)[0]
    assert not report.passed
    for c in report.checks:
        assert c.status == "fail" and c.asserted
        assert c.witness is not None


def test_distributivity_witness_is_replayable(chain3):
    report = run_suite("distributivity", chain3, GRADES3)[0]
    fis = enumerate_fuzzy_intervals(chain3, GRADES3)
    check = next(c for c in report.checks if c.law == "meet-over-join")
    x, y, z = (fis[i] for i in check.witness["indices"])
    lhs = x.meet(y.join(z))
    rhs = (x.meet(y)).join(x.meet(z))
    assert lhs != rhs


def test_non_distributive_base_is_reported_not_asserted(pentagon):
    report = run_suite("distributivity", pentagon, GRADES2)[0]
    assert report.passed  # findings only, nothing asserted
    for c in report.checks:
        assert not c.asserted
        assert c.status == "fail"
        assert "finding" in c.note


def test_pentagon_crisp_regression():
    lat = n5()
    a = CrispInterval(lat, "a", "a")
    b = CrispInterval(lat, "b", "b")
    c = CrispInterval(lat, "c", "c")
    lhs = (a | b) & c
    rhs = (a & c) | (b & c)
    assert lhs == CrispInterval(lat, "c", "c")
    assert rhs == CrispInterval.empty(lat)
    assert lhs != rhs


def _broken_join(lattice):
    """The true hull, except that one pair's result is swapped: the join of
    the whole carrier and the empty interval gives the empty interval."""
    whole, empty = CrispInterval.whole(lattice), CrispInterval.empty(lattice)

    def broken_join(a, b):
        if {a, b} == {whole, empty}:
            return empty
        return a | b
    return broken_join


def test_fault_injection_broken_join_is_caught(chain3):
    ivs = enumerate_intervals(chain3)
    report = check_lattice_axioms(
        ivs, _broken_join(chain3), CrispInterval.intersection, CrispInterval.issubset,
        suite="crisp-axioms", lattice_name="chain3", grades=())
    assert not report.passed
    failed = {c.law for c in report.checks if c.status == "fail"}
    assert failed  # at least one law must notice
    bad = next(c for c in report.checks if c.status == "fail")
    assert bad.witness is not None and "operands" in bad.witness

    # ops that are bounds but not the least or greatest one for distinct operands
    whole, empty = CrispInterval.whole(chain3), CrispInterval.empty(chain3)
    for join, meet, law, detail in (
            (lambda a, b: a if a == b else whole, CrispInterval.intersection,
             "join-least-upper-bound", "a smaller common upper bound exists"),
            (CrispInterval.hull, lambda a, b: a if a == b else empty,
             "meet-greatest-lower-bound", "a greater common lower bound exists")):
        report = check_lattice_axioms(ivs, join, meet, CrispInterval.issubset)
        check = next(c for c in report.checks if c.law == law)
        assert check.status == "fail" and check.witness["detail"] == detail


def test_fault_injection_out_of_pool_result(chain3):
    ivs = [iv for iv in enumerate_intervals(chain3) if not iv.is_empty]

    def hull(a, b):
        return a | b

    def intersect(a, b):  # may leave the pool: closure-meet must fail
        return a & b

    report = check_lattice_axioms(
        ivs, hull, intersect, CrispInterval.issubset,
        suite="crisp-axioms", lattice_name="chain3-no-empty", grades=())
    assert not report.passed
    closure = next(c for c in report.checks if c.law == "closure-meet")
    assert closure.status == "fail"


def test_witness_operands_that_are_plain_values_render_by_str():
    """Addition leaves {0, 1}: 1 + 1 is the first join outside it."""
    report = check_lattice_axioms([0, 1], int.__add__, min, int.__le__)
    closure = report.checks[0]
    assert closure.law == "closure-join" and not report.passed
    assert closure.witness == {"indices": [1, 1], "operands": ["1", "1"]}


def test_each_closure_witness_is_its_own_ops_first_outside_pair():
    """Both ops intern into one pool: ``meet(0, 1)`` adds 7 to it first, and
    ``join(1, 2)`` then finds 7 already pooled.  It still lies outside the
    items, so each closure check names its own op's first such pair."""
    def join(a, b):
        return 7 if {a, b} == {1, 2} else max(a, b)

    def meet(a, b):
        return 7 if {a, b} == {0, 1} else min(a, b)

    report = check_lattice_axioms([0, 1, 2], join, meet, int.__le__)
    closure = {c.law: c for c in report.checks if c.law.startswith("closure")}
    assert closure["closure-join"].status == closure["closure-meet"].status == "fail"
    assert closure["closure-join"].witness["indices"] == [1, 2]
    assert closure["closure-meet"].witness["indices"] == [0, 1]


def test_duplicate_member_is_refused_before_any_op(chain2):
    ivs = enumerate_intervals(chain2) + [CrispInterval.empty(chain2)]
    calls = Counter()

    def counted(name, fn):
        def wrapper(a, b):
            calls[name] += 1
            return fn(a, b)
        return wrapper

    join = counted("join", CrispInterval.hull)
    meet = counted("meet", CrispInterval.intersection)
    leq = counted("leq", CrispInterval.issubset)
    with pytest.raises(ValueError, match="indices 0 and 4"):
        check_lattice_axioms(ivs, join, meet, leq)
    with pytest.raises(ValueError, match="indices 0 and 4"):
        check_distributivity(ivs, join, meet)
    assert not calls
    assert check_lattice_axioms(ivs[:-1], join, meet, leq).passed


def _leq_row(items, a, leq):
    """Bitmask of the items ``b`` with ``leq(a, b)``."""
    return sum(1 << j for j, b in enumerate(items) if leq(a, b))


# the fixture x grade chain cases of the laws-exhaustive and laws-sampled
# benchmark workloads
LAW_WORKLOAD_CASES = [("chain2", GRADES4), ("chain3", GRADES3), ("boolean2", GRADES3),
                      ("m3", GRADES3), ("n5", GRADES3), ("chain4", GRADES3),
                      ("m3", GRADES4), ("chain5", GRADES3)]


@pytest.mark.parametrize("fixture, grades", LAW_WORKLOAD_CASES,
                         ids=[f"{f}-{len(g)}" for f, g in LAW_WORKLOAD_CASES])
def test_order_rows_match_pairwise_leq(fixture, grades):
    """The bit-parallel rows from the memberships are the rows of pairwise
    ``FuzzyInterval.leq``, and the down rows are their transpose."""
    fis = enumerate_fuzzy_intervals(standard_lattice(fixture), grades)
    up, down = laws._order_rows([fi.fuzzy.ranks for fi in fis])
    assert up == [_leq_row(fis, a, FuzzyInterval.leq) for a in fis]
    assert down == [sum((up[j] >> i & 1) << j for j in range(len(fis)))
                    for i in range(len(fis))]


@settings(max_examples=40, deadline=None)
@given(random_lattices(), st.sampled_from([GRADES2, GRADES3, GRADES4]), st.data())
def test_order_rows_match_pairwise_leq_on_random_lattices(case, grades, data):
    """Up to 1,800 fuzzy intervals: drawn rows of both directions are
    checked against pairwise ``leq``."""
    fis = enumerate_fuzzy_intervals(_lattice_of(case), grades)
    up, down = laws._order_rows([fi.fuzzy.ranks for fi in fis])
    assert len(up) == len(down) == len(fis)
    for i in data.draw(st.lists(st.integers(0, len(fis) - 1), min_size=1, max_size=8)):
        assert up[i] == _leq_row(fis, fis[i], FuzzyInterval.leq)
        assert down[i] == _leq_row(fis, fis[i], lambda a, b: b.leq(a))


# sha256 of json.dumps(axioms.as_json(), sort_keys=True) from
# run_suite("axioms", ..., {0, 1/2, 1}) with FuzzyInterval.join replaced by
# one that returns its right operand, captured while the order rows were
# still built from pairwise FuzzyInterval.leq calls
RIGHT_OPERAND_JOIN_AXIOMS = {
    ("chain3", "exhaustive"):
        "38ec24aff6359e1f18ff973c3dd67b49beab9c7146d07374868ca0807972a656",
    ("chain3", "sampled"):
        "449a320fa5d9fb80b9996d05d6b4da01833a2e24b134ba1c4558a67c4a520f26",
    ("m3", "exhaustive"):
        "188f6a3b082f8acb64d897f2943ba3889ecab61a90ceb7f8de510535bcd0088b",
    ("m3", "sampled"):
        "abde2d238e4358d14439ebc6a578b3259b6adf29fb0dd4327a651ef3ba4c14bc",
}


def test_order_rows_catch_a_join_that_returns_its_right_operand(monkeypatch, chain3, diamond):
    """The order rows come from the enumerated memberships, not from the ops,
    so a broken join fails the order laws with the witnesses it had when
    the rows came from pairwise ``leq``."""
    monkeypatch.setattr(FuzzyInterval, "join", lambda a, b: b)
    lattices = {"chain3": chain3, "m3": diamond}
    budgets = {"exhaustive": {}, "sampled": dict(budget=300, seed=3)}
    for (lat, mode), digest in RIGHT_OPERAND_JOIN_AXIOMS.items():
        (report,) = run_suite("axioms", lattices[lat], GRADES3, **budgets[mode])
        failed = {c.law for c in report.checks if c.status == "fail"}
        assert {"order-consistency", "join-least-upper-bound",
                "join-definitional-oracle"} <= failed, (lat, mode)
        doc = json.dumps(report.as_json(), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest, (lat, mode)


TRIPLE_LAWS = {
    "associativity-join": (lambda J, M, a, b, c: J(a, J(b, c)),
                           lambda J, M, a, b, c: J(J(a, b), c)),
    "associativity-meet": (lambda J, M, a, b, c: M(a, M(b, c)),
                           lambda J, M, a, b, c: M(M(a, b), c)),
    "meet-over-join": (lambda J, M, a, b, c: M(a, J(b, c)),
                       lambda J, M, a, b, c: J(M(a, b), M(a, c))),
    "join-over-meet": (lambda J, M, a, b, c: J(a, M(b, c)),
                       lambda J, M, a, b, c: M(J(a, b), J(a, c))),
}


def _plain_scan(items, arity, probe):
    """(status, checked, witness) of a lexicographic scan over every tuple."""
    checked = 0
    for tup in itertools.product(range(len(items)), repeat=arity):
        checked += 1
        detail = probe(*tup)
        if detail is not None:
            witness = {"indices": list(tup),
                       "operands": [render_operand(items[i]) for i in tup]}
            if detail:
                witness["detail"] = detail
            return "fail", checked, witness
    return "pass", checked, None


def _assert_triple_checks_match_plain_scan(reports, items, join, meet, laws):
    """Each triple check's status, checked count and witness equal those of
    a lexicographic scan that calls the ops directly."""
    checks = {c.law: c for r in reports for c in r.checks if c.law in TRIPLE_LAWS}
    assert set(checks) == set(laws)
    for law in laws:
        lhs, rhs = TRIPLE_LAWS[law]

        def probe(i, j, k):
            a, b, c = items[i], items[j], items[k]
            return None if lhs(join, meet, a, b, c) == rhs(join, meet, a, b, c) else ""
        expected = _plain_scan(items, 3, probe)
        assert (checks[law].status, checks[law].checked, checks[law].witness) == expected, law


PAIR_LAWS = {
    "commutativity-join": lambda J, M, leq, a, b: J(a, b) == J(b, a),
    "commutativity-meet": lambda J, M, leq, a, b: M(a, b) == M(b, a),
    "absorption-meet-join": lambda J, M, leq, a, b: M(a, J(a, b)) == a,
    "absorption-join-meet": lambda J, M, leq, a, b: J(a, M(a, b)) == a,
    "order-consistency": lambda J, M, leq, a, b: leq(a, b) == (M(a, b) == a) == (J(a, b) == b),
}


def _assert_pair_checks_match_plain_scan(report, items, join, meet, leq):
    """Each pair check decided by rows has the status, checked count and
    witness of a lexicographic scan that calls the public ops directly."""
    checks = {c.law: c for c in report.checks if c.law in PAIR_LAWS}
    assert set(checks) == set(PAIR_LAWS)
    for law, holds in PAIR_LAWS.items():
        expected = _plain_scan(items, 2, lambda i, j: None if holds(
            join, meet, leq, items[i], items[j]) else "")
        assert (checks[law].status, checks[law].checked, checks[law].witness) == expected, law


def test_row_checks_match_a_plain_scan(chain3):
    # a closed table with one wrong entry: the row path decides every row
    ivs = enumerate_intervals(chain3)
    broken_join = _broken_join(chain3)
    reports = [check_lattice_axioms(ivs, broken_join, CrispInterval.intersection,
                                    CrispInterval.issubset),
               check_distributivity(ivs, broken_join, CrispInterval.intersection)]
    status = {c.law: c.status for c in reports[0].checks}
    assert status["closure-join"] == "pass" and status["associativity-join"] == "fail"
    assert status["order-consistency"] == "fail"
    _assert_triple_checks_match_plain_scan(reports, ivs, broken_join,
                                           CrispInterval.intersection, TRIPLE_LAWS)
    _assert_pair_checks_match_plain_scan(reports[0], ivs, broken_join,
                                         CrispInterval.intersection, CrispInterval.issubset)

    # an open table: intersections of nonempty intervals may leave the pool
    nonempty = ivs[1:]
    reports = [check_lattice_axioms(nonempty, CrispInterval.hull, CrispInterval.intersection,
                                    CrispInterval.issubset),
               check_distributivity(nonempty, CrispInterval.hull, CrispInterval.intersection)]
    assert {c.law: c.status for c in reports[0].checks}["closure-meet"] == "fail"
    _assert_triple_checks_match_plain_scan(reports, nonempty, CrispInterval.hull,
                                           CrispInterval.intersection, TRIPLE_LAWS)
    _assert_pair_checks_match_plain_scan(reports[0], nonempty, CrispInterval.hull,
                                         CrispInterval.intersection, CrispInterval.issubset)

    fis = enumerate_fuzzy_intervals(chain3, GRADES3)
    reports = run_suite("distributivity", chain3, GRADES3)
    assert not reports[0].passed
    _assert_triple_checks_match_plain_scan(reports, fis, FuzzyInterval.join,
                                           FuzzyInterval.meet,
                                           ["meet-over-join", "join-over-meet"])


@settings(max_examples=40, deadline=None)
@given(random_lattices(), st.booleans())
def test_row_checks_match_a_plain_scan_on_random_lattices(case, broken):
    """The row verdicts name the first failing pair or triple and its
    ``checked`` count on every small carrier: over its crisp intervals with
    the hull, or with the :func:`_broken_join` swap, which keeps the table
    closed; and over the first one and none of them, which check 1 and 0
    instances of each law."""
    lattice = _lattice_of(case)
    ivs = enumerate_intervals(lattice)
    join = cache(_broken_join(lattice) if broken else CrispInterval.hull)
    meet = cache(CrispInterval.intersection)
    for items in (ivs, ivs[:1], ivs[:0]):
        reports = [check_lattice_axioms(items, join, meet, CrispInterval.issubset),
                   check_distributivity(items, join, meet)]
        assert {c.law: c.status for c in reports[0].checks}["closure-join"] == "pass"
        _assert_triple_checks_match_plain_scan(reports, items, join, meet, TRIPLE_LAWS)
        _assert_pair_checks_match_plain_scan(reports[0], items, join, meet,
                                             CrispInterval.issubset)
        if len(items) < 2:
            assert {c.checked for r in reports for c in r.checks
                    if c.law in PAIR_LAWS or c.law in TRIPLE_LAWS} == {len(items)}


def _planted(op, n, faults):
    """``op`` over 0..n-1 with the entries in ``faults`` replaced."""
    table = [[op(a, b) for b in range(n)] for a in range(n)]
    for (a, b), value in faults.items():
        table[a][b] = value
    return lambda a, b: table[a][b]


@pytest.mark.parametrize("n, seq", [(256, bytes), (257, list)])
def test_rows_as_bytes_or_lists_match_a_scan_at_the_byte_boundary(monkeypatch, n, seq):
    """Up to 256 items every index fits a byte and the rows are bytes; from
    257 they are lists.  Either way each report equals the one a scan with
    no rows gives.  The ints under max and min get one planted
    associativity fault, ``1 ⊔ 2 = 4`` and ``2 ⊓ 3 = 0`` (one way round
    only, so commutativity fails early too), and one planted distributivity
    fault, M3 on 1, 2 and 3 under 4.  The budget makes the triples
    exhaustive, and every triple law fails within about n² scanned
    tuples, so the scans stay short."""
    run_law, row_ops = laws._run_law, laws._OpTables.row_ops
    seqs = set()

    def spied(tabs, table):
        ops = row_ops(tabs, table)
        seqs.add(ops[0])
        return ops
    monkeypatch.setattr(laws._OpTables, "row_ops", spied)
    m3_pairs = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]
    cases = [(check_lattice_axioms, _planted(max, n, {(1, 2): 4}),
              _planted(min, n, {(2, 3): 0}), int.__le__),
             (check_distributivity, _planted(max, n, dict.fromkeys(m3_pairs, 4)),
              _planted(min, n, dict.fromkeys(m3_pairs, 0)))]
    reports = []
    for scan in (False, True):
        if scan:  # the same laws with no rows given, so each is scanned
            monkeypatch.setattr(laws, "_run_law",
                                lambda *args, row=None, **kw: run_law(*args, **kw))
        reports.append([check(range(n), *ops, budget=257 ** 3).as_json()
                        for check, *ops in cases])
    assert seqs == {seq}
    rows, scanned = reports
    assert rows == scanned
    failed = {c["law"] for r in rows for c in r["checks"] if c["status"] == "fail"}
    assert {"associativity-join", "associativity-meet", "meet-over-join",
            "join-over-meet"} <= failed
    assert "absorption-join-meet" not in failed  # its rows pass whole


def _subsets(ranks):
    """Nonempty subsets of ascending ranks, by size, each ascending."""
    for size in range(1, len(ranks) + 1):
        yield from itertools.combinations(ranks, size)


def _literal_subset_probe(chain, family, fold):
    """The fold identity checked on every nonempty threshold set P, as the
    lemmas state it: the first P whose fold differs from the member at
    max P, by size and then lexicographically."""
    values = dict(family)
    for subset in _subsets(list(values)):
        if fold([values[r] for r in subset]) != values[max(subset)]:
            return "P = {" + ", ".join(format_grade(chain[r]) for r in subset) + "}"
    return None


def _assert_matches_references(report, fis, references, failed):
    """Each referenced check equals the plain scan of its reference probe;
    ``failed`` collects the laws that fail."""
    checks = {c.law: c for c in report.checks if c.law in references}
    assert set(checks) == set(references)
    for law, (arity, probe) in references.items():
        got = checks[law]
        assert (got.status, got.checked, got.witness) == _plain_scan(fis, arity, probe), law
        if got.status == "fail":
            failed.add(law)


class _PlantedEnds(FuzzyInterval):
    """A fuzzy interval whose endpoint laws read ``planted``, one ``(lo, hi)``
    pair per level, crossed pairs included, which have no Int(L) code.
    Everything else reads the cut chain and the fuzzy set it copies."""

    __slots__ = ("planted",)

    def _rank_endpoints(self, rank):
        return self.planted[bisect_left(self._levels, rank)]


def _with_ends(fi, planted):
    """A copy of ``fi`` whose endpoint laws read the ``planted`` pairs."""
    out = object.__new__(_PlantedEnds)
    for slot in FuzzyInterval.__slots__:
        setattr(out, slot, getattr(fi, slot))
    out.planted = tuple(planted)
    return out


def _endpoint_references(lattice, fis, chain):
    """Law name -> (arity, probe) over the stored endpoint chains, folding
    with the carrier's tables over every threshold set."""
    top, bottom = lattice.index(lattice.top), lattice.index(lattice.bottom)

    def ends(fi, r):
        lo, hi = fi._rank_endpoints(r)
        return (top, bottom) if lo is None else (lo, hi)

    def single(side, fold):
        return 1, lambda i: _literal_subset_probe(
            chain, [(r, ends(fis[i], r)[side]) for r in fis[i]._levels], fold)

    def paired(side, inner, fold):
        def probe(i, j):
            levels = sorted(set(fis[i]._levels) | set(fis[j]._levels))
            return _literal_subset_probe(chain, [(r, inner(ends(fis[i], r)[side],
                                                           ends(fis[j], r)[side]))
                                                 for r in levels], fold)
        return 2, probe

    return {"lower-endpoint-supremum": single(0, lattice.join_indices),
            "upper-endpoint-infimum": single(1, lattice.meet_indices),
            "paired-lower-meet-supremum": paired(0, lattice.meet_index, lattice.join_indices),
            "paired-upper-join-infimum": paired(1, lattice.join_index, lattice.meet_indices)}


def _cut_family_references(lattice, fis, chain, crisp):
    """Law name -> (arity, probe): the masks of op(cut_i, cut_j), read from
    the crisp table, intersected over every threshold set."""
    full = lattice.all_mask
    cuts = [[crisp.index[fi.cut_interval(g)] for g in chain] for fi in fis]

    def law(table):
        def probe(i, j):
            levels = sorted(set(fis[i]._levels) | set(fis[j]._levels))
            masks = [(r, crisp.items[table[cuts[i][r]][cuts[j][r]]].members_mask())
                     for r in levels]
            return _literal_subset_probe(chain, masks,
                                         lambda ms: reduce(int.__and__, ms, full))
        return 2, probe

    return {"meet-cut-family-intersection": law(crisp.meet_t),
            "join-cut-family-intersection": law(crisp.join_t)}


@pytest.mark.parametrize("lattice", [m3(), chain(3), boolean_lattice(2)],
                         ids=["m3", "chain3", "b2"])
def test_pairwise_subset_laws_match_the_literal_subset_loop(lattice):
    """Fault injection: with corrupted endpoint chains and crisp op-table
    entries, the pairwise checks of the six threshold-set laws give the
    status, checked count and witness of the literal 2^k subset loop."""
    grades = validate_grades((0, Fraction(1, 4), H, Fraction(3, 4), 1))
    budget = {"plan": laws._planner(laws.DEFAULT_BUDGET, 0)}
    n = len(lattice.elements)
    # lowers b a t a b, uppers t a b a t at ranks 0-4 (b, a, t the bottom,
    # an inner element and the top): the first failing pair is ranks {1, 4},
    # not the {2, 3} that consecutive or max-first scans report; item 0 is
    # constant 0 and keeps the pattern in every pair (0, j)
    b, t = lattice.index(lattice.bottom), lattice.index(lattice.top)
    a = next(i for i in range(n) if i not in (b, t))
    planted = ((b, t), (a, a), (t, b), (a, a), (b, t))
    # the cut identities read the fuzzy-interval table of a clean enumeration;
    # only the endpoint half below corrupts its own
    tabs = laws._OpTables(enumerate_fuzzy_intervals(lattice, grades), FuzzyInterval.join,
                          FuzzyInterval.meet)
    failed = set()
    for seed in range(8):
        rng = random.Random(seed)
        crisp = laws._OpTables(enumerate_intervals(lattice), CrispInterval.hull,
                               CrispInterval.intersection)
        for table in (crisp.meet_t, crisp.join_t):
            for pos in rng.sample(range(crisp.n ** 2), crisp.n ** 2 // 8):
                table[pos // crisp.n][pos % crisp.n] = rng.randrange(crisp.n)
        report = laws._cut_identities(LawReport("cut-identities", "", grades), lattice, tabs,
                                      crisp, **budget)
        _assert_matches_references(report, tabs.items,
                                   _cut_family_references(lattice, tabs.items, grades, crisp),
                                   failed)

        # corrupted endpoint chains cut outside the crisp table, so they come
        # second; the endpoint laws read nothing else
        fis = enumerate_fuzzy_intervals(lattice, grades)
        k = rng.choice([k for k, fi in enumerate(fis) if len(fi._levels) == 5])
        fis[k] = _with_ends(fis[k], planted)
        for k in rng.sample([k for k, fi in enumerate(fis) if len(fi._levels) >= 4], 2):
            fis[k] = _with_ends(fis[k], [(rng.randrange(n), rng.randrange(n))
                                         for _ in fis[k]._cuts])
        report = laws._endpoint_lemmas(LawReport("endpoints", "", grades), lattice, fis,
                                       True, **budget)
        _assert_matches_references(report, fis, _endpoint_references(lattice, fis, grades),
                                   failed)
    assert len(failed) == 6  # the corruption reaches every law


def test_endpoint_lemmas_make_quadratically_many_lattice_lookups(monkeypatch):
    """Each item or pair with k thresholds costs at most k + C(k, 2) carrier
    lookups per law, so an exponential subset loop cannot come back."""
    lattice = chain(2)
    grades = validate_grades([Fraction(i, 8) for i in range(9)])
    fis = enumerate_fuzzy_intervals(lattice, grades)
    assert len(fis) == 81
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("join_index", "meet_index", "join_indices", "meet_indices"):
        monkeypatch.setattr(FiniteLattice, name, counted(name, getattr(FiniteLattice, name)))
    report = laws._endpoint_lemmas(LawReport("endpoints", "chain2", grades), lattice, fis,
                                   True, plan=laws._planner(laws.DEFAULT_BUDGET, 0))
    assert report.passed and len(report.checks) == 4

    def cost(k):
        return k + comb(k, 2)

    levels = [set(fi._levels) for fi in fis]
    singles = sum(cost(len(a)) for a in levels)
    pairs = sum(cost(len(a | b)) for a in levels for b in levels)
    assert sum(calls.values()) <= 2 * singles + 2 * pairs


# -- decided rows: cut-family intersection and the paired endpoint laws -------


DECIDED_LAWS = ("meet-cut-family-intersection", "join-cut-family-intersection",
                "paired-lower-meet-supremum", "paired-upper-join-infimum")
SAMPLED = dict(budget=300, seed=3)


def _fold_calls_by_law(monkeypatch):
    """Counter of ``_first_failing_pair`` calls, keyed by the law that
    ``_run_law`` is evaluating when each is made."""
    calls, running = Counter(), []
    run_law, first_failing_pair = laws._run_law, laws._first_failing_pair

    def tracked(report, items, law, *args, **kwargs):
        running.append(law)
        try:
            return run_law(report, items, law, *args, **kwargs)
        finally:
            running.pop()

    def counted(*args):
        calls[running[-1] if running else None] += 1
        return first_failing_pair(*args)

    monkeypatch.setattr(laws, "_run_law", tracked)
    monkeypatch.setattr(laws, "_first_failing_pair", counted)
    return calls


def test_a_passing_verdict_probes_no_instance(monkeypatch, chain3):
    """On chain3 x {0,1/2,1} every endpoint chain is monotone and every cut
    family nests, so the four decided rows count their 22^2 pairs without
    folding any; only the single-item endpoint laws fold, once per item."""
    calls = _fold_calls_by_law(monkeypatch)
    reports = run_suite("all", chain3, GRADES3)
    checks = {c.law: c for r in reports for c in r.checks}
    for law in DECIDED_LAWS:
        assert (checks[law].status, checks[law].checked) == ("pass", 22 ** 2), law
    assert calls == {"lower-endpoint-supremum": 22, "upper-endpoint-infimum": 22}


def _probe_calls_by_law(monkeypatch):
    """Counter of the calls of the probe that ``_run_law`` is given, by law."""
    calls = Counter()
    run_law = laws._run_law

    def tracked(report, items, law, arity, probe, **kwargs):
        def counted(*tup):
            calls[law] += 1
            return probe(*tup)
        return run_law(report, items, law, arity, counted, **kwargs)

    monkeypatch.setattr(laws, "_run_law", tracked)
    return calls


# laws that an exhaustive run decides from whole rows, probing no more than
# the first failing tuple
ROW_LAWS = (*PAIR_LAWS, *TRIPLE_LAWS, "meet-cut-identity", "join-cut-identity",
            "meet-cut-family-antitone", "meet-cut-family-at-zero",
            "join-cut-family-antitone", "join-cut-family-at-zero")


def test_row_decided_laws_probe_only_a_witness(monkeypatch, chain3):
    """Over chain3 x {0,1/2,1} a sampled run probes every drawn instance of
    a row-decided law up to its first failure.  An exhaustive run probes no
    instance of one that passes and one tuple of each that fails: the
    distributive laws, over the fuzzy and the crisp intervals (criterion
    7).  So is an identity that fails only at a result's threshold,
    between those of its operands."""
    calls = _probe_calls_by_law(monkeypatch)
    for budget in (SAMPLED, {}):
        calls.clear()
        expected = Counter()
        for c in (c for r in run_suite("all", chain3, GRADES3, **budget) for c in r.checks):
            if c.law in DECIDED_LAWS or c.law in ROW_LAWS and c.mode == "exhaustive":
                expected[c.law] += c.status == "fail"
            elif c.law in ROW_LAWS:
                expected[c.law] += c.checked
        assert {law: calls[law] for law in expected} == expected, budget
    assert sum(expected.values()) == 4  # the two distributive laws, over both collections

    monkeypatch.setattr(FuzzyInterval, "meet", FI_OP_FAULTS["meet-lifts-crisp-squares"][0])
    calls.clear()
    (report,) = run_suite("cut-identities", chain3, GRADES3)
    assert not report.passed
    assert {law: calls[law] for law in ROW_LAWS[-6:]} == {
        "meet-cut-identity": 1, "join-cut-identity": 0,
        "meet-cut-family-antitone": 0, "meet-cut-family-at-zero": 0,
        "join-cut-family-antitone": 0, "join-cut-family-at-zero": 0}


def test_a_decided_failure_the_probe_passes_is_a_disagreement(chain2):
    """A failing tuple named by another route is probed for its detail; a
    probe that passes it raises instead of reporting a fail with no detail.
    A decided pass counts the planned instances: all of them, or the
    sample's draws.

    Rows decide a law only over an exhaustive plan: there the first
    differing tuple alone is probed, and ``checked`` is its lexicographic
    position + 1; a sampled plan never reads a row and scans its draws."""
    items = enumerate_intervals(chain2)
    report = LawReport("crisp", "chain2")
    exhaustive = laws._planner(laws.DEFAULT_BUDGET, 0)
    with pytest.raises(RouteDisagreement, match="some-law"):
        laws._run_law(report, items, "some-law", 2, lambda i, j: None,
                      plan=exhaustive, verdict=(3, (0, 2)))
    for budget, checked in ((laws.DEFAULT_BUDGET, 16), (5, 5)):
        laws._run_law(report, items, "some-law", 2, lambda i, j: "", plan=laws._planner(budget, 0),
                      verdict="pass")
        assert (report.checks[-1].status, report.checks[-1].checked) == ("pass", checked)

    probed = []

    def probe(*tup):
        probed.append(tup)
        return "" if tup in ((2, 1), (1, 2, 3)) else None

    def unread_row(*key):
        raise AssertionError("a sampled plan read a row")

    sampled = laws._planner(5, 0)
    laws._run_law(report, items, "some-law", 2, probe, plan=sampled, row=unread_row)
    assert (report.checks[-1].checked, probed) == (5, sampled(4, 2)[0])

    def differing_at(*bad):
        """Rows over every last index that differ at each tuple in ``bad``."""
        return lambda *key: ([0] * 4, [int(key + (k,) in bad) for k in range(4)])

    for arity, bad, checked in ((2, [(2, 1), (3, 0)], 2 * 4 + 1 + 1),
                                (3, [(1, 2, 3), (3, 0, 0)], 1 * 16 + 2 * 4 + 3 + 1)):
        probed.clear()
        got = laws._run_law(report, items, "some-law", arity, probe, plan=exhaustive,
                            row=differing_at(*bad))
        assert got == (checked, bad[0]) == _verdict_of(report.checks[-1])
        assert probed == [bad[0]]
        assert laws._run_law(report, items, "some-law", arity, probe, plan=exhaustive,
                             row=differing_at()) == "pass"
        assert (report.checks[-1].checked, probed) == (4 ** arity, [bad[0]])
    with pytest.raises(RouteDisagreement, match="some-law"):
        laws._run_law(report, items, "some-law", 2, probe, plan=exhaustive,
                      row=differing_at((0, 3)))


_HULL, _INTERSECTION = CrispInterval.hull, CrispInterval.intersection


def _intersection_or_whole(a, b):
    out = _INTERSECTION(a, b)
    return CrispInterval.whole(a.lattice) if out.is_empty else out


def _hull_of_disjoint(a, b):
    out = _INTERSECTION(a, b)
    return _HULL(a, b) if out.is_empty and not (a.is_empty or b.is_empty) else out


# (hull, intersection) pairs that the crisp tables are built from
CUT_FAMILY_FAULTS = {
    "hull-empty-on-equal-operands":
        (lambda a, b: CrispInterval.empty(a.lattice) if a == b else _HULL(a, b), _INTERSECTION),
    "intersection-whole-when-empty": (_HULL, _intersection_or_whole),
    "ops-swapped": (_INTERSECTION, _HULL),
    "intersection-hull-of-disjoint": (_HULL, _hull_of_disjoint),
}

# sha256 of json.dumps(report.as_json(), sort_keys=True) for
# run_suite("cut-identities", ..., {0, 1/2, 1}) under each fault, captured
# while the intersection rows were still scanned pair by pair
CUT_FAMILY_FAULT_REPORTS = {
    ("hull-empty-on-equal-operands", "chain3", "exhaustive"):
        "8c0874b3d248c22a38ec654922cf41eee88c33633dbb9429947707855e918eb5",
    ("hull-empty-on-equal-operands", "chain3", "sampled"):
        "9221cfc0c8c7578e8edb623ab850b604e8c8003d74e9f98e4839eb42eb66bfc9",
    ("hull-empty-on-equal-operands", "m3", "exhaustive"):
        "62d8aeac89a2867f1eb8d30c506bd69166ad8ae41563960f93cb5bebc1a69128",
    ("hull-empty-on-equal-operands", "m3", "sampled"):
        "e312b08075d82132b634122fd3396ddbb54414853b1b9a9a7e11b98937534de4",
    ("hull-empty-on-equal-operands", "chain4", "exhaustive"):
        "8b00555e31bbcd486d6a42a2b2691c87f20c0904a3de7785e8982ccc5b8cd2ac",
    ("hull-empty-on-equal-operands", "chain4", "sampled"):
        "1f67effd97178779d22fee4c72e67ec3e0ed9322a2f1d50d70793fa2e4bf7223",
    ("intersection-hull-of-disjoint", "chain3", "exhaustive"):
        "131eb035267559e0d378bdd77500346f495ffa08b658e844f21269ddd17b783e",
    ("intersection-hull-of-disjoint", "chain3", "sampled"):
        "f5672d1e3567141b415d458a37022b3806af196f88edbb24e4717897bfecdf0a",
    ("intersection-hull-of-disjoint", "m3", "exhaustive"):
        "3a6aa4e2ed8f1db30ec9c10481ed176bbe5fe7915ee26c53bc4a655b53c539af",
    ("intersection-hull-of-disjoint", "m3", "sampled"):
        "5d6a7a5f508058fbfc68a2232ba77fb165da12ef7bacc8a69bcd72191b4ae0e5",
    ("intersection-hull-of-disjoint", "chain4", "exhaustive"):
        "7d512dbe621cf91261497d2a70c52c3fc647b9310bb475c12c7040ddc3cd1a95",
    ("intersection-hull-of-disjoint", "chain4", "sampled"):
        "e370139cfcbe112c8698d41936db8a04e948afabaa3cc117d21d249ff31d4422",
    ("intersection-whole-when-empty", "chain3", "exhaustive"):
        "d9c1c0e249823d26a173a687accefd08bb9e4a27b8f830e51342b1465e7a84f5",
    ("intersection-whole-when-empty", "chain3", "sampled"):
        "1acbda6e804595e43f7a535ded28352b63b30b1d1de6f7b1039076ede06ba047",
    ("intersection-whole-when-empty", "m3", "exhaustive"):
        "9e0fd9273cc6947500d1592075939b0d82b6cfc9fd173d5ee48f932a19f871d4",
    ("intersection-whole-when-empty", "m3", "sampled"):
        "5d6a7a5f508058fbfc68a2232ba77fb165da12ef7bacc8a69bcd72191b4ae0e5",
    ("intersection-whole-when-empty", "chain4", "exhaustive"):
        "282773ff742afd4eaa1aa782c1db490003bfa16afff6d2dc057d3cca29ef5001",
    ("intersection-whole-when-empty", "chain4", "sampled"):
        "e370139cfcbe112c8698d41936db8a04e948afabaa3cc117d21d249ff31d4422",
    ("ops-swapped", "chain3", "exhaustive"):
        "67f08e3286929885fb7412481fd9e34e7d34b0e378516db7ddb6df29e3945261",
    ("ops-swapped", "chain3", "sampled"):
        "b2cbf08d7fc81ba29f9a152bf18e2e9462420ff0df8269b5533c3a3e2149fcb4",
    ("ops-swapped", "m3", "exhaustive"):
        "4fe666a47c4a1b7035e78770a4a13ee39cfe08efabbb0fbfc2154f87f30d778b",
    ("ops-swapped", "m3", "sampled"):
        "25063e75b07e882efb8336330758511ffd792a8270b9bc63298341393b1f0656",
    ("ops-swapped", "chain4", "exhaustive"):
        "ec375886d423c0e28f3c8f79296840503729cd3f3ab06dade3cb2b15e2c424b4",
    ("ops-swapped", "chain4", "sampled"):
        "a287220ae498686dd4a0b766375532553753af298ef014e3a9e4c3cc1dbb98bd",
}


def _cut_family_fault_report(monkeypatch, fault, lattice, mode):
    hull, intersection = CUT_FAMILY_FAULTS[fault]
    monkeypatch.setattr(CrispInterval, "hull", hull)
    monkeypatch.setattr(CrispInterval, "intersection", intersection)
    (report,) = run_suite("cut-identities", lattice, GRADES3,
                          **(SAMPLED if mode == "sampled" else {}))
    return report


@pytest.mark.parametrize("fault", sorted(CUT_FAMILY_FAULTS))
def test_cut_family_faults_keep_their_reports(monkeypatch, fault, chain3, diamond):
    """Faulty crisp ops give the cut-family rows the reports they had when
    every row was probed pair by pair, and each intersection row agrees
    with its antitone row on status, ``checked`` and the failing tuple."""
    lattices = {"chain3": chain3, "m3": diamond, "chain4": chain(4)}
    family_failed = False
    for lat, mode in itertools.product(lattices, ("exhaustive", "sampled")):
        report = _cut_family_fault_report(monkeypatch, fault, lattices[lat], mode)
        doc = json.dumps(report.as_json(), sort_keys=True)
        assert (hashlib.sha256(doc.encode()).hexdigest()
                == CUT_FAMILY_FAULT_REPORTS[(fault, lat, mode)]), (lat, mode)
        checks = {c.law: c for c in report.checks}
        for op in ("meet", "join"):
            antitone = checks[f"{op}-cut-family-antitone"]
            closed = checks[f"{op}-cut-family-intersection"]
            assert ((antitone.status, antitone.checked, (antitone.witness or {}).get("indices"))
                    == (closed.status, closed.checked, (closed.witness or {}).get("indices")))
            family_failed |= closed.status == "fail"
    assert family_failed == (fault != "ops-swapped")


_FI_MEET, _FI_JOIN = FuzzyInterval.meet, FuzzyInterval.join


def _lifted(fi):
    """The fuzzy interval that is 1 where ``fi`` is and 1/2 elsewhere: over
    a {0, 1}-valued ``fi`` it has the same cuts at 0 and at 1."""
    return FuzzyInterval(FuzzySet.from_values(fi.lattice, [v if v == 1 else H
                                                           for v in fi.values]))


def _swapped_on_incomparable():
    def swap(op, other):
        return lambda a, b: op(a, b) if a.leq(b) or b.leq(a) else other(a, b)
    return swap(_FI_MEET, _FI_JOIN), swap(_FI_JOIN, _FI_MEET)


# (meet, join) pairs that the fuzzy-interval table is built from; every
# result is an enumerated member, so the table stays closed
FI_OP_FAULTS = {
    "ops-swapped": (_FI_JOIN, _FI_MEET),
    "swapped-on-incomparable": _swapped_on_incomparable(),
    "meet-gives-the-join": (_FI_JOIN, _FI_JOIN),
    # wrong only at 1/2: between the thresholds of a {0, 1}-valued (i, i), at one of the result's
    "meet-lifts-crisp-squares": (lambda a, b: _lifted(a) if a == b and set(a.values) <= {0, 1}
                                 else _FI_MEET(a, b), _FI_JOIN),
}

# sha256 of json.dumps(report.as_json(), sort_keys=True) for
# run_suite("cut-identities", ..., {0, 1/2, 1}) under each fault, captured
# while the cut identities were still scanned pair by pair; the
# meet-lifts-crisp-squares reports, but for chain4 sampled, which draws no
# crisp square, were captured once the identities read the result's
# thresholds too, and fail meet-cut-identity at threshold 1/2
FI_OP_FAULT_REPORTS = {
    ("meet-gives-the-join", "chain3", "exhaustive"):
        "365eab5a6d8937c216cf2a65a35119fc55841a7015fed278e69bc23d287991d5",
    ("meet-gives-the-join", "chain3", "sampled"):
        "532282dd0e8bd18caddc508243d2e43a8d49cd6a4d6d7b9a4000061b6d83622f",
    ("meet-gives-the-join", "chain4", "exhaustive"):
        "f7d6352f104dc56530e11730700bcb045d5724783b2634d8e45734c0aadbf514",
    ("meet-gives-the-join", "chain4", "sampled"):
        "eb8cf786c4a393761766875b446aeadda10492f4231866a00fd68336725407f8",
    ("meet-gives-the-join", "m3", "exhaustive"):
        "37fdb5ab247e284aae0819fe5c0ac4750744e3dcf0831f15bf94c9fd98315d98",
    ("meet-gives-the-join", "m3", "sampled"):
        "26975729e3cfccc693474f0c25ea2b5c8d80d0ea44fd3d9c8a4364670dfa925f",
    ("meet-lifts-crisp-squares", "chain3", "exhaustive"):
        "95b6d385df383db4cae9e99bae7222bcbc17fc6ef85096f1f370581c7ae3fce3",
    ("meet-lifts-crisp-squares", "chain3", "sampled"):
        "e602245c15c2e414cfbb5a6e887df1c8093197fa2db570118a4b43f13b2485bf",
    ("meet-lifts-crisp-squares", "chain4", "exhaustive"):
        "7106e34bdb3636e8fa52d9d621ea3dca678fa2fc89728c5c3dfca3ee34a4ac45",
    ("meet-lifts-crisp-squares", "chain4", "sampled"):
        "260e4437f85d7e608085fbc275dbbfa62367401799fcf51f905c076cf8f475a4",
    ("meet-lifts-crisp-squares", "m3", "exhaustive"):
        "4437043a0e6855109b4482eee67ab4fc38108b7dc939da0533056cbd6f738717",
    ("meet-lifts-crisp-squares", "m3", "sampled"):
        "865773f0ddf9befd2f721756ce35c9190e4701a2ab534acc54c069fbc7b398e1",
    ("ops-swapped", "chain3", "exhaustive"):
        "67f08e3286929885fb7412481fd9e34e7d34b0e378516db7ddb6df29e3945261",
    ("ops-swapped", "chain3", "sampled"):
        "b2cbf08d7fc81ba29f9a152bf18e2e9462420ff0df8269b5533c3a3e2149fcb4",
    ("ops-swapped", "chain4", "exhaustive"):
        "ec375886d423c0e28f3c8f79296840503729cd3f3ab06dade3cb2b15e2c424b4",
    ("ops-swapped", "chain4", "sampled"):
        "a287220ae498686dd4a0b766375532553753af298ef014e3a9e4c3cc1dbb98bd",
    ("ops-swapped", "m3", "exhaustive"):
        "4fe666a47c4a1b7035e78770a4a13ee39cfe08efabbb0fbfc2154f87f30d778b",
    ("ops-swapped", "m3", "sampled"):
        "25063e75b07e882efb8336330758511ffd792a8270b9bc63298341393b1f0656",
    ("swapped-on-incomparable", "chain3", "exhaustive"):
        "b6a984539040f816e02ae928018019f384d8d111d0baaab61e7277fbc4a19793",
    ("swapped-on-incomparable", "chain3", "sampled"):
        "b2cbf08d7fc81ba29f9a152bf18e2e9462420ff0df8269b5533c3a3e2149fcb4",
    ("swapped-on-incomparable", "chain4", "exhaustive"):
        "1ee96193560c4adb89e88f260bc6ee57702335b50fea92bff51a2bfa09de5c02",
    ("swapped-on-incomparable", "chain4", "sampled"):
        "a287220ae498686dd4a0b766375532553753af298ef014e3a9e4c3cc1dbb98bd",
    ("swapped-on-incomparable", "m3", "exhaustive"):
        "4381d2c9530ff5ab9b266d970fab7d74b3c593cebb6517d9751d286c56b8ffe7",
    ("swapped-on-incomparable", "m3", "sampled"):
        "25063e75b07e882efb8336330758511ffd792a8270b9bc63298341393b1f0656",
}


@pytest.mark.parametrize("fault", sorted(FI_OP_FAULTS))
def test_fuzzy_op_faults_keep_their_cut_identity_reports(monkeypatch, fault, chain3, diamond):
    """Faulty fuzzy-interval ops over a closed table give the cut-identity
    rows the reports of a scan that probes every pair at the thresholds of
    its operands and of its result."""
    meet, join = FI_OP_FAULTS[fault]
    monkeypatch.setattr(FuzzyInterval, "meet", meet)
    monkeypatch.setattr(FuzzyInterval, "join", join)
    lattices = {"chain3": chain3, "m3": diamond, "chain4": chain(4)}
    for lat, mode in itertools.product(lattices, ("exhaustive", "sampled")):
        (report,) = run_suite("cut-identities", lattices[lat], GRADES3,
                              **(SAMPLED if mode == "sampled" else {}))
        doc = json.dumps(report.as_json(), sort_keys=True)
        assert (hashlib.sha256(doc.encode()).hexdigest()
                == FI_OP_FAULT_REPORTS[(fault, lat, mode)]), (lat, mode)


def _cut_identity_scan(fis, op, crisp_op, with_result):
    """(status, checked, witness) of a pair scan through the public API: the
    cut of ``op(a, b)`` against ``crisp_op`` of the cuts, at the thresholds
    of a and b, and of the result when ``with_result``."""
    cut_interval = cache(FuzzyInterval.cut_interval)
    cut_mask = cache(lambda fi, p: fi.fuzzy.cut_mask(p))

    def probe(i, j):
        a, b = fis[i], fis[j]
        c = op(a, b)
        grades = {*a.thresholds(), *b.thresholds(), *(c.thresholds() if with_result else ())}
        for p in sorted(grades):
            if cut_mask(c, p) != crisp_op(cut_interval(a, p), cut_interval(b, p)).members_mask():
                return f"threshold {format_grade(p)}"
        return None
    return _plain_scan(fis, 2, probe)


def test_cut_identity_rows_match_a_scan_at_every_threshold():
    """Fuzzy-interval ops that are right but on up to three drawn pairs,
    each mapped to a drawn member, keep the table closed.  Half the time the
    member is drawn among those whose cuts agree with the right result at
    the operands' thresholds.  Both identity checks, decided from rows,
    equal a public-API scan at the thresholds of the operands and of the
    result, on status, ``checked`` and witness; and some of these faults
    show only at a result's threshold, where a scan at the operands'
    thresholds alone passes or names another pair or threshold."""
    only_at_results = 0
    for lattice, grades in ((chain(2), GRADES4), (chain(3), GRADES3), (m3(), GRADES3)):
        fis = enumerate_fuzzy_intervals(lattice, grades)
        n, position = len(fis), {fi: i for i, fi in enumerate(fis)}
        crisp = laws._OpTables(enumerate_intervals(lattice), _HULL, _INTERSECTION)
        for seed in range(4):
            rng = random.Random(seed)

            def faulty(op):
                wrong = {}
                for _ in range(rng.randrange(4)):
                    i, j = rng.randrange(n), rng.randrange(n)
                    right = op(fis[i], fis[j])
                    levels = {*fis[i].thresholds(), *fis[j].thresholds()}
                    hidden = [fi for fi in fis if all(fi.cut_interval(p) == right.cut_interval(p)
                                                      for p in levels)]
                    wrong[i, j] = rng.choice(hidden if rng.random() < 0.5 else fis)
                return cache(lambda a, b: wrong.get((position[a], position[b])) or op(a, b))

            meet, join = faulty(_FI_MEET), faulty(_FI_JOIN)
            tabs = laws._OpTables(fis, join, meet)
            assert tabs.closure_join is tabs.closure_meet is None
            report = laws._cut_identities(LawReport("cut-identities", "", grades), lattice,
                                          tabs, crisp, plan=laws._planner(laws.DEFAULT_BUDGET, 0))
            checks = {c.law: c for c in report.checks}
            for law, op, crisp_op in (("meet-cut-identity", meet, _INTERSECTION),
                                      ("join-cut-identity", join, _HULL)):
                got = (checks[law].status, checks[law].checked, checks[law].witness)
                assert got == _cut_identity_scan(fis, op, crisp_op, True), (lattice, seed, law)
                only_at_results += got != _cut_identity_scan(fis, op, crisp_op, False)
    assert only_at_results


def _verdict_of(check):
    return "pass" if check.witness is None else (check.checked, tuple(check.witness["indices"]))


def test_run_law_returns_the_verdict_it_records(monkeypatch, chain2):
    """``_run_law`` returns what it recorded, ``"pass"`` or ``(checked,
    tup)``: scanned, exhaustive or sampled, and given.  Each intersection
    law is given, and records, the verdict its antitone law returns."""
    items = enumerate_intervals(chain2)
    report = LawReport("crisp", "chain2")
    fails_at_1_2 = lambda i, j: "" if (i, j) == (1, 2) else None  # noqa: E731
    for budget, probe, verdict, expected in (
            (laws.DEFAULT_BUDGET, lambda i, j: None, None, "pass"),
            (laws.DEFAULT_BUDGET, fails_at_1_2, None, (7, (1, 2))),
            (5, fails_at_1_2, None, "pass"),  # the five draws miss (1, 2)
            (9, fails_at_1_2, None, (6, (1, 2))),
            (laws.DEFAULT_BUDGET, lambda i, j: "", "pass", "pass"),
            (laws.DEFAULT_BUDGET, lambda i, j: "", (3, (0, 2)), (3, (0, 2)))):
        got = laws._run_law(report, items, "some-law", 2, probe,
                            plan=laws._planner(budget, 0), verdict=verdict)
        assert got == expected == _verdict_of(report.checks[-1]), (budget, verdict)

    returned, run_law = {}, laws._run_law

    def kept(report, items, law, *args, **kwargs):
        returned[law] = run_law(report, items, law, *args, **kwargs)
        return returned[law]

    monkeypatch.setattr(laws, "_run_law", kept)
    hull, _ = CUT_FAMILY_FAULTS["hull-empty-on-equal-operands"]
    monkeypatch.setattr(CrispInterval, "hull", hull)
    for budget in ({}, SAMPLED):
        (report,) = run_suite("cut-identities", chain(3), GRADES3, **budget)
        checks = {c.law: c for c in report.checks}
        for op in ("meet", "join"):
            antitone, closed = f"{op}-cut-family-antitone", f"{op}-cut-family-intersection"
            assert returned[antitone] == returned[closed] == _verdict_of(checks[closed]), budget
        assert returned["join-cut-family-intersection"] != "pass", budget


def _lowers_reversed(fis):
    """Reverse the lower ends of one item past the middle whose cuts are all
    nonempty and whose lower ends differ, so its ``lower`` is not isotone.
    The reversed pairs cross, so they are planted where the endpoint laws
    read them (:class:`_PlantedEnds`)."""
    k = next(k for k in range(len(fis) // 2, len(fis))
             if all(lo is not None for lo, _ in fis[k]._cut_ends())
             and len({lo for lo, _ in fis[k]._cut_ends()}) > 1)
    ends = fis[k]._cut_ends()
    fis[k] = _with_ends(fis[k], zip(reversed([lo for lo, _ in ends]), (hi for _, hi in ends)))
    return fis


# sha256 of json.dumps of the two paired-* rows of run_suite("endpoints",
# ..., {0, 1/2, 1}) over an enumeration corrupted by _lowers_reversed,
# captured while the paired rows were still scanned pair by pair
PAIRED_CORRUPTION_REPORTS = {
    ("chain3", "exhaustive"):
        "0efd30c18298ba0d380f530df6bfffb955932f6dc118c8ea7fa83744c277a5b9",
    ("chain3", "sampled"):
        "a97837c9024a56bcdc9cbd9741eb807d85f94197d2015594838b1d7d39afb06c",
    ("m3", "exhaustive"):
        "80bbac2da5dbd6396e33c7cee879ffa6a4cc578537b643cd5f05bd7ee0a7bbdb",
    ("m3", "sampled"):
        "de7036b21a13fa39595db9a3c7a09edea3004e2165b1133f667d571f0f66fe93",
    ("chain4", "exhaustive"):
        "25975cd0f4963d6c9fe392d098dd3dfa2cb1a89786077421ad53cf7f765cbe77",
    ("chain4", "sampled"):
        "46cecb4b03b762885bc618004984a1288b0360375d4330ca3c955669b9f1b706",
}


def test_a_non_isotone_lower_falls_back_to_the_pair_scan(monkeypatch, chain3, diamond):
    """One item's lower ends run backwards: the per-item check fails, every
    pair is scanned as before, and the paired rows keep their reports."""
    enumerate_clean = laws.enumerate_fuzzy_intervals
    monkeypatch.setattr(laws, "enumerate_fuzzy_intervals",
                        lambda *args: _lowers_reversed(enumerate_clean(*args)))
    calls = _fold_calls_by_law(monkeypatch)
    lattices = {"chain3": chain3, "m3": diamond, "chain4": chain(4)}
    for lat, mode in itertools.product(lattices, ("exhaustive", "sampled")):
        calls.clear()
        (report,) = run_suite("endpoints", lattices[lat], GRADES3,
                              **(SAMPLED if mode == "sampled" else {}))
        paired = [c for c in report.checks if c.law.startswith("paired-")]
        # the sample misses the failing pairs, so only a scan can pass it
        assert paired[0].status == ("pass" if mode == "sampled" else "fail"), (lat, mode)
        assert calls["paired-lower-meet-supremum"] == paired[0].checked, (lat, mode)
        doc = json.dumps([c.as_json() for c in paired], sort_keys=True)
        assert (hashlib.sha256(doc.encode()).hexdigest()
                == PAIRED_CORRUPTION_REPORTS[(lat, mode)]), (lat, mode)


# sha256 of json.dumps of the checks of _endpoint_lemmas over chain3 and m3 x
# {0, 1/2, 1}, corrupted by _lowers_reversed, under the plan of
# _single_rows_miss, captured while the paired rows were decided from every
# item's row over all grade ranks
SINGLE_ROWS_MISS_REPORTS = {
    "chain3": "d97de2c144bb9f382d87169f2fffbecba26c79ce591e78049a600e92737de9f7",
    "m3": "c9fe4c7cc57ba69afa90805907f5192af6d019aa2e3efe49f3e468dcf0f74a46",
}


def _single_rows_miss(skipped):
    """A plan whose single-item space is sampled and leaves out the item
    ``skipped``, while the pair space is exhaustive."""
    def plan(count, arity):
        if arity == 1:
            return [(i,) for i in range(count) if i != skipped], "sampled(all but one)"
        return itertools.product(range(count), repeat=arity), "exhaustive"
    return plan


def test_a_sampled_single_row_does_not_decide_the_paired_rows(chain3, diamond):
    """A single-item row that passed on a sample says nothing about the
    items it missed: the paired rows are scanned and fail as before."""
    for lat, lattice in (("chain3", chain3), ("m3", diamond)):
        fis = _lowers_reversed(enumerate_fuzzy_intervals(lattice, GRADES3))
        (skipped,) = [i for i, fi in enumerate(fis) if isinstance(fi, _PlantedEnds)]
        report = laws._endpoint_lemmas(LawReport("endpoints", lat, GRADES3), lattice, fis, True,
                                       plan=_single_rows_miss(skipped))
        checks = {c.law: c for c in report.checks}
        assert checks["lower-endpoint-supremum"].status == "pass", lat
        assert checks["paired-lower-meet-supremum"].status == "fail", lat
        doc = json.dumps([c.as_json() for c in report.checks], sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == SINGLE_ROWS_MISS_REPORTS[lat], lat


@settings(max_examples=40, deadline=None)
@given(random_lattices(), st.sampled_from([GRADES2, GRADES3, GRADES4]), st.data())
def test_decided_rows_match_the_full_pair_scan_on_random_lattices(case, grades, data):
    """The four decided rows equal the plain scans of their literal subset
    references, over up to 14 drawn items: clean, and with crisp op-table
    entries and a few items' endpoint chains randomly corrupted."""
    lattice = _lattice_of(case)
    n = len(lattice.elements)
    everything = enumerate_fuzzy_intervals(lattice, grades)
    picked = data.draw(st.lists(st.integers(0, len(everything) - 1), min_size=1,
                                max_size=14, unique=True))
    tabs = laws._OpTables([everything[i] for i in picked], FuzzyInterval.join,
                          FuzzyInterval.meet)
    crisp = laws._OpTables(enumerate_intervals(lattice), CrispInterval.hull,
                           CrispInterval.intersection)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    for table in (crisp.meet_t, crisp.join_t):
        entries = data.draw(st.sampled_from([0, crisp.n, crisp.n ** 2 // 4]))
        for pos in rng.sample(range(crisp.n ** 2), entries):
            table[pos // crisp.n][pos % crisp.n] = rng.randrange(crisp.n)
    plan = laws._planner(laws.DEFAULT_BUDGET, 0)
    report = laws._cut_identities(LawReport("cut-identities", "", grades), lattice, tabs,
                                  crisp, plan=plan)
    _assert_matches_references(report, tabs.items,
                               _cut_family_references(lattice, tabs.items, grades, crisp),
                               set())

    fis = tabs.items
    for i in data.draw(st.lists(st.integers(0, len(fis) - 1), max_size=3)):
        fis[i] = _with_ends(fis[i], [(data.draw(st.integers(0, n - 1)),
                                      data.draw(st.integers(0, n - 1))) for _ in fis[i]._cuts])
    report = laws._endpoint_lemmas(LawReport("endpoints", "", grades), lattice, fis, True,
                                   plan=plan)
    references = _endpoint_references(lattice, fis, grades)
    _assert_matches_references(report, fis, {law: references[law] for law in DECIDED_LAWS[2:]},
                               set())


# laws-exhaustive fixtures at their workload grade count, each with a second
# grade set of that size
RELABELED_GRADES = [("chain2", GRADES4, (0, Fraction(1, 4), H, 1))] + [
    (fixture, GRADES3, (0, Fraction(1, 3), 1))
    for fixture in ("chain3", "boolean2", "m3", "n5", "chain4")]


@pytest.mark.parametrize("fixture, grades, relabeled", RELABELED_GRADES,
                         ids=[case[0] for case in RELABELED_GRADES])
def test_reports_depend_on_the_grades_only_through_their_count(fixture, grades, relabeled):
    """Two grade sets of one size give every check the same law, status,
    ``checked``, ``asserted``, mode and witness indices; only the rendered
    grades differ."""
    def shape(reports):
        return [(r.suite, [(c.law, c.status, c.checked, c.asserted, c.mode,
                            (c.witness or {}).get("indices")) for c in r.checks])
                for r in reports]

    lattice = standard_lattice(fixture)
    assert shape(run_suite("all", lattice, grades)) == shape(run_suite("all", lattice, relabeled))


@pytest.mark.parametrize("budget", [0, -5, 2.5, True, "10"])
def test_nonpositive_budget_is_refused_before_any_work(monkeypatch, chain3, budget):
    """A budget below 1 would pass every law with ``checked=0`` or report a
    negative sample, and one that is not an int fails inside ``range`` once
    a law is sampled (or, as ``True``, runs as 1); each is refused before
    anything is enumerated or built."""
    def refuse(*args):
        raise AssertionError("work started")

    for name in ("enumerate_fuzzy_intervals", "enumerate_intervals", "_OpTables"):
        monkeypatch.setattr(laws, name, refuse)
    for suite in SUITES + ("all",):
        with pytest.raises(ValueError, match="budget must be a positive int"):
            run_suite(suite, chain3, GRADES3, budget=budget)
    with pytest.raises(ValueError, match="budget must be a positive int"):
        check_lattice_axioms([0, 1], refuse, refuse, refuse, budget=budget)
    with pytest.raises(ValueError, match="budget must be a positive int"):
        check_distributivity([0, 1], refuse, refuse, budget=budget)


def test_budget_triggers_sampling(chain3):
    fis = enumerate_fuzzy_intervals(chain3, GRADES3)
    report = check_lattice_axioms(
        fis, FuzzyInterval.join, FuzzyInterval.meet, FuzzyInterval.leq,
        suite="axioms", lattice_name="chain3", grades=GRADES3, budget=100)
    assert report.passed, report.to_text()
    assoc = next(c for c in report.checks if c.law == "associativity-join")
    assert assoc.mode.startswith("sampled(")
    assert "seed=" in assoc.mode
    assert assoc.checked == 100


@pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 8, 9, 86, 118, 128, 129, 4097])
def test_sample_is_the_per_coordinate_randrange_stream(count):
    for arity in (1, 2, 3):
        for seed in (0, 3, 7, 1601):
            rng = random.Random(seed)
            expected = [tuple(rng.randrange(count) for _ in range(arity)) for _ in range(300)]
            assert laws._sample(count, arity, 300, seed) == expected, (arity, seed)


def test_sampled_run_draws_without_randrange(monkeypatch, diamond):
    """The sampled tuples come from ``getrandbits`` alone, and the pinned
    sampled witnesses and counts still hold."""
    def refuse(self, *args):
        raise RuntimeError("randrange called")

    monkeypatch.setattr(random.Random, "randrange", refuse)
    reports = run_suite("all", diamond, GRADES3, budget=300, seed=3)
    assert any(c.mode.startswith("sampled(") for r in reports for c in r.checks)
    doc = json.dumps([r.as_json() for r in reports], sort_keys=True)
    assert (hashlib.sha256(doc.encode()).hexdigest()
            == PINNED_REPORTS[("m3", "halves", "sampled")])


def test_op_tables_intern_like_an_equality_scan(diamond):
    """On m3 over four grades, fuzzy intervals of one cut shape at other
    grades share a hash; the tables must still tell them apart."""
    fis = enumerate_fuzzy_intervals(diamond, GRADES4)
    assert len({hash(fi) for fi in fis}) < len(fis)
    tabs = laws._OpTables(fis, FuzzyInterval.join, FuzzyInterval.meet)
    pool = list(fis)

    def intern(value):
        for k, member in enumerate(pool):
            if member == value:
                return k
        pool.append(value)
        return len(pool) - 1

    join_t = [[0] * len(fis) for _ in fis]
    meet_t = [[0] * len(fis) for _ in fis]
    for i, a in enumerate(fis):  # the tables' order: each pair's join, then its meet
        for j, b in enumerate(fis):
            join_t[i][j] = intern(a.join(b))
            meet_t[i][j] = intern(a.meet(b))
    assert tabs.join_t == join_t
    assert tabs.meet_t == meet_t
    assert tabs.pool == pool


def test_op_tables_build_no_fuzzy_sets(diamond, monkeypatch):
    """On m3 over four grades the op tables intern every result by its
    endpoint chain and build no fuzzy set.  Read afterwards, a result's
    derived membership is the pointwise minimum (meet) and the definitional
    join (join)."""
    fis = enumerate_fuzzy_intervals(diamond, GRADES4)
    built = []
    from_ranks = FuzzySet._from_ranks.__func__
    monkeypatch.setattr(FuzzySet, "_from_ranks",
                        classmethod(lambda cls, *args: built.append(args) or from_ranks(cls, *args)))
    laws._OpTables(fis, FuzzyInterval.join, FuzzyInterval.meet)
    results = [(a, b, a.join(b), a.meet(b))
               for a, b in itertools.product(fis[::7], fis[3::5])]
    assert built == []
    for a, b, join, meet in results:
        assert meet.values == tuple(map(min, a.values, b.values)), (a, b)
        assert join.values == oracle_join(fis, a, b).values, (a, b)
    assert built  # the count sees the sets the reads derive


def test_law_runs_cut_no_derived_membership(diamond, monkeypatch):
    """On a closed collection no law cuts a membership derived from the chain
    under test: both cut-identity routes look each op result up among the
    enumerated members and cut that member's own ranks."""
    alone = [r.as_json() for r in run_suite("cut-identities", diamond, GRADES4)]
    derive = FuzzyInterval.fuzzy.fget

    def enumerated_only(fi):
        if fi._fuzzy is None:
            pytest.fail(f"a law read a derived membership (cut codes {fi._cuts})")
        return derive(fi)

    monkeypatch.setattr(FuzzyInterval, "fuzzy", property(enumerated_only))
    assert [r.as_json() for r in run_suite("cut-identities", diamond, GRADES4)] == alone
    shared = run_suite("all", diamond, GRADES4)
    assert [r.as_json() for r in shared if r.suite == "cut-identities"] == alone


def test_each_sample_space_is_drawn_once_per_call(monkeypatch, diamond):
    """m3 x {0,1/3,2/3,1} at budget 2000 samples 26 checks over three index
    spaces: pairs and triples of the 118 fuzzy intervals, and triples of the
    13 crisp intervals.  Each space is drawn once per call and every law
    over it reads that draw; the next call draws again."""
    spaces = []
    sample = laws._sample

    def counted(count, arity, draws, seed):
        spaces.append((count, arity))
        return sample(count, arity, draws, seed)

    monkeypatch.setattr(laws, "_sample", counted)
    reports = run_suite("all", diamond, GRADES4, budget=2000)
    assert sum(c.mode != "exhaustive" for r in reports for c in r.checks) == 26
    assert sorted(spaces) == [(13, 3), (118, 2), (118, 3)]
    run_suite("all", diamond, GRADES4, budget=2000)
    assert len(spaces) == 6


def test_sampling_is_deterministic(chain3):
    fis = enumerate_fuzzy_intervals(chain3, GRADES3)
    kw = dict(suite="axioms", lattice_name="chain3", grades=GRADES3, budget=50, seed=7)
    r1 = check_lattice_axioms(fis, FuzzyInterval.join, FuzzyInterval.meet,
                              FuzzyInterval.leq, **kw)
    r2 = check_lattice_axioms(fis, FuzzyInterval.join, FuzzyInterval.meet,
                              FuzzyInterval.leq, **kw)
    assert json.dumps(r1.as_json()) == json.dumps(r2.as_json())


def test_report_json_shape(chain2):
    report = run_suite("axioms", chain2, GRADES3)[0]
    doc = report.as_json()
    assert doc["suite"] == "axioms"
    assert doc["lattice"] == "chain2"
    assert doc["grades"] == ["0", "1/2", "1"]
    assert doc["passed"] is True
    for check in doc["checks"]:
        assert set(check) >= {"law", "status", "checked", "asserted"}


def test_report_text_marks_unasserted(pentagon):
    report = run_suite("distributivity", pentagon, GRADES2)[0]
    text = report.to_text()
    assert "FAIL*" in text
    assert "result: PASS" in text


def test_run_all_suites(chain2):
    reports = run_suite("all", chain2, GRADES3)
    assert [r.suite for r in reports] == [s for s in SUITES if s != "all"]
    assert all(r.passed for r in reports)


def test_unknown_suite_rejected(chain2):
    with pytest.raises(ValueError):
        run_suite("nonsense", chain2, GRADES3)


def test_endpoint_suite_notes_non_distributive(diamond):
    report = run_suite("endpoints", diamond, GRADES3)[0]
    assert report.passed
    assert all(not c.asserted for c in report.checks)
    assert any("hypothesis not met" in c.note for c in report.checks)


def test_structure_suite(diamond, pentagon):
    for lat in (diamond, pentagon):
        report = run_suite("structure", lat, GRADES3)[0]
        assert report.passed, report.to_text()
        assert {c.law for c in report.checks} == {
            "cut-boundary-grade-meet", "cut-recovery-from-boundary-grades"}

    # fault injection: the 1-cut {1} of a chain3 interval is given the
    # endpoints 0 and 2, whose grade 0 is neither its minimum nor cuts it
    # again; [0, 2] is an interval, so it is planted as its code
    fi = FuzzyInterval(FuzzySet(chain(3), {"0": "0", "1": "1", "2": "0"}))
    fi._cuts = fi._cuts[:-1] + (_IntervalCodes.of(fi.lattice).code(0, 2),)
    report = laws._interval_structure(LawReport("structure", "chain3", GRADES3), [fi],
                                      plan=laws._planner(laws.DEFAULT_BUDGET, 0))
    assert [(c.law, c.status, c.witness["detail"]) for c in report.checks] == [
        ("cut-boundary-grade-meet", "fail", "threshold 1"),
        ("cut-recovery-from-boundary-grades", "fail", "threshold 1")]


# sha256 of json.dumps([r.as_json() for r in run_suite("all", ...)], sort_keys=True),
# captured before the endpoint-chain representation; verdicts, checked counts
# (sampled ones included) and witnesses must not move
PINNED_REPORTS = {
    ("chain2", "thirds", "exhaustive"):
        "d33ae34004bbe96d0c789b10ce134a1f2996de34a409638dafd55b56c8c3f94d",
    ("chain2", "thirds", "sampled"):
        "123292049752175ec759dc26f4e8a8534ba52139eb2f55f2a7a28ea544673959",
    ("chain3", "halves", "exhaustive"):
        "315b45bfc4c9a2903379af0141d7d375c7140878a29a18ae862fb4a2290a488b",
    ("chain3", "halves", "sampled"):
        "967feb0e6631194bdefbb985a661c2e503b3d44d3671ad0ac0dbc25bfbe59bb4",
    ("m3", "halves", "exhaustive"):
        "563798afcee21cacb29a410ff3d1d27c486f3626dd139237e41270432653483c",
    ("m3", "halves", "sampled"):
        "8299cba0a5fade638cdb432f9592a49e865c99cb4bfcd9c5c175223117007927",
    ("n5", "halves", "exhaustive"):
        "a74e8aab15a7bbd7f0483946f1afb19c503162b1a2225ef374ed64ee35164c6d",
    ("n5", "halves", "sampled"):
        "2117f40a643d06d462ee5524ac62bd420b72c12821e0c05fc01d3cd8afe3ec41",
}


def test_reports_pinned(chain2, chain3, diamond, pentagon):
    lattices = {"chain2": chain2, "chain3": chain3, "m3": diamond, "n5": pentagon}
    grade_sets = {"thirds": GRADES4, "halves": GRADES3}
    budgets = {"exhaustive": dict(budget=10**7), "sampled": dict(budget=300, seed=3)}
    for (lat, grades, mode), digest in PINNED_REPORTS.items():
        reports = run_suite("all", lattices[lat], grade_sets[grades], **budgets[mode])
        doc = json.dumps([r.as_json() for r in reports], sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest, (lat, grades, mode)


# sha256 of json.dumps([axioms.as_json(), distributivity.as_json()], sort_keys=True)
# from check_lattice_axioms and check_distributivity on collections that are
# not closed under their ops: the nonempty crisp intervals (the meet of two
# disjoint ones is empty), and the fuzzy intervals over {0, 1/2, 1} at the
# indices random.Random(0).sample draws for half of the enumeration
PINNED_OPEN_REPORTS = {
    ("chain3", "crisp", "exhaustive"):
        "2cab73960e746beb17ad12a6b00467ad1ebe5485791e02bf4cacb0bc140935dd",
    ("chain3", "crisp", "sampled"):
        "2cab73960e746beb17ad12a6b00467ad1ebe5485791e02bf4cacb0bc140935dd",
    ("m3", "crisp", "exhaustive"):
        "5238628ac66ad179caa6aeef882fd621627e029c21a3d620f363f36bc1c8cadc",
    ("m3", "crisp", "sampled"):
        "144e63a01c2a1ea5f349641e7202b0b3d2db22afdca2dfd090a5544d43076d35",
    ("n5", "crisp", "exhaustive"):
        "f75b4dcffee08d492e88f4e0baba6ce880179094d0c7fefd56dfbe312fc1bbd1",
    ("n5", "crisp", "sampled"):
        "29922a5d4b4f8a7262b2f8af39ad360960e57d390c4ccf2c056ff5685b499b9d",
    ("chain3", "fuzzy-half", "exhaustive"):
        "1619663f0193098d90301003791c77ba261375c4656fa42c0f3976aaa5b77db1",
    ("chain3", "fuzzy-half", "sampled"):
        "db3fdd7bb1eb5ee2f74b826bb52e7242534b40dfa7539d617dd9b5acea8da3db",
    ("m3", "fuzzy-half", "exhaustive"):
        "6273c0fd0d173dea3baf16fdeaf9a65909b0352dce49bcac93fd61a091736c8b",
    ("m3", "fuzzy-half", "sampled"):
        "ea154a6ef305327a310019315c3fb377751cfcc5d802e815f2a0c53f5f586df2",
}


def _open_collection(lattice, kind):
    """(items, join, meet, leq) for a collection the ops leave."""
    if kind == "crisp":
        return ([iv for iv in enumerate_intervals(lattice) if not iv.is_empty],
                CrispInterval.hull, CrispInterval.intersection, CrispInterval.issubset)
    fis = enumerate_fuzzy_intervals(lattice, GRADES3)
    half = sorted(random.Random(0).sample(range(len(fis)), len(fis) // 2))
    return [fis[i] for i in half], FuzzyInterval.join, FuzzyInterval.meet, FuzzyInterval.leq


def test_reports_pinned_on_collections_that_are_not_closed(chain3, diamond, pentagon):
    lattices = {"chain3": chain3, "m3": diamond, "n5": pentagon}
    budgets = {"exhaustive": dict(budget=10**7), "sampled": dict(budget=300, seed=3)}
    reached = set()
    for (lat, kind, mode), digest in PINNED_OPEN_REPORTS.items():
        items, join, meet, leq = _open_collection(lattices[lat], kind)
        reports = [check_lattice_axioms(items, join, meet, leq, **budgets[mode]),
                   check_distributivity(items, join, meet, **budgets[mode])]
        doc = json.dumps([r.as_json() for r in reports], sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest, (lat, kind, mode)
        reached |= {c.law if c.law.startswith("closure") else c.witness.get("detail", "")
                    for r in reports for c in r.checks if c.status == "fail"}
    # every way a result outside the collection shows in a report
    assert reached >= {"closure-join", "closure-meet", "join is not a common upper bound",
                       "meet is not a common lower bound", "meet-fold left the collection",
                       "no common upper bound in the collection"}


def test_all_enumerates_and_tabulates_once(monkeypatch, chain3):
    # 22 fuzzy intervals: one op table is 22^2 joins and 22^2 meets, and the
    # cut-identity suite reads its meets and joins from that table; 7 crisp
    # intervals: one table is 7^2 hulls and 7^2 intersections, shared by the
    # crisp suites and the cut-identity suite's reference side
    from fuzzint import laws
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(FuzzyInterval, "join", counted("join", FuzzyInterval.join))
    monkeypatch.setattr(FuzzyInterval, "meet", counted("meet", FuzzyInterval.meet))
    monkeypatch.setattr(CrispInterval, "hull", counted("hull", CrispInterval.hull))
    monkeypatch.setattr(CrispInterval, "intersection",
                        counted("intersection", CrispInterval.intersection))
    monkeypatch.setattr(laws, "enumerate_fuzzy_intervals",
                        counted("enumerate", laws.enumerate_fuzzy_intervals))
    run_suite("all", chain3, GRADES3)
    assert calls == {"join": 484, "meet": 484, "hull": 49, "intersection": 49,
                     "enumerate": 1}


def test_all_matches_standalone_suites(chain2, chain3, diamond, pentagon):
    cases = [(chain2, GRADES4), (chain3, GRADES3), (diamond, GRADES3), (pentagon, GRADES3)]
    for lat, grades in cases:
        for budget in ({}, {"budget": 300, "seed": 3}):
            shared = [r.as_json() for r in run_suite("all", lat, grades, **budget)]
            alone = [r.as_json() for suite in SUITES
                     for r in run_suite(suite, lat, grades, **budget)]
            assert shared == alone, (lat.name, grades, budget)


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    """The benchmark's tracer names library functions by string (among them
    ``_OpTables.__init__`` and ``_run_law``); building one against ``src/``,
    with nothing installed, resolves them all, so a rename fails here and
    not only in a traced benchmark run.  Its ``_run_law`` hook reads
    ``report, items, law, arity`` as the first four positional arguments."""
    root = Path(__file__).resolve().parent.parent
    assert Path(laws.__file__).resolve().parent == root / "src" / "fuzzint"
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    tracing = importlib.import_module("tracing")
    params = list(inspect.signature(laws._run_law).parameters.values())[:4]
    assert [p.name for p in params] == ["report", "items", "law", "arity"]
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    # exhaustive on chain2, and sampled on chain3, whose pairs exceed the budget
    for lattice, grades, budget in ((chain(2), GRADES2, {}), (chain(3), GRADES3, SAMPLED)):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            reports = run_suite("all", lattice, grades, **budget)
        finally:
            tracer.uninstall()
        modes = {c.mode != "exhaustive" for r in reports for c in r.checks}
        assert modes == ({False, True} if budget else {False})
        assert tracer.values["laws.checked"] == sum(c.checked for r in reports for c in r.checks
                                                    if not c.law.startswith("closure"))
    monkeypatch.delattr(laws, "_run_law")
    with pytest.raises(tracing.TraceError, match="fuzzint.laws._run_law is missing"):
        tracing.Tracer()


def test_a_traced_exhaustive_pass_reaches_every_layer_it_is_primary_for(monkeypatch):
    """A traced benchmark run fails when a layer metric reads zero on the
    workload named its primary one.  One traced pass of every
    ``laws-exhaustive`` request reads none of its metrics as zero, so a law
    that stops reaching a layer (the cut identities reading cuts without
    ``cut_interval``, say) fails here and not only in a traced run.  Its
    ``laws.checked`` and ``laws.planned`` are pinned, so a change of route
    that moves either count fails here too.  So are the public op calls:
    the fuzzy-interval table evaluates ``join`` and ``meet`` on every
    ordered pair, n² per case, and never copies ``(j, i)`` from ``(i, j)``,
    which would make commutativity hold by construction."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tracing = importlib.import_module("tracing")
    workload = importlib.import_module("workloads").WORKLOADS["laws-exhaustive"]()
    workload.laws, workload.seed = laws, 0
    workload.lattices = {fixture: standard_lattice(fixture) for fixture, _ in workload.specs}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for rid, request in enumerate(workload.specs):
            tracer.request(rid, workload.label(request), lambda: workload.execute(request))
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    primary = [k for k, name in tracing.PRIMARY_WORKLOAD.items() if name == "laws-exhaustive"]
    assert "fuzzyintervals.cut_interval.calls" in primary
    assert [k for k in primary if not metrics[k]] == []
    # the workload samples nothing, so these totals hold at every seed
    assert (metrics["laws.checked"], metrics["laws.planned"]) == (1_182_792, 2_098_690)
    pairs = sum(len(enumerate_fuzzy_intervals(workload.lattices[fixture], grades.split(","))) ** 2
                for fixture, grades in workload.specs)
    assert pairs == 9_866
    assert metrics["fuzzyintervals.join.calls"] == metrics["fuzzyintervals.meet.calls"] == pairs


@pytest.mark.parametrize("name", ["laws-exhaustive", "laws-sampled"])
def test_law_workloads_match_their_goldens(monkeypatch, name):
    """Every request of the law benchmark workloads passes the workload's
    own output check against the committed goldens, so a report byte that
    moves fails here and not only in a benchmark run.  The goldens were
    captured at sampling seed 0, so at that seed even the sampled checks
    match byte for byte.  The workload reads the already imported library:
    its ``setup`` would import a second copy."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workload = importlib.import_module("workloads").WORKLOADS[name]()
    workload.laws, workload.seed = laws, 0
    workload.lattices = {fixture: standard_lattice(fixture) for fixture, _ in workload.specs}
    for request in workload.specs:
        reports = workload.execute(request)
        assert workload.check(request, reports), request
        assert [r.as_json() for r in reports] == workload.golden["|".join(request)], request


def test_every_report_carries_the_same_label():
    unnamed = FiniteLattice(["x", "y"], [("x", "y")])
    reports = run_suite("all", unnamed, GRADES2)
    assert [r.suite for r in reports] == list(SUITES)
    assert {r.lattice for r in reports} == {"<2 elements>"}
    assert {r.lattice for r in run_suite("all", n5(), GRADES2)} == {"n5"}
