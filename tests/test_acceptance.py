"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single ``ACCEPTANCE criterion N (...): PASS/FAIL [secs]``
line and enforces both the property and its runtime budget. Everything here
is exact arithmetic — no tolerances.

Criterion 7 asserts the classical claim that the fuzzy-interval lattice over
a distributive carrier is itself distributive. The exhaustive search refutes
that claim for any carrier containing a three-element chain (the interval
lattice embeds a pentagon: ∅ ⊂ [x,x] ⊂ [x,y] alongside [z,z] for x < y < z),
so that test fails by design and prints the found counterexample.
"""

import itertools
import time
from fractions import Fraction

from conftest import GRADES2, GRADES3, GRADES4, enumerate_fuzzy_sets
from fuzzint import (CrispInterval, boolean_lattice, chain, is_distributive, m3, n5,
                     product_lattice, run_suite)
from fuzzint.fuzzyintervals import (convex_cut_violation, convex_violation,
                                    interval_cut_violation,
                                    sublattice_cut_violation,
                                    sublattice_violation)
from fuzzint.laws import enumerate_fuzzy_intervals

H = Fraction(1, 2)

COLLECTION_FIXTURES = [
    ("chain2", chain(2)),
    ("chain3", chain(3)),
    ("boolean2", boolean_lattice(2)),
    ("m3", m3()),
    ("n5", n5()),
]


def _report(num, desc, ok, t0, budget, detail=""):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"ACCEPTANCE criterion {num} ({desc}): {status} [{elapsed:.2f}s]"
    print(line)
    if detail and status == "FAIL":
        print(f"  {detail}")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s: {elapsed:.2f}s"
    assert ok, line + ("\n  " + detail if detail else "")


def test_criterion_1_crisp_interval_laws():
    t0 = time.perf_counter()
    ok, detail = True, ""
    for name, lat in [("chain5", chain(5)), ("boolean3", boolean_lattice(3)),
                      ("m3", m3()), ("n5", n5())]:
        t_fix = time.perf_counter()
        report = run_suite("crisp-axioms", lat)[0]
        per_fixture = time.perf_counter() - t_fix
        if not report.passed or per_fixture >= 5.0:
            ok, detail = False, f"{name}: passed={report.passed} in {per_fixture:.2f}s"
            break
    _report(1, "crisp interval lattice laws", ok, t0, 20.0, detail)


def test_criterion_2_cut_machinery():
    t0 = time.perf_counter()
    ok, detail = True, ""
    for lat in (m3(), chain(3)):
        universe = frozenset(lat)
        for m in enumerate_fuzzy_sets(lat, GRADES3):
            fam = m.cut_family()
            from fuzzint import from_cut_family
            if from_cut_family(fam) != m:
                ok, detail = False, f"roundtrip failed for {m!r}"
                break
            if fam.sets[Fraction(0)] != universe:
                ok, detail = False, f"level-0 cut is not the carrier for {m!r}"
                break
            for lo, hi in zip(fam.thresholds, fam.thresholds[1:]):
                if not fam.sets[hi] <= fam.sets[lo]:
                    ok, detail = False, f"cut family not antitone for {m!r}"
                    break
    _report(2, "cut decomposition and reconstruction", ok, t0, 5.0, detail)


def test_criterion_3_predicate_equivalences():
    t0 = time.perf_counter()
    ok, detail = True, ""
    for lat in (m3(), chain(3)):
        for m in enumerate_fuzzy_sets(lat, GRADES3):
            point_sub = sublattice_violation(m) is None
            cut_sub = sublattice_cut_violation(m) is None
            point_cvx = convex_violation(m) is None
            cut_cvx = convex_cut_violation(m) is None
            interval = interval_cut_violation(m) is None
            if point_sub != cut_sub:
                ok, detail = False, f"sublattice routes disagree on {m!r}"
                break
            if point_cvx != cut_cvx:
                ok, detail = False, f"convexity routes disagree on {m!r}"
                break
            if point_cvx != interval:
                ok, detail = False, f"convex/interval split on finite carrier: {m!r}"
                break
            if point_cvx:
                # boundary-grade equality must hold on every pair
                for x, y in itertools.combinations_with_replacement(lat.elements, 2):
                    lhs = min(m(lat.meet(x, y)), m(lat.join(x, y)))
                    if lhs != min(m(x), m(y)):
                        ok, detail = False, f"equality clause fails on {m!r} at ({x},{y})"
                        break
    _report(3, "predicate route agreement", ok, t0, 30.0, detail)


def test_criterion_4_fuzzy_interval_lattice():
    t0 = time.perf_counter()
    expected_counts = {"chain2": 9, "chain3": 22, "boolean2": 35, "m3": 48, "n5": 59}
    ok, detail = True, ""
    for name, lat in COLLECTION_FIXTURES:
        fis = enumerate_fuzzy_intervals(lat, GRADES3)
        if len(fis) != expected_counts[name]:
            ok, detail = False, f"{name}: {len(fis)} fuzzy intervals, expected {expected_counts[name]}"
            break
        report = run_suite("axioms", lat, GRADES3)[0]
        if not report.passed:
            ok, detail = False, f"{name}: {report.to_text()}"
            break
    if ok and len(enumerate_fuzzy_intervals(chain(2), GRADES2)) != 4:
        ok, detail = False, "chain2 with grades {0,1} should have 4 fuzzy intervals"
    _report(4, "fuzzy intervals form a complete lattice", ok, t0, 120.0, detail)


def test_criterion_5_cut_identities():
    t0 = time.perf_counter()
    ok, detail = True, ""
    for name, lat in COLLECTION_FIXTURES:
        report = run_suite("cut-identities", lat, GRADES3)[0]
        if not report.passed:
            ok, detail = False, f"{name}: {report.to_text()}"
            break
    _report(5, "meet/join cut identities", ok, t0, 120.0, detail)


def test_criterion_6_endpoint_lemmas():
    t0 = time.perf_counter()
    fixtures = [
        ("chain2", chain(2), GRADES3),
        ("chain3", chain(3), GRADES4),
        ("chain4", chain(4), GRADES3),
        ("boolean2", boolean_lattice(2), GRADES4),
        ("boolean3", boolean_lattice(3), GRADES3),
        ("product(chain2,chain3)", product_lattice(chain(2), chain(3)), GRADES3),
    ]
    ok, detail = True, ""
    for name, lat, grades in fixtures:
        assert is_distributive(lat)[0]
        report = run_suite("endpoints", lat, grades)[0]
        if not report.passed or not all(c.asserted for c in report.checks):
            ok, detail = False, f"{name}: {report.to_text()}"
            break
    _report(6, "endpoint function lemmas", ok, t0, 60.0, detail)


def test_criterion_7_distributivity_over_distributive_carriers():
    t0 = time.perf_counter()
    ok, detail = True, ""
    for name, lat in COLLECTION_FIXTURES:
        if not is_distributive(lat)[0]:
            continue
        report = run_suite("distributivity", lat, GRADES3)[0]
        if not report.passed:
            first = next(c for c in report.checks if c.status == "fail")
            ok = False
            detail = (f"{name}: {first.law} fails; witness operands "
                      f"{first.witness['operands']}")
            break
    _report(7, "distributive law over distributive carriers", ok, t0, 300.0, detail)


def test_criterion_8_pentagon_contrast():
    t0 = time.perf_counter()
    lat = n5()
    report = run_suite("distributivity", lat, GRADES2)[0]
    found = any(c.status == "fail" for c in report.checks)

    a = CrispInterval(lat, "a", "a")
    b = CrispInterval(lat, "b", "b")
    c = CrispInterval(lat, "c", "c")
    lhs = (a | b) & c
    rhs = (a & c) | (b & c)
    pinned = (lhs == CrispInterval(lat, "c", "c")
              and rhs == CrispInterval.empty(lat)
              and lhs != rhs)
    ok = found and pinned
    _report(8, "pentagon counterexample search", ok, t0, 5.0,
            f"found={found} pinned={pinned}")


def test_criterion_9_boundary_grade_structure():
    t0 = time.perf_counter()
    ok, detail = True, ""
    for name, lat in COLLECTION_FIXTURES:
        report = run_suite("structure", lat, GRADES3)[0]
        if not report.passed:
            ok, detail = False, f"{name}: {report.to_text()}"
            break
        # direct re-statement, independently of the suite plumbing
        for fi in enumerate_fuzzy_intervals(lat, GRADES3):
            m = fi.fuzzy
            for p in fi.thresholds():
                cut = fi.cut(p)
                if not cut:
                    continue
                lo, hi = lat.meet_set(cut), lat.join_set(cut)
                floor = min(m(x) for x in cut)
                if min(m(lo), m(hi)) != floor:
                    ok, detail = False, f"{name}: boundary-grade meet fails at {p} on {m!r}"
                    break
                if fi.cut(min(m(lo), m(hi))) != cut:
                    ok, detail = False, f"{name}: cut recovery fails at {p} on {m!r}"
                    break
    _report(9, "boundary grades determine the cut", ok, t0, 120.0, detail)
