import ast
import itertools
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (GRADES2, GRADES3, GRADES4, enumerate_fuzzy_sets, lattice_of,
                      random_lattices)
from fuzzint import (CrispInterval, FiniteLattice, FuzzyInterval, FuzzySet, InvalidGrade,
                     NotAFuzzyInterval, RouteDisagreement, chain, classify,
                     is_fuzzy_convex_sublattice, is_fuzzy_interval, is_fuzzy_sublattice,
                     standard_lattice)
from fuzzint import fuzzyintervals
from fuzzint.fuzzyintervals import (_endpoint_chain, convex_cut_violation, convex_violation,
                                    interval_cut_violation, sublattice_cut_violation,
                                    sublattice_violation)
from fuzzint.intervals import _IntervalCodes
from fuzzint.laws import enumerate_fuzzy_intervals, enumerate_intervals

H = Fraction(1, 2)


# -- predicates ---------------------------------------------------------


def test_characteristic_of_non_sublattice(b2):
    # {01,10,11} is not meet-closed: 01 ⊓ 10 = 00 is missing
    m = FuzzySet(b2, {"00": "0", "01": "1", "10": "1", "11": "1"})
    assert not is_fuzzy_sublattice(m)
    assert sublattice_violation(m) == ("01", "10")


def test_characteristic_of_sublattice_not_convex(chain3):
    # {0,2} is a sublattice of the chain but omits the midpoint
    m = FuzzySet(chain3, {"0": "1", "1": "0", "2": "1"})
    assert is_fuzzy_sublattice(m)
    assert not is_fuzzy_convex_sublattice(m)
    assert convex_violation(m) == ("0", "2", "1")


def test_diamond_counterexample(diamond):
    m = FuzzySet(diamond, {"0": "1", "a": "1", "b": "1", "c": "0", "1": "1"})
    assert is_fuzzy_sublattice(m)
    assert not is_fuzzy_convex_sublattice(m)
    assert not is_fuzzy_interval(m)


def test_classify_ladder(diamond):
    m = FuzzySet(diamond, {"0": "1", "a": "1", "b": "1", "c": "0", "1": "1"})
    got = classify(m)
    assert got.label == "fuzzy-sublattice"
    assert got.failed == "fuzzy-convex-sublattice"
    x, y, z = got.witness
    # witness is reproducible and genuinely violates convexity
    assert z in diamond.between(diamond.meet(x, y), diamond.join(x, y))
    assert m(z) < min(m(x), m(y))
    assert got.witness == ("0", "1", "c")


def test_classify_none(b2):
    m = FuzzySet(b2, {"00": "0", "01": "1", "10": "1", "11": "1"})
    got = classify(m)
    assert got.label == "none"
    assert got.failed == "fuzzy-sublattice"
    assert got.witness == ("01", "10")


def test_classify_interval(chain3):
    m = FuzzySet(chain3, {"0": "1/2", "1": "1", "2": "1/2"})
    assert classify(m).label == "fuzzy-interval"
    assert classify(m).failed is None


def test_constant_sets_are_intervals(pentagon):
    for g in GRADES3:
        assert is_fuzzy_interval(FuzzySet.constant(pentagon, g))


def _ladder_classification(m):
    """The ladder rung by rung: sublattice, then convexity, then cut shape."""
    witness = sublattice_violation(m)
    if witness is not None:
        return ("none", "fuzzy-sublattice", witness)
    witness = convex_violation(m)
    if witness is not None:
        return ("fuzzy-sublattice", "fuzzy-convex-sublattice", witness)
    witness = interval_cut_violation(m)
    if witness is not None:
        return ("fuzzy-convex-sublattice", "fuzzy-interval", witness)
    return ("fuzzy-interval", None, None)


def test_classify_matches_the_full_ladder(chain3, b2, diamond, pentagon):
    labels = Counter()
    for lat in (chain3, b2, diamond, pentagon):
        for m in enumerate_fuzzy_sets(lat, GRADES3):
            got = classify(m)
            assert (got.label, got.failed, got.witness) == _ladder_classification(m), m
            labels[got.label] += 1
    # every rung that finite carriers can reach is exercised
    assert set(labels) == {"fuzzy-interval", "fuzzy-sublattice", "none"}


def _literal_scans(m: FuzzySet):
    """The four scans written out over the public ``meet``, ``join`` and
    ``between``: each pair x, y of a canonical list with x first, every z of
    every segment [x⊓y, x⊔y] read.  Pointwise sublattice, pointwise
    convexity (the sublattice pair first), then both per cut."""
    lat = m.lattice

    def pairs(members):
        return [(x, y, lat.meet(x, y), lat.join(x, y))
                for k, x in enumerate(members) for y in members[k:]]

    def per_cut(failure):
        for p in m.thresholds():
            cut = m.cut(p)
            for x, y, lo, hi in pairs([x for x in lat.elements if x in cut]):
                found = failure(cut, x, y, lo, hi)
                if found:
                    return (p, *found)
        return None

    every = pairs(lat.elements)
    sub = next(((x, y) for x, y, lo, hi in every if min(m(lo), m(hi)) < min(m(x), m(y))), None)
    convex = sub or next(((x, y, z) for x, y, lo, hi in every for z in lat.between(lo, hi)
                          if m(z) < min(m(lo), m(hi))), None)
    sub_cut = per_cut(lambda cut, x, y, lo, hi: (x, y) if lo not in cut or hi not in cut else None)
    convex_cut = per_cut(lambda cut, x, y, lo, hi: next(
        ((x, y, z) for z in lat.between(lo, hi) if z not in cut), None))
    return sub, convex, sub_cut, convex_cut


@settings(max_examples=300, deadline=None)
@given(random_lattices(), st.booleans(), st.data())
def test_the_four_scans_match_literal_scans(case, accepted, data):
    """Each scan's witness, or None, equals its literal scan's: on fuzzy sets
    with drawn grades, mostly rejected, and on fuzzy intervals drawn cut by
    cut, all accepted.  The pointwise convexity scan skips the segments
    whose bound is rank 0; its literal scan reads them all."""
    lat = lattice_of(case)
    if accepted:
        values, cut = [Fraction(0)] * len(lat), CrispInterval.whole(lat)
        for grade in GRADES4[1:]:
            cut = cut & data.draw(st.sampled_from(enumerate_intervals(lat)))
            for x in cut.members():
                values[lat.index(x)] = grade
    else:
        values = data.draw(st.lists(st.sampled_from(GRADES4), min_size=len(lat),
                                    max_size=len(lat)))
    m = FuzzySet.from_values(lat, values)
    expected = _literal_scans(m)
    assert (sublattice_violation(m), convex_violation(m), sublattice_cut_violation(m),
            convex_cut_violation(m)) == expected
    if accepted:
        assert expected == (None,) * 4


def test_convex_equals_interval_on_finite_carriers(diamond, pentagon):
    # on a finite lattice the two notions coincide; check every fuzzy set
    for lat in (diamond, pentagon):
        for m in enumerate_fuzzy_sets(lat, GRADES3):
            assert is_fuzzy_convex_sublattice(m) == is_fuzzy_interval(m)


def test_boundary_grade_equality_clause(diamond):
    # convexity forces M(x⊓y) ∧ M(x⊔y) = M(x) ∧ M(y) on every pair
    for m in enumerate_fuzzy_intervals(diamond, GRADES3):
        vals = m.fuzzy
        for x, y in itertools.product(diamond, repeat=2):
            lhs = min(vals(diamond.meet(x, y)), vals(diamond.join(x, y)))
            assert lhs == min(vals(x), vals(y))


# -- route self-checks ----------------------------------------------------

# per case: the route replaced by a stand-in that reports a made-up
# violation, the function whose routes then disagree, and the check it names
BROKEN_ROUTES = {
    "fuzzy-sublattice": ("sublattice_cut_violation", is_fuzzy_sublattice,
                         "fuzzy-sublattice"),
    "fuzzy-convex-sublattice": ("convex_cut_violation", is_fuzzy_convex_sublattice,
                                "fuzzy-convex-sublattice"),
    "fuzzy-interval": ("convex_violation", is_fuzzy_interval, "fuzzy-interval"),
    "classify": ("interval_cut_violation", classify, "fuzzy-interval"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_ROUTES))
def test_route_disagreement_raises(monkeypatch, chain3, case):
    route, checked, check = BROKEN_ROUTES[case]
    m = FuzzySet(chain3, {"0": "1/2", "1": "1", "2": "1/2"})  # every true route passes it
    monkeypatch.setattr(fuzzyintervals, route, lambda m: ("1/2", "0"))
    with pytest.raises(RouteDisagreement) as info:
        checked(m)
    assert info.value.check == check
    assert info.value.operand is m
    assert set(info.value.verdicts.values()) == {True, False}


def test_route_disagreement_raises_under_dash_O():
    """The route self-checks are not asserts, so ``python -O`` keeps them."""
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(tests), "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         os.path.join(tests, "test_fuzzyintervals.py") + "::test_route_disagreement_raises",
         os.path.join(tests, "test_intervals.py")
         + "::test_endpoints_round_trip_disagreement_raises",
         os.path.join(tests, "test_lattice.py") + "::test_distributivity_route_disagreement_raises",
         os.path.join(tests, "test_fuzzyintervals.py") + "::test_op_chain_that_is_not_nested_raises",
         os.path.join(tests, "test_laws.py")
         + "::test_a_decided_failure_the_probe_passes_is_a_disagreement"],
        capture_output=True, text=True, env=env, cwd=tests)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "10 passed" in proc.stdout


def test_library_has_no_assert_statements():
    """``python -O`` strips ``assert``, so no self-check in the library may be one."""
    package = os.path.dirname(os.path.abspath(fuzzyintervals.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


def test_library_has_no_unreferenced_private_helpers():
    """Every private function, method and class is used somewhere in the
    library outside its own body, so a helper whose callers are gone fails."""
    package = os.path.dirname(os.path.abspath(fuzzyintervals.__file__))

    def names(node):
        return Counter(n.id if isinstance(n, ast.Name) else
                       n.attr if isinstance(n, ast.Attribute) else n.name
                       for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))

    defs, used = [], Counter()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=name)
            used += names(tree)
            defs += [(f"{name}:{node.lineno}", node) for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                     and node.name.startswith("_") and not node.name.endswith("__")]
    assert defs  # the scan sees the helpers
    assert [f"{where} {node.name}" for where, node in defs
            if used[node.name] <= names(node)[node.name]] == []


# -- constructor and cuts ------------------------------------------------


def test_public_names_match_all():
    import fuzzint
    exported = set(fuzzint.__all__)
    assert len(exported) == len(fuzzint.__all__)
    assert all(hasattr(fuzzint, name) for name in fuzzint.__all__)
    namespace: dict = {}
    exec("from fuzzint import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == exported
    removed = {"build_lattice", "make_interval", "check_cut_identities",
               "check_endpoint_lemmas", "check_interval_structure",
               "oracle_join",  # a test helper in tests/test_laws.py
               "enumerate_fuzzy_sets"}  # a test helper in tests/conftest.py
    assert not any(hasattr(fuzzint, name) for name in removed)


def test_constructor_validates(diamond):
    bad = FuzzySet(diamond, {"0": "1", "a": "1", "b": "1", "c": "0", "1": "1"})
    with pytest.raises(NotAFuzzyInterval) as exc:
        FuzzyInterval(bad)
    assert "omits" in str(exc.value)


def test_from_interval(chain3):
    fi = FuzzyInterval.from_interval(CrispInterval(chain3, "0", "1"))
    assert fi.values == (1, 1, 0)
    assert fi.cut_interval(Fraction(1)) == CrispInterval(chain3, "0", "1")


def test_cut_interval_and_thresholds(chain3):
    fi = FuzzyInterval(FuzzySet(chain3, {"0": "1/2", "1": "1", "2": "1/2"}))
    assert fi.thresholds() == (0, H, 1)
    assert fi.cut_interval(H) == CrispInterval(chain3, "0", "2")
    assert fi.cut_interval(Fraction(1)) == CrispInterval(chain3, "1", "1")
    assert fi.cut(Fraction(1)) == frozenset({"1"})
    assert [fi(e) for e in chain3] == [H, 1, H]
    assert repr(fi) == "FuzzyInterval({0: 1/2, 1: 1, 2: 1/2})"


def test_intervals_compare_by_lattice_and_endpoint_chain(chain3):
    """Equal endpoint chains on another lattice differ; on an equal copy of
    the lattice they are equal."""
    fi = FuzzyInterval(FuzzySet(chain3, {"0": "1/2", "1": "1", "2": "1/2"}))
    assert fi.__eq__(fi.fuzzy) is NotImplemented and fi != fi.fuzzy
    xyz = FiniteLattice(["x", "y", "z"], [("x", "y"), ("y", "z")])
    other = FuzzyInterval(FuzzySet(xyz, {"x": "1/2", "y": "1", "z": "1/2"}))
    assert other._cuts == fi._cuts and other != fi
    assert FuzzyInterval(FuzzySet(chain(3), {"0": "1/2", "1": "1", "2": "1/2"})) == fi


def test_endpoint_functions(chain3):
    fi = FuzzyInterval(FuzzySet(chain3, {"0": "1/2", "1": "1", "2": "1/2"}))
    ep = fi.endpoint_functions()
    assert ep.lower[H] == "0" and ep.upper[H] == "2"
    assert ep.lower[Fraction(1)] == "1" and ep.upper[Fraction(1)] == "1"


def test_endpoint_empty_cut_convention(chain3):
    # empty cuts report crossed endpoints: lower = top, upper = bottom
    fi = FuzzyInterval(FuzzySet(chain3, {"0": "1/2", "1": "1/2", "2": "0"}))
    ep = fi.endpoint_functions()
    assert ep.lower[Fraction(1)] == chain3.top
    assert ep.upper[Fraction(1)] == chain3.bottom


def test_endpoint_monotonicity(pentagon):
    for fi in enumerate_fuzzy_intervals(pentagon, GRADES3):
        ep = fi.endpoint_functions()
        for p, q in itertools.combinations(ep.thresholds, 2):
            # p < q: lower endpoints rise, upper endpoints fall
            assert pentagon.leq(ep.lower[p], ep.lower[q])
            assert pentagon.leq(ep.upper[q], ep.upper[p])


def test_cut_interval_matches_pointwise_cut(diamond, pentagon):
    # grades off the threshold set exercise the chain lookup between levels
    probes = (Fraction(0), Fraction(1, 4), Fraction(1, 3), H, Fraction(2, 3),
              Fraction(1), "1/2", 1)
    for lat in (pentagon, diamond):
        for fi in enumerate_fuzzy_intervals(lat, GRADES3):
            for p in probes:
                assert fi.cut_interval(p).members() == fi.cut(p), (fi, p)
            ep = fi.endpoint_functions()
            assert ep.thresholds == fi.fuzzy.thresholds()
            for p in ep.thresholds:
                cut = fi.cut(p)  # the empty family folds to (top, bottom)
                assert ep.lower[p] == lat.meet_set(cut), (fi, p)
                assert ep.upper[p] == lat.join_set(cut), (fi, p)
    fi = FuzzyInterval.constant(pentagon, H)
    with pytest.raises(InvalidGrade):
        fi.cut_interval(Fraction(3, 2))
    with pytest.raises(InvalidGrade):
        fi.cut_interval(0.5)


# -- meet and join -------------------------------------------------------


def test_meet_is_pointwise(chain3):
    a = FuzzyInterval(FuzzySet(chain3, {"0": "1", "1": "1/2", "2": "0"}))
    b = FuzzyInterval(FuzzySet(chain3, {"0": "0", "1": "1/2", "2": "1"}))
    assert a.meet(b).values == (0, H, 0)


def test_join_fills_the_gap(chain3):
    a = FuzzyInterval(FuzzySet(chain3, {"0": "1", "1": "1/2", "2": "0"}))
    b = FuzzyInterval(FuzzySet(chain3, {"0": "0", "1": "1/2", "2": "1"}))
    assert a.join(b).values == (1, 1, 1)


def test_join_cut_is_hull_of_cuts(diamond):
    fis = enumerate_fuzzy_intervals(diamond, GRADES3)
    for a, b in itertools.product(fis[:20], fis[:20]):
        j = a.join(b)
        for p in sorted(set(a.thresholds()) | set(b.thresholds())):
            assert j.cut_interval(p) == (a.cut_interval(p) | b.cut_interval(p))


def test_join_is_least_upper_bound(pentagon):
    fis = enumerate_fuzzy_intervals(pentagon, GRADES2)
    for a, b in itertools.product(fis, repeat=2):
        j = a.join(b)
        assert a.leq(j) and b.leq(j)
        for c in fis:
            if a.leq(c) and b.leq(c):
                assert j.leq(c)


def test_meet_join_stay_within_grade_set(diamond):
    fis = enumerate_fuzzy_intervals(diamond, GRADES3)
    allowed = set(GRADES3)
    for a, b in itertools.product(fis[:16], fis[:16]):
        assert set(a.meet(b).values) <= allowed
        assert set(a.join(b).values) <= allowed


def _assert_ops_match_independent_routes(a, b):
    """Both op results carry, decoded rank by rank, the endpoint chain that
    the full scan of their fuzzy sets gives, with no witness, and the meet
    is the pointwise minimum of the grades."""
    meet = a.meet(b)
    for result in (a.join(b), meet):
        ends = tuple(map(_IntervalCodes.of(result.lattice).ends, result._cuts))
        assert (ends, None) == _endpoint_chain(result.fuzzy), (a, b)
    assert meet.values == tuple(map(min, a.values, b.values)), (a, b)


# the law cases of the benchmark's exhaustive workload, and m3 over four grades
OP_CASES = [("chain2", GRADES4), ("chain3", GRADES3), ("boolean2", GRADES3),
            ("m3", GRADES3), ("n5", GRADES3), ("chain4", GRADES3), ("m3", GRADES4)]


@pytest.mark.parametrize("spec, grades", OP_CASES,
                         ids=[f"{spec}-{len(grades)}grades" for spec, grades in OP_CASES])
def test_op_results_match_their_endpoint_chains(spec, grades):
    fis = enumerate_fuzzy_intervals(standard_lattice(spec), grades)
    for a, b in itertools.product(fis, repeat=2):
        _assert_ops_match_independent_routes(a, b)


def test_op_results_match_their_endpoint_chains_across_grade_chains(chain3):
    thirds = enumerate_fuzzy_intervals(chain3, (0, Fraction(1, 3), 1))
    halves = enumerate_fuzzy_intervals(chain3, GRADES3)
    for a, b in itertools.product(thirds, halves):
        _assert_ops_match_independent_routes(a, b)
        _assert_ops_match_independent_routes(b, a)


@st.composite
def fuzzy_interval_pairs(draw):
    """Two fuzzy intervals on one random lattice, each on its own grade
    chain: per positive grade, ascending, the previous cut intersected with a
    drawn crisp interval."""
    lat = lattice_of(draw(random_lattices()))
    intervals = enumerate_intervals(lat)
    pair = []
    for _ in range(2):
        grades = draw(st.sets(st.sampled_from(GRADES4[1:] + (H,)), min_size=1))
        values = [Fraction(0)] * len(lat)
        cut = CrispInterval.whole(lat)
        for grade in sorted(grades):
            cut = cut & draw(st.sampled_from(intervals))
            for x in cut.members():
                values[lat.index(x)] = grade
        pair.append(FuzzyInterval(FuzzySet.from_values(lat, values)))
    return pair


def _endpoint_chain_by_cuts(m: FuzzySet):
    """``_endpoint_chain``'s result computed cut by cut, from the lowest
    rank up, with the public order and bounds: each cut's members by rank,
    its bounds as folds of pairwise meets and joins, and the elements
    between them by ``leq``."""
    lat, e = m.lattice, m.lattice.elements
    ends, witness = [], None
    for r in range(len(m.chain)):
        cut = [i for i, rank in enumerate(m.ranks) if rank >= r]
        if not cut:
            ends.append((None, None))
            continue
        lo = hi = e[cut[0]]
        for i in cut[1:]:
            lo, hi = lat.meet(lo, e[i]), lat.join(hi, e[i])
        ends.append((lat.index(lo), lat.index(hi)))
        omitted = [z for z in range(len(e))
                   if lat.leq(lo, e[z]) and lat.leq(e[z], hi) and z not in cut]
        if witness is None and omitted and r in m.ranks:
            witness = (r, omitted[0])
    return tuple(ends), witness


@settings(max_examples=200, deadline=None)
@given(random_lattices(), st.data())
def test_endpoint_chain_matches_a_scan_of_each_cut(case, data):
    """Ends and witness against a per-cut reference, on fuzzy sets whose
    chain has ranks no element takes (rank 0 and the top rank included)."""
    lat = lattice_of(case)
    chain = (Fraction(0), Fraction(1, 4), H, Fraction(3, 4), Fraction(1))
    ranks = data.draw(st.lists(st.integers(0, len(chain) - 1), min_size=len(lat),
                               max_size=len(lat)))
    m = FuzzySet._from_ranks(lat, chain, tuple(ranks))
    assert _endpoint_chain(m) == _endpoint_chain_by_cuts(m)


@settings(max_examples=150, deadline=None)
@given(fuzzy_interval_pairs())
def test_op_results_match_their_endpoint_chains_on_random_lattices(pair):
    _assert_ops_match_independent_routes(*pair)


@settings(max_examples=150, deadline=None)
@given(fuzzy_interval_pairs())
def test_equal_intervals_hash_alike_from_every_route(pair):
    """Each operand and op result, rebuilt by the public constructor on its
    own grades, on a wider chain and over an equal but distinct lattice, and
    as an op result on those, is equal to itself and hashes alike.  Across
    operands, results and rebuilds on each chain and lattice, equality of
    the endpoint chains is equality of the fuzzy sets."""
    a, b = pair
    lat = a.lattice
    twin = FiniteLattice(lat.elements, lat.covers())
    assert twin == lat and twin is not lat
    wider = tuple(sorted(set(a.fuzzy.chain) | set(b.fuzzy.chain) | set(GRADES4) | {H}))
    seen = []
    for fi in (a, b, a.join(b), a.meet(b), b.join(a), b.meet(a)):
        values = fi.values
        own = FuzzyInterval(FuzzySet.from_values(lat, values))
        wide = FuzzyInterval(FuzzySet._from_ranks(lat, wider, tuple(map(wider.index, values))))
        over_twin = FuzzyInterval(FuzzySet.from_values(twin, values))
        sames = (own, wide, wide.join(wide), wide.meet(fi), fi.join(wide),
                 over_twin, over_twin.meet(over_twin), over_twin.join(fi), fi.meet(over_twin))
        for same in sames:
            assert same == fi
            assert hash(same) == hash(fi), (fi, same)
        seen += (fi, wide, over_twin, fi.join(wide), fi.meet(over_twin))
    for x, y in itertools.product(seen, repeat=2):
        assert (x == y) == (x.fuzzy == y.fuzzy), (x, y)
        assert x != y or hash(x) == hash(y), (x, y)


NOT_NESTED = {  # (rank, lo, hi) per cut over chain3 at grades 0, 1/2, 1; the flaw going up
    "lo falls": [(0, 0, 2), (1, 1, 2), (2, 0, 2)],
    "hi rises": [(0, 0, 2), (1, 1, 1), (2, 1, 2)],
    "empty below nonempty": [(0, 0, 2), (1, None, None), (2, 1, 1)],
}


@pytest.mark.parametrize("case", sorted(NOT_NESTED))
def test_op_chain_that_is_not_nested_raises(chain3, case):
    """The nesting check on op results is not an assert, so it also holds
    under ``python -O``.  Constant 1/2 has levels 0, 1 and 2; planting a
    chain as its ends makes an operand whose meet and join with itself
    keep every planted cut, since both rules are idempotent on one cut.
    Every planted cut is an interval, so it is planted as its code."""
    bad = FuzzyInterval.constant(chain3, H)
    assert bad._chain == GRADES3 and bad._levels == (0, 1, 2)
    code = _IntervalCodes.of(chain3).code
    bad._cuts = tuple(code(lo, hi) for _, lo, hi in NOT_NESTED[case])
    for op in (FuzzyInterval.meet, FuzzyInterval.join):
        with pytest.raises(NotAFuzzyInterval, match="not nested"):
            op(bad, bad)


def test_two_valued_fuzzy_intervals_match_crisp_intervals():
    # with grades {0,1} fuzzy intervals are exactly characteristic functions
    # of crisp intervals
    for n in (2, 3, 4):
        lat = chain(n)
        fis = enumerate_fuzzy_intervals(lat, GRADES2)
        ivs = enumerate_intervals(lat)
        assert len(fis) == len(ivs)
        crisp_members = {iv.members() for iv in ivs}
        fuzzy_cuts = {fi.cut(Fraction(1)) for fi in fis}
        assert crisp_members == fuzzy_cuts


def test_interval_cut_violation_reports_gap(diamond):
    bad = FuzzySet(diamond, {"0": "1", "a": "1", "b": "1", "c": "0", "1": "1"})
    p, z = interval_cut_violation(bad)
    assert p == 1 and z == "c"


def test_gap_witness_names_a_grade_that_some_element_takes(diamond):
    """No element takes 1/2, so its cut is the 1-cut {a, b}; the witness
    names grade 1, where the elements of that cut take their grade."""
    k = FuzzySet(diamond, {"0": "0", "a": "1", "b": "1", "c": "0", "1": "0"}).meet(
        FuzzySet(diamond, {"0": "1/2", "a": "1", "b": "1", "c": "1/2", "1": "1/2"}))
    assert k.chain == GRADES3 and H not in k.values
    assert interval_cut_violation(k) == (1, "0")
    with pytest.raises(NotAFuzzyInterval, match="cut at 1 is not a closed interval: "
                                                "it omits 0 between its bounds"):
        FuzzyInterval(k)
