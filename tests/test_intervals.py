import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lattice_of, random_lattices
from fuzzint import (CrispInterval, EmptyInterval, FiniteLattice, LatticeMismatch,
                     RouteDisagreement, boolean_lattice, chain, intersection_family, n5)
from fuzzint import laws
from fuzzint.intervals import _IntervalCodes
from fuzzint.laws import enumerate_intervals


def test_basic_interval(diamond):
    iv = CrispInterval(diamond, "a", "1")
    assert not iv.is_empty
    assert iv.lo == "a" and iv.hi == "1"
    assert iv.members() == frozenset({"a", "1"})
    assert "a" in iv and "b" not in iv


def test_crossed_bounds_normalize_to_empty(diamond):
    iv = CrispInterval(diamond, "1", "0")
    assert iv.is_empty
    assert iv.members() == frozenset()
    with pytest.raises(EmptyInterval):
        iv.lo
    with pytest.raises(EmptyInterval, match="no upper endpoint"):
        iv.hi
    with pytest.raises(EmptyInterval, match="no endpoints"):
        iv.endpoints()


def test_one_endpoint_is_refused(diamond):
    for lo, hi in (("a", None), (None, "a")):
        with pytest.raises(ValueError, match="^give both endpoints or neither$"):
            CrispInterval(diamond, lo, hi)


def test_incomparable_bounds_give_singleton_or_empty(diamond):
    # [a,b] has no element z with a ⊑ z ⊑ b
    assert CrispInterval(diamond, "a", "b").is_empty


def test_whole_and_empty(pentagon):
    assert CrispInterval.whole(pentagon).members() == frozenset(pentagon)
    assert CrispInterval.empty(pentagon).is_empty


def test_empty_intervals_are_equal(diamond):
    assert CrispInterval(diamond, "1", "0") == CrispInterval.empty(diamond)
    assert hash(CrispInterval(diamond, "a", "b")) == hash(CrispInterval.empty(diamond))
    assert CrispInterval.empty(diamond).__eq__(frozenset()) is NotImplemented
    # equal bound indices on another lattice, and on an equal copy of one
    xyz = FiniteLattice(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert CrispInterval.whole(chain(3)) != CrispInterval.whole(xyz)
    assert CrispInterval.whole(chain(3)) == CrispInterval.whole(chain(3))


def test_intersection_is_set_intersection():
    lat = n5()
    ivs = enumerate_intervals(lat)
    for a, b in itertools.product(ivs, repeat=2):
        assert (a & b).members() == a.members() & b.members()


def test_intersection_endpoint_formula(pentagon):
    a = CrispInterval(pentagon, "0", "c")
    b = CrispInterval(pentagon, "a", "1")
    got = a & b
    assert got == CrispInterval(pentagon, pentagon.join("0", "a"), pentagon.meet("c", "1"))


def test_hull_is_least_containing_interval():
    lat = n5()
    ivs = enumerate_intervals(lat)
    for a, b in itertools.product(ivs, repeat=2):
        h = a | b
        assert a.issubset(h) and b.issubset(h)
        for c in ivs:
            if a.issubset(c) and b.issubset(c):
                assert h.issubset(c)


def test_hull_with_empty_is_identity(diamond):
    a = CrispInterval(diamond, "0", "b")
    assert (a | CrispInterval.empty(diamond)) == a
    assert (CrispInterval.empty(diamond) | a) == a


def test_endpoints_recompute_from_members(pentagon):
    for iv in enumerate_intervals(pentagon):
        if not iv.is_empty:
            lo, hi = iv.endpoints()
            assert iv == CrispInterval(pentagon, lo, hi)


def test_endpoints_round_trip_disagreement_raises(monkeypatch, pentagon):
    iv = CrispInterval(pentagon, "0", "b")
    monkeypatch.setattr(FiniteLattice, "meet_set", lambda self, members: self.top)
    with pytest.raises(RouteDisagreement) as info:
        iv.endpoints()
    assert info.value.operand is iv
    assert info.value.verdicts == {"stored": ("0", "b"), "recomputed": ("1", "b")}


def test_interval_counts():
    # chain(n) has n(n+1)/2 nonempty intervals plus the empty one
    for n in (1, 2, 3, 5):
        assert len(enumerate_intervals(chain(n))) == n * (n + 1) // 2 + 1


def test_interval_counts_fixtures(diamond, pentagon, b2, b3):
    assert len(enumerate_intervals(diamond)) == 13
    assert len(enumerate_intervals(pentagon)) == 14
    assert len(enumerate_intervals(b2)) == 10
    assert len(enumerate_intervals(b3)) == 28


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([chain(1), boolean_lattice(0)]),
                 random_lattices().map(lattice_of)))
def test_interval_space_matches_brute_force(lattice):
    """Int(L)'s items are the empty interval, then [lo, hi] for every pair
    lo ⊑ hi in a scan of all element pairs in canonical order, with the
    member masks of a scan of all elements; its rows are pairwise
    ``issubset``."""
    items, (supersets, subsets) = laws._interval_space(lattice)
    elements = lattice.elements
    scanned = [CrispInterval.empty(lattice)]
    for lo in elements:
        for hi in elements:
            if lattice.leq(lo, hi):
                scanned.append(CrispInterval(lattice, lo, hi))
    assert items == scanned
    assert enumerate_intervals(lattice) == scanned
    masks = [iv.members_mask() for iv in items]
    assert masks[1:] == [sum(1 << b for b, z in enumerate(elements)
                             if lattice.leq(iv.lo, z) and lattice.leq(z, iv.hi))
                         for iv in items[1:]]
    assert supersets == [sum(a.issubset(b) << j for j, b in enumerate(items)) for a in items]
    assert subsets == [sum(b.issubset(a) << j for j, b in enumerate(items)) for a in items]


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([chain(1), boolean_lattice(0)]),
                 random_lattices().map(lattice_of)))
def test_interval_codes_are_positions_in_int_l(lattice):
    """The empty interval codes to 0 and ``[lo, hi]`` to its index in
    ``enumerate_intervals``, and decoding inverts coding.  With every pair
    forced, each op-table entry codes the ``intersection`` (``hull``) of
    its two items, and its marks and needs decide ``issubset``.  The crisp
    methods are the reference here only: the coding never calls them."""
    items = enumerate_intervals(lattice)
    assert _IntervalCodes.of(lattice) is _IntervalCodes.of(lattice)
    codes = _IntervalCodes(lattice)  # fresh: nothing encoded or decoded yet
    assert codes.size == len(items)
    assert codes.ends(0) == (None, None)
    assert [codes.ends(k) for k in range(1, len(items))] == [(iv._lo, iv._hi) for iv in items[1:]]
    assert [codes.code(iv._lo, iv._hi) for iv in items] == list(range(len(items)))
    for hull, reference in ((False, CrispInterval.intersection), (True, CrispInterval.hull)):
        for (a, x), (b, y) in itertools.product(enumerate(items), repeat=2):
            code, marks, needs = codes.fill(hull, a, b)
            assert items[code] == reference(x, y), (hull, x, y)
            assert codes.tables[hull][a * codes.size + b] == (code, marks, needs)
        assert len(codes.tables[hull]) == len(items) ** 2
    # the hull with the empty interval is the item itself
    entries = [codes.tables[True][c * codes.size] for c in range(len(items))]
    for (x, (_, marks, _)), (y, (_, _, needs)) in itertools.product(zip(items, entries),
                                                                  repeat=2):
        assert (marks & needs == needs) == x.issubset(y), (x, y)


def test_enumeration_has_no_duplicates(pentagon):
    ivs = enumerate_intervals(pentagon)
    assert len(set(ivs)) == len(ivs)
    members = {iv.members() for iv in ivs}
    assert len(members) == len(ivs)  # distinct as sets, not just as bound pairs


def test_intersection_family(pentagon):
    assert intersection_family(pentagon, []) == CrispInterval.whole(pentagon)
    ivs = [CrispInterval(pentagon, "0", "c"), CrispInterval(pentagon, "0", "1")]
    assert intersection_family(pentagon, ivs) == CrispInterval(pentagon, "0", "c")


def test_mixed_lattices_rejected(diamond, pentagon):
    a = CrispInterval(diamond, "0", "1")
    b = CrispInterval(pentagon, "0", "1")
    with pytest.raises(LatticeMismatch):
        a & b


def test_render(diamond):
    assert CrispInterval(diamond, "a", "1").render(ascii_only=True) == "[a,1]"
    assert CrispInterval.empty(diamond).render(ascii_only=True) == "empty"
    assert CrispInterval.empty(diamond).render() == "∅"
    assert str(CrispInterval(diamond, "a", "1")) == "[a,1]"
    assert str(CrispInterval.empty(diamond)) == "∅"


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_interval_ops_against_sets_on_chains(n, data):
    lat = chain(n)
    els = list(lat)
    pick = st.tuples(st.sampled_from(els), st.sampled_from(els))
    (lo1, hi1), (lo2, hi2) = data.draw(pick), data.draw(pick)
    a, b = CrispInterval(lat, lo1, hi1), CrispInterval(lat, lo2, hi2)
    assert (a & b).members() == a.members() & b.members()
    hull = (a | b).members()
    assert hull >= a.members() | b.members()
