import itertools
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_lattices
from fuzzint import (CycleError, FiniteLattice, NotALattice, RouteDisagreement, SizeLimit,
                     UnknownElement, boolean_lattice, chain, is_distributive, m3, n5,
                     product_lattice, standard_lattice)
from fuzzint import lattice as lattice_module
from fuzzint.lattice import MAX_ELEMENTS, order_closure


def test_chain_order(chain3):
    assert list(chain3) == ["0", "1", "2"]
    assert chain3.bottom == "0"
    assert chain3.top == "2"
    assert chain3.leq("0", "2")
    assert not chain3.leq("2", "1")
    assert chain3.meet("1", "2") == "1"
    assert chain3.join("0", "1") == "1"


def test_duplicate_covers_are_tolerated():
    lat = FiniteLattice(["x", "y"], [("x", "y"), ("x", "y")])
    assert lat.leq("x", "y")
    assert lat.covers() == (("x", "y"),)


def test_self_cover_is_a_cycle():
    with pytest.raises(CycleError):
        FiniteLattice(["x"], [("x", "x")])


def test_two_cycle():
    with pytest.raises(CycleError) as exc:
        FiniteLattice(["x", "y"], [("x", "y"), ("y", "x")])
    assert str(exc.value) == "cover relation contains a cycle: 'x' -> 'y' -> 'x'"


def test_longer_cycle_is_detected():
    with pytest.raises(CycleError) as exc:
        FiniteLattice(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")])
    assert str(exc.value) == "cover relation contains a cycle: 'b' -> 'c' -> 'd' -> 'b'"


def test_empty_carrier_rejected():
    with pytest.raises(ValueError):
        FiniteLattice([], [])


def test_duplicate_elements_rejected():
    with pytest.raises(ValueError):
        FiniteLattice(["x", "x"], [])


def test_unknown_cover_endpoint():
    with pytest.raises(UnknownElement):
        FiniteLattice(["x"], [("x", "y")])
    with pytest.raises(UnknownElement, match="'y'"):  # the lower endpoint
        FiniteLattice(["x"], [("y", "x")])


def test_two_maximal_elements_not_a_lattice():
    # x < y, x < z and nothing above {y, z}
    with pytest.raises(NotALattice) as exc:
        FiniteLattice(["x", "y", "z"], [("x", "y"), ("x", "z")])
    assert exc.value.pair == ("y", "z")


def test_no_meet_not_a_lattice():
    # a and b meet in z, but x and y are both minimal above them
    covers = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("x", "t"), ("y", "t"), ("z", "a"), ("z", "b")]
    with pytest.raises(NotALattice) as exc:
        FiniteLattice(["a", "b", "x", "y", "z", "t"], covers)
    assert exc.value.pair == ("a", "b")
    assert exc.value.kind == "join"
    assert exc.value.candidates == ("x", "y")


NOT_A_LATTICE_WITNESSES = {
    # the dual of test_no_meet_not_a_lattice: x and y are both maximal below a and b
    "two-maximal-lower-bounds": (
        [("x", "a"), ("y", "a"), ("x", "b"), ("y", "b"), ("t", "x"), ("t", "y"),
         ("a", "z"), ("b", "z")],
        (("a", "b"), "meet", ("x", "y"))),
    # y and z have a join but no common lower bound at all
    "no-lower-bound": ([("y", "x"), ("z", "x")], (("y", "z"), "meet", ())),
    # three minimal upper bounds of a and b; the first two are named
    "three-minimal-upper-bounds": (
        [("o", "a"), ("o", "b")] + [(lo, hi) for lo in "ab" for hi in "xyz"]
        + [(hi, "t") for hi in "xyz"],
        (("a", "b"), "join", ("x", "y"))),
    # a and b lack both bounds; the meet is reported first
    "bowtie": ([("x", "a"), ("x", "b"), ("y", "a"), ("y", "b"), ("a", "u"), ("a", "v"),
                ("b", "u"), ("b", "v")], (("a", "b"), "meet", ("x", "y"))),
}


@pytest.mark.parametrize("case", sorted(NOT_A_LATTICE_WITNESSES))
def test_not_a_lattice_witness(case):
    covers, expected = NOT_A_LATTICE_WITNESSES[case]
    labels = sorted({e for pair in covers for e in pair})
    with pytest.raises(NotALattice) as exc:
        FiniteLattice(labels, covers)
    assert (exc.value.pair, exc.value.kind, exc.value.candidates) == expected


def test_meet_set_conventions(diamond):
    assert diamond.meet_set([]) == "1"
    assert diamond.join_set([]) == "0"
    assert diamond.meet_set(["a", "b", "c"]) == "0"
    assert diamond.join_set(["a", "b"]) == "1"


def test_between(diamond):
    assert diamond.between("0", "1") == ("0", "1", "a", "b", "c")
    assert diamond.between("a", "a") == ("a",)
    assert diamond.between("1", "0") == ()


def test_covers_roundtrip(pentagon):
    rebuilt = FiniteLattice(list(pentagon), pentagon.covers())
    assert rebuilt == pentagon
    assert rebuilt.covers() == pentagon.covers()


def _hasse_edges(lat):
    """Every pair x < y with no element strictly between, by an element
    scan, in canonical order: the reference for ``covers()``."""
    return tuple((x, y) for x in lat for y in lat
                 if x != y and lat.leq(x, y)
                 and not any(z not in (x, y) and lat.leq(x, z) and lat.leq(z, y) for z in lat))


def _with_redundant_pairs(lat):
    """The lattice rebuilt from its Hasse edges plus every transitive pair,
    each listed twice, in reverse order."""
    comparable = [(x, y) for x in lat for y in lat if x != y and lat.leq(x, y)]
    return FiniteLattice(list(lat), list(reversed(comparable * 2)), name=lat.name)


COVER_FIXTURES = [m3(), n5(), chain(1), chain(4), boolean_lattice(0), boolean_lattice(3),
                  product_lattice(m3(), chain(2)), product_lattice(n5(), boolean_lattice(2)),
                  product_lattice(chain(3), m3())]


@pytest.mark.parametrize("lat", COVER_FIXTURES, ids=[lat.name for lat in COVER_FIXTURES])
def test_covers_match_an_element_scan_on_fixtures(lat):
    assert lat.covers() == _hasse_edges(lat)
    rebuilt = _with_redundant_pairs(lat)
    assert rebuilt == lat
    assert rebuilt.covers() == lat.covers()


@settings(max_examples=80, deadline=None)
@given(random_lattices(), st.data())
def test_covers_match_an_element_scan_on_random_lattices(case, data):
    """The random covers carry some transitive pairs; some pairs are also
    listed twice here."""
    masks, covers = case
    again = data.draw(st.lists(st.sampled_from(covers), max_size=3)) if covers else []
    lat = FiniteLattice([f"e{i}" for i in range(len(masks))], covers + again)
    assert lat.covers() == _hasse_edges(lat)


@settings(max_examples=150, deadline=None)
@given(random_lattices(), st.data())
def test_down_sets_are_the_transposed_up_sets(case, data):
    """With the covers shuffled, some listed twice and some transitive pairs
    added, each element's down-set holds exactly the elements whose up-set
    holds it, which are the family's subsets of its mask."""
    masks, covers = case
    again = data.draw(st.lists(st.sampled_from(covers), max_size=3)) if covers else []
    lat = FiniteLattice([f"e{i}" for i in range(len(masks))],
                        data.draw(st.permutations(covers + again)))
    n = len(masks)
    for j in range(n):
        assert lat._down[j] == sum(1 << i for i in range(n) if lat._up[i] >> j & 1)
    for x, mx in enumerate(masks):
        below = [lat.index(f"e{y}") for y, my in enumerate(masks) if my & mx == my]
        assert lat._down[lat.index(f"e{x}")] == sum(1 << i for i in below)


def test_m3_structure(diamond):
    for x, y in itertools.combinations(["a", "b", "c"], 2):
        assert diamond.meet(x, y) == "0"
        assert diamond.join(x, y) == "1"


def test_n5_structure(pentagon):
    assert pentagon.leq("a", "c")
    assert not pentagon.leq("b", "c")
    assert pentagon.meet("c", "b") == "0"
    assert pentagon.join("a", "b") == "1"


def test_is_distributive_on_fixtures(chain5, b3, diamond, pentagon):
    assert is_distributive(chain5) == (True, None)
    assert is_distributive(b3) == (True, None)
    flag, witness = is_distributive(diamond)
    assert flag is False and witness == ("a", "b", "c")
    flag, witness = is_distributive(pentagon)
    assert flag is False and witness == ("c", "a", "b")


def test_distributive_witness_is_a_real_violation(pentagon):
    x, y, z = is_distributive(pentagon)[1]
    lhs = pentagon.meet(x, pentagon.join(y, z))
    rhs = pentagon.join(pentagon.meet(x, y), pentagon.meet(x, z))
    assert lhs != rhs


def test_dual_law_agrees_with_primal():
    # on a lattice either distributive law implies the other; the dual law
    # x ⊔ (y ⊓ z) = (x ⊔ y) ⊓ (x ⊔ z) is decided here from the element-level ops
    def dual_holds(lat):
        return all(lat.join(x, lat.meet(y, z)) == lat.meet(lat.join(x, y), lat.join(x, z))
                   for x, y, z in itertools.product(lat.elements, repeat=3))

    for lat in (chain(4), boolean_lattice(3), m3(), n5(), product_lattice(chain(2), chain(3))):
        assert is_distributive(lat)[0] == dual_holds(lat)


def test_boolean_lattice_labels(b2):
    assert list(b2) == ["00", "01", "10", "11"]
    assert b2.join("01", "10") == "11"
    assert b2.meet("01", "10") == "00"


def test_product_is_componentwise(prod23):
    assert prod23.meet(("1", "0"), ("0", "2")) == ("0", "0")
    assert prod23.join(("1", "0"), ("0", "2")) == ("1", "2")


def test_product_of_two_chains_matches_boolean_square(b2):
    prod = product_lattice(chain(2), chain(2))
    # exhaustive isomorphism check via the obvious bit-pairing map
    iso = {("0", "0"): "00", ("0", "1"): "01", ("1", "0"): "10", ("1", "1"): "11"}
    for x in prod:
        for y in prod:
            assert prod.leq(x, y) == b2.leq(iso[x], iso[y])


def test_standard_lattice_names():
    assert list(standard_lattice("chain4")) == ["0", "1", "2", "3"]
    assert list(standard_lattice("chain(4)")) == ["0", "1", "2", "3"]
    assert standard_lattice("m3") == m3()
    assert standard_lattice("n5") == n5()
    assert standard_lattice("boolean2") == boolean_lattice(2)
    assert standard_lattice("product(chain2,chain2)") == product_lattice(chain(2), chain(2))
    # sizes are ASCII digits only: a superscript or Arabic-Indic digit is no size
    for spec in ("dodecahedron", "chain²", "boolean¹", "chain٣", "product(chain2,foo)"):
        with pytest.raises(ValueError, match=re.escape(f"unknown lattice fixture {spec!r}")):
            standard_lattice(spec)


def test_fixture_factories_refuse_empty_requests():
    with pytest.raises(ValueError, match="^a chain needs at least one element$"):
        chain(0)
    with pytest.raises(ValueError, match="^the atom count cannot be negative$"):
        boolean_lattice(-1)


def test_structural_equality_ignores_name():
    a = FiniteLattice(["x", "y"], [("x", "y")], name="one")
    b = FiniteLattice(["x", "y"], [("x", "y")], name="two")
    assert a == b
    assert hash(a) == hash(b)
    assert a == a and a.__eq__("x < y") is NotImplemented and a != "x < y"
    assert a != FiniteLattice(["y", "x"], [("y", "x")])


def test_size_limit():
    with pytest.raises(SizeLimit):
        FiniteLattice(range(MAX_ELEMENTS + 1), [(i, i + 1) for i in range(MAX_ELEMENTS)])


def test_fixture_factories_refuse_oversized_requests():
    with pytest.raises(SizeLimit, match=f"{MAX_ELEMENTS + 1} elements"):
        chain(MAX_ELEMENTS + 1)
    with pytest.raises(SizeLimit, match="8192 elements"):
        boolean_lattice(13)
    with pytest.raises(SizeLimit, match="8192 elements"):
        standard_lattice("boolean13")
    start = time.perf_counter()
    with pytest.raises(SizeLimit, match=r"2\^100000000 elements"):
        boolean_lattice(10**8)  # refused before 2 ** k is computed
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("spec, requested", [
    ("product(boolean12,chain2)", 8192),    # each factor fits, the product does not
    ("product(chain2,boolean13)", 8192),    # an oversized factor is named first
    ("product(chain5000,boolean13)", 5000),  # the left factor is checked first
    ("product(product(boolean6,boolean6),chain2)", 8192),
    ("boolean0013", 8192),
    ("boolean20000", "2^20000"),          # too large to print as a number
    ("boolean100000000", "2^100000000"),  # too large to compute quickly
    ("product(chain2,boolean20000)", "2^20000"),
    pytest.param("chain" + "9" * 5000, "9" * 5000,  # too long to convert to an int
                 id="chain-with-5000-digits"),
])
def test_oversized_product_fixture_fails_before_building(spec, requested):
    start = time.perf_counter()
    with pytest.raises(SizeLimit) as info:
        standard_lattice(spec)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == f"lattice with {requested} elements exceeds the cap of {MAX_ELEMENTS}"


def test_deeply_nested_product_fixture_is_refused():
    deepest = "product(chain1," * 64 + "chain2" + ")" * 64
    assert len(standard_lattice(deepest).elements) == 2
    for levels in (65, 1200):
        for spec in ("product(chain1," * levels + "chain2" + ")" * levels,
                     "product(" * levels + "chain2" + ",chain1)" * levels):
            with pytest.raises(ValueError, match="more than 64 levels deep"):
                standard_lattice(spec)


def test_unknown_element_lookup(chain3):
    with pytest.raises(UnknownElement):
        chain3.meet("0", "9")
    assert "9" not in chain3


def _glb(lat, x, y):
    lower = [z for z in lat if lat.leq(z, x) and lat.leq(z, y)]
    best = [z for z in lower if all(lat.leq(w, z) for w in lower)]
    assert len(best) == 1
    return best[0]


def test_meet_matches_definition_on_fixtures(diamond, pentagon, prod23):
    for lat in (diamond, pentagon, prod23):
        for x in lat:
            for y in lat:
                assert lat.meet(x, y) == _glb(lat, x, y)


@st.composite
def random_cover_sets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    labels = [f"e{i}" for i in range(n)]
    pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
    covers = draw(st.lists(pairs, max_size=10))
    return labels, covers


@settings(max_examples=200, deadline=None)
@given(random_cover_sets())
def test_random_covers_build_or_raise_cleanly(case):
    labels, covers = case
    try:
        lat = FiniteLattice(labels, covers)
    except (CycleError, NotALattice):
        return
    # when construction succeeds the result must behave like a lattice
    for x in lat:
        assert lat.leq(lat.bottom, x)
        assert lat.leq(x, lat.top)
        for y in lat:
            m, j = lat.meet(x, y), lat.join(x, y)
            assert lat.leq(m, x) and lat.leq(m, y)
            assert lat.leq(x, j) and lat.leq(y, j)
            assert lat.leq(x, y) == (m == x) == (j == y)


def _warshall(labels, covers):
    """``below[x, y]``: x reaches y through the covers (reflexively), by Warshall's closure."""
    below = {(x, y): x == y for x in labels for y in labels}
    for lo, hi in covers:
        below[lo, hi] = True
    for k in labels:
        for x in labels:
            for y in labels:
                below[x, y] = below[x, y] or (below[x, k] and below[k, y])
    return below


def _has_cycle(labels, covers, below):
    """A self-cover, or two distinct elements that reach each other."""
    return (any(lo == hi for lo, hi in covers)
            or any(below[x, y] and below[y, x] for x in labels for y in labels if x != y))


@settings(max_examples=300, deadline=None)
@given(random_cover_sets())
def test_order_closure_matches_a_warshall_closure(case):
    """The walk raises on exactly the cyclic inputs, with a closed walk of input
    covers as its witness, and otherwise gives the brute-force up-sets."""
    labels, covers = case
    below = _warshall(labels, covers)
    try:
        _, index, up, _, _ = order_closure(labels, covers)
    except CycleError as exc:
        assert _has_cycle(labels, covers, below)
        cycle = exc.cycle
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        assert set(zip(cycle, cycle[1:])) <= set(covers)
        return
    assert not _has_cycle(labels, covers, below)
    for x in labels:
        assert up[index[x]] == sum(1 << index[y] for y in labels if below[x, y])


def _first_missing_bound(labels, covers):
    """(pair, kind, candidates) of the first pair without a meet or join, by brute force.

    Pairs go in canonical order, the meet before the join; the candidates are
    the first two maximal common lower (minimal common upper) bounds.
    """
    elems = sorted(labels)
    below = _warshall(elems, covers)
    for i, x in enumerate(elems):
        for y in elems[i:]:
            for kind, le in (("meet", lambda a, b: below[a, b]), ("join", lambda a, b: below[b, a])):
                common = [z for z in elems if le(z, x) and le(z, y)]
                extremal = [z for z in common if not any(w != z and le(z, w) for w in common)]
                if len(extremal) != 1:
                    return (x, y), kind, tuple(extremal[:2])
    return None


@settings(max_examples=200, deadline=None)
@given(random_cover_sets())
def test_not_a_lattice_witness_matches_brute_force(case):
    labels, covers = case
    try:
        FiniteLattice(labels, covers)
    except CycleError:
        assert _has_cycle(labels, covers, _warshall(labels, covers))
        return
    except NotALattice as exc:
        got = (exc.pair, exc.kind, exc.candidates)
    else:
        got = None
    assert got == _first_missing_bound(labels, covers)


@settings(max_examples=80, deadline=None)
@given(random_lattices())
def test_bounds_match_brute_force_on_random_lattices(case):
    masks, covers = case
    labels = [f"e{i}" for i in range(len(masks))]
    lat = FiniteLattice(labels, covers)
    mask_of = dict(zip(labels, masks))
    for x in labels:
        for y in labels:
            assert lat.leq(x, y) == (mask_of[x] & mask_of[y] == mask_of[x])
            lower = [z for z in labels if lat.leq(z, x) and lat.leq(z, y)]
            upper = [z for z in labels if lat.leq(x, z) and lat.leq(y, z)]
            assert [lat.meet(x, y)] == [z for z in lower if all(lat.leq(w, z) for w in lower)]
            assert [lat.join(x, y)] == [z for z in upper if all(lat.leq(z, w) for w in upper)]
    assert [lat.bottom] == [z for z in labels if all(lat.leq(z, w) for w in labels)]
    assert [lat.top] == [z for z in labels if all(lat.leq(w, z) for w in labels)]


def _first_distributivity_failure(lat):
    """The first triple, in canonical order, with x ⊓ (y ⊔ z) ≠ (x ⊓ y) ⊔ (x ⊓ z)."""
    for x, y, z in itertools.product(lat, repeat=3):
        if lat.meet(x, lat.join(y, z)) != lat.join(lat.meet(x, y), lat.meet(x, z)):
            return x, y, z
    return None


@settings(max_examples=120, deadline=None)
@given(st.one_of(random_lattices().map(lambda case: (
    [f"e{i}" for i in range(len(case[0]))], case[1])), random_cover_sets()))
def test_is_distributive_matches_an_element_scan(case):
    """The table walk against an element-level scan, on random lattices and on
    the random cover sets that build (M3- and N5-shaped ones among them)."""
    labels, covers = case
    try:
        lat = FiniteLattice(labels, covers)
    except (CycleError, NotALattice):
        return
    witness = _first_distributivity_failure(lat)
    assert is_distributive(lat) == (witness is None, witness)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((m3(), n5(), product_lattice(m3(), chain(2)),
                        product_lattice(chain(2), n5()),
                        product_lattice(n5(), boolean_lattice(2)))), st.data())
def test_the_witness_matches_an_element_scan_on_relabelled_lattices(lat, data):
    """A drawn relabelling moves the canonical order, and with it the first
    failing triple; in some, its y is not join-irreducible."""
    labels = data.draw(st.permutations([f"e{k}" for k in range(len(lat))]))
    rename = dict(zip(lat.elements, labels))
    relabelled = FiniteLattice(labels, [(rename[lo], rename[hi]) for lo, hi in lat.covers()])
    witness = _first_distributivity_failure(relabelled)
    assert witness is not None
    assert is_distributive(relabelled) == (False, witness)


def test_is_distributive_matches_an_element_scan_on_fixtures():
    for lat in (m3(), n5(), chain(4), boolean_lattice(3), product_lattice(m3(), chain(2)),
                chain(1), boolean_lattice(0), product_lattice(n5(), boolean_lattice(2)),
                product_lattice(chain(3), m3()), product_lattice(boolean_lattice(2), n5())):
        witness = _first_distributivity_failure(lat)
        assert is_distributive(lat) == (witness is None, witness)


def _unread_walk(lattice):
    raise AssertionError("the triple walk ran")


def test_is_distributive_decides_without_the_triple_walk(monkeypatch):
    """A distributive verdict never runs the triple walk; a "no" still names
    the first failing triple."""
    with monkeypatch.context() as patch:
        patch.setattr(lattice_module, "_first_failing_triple", _unread_walk)
        for lat in (boolean_lattice(6), chain(64)):
            assert is_distributive(lat) == (True, None)
    lat = product_lattice(m3(), chain(2))
    assert is_distributive(lat) == (False, _first_distributivity_failure(lat))


def test_distributivity_route_disagreement_raises(monkeypatch):
    lat = m3()
    # the criterion says "no" on the diamond, and a walk that finds no triple disagrees
    monkeypatch.setattr(lattice_module, "_first_failing_triple", lambda lattice: None)
    with pytest.raises(RouteDisagreement) as info:
        is_distributive(lat)
    assert info.value.check == "distributivity"
    assert info.value.operand is lat
    assert info.value.verdicts == {"join-irreducibles": False, "triples": True}


@settings(max_examples=80, deadline=None)
@given(random_lattices(), st.data())
def test_family_bounds_match_brute_force_on_random_lattices(case, data):
    """``meet_set``/``join_set`` fold masks; any family, the empty one
    included, gives the greatest lower (least upper) bound found by a scan."""
    masks, covers = case
    labels = [f"e{i}" for i in range(len(masks))]
    lat = FiniteLattice(labels, covers)
    family = data.draw(st.lists(st.sampled_from(labels), max_size=len(labels) + 1))
    lower = [z for z in labels if all(lat.leq(z, x) for x in family)]
    upper = [z for z in labels if all(lat.leq(x, z) for x in family)]
    assert [lat.meet_set(family)] == [z for z in lower if all(lat.leq(w, z) for w in lower)]
    assert [lat.join_set(family)] == [z for z in upper if all(lat.leq(z, w) for w in upper)]


def test_a_build_keeps_no_table_of_order_n_squared():
    """boolean10 has 1,024 elements: n² table rows of ints would hold
    over 16 MB, its up- and down-set masks with their two dicts under 1 MB."""
    tracemalloc.start()
    try:
        lat = boolean_lattice(10)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lat) == 1024
    assert retained < 4 * 2 ** 20


def test_a_refused_build_keeps_no_table_of_order_n_squared():
    """chain(1,023) with one more element above its bottom has no top.  The
    pair that lacks a bound is found by testing the pairs one by one, so
    naming it keeps no n² table (one of 1,024² entries would hold over 8 MB)."""
    labels = [str(i).zfill(4) for i in range(1023)]
    covers = list(zip(labels, labels[1:])) + [("0000", "x")]
    tracemalloc.start()
    try:
        with pytest.raises(NotALattice) as exc:
            FiniteLattice(labels + ["x"], covers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "elements '0001' and 'x' have no unique least upper bound"
    assert peak < 4 * 2 ** 20
