"""Fuzzy intervals: fuzzy sets whose every cut is a crisp closed interval.

The classification ladder

    fuzzy interval  ⊂  fuzzy convex sublattice  ⊂  fuzzy sublattice

is decided by deliberately independent implementations (cut-based and
pointwise); the public ``is_*`` predicates evaluate more than one route and
raise :class:`~fuzzint.errors.RouteDisagreement` when they disagree, a
self-check that also runs under ``python -O``.  On a finite carrier the
first two classes coincide, so ``classify`` decides membership by the
cut-shape check alone and runs the pointwise searches only to explain a
rejection.

A :class:`FuzzyInterval` is stored as its *cut chain*: a grade chain
and, per rank of that chain, the code of the cut at that grade in Int(L),
the crisp intervals with the empty one
(:class:`~fuzzint.intervals._IntervalCodes`).  The cuts of a fuzzy
interval are closed intervals, so the chain determines it.  Its
thresholds are derived, not stored: rank 0, the top rank, and each rank
whose cut differs from the one above.  The public constructor takes a
fuzzy set and finds the cut ends in the same full scan that validates
it, bucketing the elements by grade rank, then codes them; it keeps the
fuzzy set too.

Op results skip that scan and build no fuzzy set: they are stored as
their cut chains alone, and their memberships are derived from the
decoded cut ends on first read.  Meet is the pointwise minimum, and
cutwise the intersection of the operand cuts.  Join is *not* the
pointwise maximum: cutwise it is the hull of the operand cuts, the
smallest fuzzy interval above both operands.  Each op is one pass over
the grade chain, zipping the operands' codes: it reads each result cut
from one entry of a per-lattice table keyed by the two operand codes,
filled entry by entry from the carrier's masks, and checks only that
the result is a nested chain of intervals.  Equality and the hash compare
codes, so interning an op result derives nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import NotAFuzzyInterval, RouteDisagreement
from .fuzzysets import FuzzySet, _merge_chains, as_grade, format_grade
from .intervals import CrispInterval, _IntervalCodes
from .lattice import Element, FiniteLattice, _require_same_lattice, format_element, iter_bits

# -- violation searches (one per implementation route) ---------------------


def sublattice_violation(m: FuzzySet):
    """First pair (x, y) with M(x⊓y) ∧ M(x⊔y) < M(x) ∧ M(y), else None.

    Pointwise route: no cuts are materialized.
    """
    lat, vals = m.lattice, m.ranks
    n = len(lat.elements)
    for i in range(n):
        for j in range(i, n):  # the condition is symmetric in (x, y)
            a = lat.meet_index(i, j)
            b = lat.join_index(i, j)
            if min(vals[a], vals[b]) < min(vals[i], vals[j]):
                return (lat.elements[i], lat.elements[j])
    return None


def sublattice_cut_violation(m: FuzzySet):
    """First (p, x, y) with x, y in the p-cut but x⊓y or x⊔y outside it."""
    lat = m.lattice
    for p in m.thresholds():
        mask = m.cut_mask(p)
        members = list(iter_bits(mask))
        for pos, i in enumerate(members):
            for j in members[pos:]:
                if not mask >> lat.meet_index(i, j) & 1 or not mask >> lat.join_index(i, j) & 1:
                    return (p, lat.elements[i], lat.elements[j])
    return None


def is_fuzzy_sublattice(m: FuzzySet) -> bool:
    """Every cut is a sublattice; both routes are evaluated and must agree."""
    by_points = sublattice_violation(m) is None
    by_cuts = sublattice_cut_violation(m) is None
    if by_points != by_cuts:
        raise RouteDisagreement("fuzzy-sublattice", m,
                                {"pointwise": by_points, "cut-based": by_cuts})
    return by_points


def convex_violation(m: FuzzySet):
    """First (x, y, z) with z between x⊓y and x⊔y but M(z) < M(x⊓y) ∧ M(x⊔y).

    Pointwise route.  Returns the sublattice violation pair first if there
    is one (convexity presupposes the sublattice inequality).  Scanning z
    over the whole segment, x and y included, also enforces the boundary
    equality M(x⊓y) ∧ M(x⊔y) = M(x) ∧ M(y): a strict excess would make x
    or y itself a witness.
    """
    pair = sublattice_violation(m)
    if pair is not None:
        return pair
    lat, vals = m.lattice, m.ranks
    n = len(lat.elements)
    for i in range(n):
        for j in range(i, n):
            a = lat.meet_index(i, j)
            b = lat.join_index(i, j)
            bound = min(vals[a], vals[b])
            if not bound:  # no grade lies below rank 0
                continue
            for k in iter_bits(lat.between_mask(a, b)):
                if vals[k] < bound:
                    return (lat.elements[i], lat.elements[j], lat.elements[k])
    return None


def convex_cut_violation(m: FuzzySet):
    """First (p, x, y, z) with x, y in the p-cut and z in [x⊓y, x⊔y] outside it."""
    lat = m.lattice
    for p in m.thresholds():
        mask = m.cut_mask(p)
        members = list(iter_bits(mask))
        for pos, i in enumerate(members):
            for j in members[pos:]:
                segment = lat.between_mask(lat.meet_index(i, j), lat.join_index(i, j))
                outside = segment & ~mask
                if outside:
                    z = next(iter_bits(outside))
                    e = lat.elements
                    return (p, e[i], e[j], e[z])
    return None


def is_fuzzy_convex_sublattice(m: FuzzySet) -> bool:
    """Every cut is a convex sublattice; both routes must agree."""
    by_points = convex_violation(m) is None
    by_cuts = convex_cut_violation(m) is None
    if by_points != by_cuts:
        raise RouteDisagreement("fuzzy-convex-sublattice", m,
                                {"pointwise": by_points, "cut-based": by_cuts})
    return by_points


def _endpoint_chain(m: FuzzySet):
    """The endpoint chain of ``m`` and the first cut that is not an interval.

    Returns ``(ends, witness)``.  ``ends[r]`` holds the ``(lo, hi)``
    element indices of the greatest lower and least upper bound of the cut
    at ``m.chain[r]``, or ``(None, None)`` when that cut is empty.
    ``witness`` is ``(r, z)`` for the lowest rank ``r`` that some element
    takes whose cut omits an element between its bounds, ``z`` the lowest
    such element index, else None; a rank that no element takes has the
    cut of the rank above.  One pass: bucket the elements by rank, then
    grow the cuts from the top rank down, ANDing each new element's
    down-set and up-set into the masks of the cut's common lower and upper
    bounds, so that each bound is one lookup.
    """
    lat = m.lattice
    down, up, by_down, by_up = lat._down, lat._up, lat._by_down, lat._by_up
    members = [[] for _ in m.chain]  # rank -> element indices
    for i, r in enumerate(m.ranks):
        members[r].append(i)
    ends = [(None, None)] * len(members)
    witness = None
    cut = 0
    lower = upper = lat._all_mask  # the empty cut's bounds: top and bottom
    for r in range(len(members) - 1, -1, -1):  # cuts grow downward
        level = members[r]
        if level:
            for i in level:
                lower &= down[i]
                upper &= up[i]
                cut |= 1 << i
            lo, hi = by_down[lower], by_up[upper]
            outside = up[lo] & down[hi] & ~cut
            if outside:  # keep the lowest failing rank
                witness = (r, (outside & -outside).bit_length() - 1)
        if cut:
            ends[r] = (lo, hi)
    return tuple(ends), witness


def interval_cut_violation(m: FuzzySet):
    """First (p, z) where the p-cut omits z between its own inf and sup.

    Direct route: a cut is a closed interval exactly when it contains
    everything between its greatest lower and least upper bound.  This is
    the check the :class:`FuzzyInterval` constructor runs.
    """
    witness = _endpoint_chain(m)[1]
    if witness is None:
        return None
    r, z = witness
    return (m.chain[r], m.lattice.elements[z])


def is_fuzzy_interval(m: FuzzySet) -> bool:
    """Every cut is a closed interval; three routes are evaluated and must agree.

    Route (a) inspects cut shapes directly, route (b) is pointwise
    convexity and route (c) cut-based convexity; on a finite carrier a cut
    is an interval exactly when it is a convex sublattice.
    """
    a = interval_cut_violation(m) is None
    b = convex_violation(m) is None
    c = convex_cut_violation(m) is None
    if not a == b == c:
        raise RouteDisagreement("fuzzy-interval", m, {"cut-shape": a, "pointwise-convexity": b,
                                                      "cut-convexity": c})
    return a


@dataclass(frozen=True)
class Classification:
    """Strongest ladder class, plus the first violation of the next one up."""
    label: str
    failed: str | None = None
    witness: tuple | None = None


def classify(m: FuzzySet) -> Classification:
    """Place ``m`` on the ladder, with the first violation of the next class up.

    The cut-shape check (the one the :class:`FuzzyInterval` constructor
    runs) decides membership.  Only a rejected set is scanned pointwise,
    for its label and witness.  Every cut of a finite lattice that is a
    convex sublattice is an interval, so a rejected set must fail
    convexity; if it does not, the routes disagree.
    """
    if interval_cut_violation(m) is None:
        return Classification("fuzzy-interval")
    witness = convex_violation(m)  # a sublattice pair first, else a convexity triple
    if witness is None:
        raise RouteDisagreement("fuzzy-interval", m,
                                {"cut-shape": False, "pointwise-convexity": True})
    if len(witness) == 2:
        return Classification("none", "fuzzy-sublattice", witness)
    return Classification("fuzzy-sublattice", "fuzzy-convex-sublattice", witness)


# -- the fuzzy interval type ------------------------------------------------


def _cutwise(hull: bool, name: str, doc: str):
    """The op ``FuzzyInterval.<name>``: the result whose cut at every grade
    is the hull (``hull``) or the intersection of the operands' cuts there.

    One pass over the grade chain zips the operands' codes and reads each
    result cut from one entry of the lattice's op table over cut codes,
    filling it on a miss.  Operands on two chains are first spread onto
    the merged chain: at each grade, an operand's cut is the one at its
    least grade at or above it.  The only check is that the chain is
    nested: going up, ``lo`` rises, ``hi`` falls, and no nonempty cut sits
    above an empty one, one mask test of the entry's marks against the
    needs of the cut below.  Both ops share this body, and neither wraps
    it in a second call.
    """
    def op(a: FuzzyInterval, b: FuzzyInterval) -> FuzzyInterval:
        lat = a.lattice
        if lat is not b.lattice:
            _require_same_lattice(lat, b.lattice)
        chain, ca, cb = a._chain, a._cuts, b._cuts
        if chain is not b._chain:
            chain, pos_a, pos_b = _merge_chains(chain, b._chain)
            ca = [ca[bisect_left(pos_a, r)] for r in range(len(chain))]
            cb = [cb[bisect_left(pos_b, r)] for r in range(len(chain))]
        codes = lat._codes or _IntervalCodes.of(lat)
        get, fill, size = codes.tables[hull].get, codes.fill, codes.size
        cuts = []
        need = 0  # no cut below rank 0, so nothing to contain
        for x, y in zip(ca, cb):
            code, marks, needs = get(x * size + y) or fill(hull, x, y)
            if marks & need != need:  # the cut below does not contain this one
                r = len(cuts)
                raise NotAFuzzyInterval(
                    f"cut chain is not nested: the cut at {format_grade(chain[r - 1])} "
                    f"does not contain the cut at {format_grade(chain[r])}")
            cuts.append(code)
            need = needs
        out = object.__new__(FuzzyInterval)
        out.lattice = lat
        out._chain = chain
        out._cuts = tuple(cuts)
        out._fuzzy = None
        return out

    op.__name__, op.__qualname__, op.__doc__ = name, f"FuzzyInterval.{name}", doc
    return op


@dataclass(frozen=True)
class EndpointFunctions:
    """Cut endpoints per threshold.

    ``lower`` is isotone and ``upper`` antitone in the threshold; an empty
    cut gets the crossed pair (top, bottom), consistent with folding meet
    and join over no members.
    """
    thresholds: tuple[Fraction, ...]
    lower: Mapping[Fraction, Element]
    upper: Mapping[Fraction, Element]


class FuzzyInterval:
    """A fuzzy set whose every cut is a crisp closed interval, stored as its
    cut chain over ``lattice``: ``_chain``, a grade chain, and ``_cuts[r]``,
    the Int(L) code of the cut at ``_chain[r]`` (0 when the cut is empty;
    see :class:`~fuzzint.intervals._IntervalCodes`).  ``_levels``, the
    ranks of the thresholds, is derived from the codes.

    The constructor validates its argument by the full cut scan, codes the
    cut ends it finds and keeps the fuzzy set.  ``meet`` and ``join`` build
    only their results' cut chains, in one pass over the grade chain that
    reads one table entry per rank and checks that the cuts nest; a
    result's membership function, ``fuzzy``, is derived from its decoded
    cut ends on first read.  ``thresholds``, ``cut_interval`` and
    ``endpoint_functions`` decode the cut chain, and equality and the hash
    compare it, so they derive nothing.
    """

    __slots__ = ("lattice", "_chain", "_cuts", "_fuzzy")

    def __init__(self, fuzzy: FuzzySet):
        ends, witness = _endpoint_chain(fuzzy)
        if witness is not None:
            r, z = witness
            raise NotAFuzzyInterval(
                f"cut at {format_grade(fuzzy.chain[r])} is not a closed interval: it omits "
                f"{format_element(fuzzy.lattice.elements[z])} between its bounds")
        code = _IntervalCodes.of(fuzzy.lattice).code
        self.lattice = fuzzy.lattice
        self._chain = fuzzy.chain
        self._cuts = tuple([code(lo, hi) for lo, hi in ends])
        self._fuzzy = fuzzy

    @classmethod
    def from_interval(cls, interval: CrispInterval) -> "FuzzyInterval":
        """The {0,1}-valued indicator of a crisp interval."""
        return cls(FuzzySet.characteristic(interval.lattice, interval.members()))

    @classmethod
    def constant(cls, lattice: FiniteLattice, grade) -> "FuzzyInterval":
        return cls(FuzzySet.constant(lattice, grade))

    @property
    def fuzzy(self) -> FuzzySet:
        """The membership function.  An op result derives it on first read:
        each element gets the largest rank whose cut contains it, filled
        from the top rank down."""
        fuzzy = self._fuzzy
        if fuzzy is None:
            lat = self.lattice
            ends, cuts = _IntervalCodes.of(lat).ends, self._cuts
            ranks = [0] * len(lat.elements)
            cut = 0
            for r in range(len(cuts) - 1, -1, -1):
                lo, hi = ends(cuts[r])
                if lo is not None:  # cuts grow downward
                    mask = lat.between_mask(lo, hi)
                    for i in iter_bits(mask & ~cut):  # only the elements new at this rank
                        ranks[i] = r
                    cut = mask
            fuzzy = self._fuzzy = FuzzySet._from_ranks(lat, self._chain, tuple(ranks))
        return fuzzy

    @property
    def values(self):
        return self.fuzzy.values

    def __call__(self, element) -> Fraction:
        return self.fuzzy(element)

    @property
    def _levels(self) -> tuple[int, ...]:
        """The ranks of the thresholds in ``_chain``, ascending: rank 0, the
        top rank, and each rank whose cut differs from the one above."""
        cuts = self._cuts
        top = len(cuts) - 1
        return (0, *[r for r in range(1, top) if cuts[r] != cuts[r + 1]], top)

    def thresholds(self) -> tuple[Fraction, ...]:
        chain = self._chain
        return tuple([chain[r] for r in self._levels])

    def cut(self, p) -> frozenset:
        return self.fuzzy.cut(p)

    def _cut_ends(self) -> tuple[tuple[int | None, int | None], ...]:
        """Per threshold, the ``(lo, hi)`` element indices of its cut,
        ``(None, None)`` if empty."""
        return tuple(map(_IntervalCodes.of(self.lattice).ends, self._threshold_cuts()))

    def _rank_endpoints(self, rank: int) -> tuple[int | None, int | None]:
        """``(lo, hi)`` element indices of the cut at ``_chain[rank]``,
        ``(None, None)`` if empty."""
        return _IntervalCodes.of(self.lattice).ends(self._cuts[rank])

    def cut_interval(self, p) -> CrispInterval:
        """The p-cut as a crisp interval.

        Read off the endpoint chain: a grade between two grades of the
        chain cuts like the next one up.
        """
        rank = bisect_left(self._chain, as_grade(p))
        return CrispInterval._from_indices(self.lattice, *self._rank_endpoints(rank))

    def endpoint_functions(self) -> EndpointFunctions:
        elements = self.lattice.elements
        lower: dict = {}
        upper: dict = {}
        thresholds = self.thresholds()
        for p, (lo, hi) in zip(thresholds, self._cut_ends()):
            if lo is None:
                lower[p], upper[p] = self.lattice.top, self.lattice.bottom
            else:
                lower[p], upper[p] = elements[lo], elements[hi]
        return EndpointFunctions(thresholds, lower, upper)

    def leq(self, other: "FuzzyInterval") -> bool:
        return self.fuzzy.leq(other.fuzzy)

    meet = _cutwise(False, "meet", """Pointwise minimum; cutwise, the intersection of the
        operand cuts: ``[a_lo ⊔ b_lo, a_hi ⊓ b_hi]`` at each grade, or the empty
        cut where that is crossed, the rule of :meth:`CrispInterval.intersection`.""")

    join = _cutwise(True, "join", """Smallest fuzzy interval above both operands.

        Built cutwise: at every grade of either operand's chain take the
        hull of the two cuts, ``[a_lo ⊓ b_lo, a_hi ⊔ b_hi]``, or the other
        cut where one is empty.  Cuts are constant between consecutive
        grades, so no other grade can matter.
        """)

    def __eq__(self, other) -> bool:
        # on one chain the codes are the cuts at each grade; across chains
        # the thresholds and the cuts at them determine the set
        if not isinstance(other, FuzzyInterval):
            return NotImplemented
        if self._chain is other._chain:
            if self._cuts != other._cuts:
                return False
        elif (self._threshold_cuts() != other._threshold_cuts()
              or self.thresholds() != other.thresholds()):
            return False
        return self.lattice is other.lattice or self.lattice == other.lattice

    def __hash__(self) -> int:
        # equal lattices code alike, so equal sets have equal codes at their
        # thresholds on any chain; sets of one cut shape at other grades
        # collide and __eq__ settles them
        return hash(self._threshold_cuts())

    def _threshold_cuts(self) -> tuple[int, ...]:
        """The codes of the cuts at the thresholds."""
        cuts = self._cuts
        return tuple([cuts[r] for r in self._levels])

    def __repr__(self) -> str:
        return f"FuzzyInterval({self.fuzzy!r})"
