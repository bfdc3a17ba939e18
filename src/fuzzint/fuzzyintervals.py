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

A :class:`FuzzyInterval` is stored as its *endpoint chain*: a grade
chain, the ranks of its thresholds in that chain, ascending, and per
threshold the ``(lo, hi)`` element indices of that cut.  The cuts of a
fuzzy interval are closed intervals, so the chain determines it.  The
public constructor takes a fuzzy set and builds the endpoint chain in the
same full scan that validates it, bucketing the elements by grade rank;
it keeps the fuzzy set too.

Op results skip that scan and build no fuzzy set: they are stored as
their cut chains alone, and their memberships are derived from the cut
ends on first read.  Meet is the pointwise minimum, and cutwise the
intersection of the operand cuts.  Join is *not* the pointwise maximum:
cutwise it is the hull of the operand cuts, the smallest fuzzy interval
above both operands.  Each op is one walk over both operands' levels
that applies its rule to each pair of cuts inline, by lookups in the
carrier's tables, folds repeated cuts and checks only that the result is
a nested chain of intervals.  Equality and the hash compare endpoint
chains, so interning an op result derives nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import NotAFuzzyInterval, RouteDisagreement
from .fuzzysets import FuzzySet, _merge_chains, as_grade, format_grade
from .intervals import CrispInterval
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

    Returns ``(levels, ends, witness)``.  ``levels`` are the ranks of the
    thresholds of ``m`` in ``m.chain``, ascending; ``ends[t]`` holds the
    ``(lo, hi)`` element indices of the greatest lower and least upper
    bound of the cut at rank ``levels[t]``, or ``(None, None)`` when that
    cut is empty.  ``witness`` is ``(r, z)`` for the lowest threshold rank
    ``r`` whose cut omits an element between its bounds, ``z`` the lowest
    such element index, else None.  One pass: bucket the elements by
    rank, then grow the cuts from the top threshold down.
    """
    lat = m.lattice
    members: dict = {0: [], len(m.chain) - 1: []}  # rank -> element indices
    for i, r in enumerate(m.ranks):
        members.setdefault(r, []).append(i)
    levels = tuple(sorted(members))
    ends = [(None, None)] * len(levels)
    witness = None
    cut = 0
    lo, hi = lat.index(lat.top), lat.index(lat.bottom)  # bounds of the empty cut
    for t in range(len(levels) - 1, -1, -1):  # cuts grow downward
        level = members[levels[t]]
        if level:
            lo = lat.meet_index(lo, lat.meet_indices(level))
            hi = lat.join_index(hi, lat.join_indices(level))
            for i in level:
                cut |= 1 << i
        if cut:
            ends[t] = (lo, hi)
            outside = lat.between_mask(lo, hi) & ~cut
            if outside:  # keep the lowest failing threshold
                witness = (levels[t], next(iter_bits(outside)))
    return levels, tuple(ends), witness


def interval_cut_violation(m: FuzzySet):
    """First (p, z) where the p-cut omits z between its own inf and sup.

    Direct route: a cut is a closed interval exactly when it contains
    everything between its greatest lower and least upper bound.  This is
    the check the :class:`FuzzyInterval` constructor runs.
    """
    witness = _endpoint_chain(m)[2]
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
    endpoint chain over ``lattice``: ``_chain``, a grade chain; ``_levels``,
    the ranks of the thresholds in ``_chain``, ascending; and ``_ends[t]``,
    the ``(lo, hi)`` element indices of the cut at rank ``_levels[t]``
    (``(None, None)`` when the cut is empty).

    The constructor validates its argument by the full cut scan, keeps the
    endpoints it finds and keeps the fuzzy set.  ``meet`` and ``join`` build
    only their results' endpoint chains, in one walk over their operands'
    levels that checks that the cuts nest; a result's membership function,
    ``fuzzy``, is derived from its cut ends on first read.  ``thresholds``, ``cut_interval``,
    ``endpoint_functions``, equality and the hash read the endpoint chain,
    so they derive nothing.
    """

    __slots__ = ("lattice", "_chain", "_levels", "_ends", "_fuzzy")

    def __init__(self, fuzzy: FuzzySet):
        levels, ends, witness = _endpoint_chain(fuzzy)
        if witness is not None:
            r, z = witness
            raise NotAFuzzyInterval(
                f"cut at {format_grade(fuzzy.chain[r])} is not a closed interval: it omits "
                f"{format_element(fuzzy.lattice.elements[z])} between its bounds")
        self.lattice = fuzzy.lattice
        self._chain = fuzzy.chain
        self._levels = levels
        self._ends = ends
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
        each element gets the largest level whose cut contains it, filled
        from the top level down."""
        fuzzy = self._fuzzy
        if fuzzy is None:
            lat = self.lattice
            ranks = [0] * len(lat.elements)
            cut = 0
            for r, (lo, hi) in zip(reversed(self._levels), reversed(self._ends)):
                if lo is not None:  # cuts grow downward
                    mask = lat.between_mask(lo, hi)
                    for i in iter_bits(mask & ~cut):  # only the elements new at this level
                        ranks[i] = r
                    cut = mask
            fuzzy = self._fuzzy = FuzzySet._from_ranks(lat, self._chain, tuple(ranks))
        return fuzzy

    @property
    def values(self):
        return self.fuzzy.values

    def __call__(self, element) -> Fraction:
        return self.fuzzy(element)

    def thresholds(self) -> tuple[Fraction, ...]:
        chain = self._chain
        return tuple([chain[r] for r in self._levels])

    def cut(self, p) -> frozenset:
        return self.fuzzy.cut(p)

    def _rank_endpoints(self, rank: int) -> tuple[int | None, int | None]:
        """``(lo, hi)`` element indices of the cut at ``_chain[rank]``,
        ``(None, None)`` if empty."""
        return self._ends[bisect_left(self._levels, rank)]

    def cut_interval(self, p) -> CrispInterval:
        """The p-cut as a crisp interval.

        Read off the endpoint chain: a grade strictly between two
        thresholds cuts like the next threshold up.
        """
        rank = bisect_left(self._chain, as_grade(p))
        return CrispInterval._from_indices(self.lattice, *self._rank_endpoints(rank))

    def endpoint_functions(self) -> EndpointFunctions:
        elements = self.lattice.elements
        lower: dict = {}
        upper: dict = {}
        thresholds = self.thresholds()
        for p, (lo, hi) in zip(thresholds, self._ends):
            if lo is None:
                lower[p], upper[p] = self.lattice.top, self.lattice.bottom
            else:
                lower[p], upper[p] = elements[lo], elements[hi]
        return EndpointFunctions(thresholds, lower, upper)

    def leq(self, other: "FuzzyInterval") -> bool:
        return self.fuzzy.leq(other.fuzzy)

    def meet(self, other: "FuzzyInterval") -> "FuzzyInterval":
        """Pointwise minimum; cutwise, the intersection of the operand cuts:
        ``[a_lo ⊔ b_lo, a_hi ⊓ b_hi]`` at each level, or the empty cut where
        that is crossed, the rule of :meth:`CrispInterval.intersection`."""
        return _walk(self, other, hull=False)

    def join(self, other: "FuzzyInterval") -> "FuzzyInterval":
        """Smallest fuzzy interval above both operands.

        Built cutwise: at every level of either operand take the hull of
        the two cuts, ``[a_lo ⊓ b_lo, a_hi ⊔ b_hi]``, or the other cut where
        one is empty.  Cuts are constant between consecutive levels, so no
        other grade can matter.
        """
        return _walk(self, other, hull=True)

    def __eq__(self, other) -> bool:
        # _levels are exactly the thresholds and _ends the cut at each, so
        # equal cut ends at equal grades over one lattice are equal sets
        if not isinstance(other, FuzzyInterval):
            return NotImplemented
        if self._ends != other._ends:
            return False
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            return False
        if self._chain is other._chain:
            return self._levels == other._levels
        a, b = self._chain, other._chain
        return all(a[r] == b[s] for r, s in zip(self._levels, other._levels))

    def __hash__(self) -> int:
        # _ends holds the cut ends at grade 0, at each grade in (0, 1) the
        # set takes, and at grade 1; the chain ranks live in _levels.  So
        # equal sets have equal _ends on any chain.  Sets of one cut shape at
        # other grades collide and __eq__ settles them: hashing the grades
        # as well kept only about a third of the speed-up in the op tables.
        return hash(self._ends)

    def __repr__(self) -> str:
        return f"FuzzyInterval({self.fuzzy!r})"


def _walk(a: FuzzyInterval, b: FuzzyInterval, hull: bool) -> FuzzyInterval:
    """The op result whose cut at every level of either operand is the hull
    (``hull``) or the intersection of the operands' cuts there.

    One walk over both operands' levels, merged by rank in the union of
    their grade chains, applies the rule inline from the carrier's tables.
    A cut equal to the one below it is folded into it, keeping rank 0, as
    :func:`_endpoint_chain` keeps only rank 0, the top and the ranks some
    element takes.  The only check is that the chain is nested: going up,
    ``lo`` rises, ``hi`` falls, and no nonempty cut sits above an empty one.
    """
    lat = _require_same_lattice(a.lattice, b.lattice)
    chain, ta, tb = a._chain, a._levels, b._levels
    if chain is not b._chain:
        chain, pos_a, pos_b = _merge_chains(chain, b._chain)
        ta, tb = [pos_a[r] for r in ta], [pos_b[r] for r in tb]
    ea, eb = a._ends, b._ends
    up = lat._up  # up[i] >> j & 1: i ⊑ j
    lo_t, hi_t = (lat._meet, lat._join) if hull else (lat._join, lat._meet)
    levels, ends = [], []
    below_lo = below_hi = -1  # no cut below rank 0
    ia = ib = 0
    while ia < len(ta):  # both end at the rank of grade 1
        lo, hi = end = ea[ia]  # a cut holds down to the level below its own
        b_lo, b_hi = other = eb[ib]
        ra, rb = ta[ia], tb[ib]
        r = ra if ra <= rb else rb
        ia += ra <= rb
        ib += rb <= ra
        if lo is None or b_lo is None:  # the hull is the other cut, the intersection empty
            if not hull:
                end, lo, hi = (None, None), None, None
            elif lo is None:
                end, lo, hi = other, b_lo, b_hi
        else:
            lo, hi = lo_t[lo][b_lo], hi_t[hi][b_hi]
            if hull or up[lo] >> hi & 1:  # a hull is never crossed
                end = lo, hi
            else:
                end, lo, hi = (None, None), None, None
        if lo == below_lo and hi == below_hi and levels[-1]:
            levels[-1] = r  # the same cut: no element has the lower rank
            continue
        if lo is not None and levels and (
                below_lo is None or not (up[below_lo] >> lo & 1 and up[hi] >> below_hi & 1)):
            raise NotAFuzzyInterval(
                f"cut chain is not nested: the cut at {format_grade(chain[levels[-1]])} "
                f"does not contain the cut at {format_grade(chain[r])}")
        levels.append(r)
        ends.append(end)
        below_lo, below_hi = lo, hi
    out = object.__new__(FuzzyInterval)
    out.lattice = lat
    out._chain = chain
    out._levels = tuple(levels)
    out._ends = tuple(ends)
    out._fuzzy = None
    return out
