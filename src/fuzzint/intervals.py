"""Crisp closed intervals of a finite lattice.

An interval is either empty or the set {z : lo ⊑ z ⊑ hi} for comparable
bounds.  Construction normalizes crossed bounds to the single empty value,
so structural equality coincides with equality of member sets.  Under
intersection (``&``) and hull (``|``, the smallest interval containing
both operands) the intervals of a lattice form a lattice themselves.

Int(L), the intervals with the empty one, is also coded by int: see
:class:`_IntervalCodes`, which fuzzy intervals use to store their cuts.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterable

from .errors import EmptyInterval, RouteDisagreement
from .lattice import Element, FiniteLattice, _require_same_lattice, format_element, iter_bits


class CrispInterval:
    __slots__ = ("lattice", "_lo", "_hi")

    def __init__(self, lattice: FiniteLattice, lo: Element | None = None,
                 hi: Element | None = None):
        if (lo is None) != (hi is None):
            raise ValueError("give both endpoints or neither")
        self.lattice = lattice
        if lo is None:
            self._lo = self._hi = None
        else:
            i, j = lattice.index(lo), lattice.index(hi)
            if lattice.leq_index(i, j):
                self._lo, self._hi = i, j
            else:
                self._lo = self._hi = None  # crossed bounds denote the empty set

    @classmethod
    def empty(cls, lattice: FiniteLattice) -> "CrispInterval":
        return cls(lattice)

    @classmethod
    def whole(cls, lattice: FiniteLattice) -> "CrispInterval":
        return cls._from_indices(lattice, lattice.index(lattice.bottom),
                                 lattice.index(lattice.top))

    @classmethod
    def _from_indices(cls, lattice, lo_i, hi_i) -> "CrispInterval":
        # trusted fast path: lo_i ⊑ hi_i already established (or both None)
        self = object.__new__(cls)
        self.lattice = lattice
        self._lo = lo_i
        self._hi = hi_i
        return self

    @property
    def is_empty(self) -> bool:
        return self._lo is None

    @property
    def lo(self) -> Element:
        if self._lo is None:
            raise EmptyInterval("the empty interval has no lower endpoint")
        return self.lattice.elements[self._lo]

    @property
    def hi(self) -> Element:
        if self._hi is None:
            raise EmptyInterval("the empty interval has no upper endpoint")
        return self.lattice.elements[self._hi]

    def endpoints(self) -> tuple[Element, Element]:
        """(lo, hi) recomputed as the meet/join of the member set.

        The recomputed pair must coincide with the stored bounds; that
        round trip is a cheap self-check, which raises
        :class:`RouteDisagreement` when it fails.
        """
        if self.is_empty:
            raise EmptyInterval("the empty interval has no endpoints")
        members = self.members()
        lo, hi = self.lattice.meet_set(members), self.lattice.join_set(members)
        if (self.lattice.index(lo), self.lattice.index(hi)) != (self._lo, self._hi):
            raise RouteDisagreement("interval-endpoints", self,
                                    {"stored": (self.lo, self.hi), "recomputed": (lo, hi)})
        return lo, hi

    def members_mask(self) -> int:
        if self._lo is None:
            return 0
        return self.lattice.between_mask(self._lo, self._hi)

    def members(self) -> frozenset:
        elements = self.lattice.elements
        return frozenset(elements[b] for b in iter_bits(self.members_mask()))

    def __contains__(self, element) -> bool:
        return self.members_mask() >> self.lattice.index(element) & 1 == 1

    def issubset(self, other: "CrispInterval") -> bool:
        _require_same_lattice(self.lattice, other.lattice)
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        lat = self.lattice
        return lat.leq_index(other._lo, self._lo) and lat.leq_index(self._hi, other._hi)

    def intersection(self, other: "CrispInterval") -> "CrispInterval":
        """Set intersection — again an interval: [lo₁⊔lo₂, hi₁⊓hi₂]."""
        lat = _require_same_lattice(self.lattice, other.lattice)
        if self.is_empty or other.is_empty:
            return CrispInterval._from_indices(lat, None, None)
        lo = lat.join_index(self._lo, other._lo)
        hi = lat.meet_index(self._hi, other._hi)
        if lat.leq_index(lo, hi):
            return CrispInterval._from_indices(lat, lo, hi)
        return CrispInterval._from_indices(lat, None, None)

    def hull(self, other: "CrispInterval") -> "CrispInterval":
        """Smallest interval containing both operands: [lo₁⊓lo₂, hi₁⊔hi₂].

        The empty interval is the identity.
        """
        lat = _require_same_lattice(self.lattice, other.lattice)
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        lo = lat.meet_index(self._lo, other._lo)
        hi = lat.join_index(self._hi, other._hi)
        return CrispInterval._from_indices(lat, lo, hi)

    __and__ = intersection
    __or__ = hull

    def render(self, ascii_only: bool = False) -> str:
        if self.is_empty:
            return "empty" if ascii_only else "∅"
        return f"[{format_element(self.lo)},{format_element(self.hi)}]"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"CrispInterval({self.render(ascii_only=True)})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrispInterval):
            return NotImplemented
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            return False
        return (self._lo, self._hi) == (other._lo, other._hi)

    def __hash__(self) -> int:
        return hash((self._lo, self._hi))


def intersection_family(lattice: FiniteLattice,
                        intervals: Iterable[CrispInterval]) -> CrispInterval:
    """Intersection of a finite family; the empty family gives [bottom, top]."""
    acc = CrispInterval.whole(lattice)
    for interval in intervals:
        acc = acc.intersection(interval)
    return acc


class _IntervalCodes:
    """Int(L) coded by position: code 0 is the empty interval, and the code
    of ``[lo, hi]`` is its index in ``laws.enumerate_intervals``, which
    lists ``[lo, hi]`` for each ``lo`` and each ``hi`` in its up-set, both
    ascending (the order ``laws._interval_ends`` walks).  So the code is
    ``offset[lo]`` plus the number of elements of ``lo``'s up-set below
    ``hi``, with ``offset`` the running count of up-set sizes from 1.
    Equal lattices share the canonical order, so their codes agree.

    ``tables[hull]`` maps ``a * size + b`` to ``(code, marks, needs)`` for
    the hull (``hull``) or the intersection of the intervals coded ``a``
    and ``b``, filled one entry at a time by :meth:`fill` from the
    carrier's up-set and down-set masks.  ``marks`` and ``needs`` make
    containment one mask test: c lies inside d exactly when ``marks(c) &
    needs(d) == needs(d)``.
    Over n elements, ``[lo, hi]`` marks ``lo``'s down-set shifted by n and
    ``hi``'s up-set, and needs bits ``n + lo`` and ``hi``; the empty
    interval marks every bit and needs bit 2n, which no other one marks.

    Entries with one code are one tuple, and the ends of each code are kept
    as it is encoded or decoded.  Set-up is O(n), so a lattice that takes a
    single op pays nothing of order |Int(L)|.
    """

    __slots__ = ("size", "tables", "_offset", "_up", "_down", "_by_up", "_by_down", "_ends",
                 "_entries")

    def __init__(self, lattice: FiniteLattice):
        # the carrier's masks and dicts, not its bound methods: the lattice
        # holds its coding, so those would make a reference cycle
        self._up = lattice._up
        self._down = lattice._down
        self._by_up = lattice._by_up
        self._by_down = lattice._by_down
        self._offset = list(accumulate(map(int.bit_count, self._up), initial=1))
        self.size = self._offset[-1]
        self.tables = ({}, {})  # intersection, hull
        self._ends = {0: (None, None)}
        self._entries = {0: (0, -1, 1 << 2 * len(self._up))}

    @staticmethod
    def of(lattice: FiniteLattice) -> "_IntervalCodes":
        """The lattice's coding, built on first use."""
        codes = lattice._codes
        if codes is None:
            codes = lattice._codes = _IntervalCodes(lattice)
        return codes

    def code(self, lo: int | None, hi: int | None) -> int:
        """The code of ``[lo, hi]``, with ``lo`` ⊑ ``hi``; 0 when ``lo`` is
        None.  The ends are kept, so decoding the code reads them back."""
        if lo is None:
            return 0
        code = self._offset[lo] + (self._up[lo] & ((1 << hi) - 1)).bit_count()
        self._ends[code] = lo, hi
        return code

    def ends(self, code: int) -> tuple[int | None, int | None]:
        """``(lo, hi)`` element indices of the interval coded ``code``,
        ``(None, None)`` for the empty one: ``lo`` by bisection on the
        offsets, ``hi`` the k-th element of ``lo``'s up-set."""
        pair = self._ends.get(code)
        if pair is None:
            lo = bisect_right(self._offset, code) - 1
            up = self._up[lo]
            for _ in range(code - self._offset[lo]):
                up &= up - 1
            pair = self._ends[code] = lo, (up & -up).bit_length() - 1
        return pair

    def fill(self, hull: bool, a: int, b: int) -> tuple[int, int, int]:
        """Fill and return the entry of ``tables[hull]`` for codes a and b.

        The hull ``[a_lo ⊓ b_lo, a_hi ⊔ b_hi]`` is never crossed, and the
        empty interval is its identity; the intersection ``[a_lo ⊔ b_lo,
        a_hi ⊓ b_hi]`` is empty where that is crossed or an operand is."""
        (a_lo, a_hi), (b_lo, b_hi) = self.ends(a), self.ends(b)
        if a_lo is None or b_lo is None:  # the hull is the other interval, the intersection empty
            lo, hi = (a_lo, a_hi) if b_lo is None else (b_lo, b_hi)
            if not hull:
                lo = hi = None
        elif hull:  # a bound is one mask AND and one lookup, as in FiniteLattice.meet_index
            lo = self._by_down[self._down[a_lo] & self._down[b_lo]]
            hi = self._by_up[self._up[a_hi] & self._up[b_hi]]
        else:
            lo = self._by_up[self._up[a_lo] & self._up[b_lo]]
            hi = self._by_down[self._down[a_hi] & self._down[b_hi]]
            if not self._up[lo] >> hi & 1:
                lo = hi = None
        code = self.code(lo, hi)
        entry = self._entries.get(code)
        if entry is None:
            n = len(self._up)
            entry = self._entries[code] = (code, self._down[lo] << n | self._up[hi],
                                           1 << n + lo | 1 << hi)
        self.tables[hull][a * self.size + b] = entry
        return entry
