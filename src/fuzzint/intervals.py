"""Crisp closed intervals of a finite lattice.

An interval is either empty or the set {z : lo ⊑ z ⊑ hi} for comparable
bounds.  Construction normalizes crossed bounds to the single empty value,
so structural equality coincides with equality of member sets.  Under
intersection (``&``) and hull (``|``, the smallest interval containing
both operands) the intervals of a lattice form a lattice themselves.
"""

from __future__ import annotations

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
