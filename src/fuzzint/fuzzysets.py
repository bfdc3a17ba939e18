"""Fuzzy sets over a finite lattice: pointwise order, cuts, cut families.

Grades are exact rationals (``fractions.Fraction``) in [0, 1]; only
comparisons and min/max are ever applied to them, so every cut is computed
without rounding.  A fuzzy set is a total map from lattice elements to
grades, stored as a grade tuple in the lattice's canonical element order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InvalidFamily, InvalidGrade
from .lattice import Element, FiniteLattice, _require_same_lattice, format_element, iter_bits

GRADE_ZERO = Fraction(0)
GRADE_ONE = Fraction(1)


def as_grade(value) -> Fraction:
    """Coerce to an exact grade in [0, 1].

    Accepts Fraction, int, and strings like ``"2/3"`` or ``"0.25"`` (decimal
    strings parse exactly).  Floats are rejected: cut computation relies on
    exact comparisons and a float would smuggle in rounding error.
    """
    if isinstance(value, float):
        raise InvalidGrade(f"refusing float grade {value!r}; pass a Fraction or a string")
    try:
        grade = Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InvalidGrade(f"cannot parse grade {value!r}") from exc
    if not GRADE_ZERO <= grade <= GRADE_ONE:
        raise InvalidGrade(f"grade {grade} lies outside [0, 1]")
    return grade


def format_grade(grade: Fraction) -> str:
    """Canonical lowest-terms rendering ("1/2"; integral grades as "0"/"1")."""
    return str(grade)


class FuzzySet:
    """A total map from lattice elements to grades."""

    __slots__ = ("lattice", "values")

    def __init__(self, lattice: FiniteLattice, membership: Mapping):
        values: list = [None] * len(lattice.elements)
        for element, raw in membership.items():
            values[lattice.index(element)] = as_grade(raw)
        missing = [lattice.elements[i] for i, v in enumerate(values) if v is None]
        if missing:
            shown = ", ".join(format_element(e) for e in missing[:4])
            raise ValueError(f"membership must be total; missing: {shown}")
        self.lattice = lattice
        self.values = tuple(values)

    @classmethod
    def from_values(cls, lattice: FiniteLattice, values) -> "FuzzySet":
        # trusted fast path: `values` are grades in canonical element order
        self = object.__new__(cls)
        self.lattice = lattice
        self.values = tuple(values)
        return self

    @classmethod
    def constant(cls, lattice: FiniteLattice, grade) -> "FuzzySet":
        return cls.from_values(lattice, (as_grade(grade),) * len(lattice.elements))

    @classmethod
    def characteristic(cls, lattice: FiniteLattice, members: Iterable[Element]) -> "FuzzySet":
        """The {0,1}-valued indicator of a subset."""
        values = [GRADE_ZERO] * len(lattice.elements)
        for element in members:
            values[lattice.index(element)] = GRADE_ONE
        return cls.from_values(lattice, values)

    def __call__(self, element) -> Fraction:
        return self.values[self.lattice.index(element)]

    def membership(self) -> dict:
        return dict(zip(self.lattice.elements, self.values))

    # -- pointwise lattice structure ------------------------------------

    def leq(self, other: "FuzzySet") -> bool:
        _require_same_lattice(self.lattice, other.lattice)
        return all(a <= b for a, b in zip(self.values, other.values))

    def meet(self, other: "FuzzySet") -> "FuzzySet":
        lat = _require_same_lattice(self.lattice, other.lattice)
        return FuzzySet.from_values(lat, tuple(map(min, self.values, other.values)))

    def join(self, other: "FuzzySet") -> "FuzzySet":
        lat = _require_same_lattice(self.lattice, other.lattice)
        return FuzzySet.from_values(lat, tuple(map(max, self.values, other.values)))

    # -- cuts -------------------------------------------------------------

    def cut_mask(self, p) -> int:
        p = as_grade(p)
        mask = 0
        for i, v in enumerate(self.values):
            if v >= p:
                mask |= 1 << i
        return mask

    def cut(self, p) -> frozenset:
        """{x : M(x) ≥ p}; any p strictly between attained values gives the
        same cut as the least attained value above it."""
        elements = self.lattice.elements
        return frozenset(elements[b] for b in iter_bits(self.cut_mask(p)))

    def thresholds(self) -> tuple[Fraction, ...]:
        """Attained grades together with 0 and 1, ascending — the only
        grades at which the cut can change."""
        return tuple(sorted({GRADE_ZERO, GRADE_ONE, *self.values}))

    def cut_family(self) -> "CutFamily":
        return CutFamily(self.lattice, {p: self.cut(p) for p in self.thresholds()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzySet):
            return NotImplemented
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            return False
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        body = ", ".join(f"{format_element(e)}: {format_grade(v)}"
                         for e, v in zip(self.lattice.elements, self.values))
        return "{" + body + "}"


def meet_family(lattice: FiniteLattice, sets: Iterable[FuzzySet]) -> FuzzySet:
    """Pointwise infimum; the empty family yields the constant-1 set."""
    acc = None
    for m in sets:
        _require_same_lattice(lattice, m.lattice)
        acc = m.values if acc is None else tuple(map(min, acc, m.values))
    if acc is None:
        acc = (GRADE_ONE,) * len(lattice.elements)
    return FuzzySet.from_values(lattice, acc)


def join_family(lattice: FiniteLattice, sets: Iterable[FuzzySet]) -> FuzzySet:
    """Pointwise supremum; the empty family yields the constant-0 set."""
    acc = None
    for m in sets:
        _require_same_lattice(lattice, m.lattice)
        acc = m.values if acc is None else tuple(map(max, acc, m.values))
    if acc is None:
        acc = (GRADE_ZERO,) * len(lattice.elements)
    return FuzzySet.from_values(lattice, acc)


def equal_by_cuts(m: FuzzySet, n: FuzzySet) -> bool:
    """Equality decided purely on cuts at the union of both threshold sets.

    An independent route to pointwise equality — kept separate so the two
    can be checked against each other.
    """
    _require_same_lattice(m.lattice, n.lattice)
    for p in sorted({*m.thresholds(), *n.thresholds()}):
        if m.cut_mask(p) != n.cut_mask(p):
            return False
    return True


class CutFamily:
    """A grade-indexed family of element sets, meant to be antitone.

    The record itself is plain data; :meth:`validate` (called by
    :func:`from_cut_family`) enforces the reconstruction preconditions and
    raises :class:`InvalidFamily` with the violated condition.
    """

    __slots__ = ("lattice", "thresholds", "sets")

    def __init__(self, lattice: FiniteLattice, sets: Mapping):
        converted = {as_grade(p): frozenset(members) for p, members in sets.items()}
        self.lattice = lattice
        self.thresholds = tuple(sorted(converted))
        self.sets = converted

    def validate(self) -> None:
        if not self.thresholds or self.thresholds[0] != GRADE_ZERO:
            raise InvalidFamily("the family must include threshold 0")
        universe = frozenset(self.lattice.elements)
        for p, members in self.sets.items():
            stray = members - universe
            if stray:
                raise InvalidFamily(f"set at {format_grade(p)} contains non-elements: {sorted(map(str, stray))}")
        if self.sets[GRADE_ZERO] != universe:
            raise InvalidFamily("the set at threshold 0 must be the whole carrier")
        # antitone on consecutive thresholds — transitivity gives the rest
        for lo, hi in zip(self.thresholds, self.thresholds[1:]):
            if not self.sets[hi] <= self.sets[lo]:
                raise InvalidFamily(
                    f"family is not antitone: set at {format_grade(hi)} is not "
                    f"contained in set at {format_grade(lo)}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CutFamily):
            return NotImplemented
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            return False
        return self.thresholds == other.thresholds and self.sets == other.sets

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{format_grade(p)}: {{{', '.join(sorted(format_element(e) for e in self.sets[p]))}}}"
            for p in self.thresholds)
        return f"CutFamily({parts})"


def from_cut_family(family: CutFamily) -> FuzzySet:
    """Reconstruct the fuzzy set M(x) = max{p : x ∈ sets(p)}.

    The result's cut at every family threshold equals the family's set
    there, and composing with :meth:`FuzzySet.cut_family` is the identity
    on families whose thresholds are all attained.
    """
    family.validate()
    lattice = family.lattice
    values = [GRADE_ZERO] * len(lattice.elements)
    for p in family.thresholds:  # ascending, so the final write wins
        for element in family.sets[p]:
            values[lattice.index(element)] = p
    return FuzzySet.from_values(lattice, values)
