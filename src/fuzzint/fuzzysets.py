"""Fuzzy sets over a finite lattice: pointwise order, cuts, cut families.

Grades are exact rationals (``fractions.Fraction``) in [0, 1].  A grade
only ever picks a cut, so only the order of the grades matters: a fuzzy set
stores a *grade chain* (a sorted tuple of distinct grades holding 0, 1 and
every grade the set attains) and, per element in the lattice's canonical
order, the *rank* of its grade in that chain.  Sets built together share one
chain object, and their order, meet and join compare ints; sets on different
chains are first put on the union of the two.  ``values``, ``__call__``,
``thresholds`` and every rendered grade map ranks back to the same
``Fraction`` grades, so every cut is still exact.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Mapping

from .errors import InvalidFamily, InvalidGrade
from .lattice import Element, FiniteLattice, _require_same_lattice, format_element, iter_bits

GRADE_ZERO = Fraction(0)
GRADE_ONE = Fraction(1)
_BOUND_IDS = {(0, 1): 0, (1, 1): 1}  # the bounds' (numerator, denominator) pairs
_NUM_DEN = attrgetter("numerator", "denominator")
_GRADE_TYPES = {Fraction, int}  # exactly these; bool and float are refused
# the interpreter's int-to-str limit, which format_grade must meet: 4300 by
# default, and kept at 4300 when the limit is off (or absent, before Python
# 3.10.7) so a huge exponent still fails fast
MAX_GRADE_DIGITS = min(getattr(sys, "get_int_max_str_digits", int)() or 4300, 4300)
_GRADE_BOUND = 10 ** MAX_GRADE_DIGITS  # numerators and denominators stay below it
_TOO_LONG = (f"grade has more than {MAX_GRADE_DIGITS} digits "
             "in its numerator or denominator")
_STRAY_UNDERSCORE = re.compile(r"(?<!\d)_|_(?!\d)")  # one not between two digits


def as_grade(value) -> Fraction:
    """Coerce to an exact grade in [0, 1].

    Accepts Fraction, int, and strings like ``"2/3"`` or ``"0.25"`` (decimal
    strings parse exactly).  Floats are rejected: cut computation relies on
    exact comparisons and a float would smuggle in rounding error.  Booleans
    are rejected too, as by :meth:`FuzzySet.from_values` and the JSON reader.

    A grade must render in lowest terms with at most ``MAX_GRADE_DIGITS``
    digits above and below the bar.  A string whose exponent alone exceeds
    that many is refused before ``Fraction`` computes ten to its power.  A
    ``Fraction`` that passes these checks is returned itself.

    A string may put an underscore only between two digits, as in
    ``"1_0/20"``, which is where ``Fraction`` reads one from Python 3.11
    on.  The underscores are checked and dropped before ``Fraction`` reads
    the string, so every version accepts the same strings; an underscore
    anywhere else is refused.
    """
    if isinstance(value, (bool, float)):
        raise InvalidGrade(f"refusing {type(value).__name__} grade {value!r}; "
                           "pass a Fraction or a string")
    plain, text = False, value
    if isinstance(value, str):
        # plain ASCII "n" or "n/d" skips Fraction's regex; its refusals ("1/0",
        # too many digits for int()) raise inside the try, as the regex's do
        num, bar, den = value.partition("/")
        plain = num.isdigit() and num.isascii() and (not bar or den.isdigit() and den.isascii())
        if not plain:
            sep, exponent = value.lower().rpartition("e")[1:]
            digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
            if sep and digits.isdecimal() and (len(digits) > len(str(MAX_GRADE_DIGITS))
                                               or int(digits) > MAX_GRADE_DIGITS):
                raise InvalidGrade(f"grade {value!r} has an exponent beyond {MAX_GRADE_DIGITS}")
            if "_" in value:
                if _STRAY_UNDERSCORE.search(value):
                    raise InvalidGrade(f"cannot parse grade {value!r}")
                text = value.replace("_", "")
    try:
        grade = (Fraction(int(num), int(den) if bar else 1) if plain
                 else value if type(value) is Fraction else Fraction(text))
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InvalidGrade(f"cannot parse grade {value!r}") from exc
    if abs(grade.numerator) >= _GRADE_BOUND or grade.denominator >= _GRADE_BOUND:
        raise InvalidGrade(_TOO_LONG)
    if not 0 <= grade.numerator <= grade.denominator:
        raise InvalidGrade(f"grade {grade} lies outside [0, 1]")
    return grade


def format_grade(grade: Fraction) -> str:
    """Canonical lowest-terms rendering ("1/2"; integral grades as "0"/"1")."""
    return str(grade)


def _grade_chain(values) -> tuple[tuple, tuple]:
    """``(chain, ranks)`` for grades in element order.

    Values repeat a few objects, so each distinct object is typed, keyed
    and checked once.  Grades are told apart by their ``(numerator,
    denominator)`` int pairs, not by ``Fraction.__hash__``, a Python-level
    modular inverse; ints have the pair too, so 0 and 1 land on the
    ``Fraction`` bounds.  Every other distinct grade must be a ``Fraction``
    strictly between that renders within ``MAX_GRADE_DIGITS``.  A float or
    bool is refused even where it equals a bound.  The chain is sorted on
    the correctly rounded float of each grade, which never reverses the
    exact order; only a float tie compares the ``Fraction``s.
    """
    objects = dict(zip(map(id, values), values))  # id -> object, first seen first
    distinct = list(objects.values())
    if not set(map(type, distinct)) <= _GRADE_TYPES:
        bad = next(v for v in distinct if type(v) not in _GRADE_TYPES)
        raise InvalidGrade(f"grade {bad!r} must be a Fraction in [0, 1]")
    ids = _BOUND_IDS.copy()  # (numerator, denominator) -> grade id, first seen first
    seen = [ids.setdefault(pair, len(ids)) for pair in map(_NUM_DEN, distinct)]
    grades = [GRADE_ZERO, GRADE_ONE]  # by id; a new id's grade is the object that made it
    for v, k in zip(distinct, seen):
        if k == len(grades):
            grades.append(v)
    pairs = list(ids)
    for (num, den), g in zip(pairs[2:], grades[2:]):
        if abs(num) >= _GRADE_BOUND or den >= _GRADE_BOUND:
            raise InvalidGrade(_TOO_LONG)
        if not (isinstance(g, Fraction) and 0 < num < den):
            raise InvalidGrade(f"grade {g!r} must be a Fraction in [0, 1]")
    order = sorted(range(len(grades)), key=[(num / den, g) for (num, den), g
                                            in zip(pairs, grades)].__getitem__)
    rank_of = [0] * len(grades)
    for r, k in enumerate(order):
        rank_of[k] = r
    rank = dict(zip(objects, [rank_of[k] for k in seen]))  # id -> rank
    return tuple([grades[k] for k in order]), tuple(map(rank.__getitem__, map(id, values)))


def _merge_chains(a: tuple, b: tuple) -> tuple[tuple, list, list]:
    """The union of two grade chains, and where each rank of ``a`` and of
    ``b`` lands in it.  Grades are compared by their cross products, exact
    ints, which skips the Python-level ``Fraction.__lt__``."""
    merged: list = []
    pos_a: list = []
    pos_b: list = []
    i = j = 0
    while i < len(a):  # both chains end at grade 1, so they run out together
        x, y = a[i], b[j]
        diff = x.numerator * y.denominator - y.numerator * x.denominator  # sign of x - y
        if diff <= 0:
            pos_a.append(len(merged))
            i += 1
        if diff >= 0:
            pos_b.append(len(merged))
            j += 1
        merged.append(x if diff <= 0 else y)
    return tuple(merged), pos_a, pos_b


class FuzzySet:
    """A total map from lattice elements to grades.

    Stored as ``chain``, a sorted tuple of distinct grades that holds 0, 1
    and every attained grade (it may hold more, e.g. the grade set of a law
    suite), and ``ranks``, one int per element indexing ``chain``.  Grades
    are read back through ``values``.
    """

    __slots__ = ("lattice", "chain", "ranks")

    def __init__(self, lattice: FiniteLattice, membership: Mapping):
        values: list = [None] * len(lattice.elements)
        for element, raw in membership.items():
            values[lattice.index(element)] = as_grade(raw)
        missing = [lattice.elements[i] for i, v in enumerate(values) if v is None]
        if missing:
            shown = ", ".join(format_element(e) for e in missing[:4])
            raise ValueError(f"membership must be total; missing: {shown}")
        self.lattice = lattice
        self.chain, self.ranks = _grade_chain(values)

    @classmethod
    def from_values(cls, lattice: FiniteLattice, values) -> "FuzzySet":
        """The fuzzy set with ``values``, exact grades in canonical element
        order; any iterable, read once."""
        chain, ranks = _grade_chain(tuple(values))
        if len(ranks) != len(lattice.elements):
            raise ValueError(f"{len(ranks)} grades for {len(lattice.elements)} elements")
        return cls._from_ranks(lattice, chain, ranks)

    @classmethod
    def _from_ranks(cls, lattice: FiniteLattice, chain: tuple, ranks: tuple) -> "FuzzySet":
        # trusted: `chain` is a grade chain and `ranks` index it, one per element
        self = object.__new__(cls)
        self.lattice = lattice
        self.chain = chain
        self.ranks = ranks
        return self

    @classmethod
    def constant(cls, lattice: FiniteLattice, grade) -> "FuzzySet":
        return cls.from_values(lattice, (as_grade(grade),) * len(lattice.elements))

    @classmethod
    def characteristic(cls, lattice: FiniteLattice, members: Iterable[Element]) -> "FuzzySet":
        """The {0,1}-valued indicator of a subset."""
        ranks = [0] * len(lattice.elements)
        for element in members:
            ranks[lattice.index(element)] = 1
        return cls._from_ranks(lattice, (GRADE_ZERO, GRADE_ONE), tuple(ranks))

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The grades in canonical element order."""
        chain = self.chain
        return tuple([chain[r] for r in self.ranks])

    def __call__(self, element) -> Fraction:
        return self.chain[self.ranks[self.lattice.index(element)]]

    def membership(self) -> dict:
        return dict(zip(self.lattice.elements, self.values))

    # -- pointwise lattice structure ------------------------------------

    def _aligned(self, other: "FuzzySet") -> tuple:
        """``(lattice, chain, ranks of self, ranks of other)`` on one chain."""
        lat = _require_same_lattice(self.lattice, other.lattice)
        if self.chain is other.chain:
            return lat, self.chain, self.ranks, other.ranks
        chain, pos_a, pos_b = _merge_chains(self.chain, other.chain)
        return (lat, chain, [pos_a[r] for r in self.ranks],
                [pos_b[r] for r in other.ranks])

    def leq(self, other: "FuzzySet") -> bool:
        _, _, a, b = self._aligned(other)
        return all(x <= y for x, y in zip(a, b))

    def meet(self, other: "FuzzySet") -> "FuzzySet":
        lat, chain, a, b = self._aligned(other)
        return FuzzySet._from_ranks(lat, chain, tuple(map(min, a, b)))

    def join(self, other: "FuzzySet") -> "FuzzySet":
        lat, chain, a, b = self._aligned(other)
        return FuzzySet._from_ranks(lat, chain, tuple(map(max, a, b)))

    # -- cuts -------------------------------------------------------------

    def cut_mask(self, p) -> int:
        return self._rank_cut_mask(bisect_left(self.chain, as_grade(p)))

    def _rank_cut_mask(self, rank: int) -> int:
        """Bitmask of the cut at ``chain[rank]``: the elements ranked at least ``rank``."""
        mask = 0
        for i, r in enumerate(self.ranks):
            if r >= rank:
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
        chain = self.chain
        return tuple([chain[r] for r in sorted({0, len(chain) - 1, *self.ranks})])

    def cut_family(self) -> "CutFamily":
        return CutFamily(self.lattice, {p: self.cut(p) for p in self.thresholds()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzySet):
            return NotImplemented
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            return False
        if self.chain is other.chain:
            return self.ranks == other.ranks
        return self.values == other.values

    def __hash__(self) -> int:
        # by grade, not rank, so equal sets on different chains hash alike
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
        acc = m if acc is None else acc.meet(m)
    if acc is None:
        return FuzzySet.constant(lattice, GRADE_ONE)
    return FuzzySet._from_ranks(lattice, acc.chain, acc.ranks)


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
        converted: dict = {}
        for p, members in sets.items():
            grade = as_grade(p)
            if grade in converted:  # e.g. "1/2" and "0.5"
                raise InvalidFamily(f"the family names grade {format_grade(grade)} twice")
            converted[grade] = frozenset(members)
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
