"""Exception types shared across the package."""


class FuzzintError(Exception):
    """Base class for all library errors."""


class UnknownElement(FuzzintError):
    """An element id that does not belong to the lattice."""

    def __init__(self, element, lattice_name=""):
        where = f" of lattice {lattice_name!r}" if lattice_name else ""
        super().__init__(f"unknown element {element!r}{where}")
        self.element = element


class CycleError(FuzzintError):
    """The cover relation admits a cycle, so the order is not antisymmetric."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(
            "cover relation contains a cycle: " + " -> ".join(repr(e) for e in self.cycle)
        )


class NotALattice(FuzzintError):
    """Some pair of elements lacks a unique greatest lower / least upper bound."""

    def __init__(self, x, y, kind, candidates=()):
        self.pair = (x, y)
        self.kind = kind  # "meet" or "join"
        self.candidates = tuple(candidates)
        bound = "greatest lower bound" if kind == "meet" else "least upper bound"
        detail = ""
        if self.candidates:
            detail = " (incomparable candidates: " + ", ".join(repr(c) for c in self.candidates) + ")"
        super().__init__(f"elements {x!r} and {y!r} have no unique {bound}{detail}")


class SizeLimit(FuzzintError):
    """A constructed lattice would exceed the element cap."""

    def __init__(self, requested, cap):
        super().__init__(f"lattice with {requested} elements exceeds the cap of {cap}")
        self.requested = requested
        self.cap = cap


class LatticeMismatch(FuzzintError):
    """Operands live over different lattices."""


class EmptyInterval(FuzzintError):
    """The empty interval has no endpoints."""


class InvalidGrade(FuzzintError):
    """A membership grade outside [0, 1] or not exactly representable."""


class InvalidFamily(FuzzintError):
    """A cut family violating antitonicity or the full-set-at-zero condition."""


class NotAFuzzyInterval(FuzzintError):
    """A fuzzy set with at least one cut that is not a closed interval."""


class GradeSetInvalid(FuzzintError):
    """An enumeration grade set that is not a finite chain containing 0 and 1."""


class FormatError(FuzzintError):
    """A malformed lattice or fuzzy-set document."""


class RouteDisagreement(FuzzintError):
    """Independent implementations of one check returned different verdicts.

    ``verdicts`` maps each route's name to its verdict on ``operand``.
    Raised instead of asserting, so the self-check also runs under
    ``python -O``.
    """

    def __init__(self, check, operand, verdicts):
        self.check = check
        self.operand = operand
        self.verdicts = dict(verdicts)
        shown = ", ".join(f"{route}: {verdict}" for route, verdict in self.verdicts.items())
        super().__init__(f"{check} routes disagree on {operand!r} ({shown})")
