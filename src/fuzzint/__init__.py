"""Fuzzy intervals over finite lattices.

Build a finite lattice from cover pairs, decompose fuzzy sets into cuts,
classify them on the sublattice / convex-sublattice / interval ladder,
take meets and joins of fuzzy intervals, and verify the algebraic laws of
the resulting structures exhaustively at small scale.
"""

import importlib

from .errors import (CycleError, EmptyInterval, FormatError, FuzzintError,
                     GradeSetInvalid, InvalidFamily, InvalidGrade, LatticeMismatch,
                     NotAFuzzyInterval, NotALattice, RouteDisagreement, SizeLimit,
                     UnknownElement)
from .lattice import (FiniteLattice, boolean_lattice, chain, is_distributive, m3, n5,
                      product_lattice, standard_lattice)
from .intervals import CrispInterval, intersection_family
from .fuzzysets import (CutFamily, FuzzySet, as_grade, equal_by_cuts, format_grade,
                        from_cut_family)
from .fuzzyintervals import (Classification, EndpointFunctions, FuzzyInterval,
                             classify, is_fuzzy_convex_sublattice, is_fuzzy_interval,
                             is_fuzzy_sublattice)

__version__ = "0.1.0"

# ``import fuzzint`` skips the law checker: it loads on first use of ``laws``
# or of a name in ``__all__`` not bound above (the CLI loads it only for the
# ``laws`` and ``enumerate`` commands; its parser reads the suite names and
# defaults from ``suites``).  A name bound here never reaches ``__getattr__``.


def __getattr__(name: str):
    if name == "laws" or name in __all__:
        laws = importlib.import_module(".laws", __name__)
        return laws if name == "laws" else getattr(laws, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CycleError", "EmptyInterval", "FormatError", "FuzzintError", "GradeSetInvalid",
    "InvalidFamily", "InvalidGrade", "LatticeMismatch", "NotAFuzzyInterval",
    "NotALattice", "RouteDisagreement", "SizeLimit", "UnknownElement",
    "FiniteLattice", "boolean_lattice", "chain", "is_distributive",
    "m3", "n5", "product_lattice", "standard_lattice",
    "CrispInterval", "intersection_family",
    "CutFamily", "FuzzySet", "as_grade", "equal_by_cuts", "format_grade",
    "from_cut_family",
    "Classification", "EndpointFunctions", "FuzzyInterval", "classify",
    "is_fuzzy_convex_sublattice", "is_fuzzy_interval", "is_fuzzy_sublattice",
    "LawCheck", "LawReport", "check_distributivity", "check_lattice_axioms",
    "enumerate_fuzzy_intervals", "enumerate_intervals",
    "run_suite", "validate_grades",
]
