"""Fuzzy intervals over finite lattices.

Build a finite lattice from cover pairs, decompose fuzzy sets into cuts,
classify them on the sublattice / convex-sublattice / interval ladder,
take meets and joins of fuzzy intervals, and verify the algebraic laws of
the resulting structures exhaustively at small scale.
"""

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
from .laws import (LawCheck, LawReport, check_distributivity, check_lattice_axioms,
                   enumerate_fuzzy_intervals, enumerate_intervals, run_suite,
                   validate_grades)

__version__ = "0.1.0"

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
