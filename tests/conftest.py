import itertools
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from fuzzint import (FiniteLattice, FuzzySet, boolean_lattice, chain, m3, n5, product_lattice,
                     validate_grades)

GRADES3 = (Fraction(0), Fraction(1, 2), Fraction(1))
GRADES2 = (Fraction(0), Fraction(1))
GRADES4 = (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1))


def enumerate_fuzzy_sets(lattice, grades):
    """All |grades|^n grade-valued fuzzy sets (the filter oracle's search space)."""
    chain = validate_grades(grades)
    return [FuzzySet._from_ranks(lattice, chain, ranks)
            for ranks in itertools.product(range(len(chain)), repeat=len(lattice.elements))]


@pytest.fixture(scope="session")
def chain2():
    return chain(2)


@pytest.fixture(scope="session")
def chain3():
    return chain(3)


@pytest.fixture(scope="session")
def chain5():
    return chain(5)


@pytest.fixture(scope="session")
def b2():
    return boolean_lattice(2)


@pytest.fixture(scope="session")
def b3():
    return boolean_lattice(3)


@pytest.fixture(scope="session")
def diamond():
    return m3()


@pytest.fixture(scope="session")
def pentagon():
    return n5()


@pytest.fixture(scope="session")
def prod23():
    return product_lattice(chain(2), chain(3))


@st.composite
def random_lattices(draw):
    """An intersection-closed family of subsets of two to four atoms.

    Returns the family's masks in shuffled order (element ``e<i>`` is
    ``masks[i]``) and its inclusion covers, some redundant transitive ones
    added, in shuffled order.
    """
    k = draw(st.integers(min_value=2, max_value=4))
    full = (1 << k) - 1
    family = {full} | set(draw(st.lists(st.integers(0, full), min_size=2, max_size=8)))
    while True:
        closed = family | {a & b for a in family for b in family}
        if closed == family:
            break
        family = closed
    masks = draw(st.permutations(sorted(family)))

    def inside(a, b):  # a ⊊ b
        return a != b and a & b == a

    below = [(i, j) for i, a in enumerate(masks) for j, b in enumerate(masks) if inside(a, b)]
    hasse = [(i, j) for i, j in below
             if not any(inside(masks[i], c) and inside(c, masks[j]) for c in masks)]
    extra = draw(st.lists(st.sampled_from(below), max_size=3)) if below else []
    covers = draw(st.permutations([(f"e{i}", f"e{j}") for i, j in hasse + extra]))
    return masks, covers


def lattice_of(case):
    """The lattice of a ``random_lattices()`` case, element ``e<i>`` at index i."""
    masks, covers = case
    return FiniteLattice([f"e{i}" for i in range(len(masks))], covers)
