"""Finite bounded lattices built from cover relations.

A lattice is described by its elements and a list of ``(lower, upper)``
cover pairs (Hasse edges; redundant transitive edges are tolerated).  The
partial order is the reflexive-transitive closure of the covers.  Element
subsets are kept as integer bitmasks over the canonical element order, and
each element's up-set and down-set is one such mask.

One iterative depth-first walk over the covers gives the closure: an
element's up-set is written as the walk leaves it, and a cover back to an
element still on the walk's path is a cycle, so the covers do not define
an order (``CycleError``).  The down-sets are pushed along the reverse of
the order in which the walk leaves the elements, a linear extension.

The bounds follow the principal-filter characterisation: ``x ⊔ y`` exists
exactly when the common upper bounds ``↑x ∩ ↑y`` are the up-set of one
element, which then is the join (dually for meets).  Up-sets are distinct,
so a dict from up-set mask to element finds each join in one lookup: a
bound is one mask AND and one lookup, and no n² table is kept.

The constructor checks meets alone.  A finite poset with a top in which
every pair has a meet is a lattice (the join of x and y is the meet of
their common upper bounds, which the top makes non-empty; Davey &
Priestley, *Introduction to Lattices and Order*, 2002, ch. 2), so the
covers give a lattice exactly when the whole carrier is some element's
down-set and each pairwise intersection of down-sets is one.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product as _cartesian, starmap
from operator import and_, itemgetter, ne
from typing import Hashable, Iterable, Iterator

from .errors import (CycleError, LatticeMismatch, NotALattice, RouteDisagreement, SizeLimit,
                     UnknownElement)

Element = Hashable

MAX_ELEMENTS = 4096  # no lattice, fixture or factor may have more elements
MAX_FIXTURE_DEPTH = 64  # product(...) nesting levels a fixture spec may have


def _check_size(count: int) -> None:
    if count > MAX_ELEMENTS:
        raise SizeLimit(count, MAX_ELEMENTS)


def _boolean_size(k: int) -> int:
    """2 ** k, refused before it is computed when k alone exceeds the cap."""
    if k > MAX_ELEMENTS:
        raise SizeLimit(f"2^{k}", MAX_ELEMENTS)
    return 2 ** k


def element_sort_key(element):
    """Stable sort key for the canonical element order; tuples sort after atoms."""
    if isinstance(element, tuple):
        return (1, tuple(element_sort_key(part) for part in element))
    return (0, str(element))


def format_element(element) -> str:
    """Render an element id; product elements become ``(left,right)``."""
    if isinstance(element, tuple):
        return "(" + ",".join(format_element(part) for part in element) + ")"
    return str(element)


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def order_closure(elements: Iterable[Element], covers, *, name: str = ""):
    """``(ordered elements, index, up-masks, down-masks, cover-masks)``: the
    validated elements in canonical order, the reflexive-transitive closure
    of the covers as one up-set and one down-set bitmask each (equal up-sets
    mean the same order), and per element the bitmask of its upper ends
    among the covers.

    The walk starts from each element not yet reached, in canonical order,
    and follows each element's covers in input order.  Leaving element i, it
    sets ``up[i]`` to bit i ORed with the up-sets of i's covers, which are all
    written by then.  The first cover that reaches an element still on the
    path raises ``CycleError``; its witness is that stretch of the path,
    closed at its start.  A self-cover is refused before the walk.

    The walk leaves each element after every element above it, so the
    reverse of its finishing order is a linear extension (Davey & Priestley,
    2002, ch. 2): pushed along it, each down-set is whole before it is ORed
    into the upper ends of its covers.
    """
    elems = list(elements)
    if not elems:
        raise ValueError("a lattice needs at least one element")
    _check_size(len(elems))
    if len(set(elems)) != len(elems):
        raise ValueError("duplicate element ids")
    if set(map(type, elems)) == {str}:  # element_sort_key(e) is (0, e) for each
        ordered = tuple(sorted(elems))
    else:
        ordered = tuple(sorted(elems, key=element_sort_key))
    index = {e: i for i, e in enumerate(ordered)}
    n = len(ordered)

    succ = [[] for _ in range(n)]
    direct = [0] * n  # the same pairs as bitmasks, which drop repeats
    for lo, hi in covers:
        if lo not in index:
            raise UnknownElement(lo, name)
        if hi not in index:
            raise UnknownElement(hi, name)
        i, j = index[lo], index[hi]
        if i == j:
            raise CycleError((lo, hi))
        if not direct[i] >> j & 1:
            direct[i] |= 1 << j
            succ[i].append(j)

    up = [0] * n  # 0 until the walk reaches i, -1 while i is on its path
    finished = []
    for root in range(n):
        if up[root]:
            continue
        up[root] = -1
        path, todo = [root], [iter(succ[root])]
        while path:
            for j in todo[-1]:
                if up[j] < 0:
                    cycle = path[path.index(j):] + [j]
                    raise CycleError(tuple(ordered[k] for k in cycle))
                if not up[j]:
                    up[j] = -1
                    path.append(j)
                    todo.append(iter(succ[j]))
                    break
            else:
                i = path.pop()
                todo.pop()
                mask = 1 << i
                for j in succ[i]:
                    mask |= up[j]
                up[i] = mask
                finished.append(i)
    down = [1 << i for i in range(n)]
    for i in reversed(finished):
        mask = down[i]
        for j in succ[i]:
            down[j] |= mask
    return ordered, index, up, down, direct


class FiniteLattice:
    """A finite lattice kept as one up-set and one down-set mask per
    element, with a dict from each mask back to its element; ``x ⊓ y`` is
    the element whose down-set is ``↓x ∩ ↓y`` (dually ``x ⊔ y``).

    Bottom is the element whose up-set is the whole carrier, top dually.
    Covers of a non-lattice raise ``NotALattice`` for the first pair
    ``i ≤ j`` in canonical order that lacks its meet (checked first) or
    join, naming up to two extremal common bounds as candidates.

    Instances are immutable after construction, but for the Int(L) coding
    that fuzzy intervals fill on first use and the source document the JSON
    reader records, and safe to share.  Equality is structural: same element
    set and same order relation (names are metadata and do not participate).
    """

    __slots__ = ("name", "elements", "_index", "_up", "_down", "_succ", "_by_up", "_by_down",
                 "_bottom", "_top", "_all_mask", "_codes", "_source")

    def __init__(self, elements: Iterable[Element], covers, *, name: str = ""):
        ordered, index, up, down, succ = order_closure(elements, covers, name=name)
        n = len(ordered)
        self.name = name
        self.elements = ordered
        self._index = index
        self._up = up
        self._down = down
        self._succ = succ  # the input cover pairs as bitmasks; covers() keeps the Hasse edges
        self._all_mask = all_mask = (1 << n) - 1
        self._codes = None  # Int(L)'s coding, built on first use (intervals._IntervalCodes)
        self._source = None  # the lattice document it was read from (formats.lattice_from_json)
        self._by_up = by_up = {mask: b for b, mask in enumerate(up)}
        self._by_down = by_down = {mask: b for b, mask in enumerate(down)}

        # a top and every pairwise meet make a lattice (module docstring)
        meets = starmap(and_, combinations(down, 2))  # ↓x ∩ ↓y for each pair x < y
        if all_mask not in by_down or not all(map(by_down.__contains__, meets)):
            raise self._missing_bound()
        # with every pairwise meet, the meet of all elements exists
        self._bottom = by_up[all_mask]
        self._top = by_down[all_mask]

    def _missing_bound(self) -> NotALattice:
        # the first pair i ≤ j in canonical order missing its meet (then its
        # join), tested pair by pair; the candidates are its first two
        # extremal common bounds
        n, up, down = len(self.elements), self._up, self._down
        for i, j in combinations_with_replacement(range(n), 2):
            for kind, by_mask, common, toward in (("meet", self._by_down, down[i] & down[j], up),
                                                  ("join", self._by_up, up[i] & up[j], down)):
                if common not in by_mask:
                    extremal = [b for b in iter_bits(common) if toward[b] & common == 1 << b]
                    cands = tuple(self.elements[b] for b in extremal[:2])
                    return NotALattice(self.elements[i], self.elements[j], kind, cands)

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, element) -> bool:
        return element in self._index

    def index(self, element) -> int:
        try:
            return self._index[element]
        except (KeyError, TypeError):
            raise UnknownElement(element, self.name) from None

    @property
    def bottom(self) -> Element:
        return self.elements[self._bottom]

    @property
    def top(self) -> Element:
        return self.elements[self._top]

    def leq(self, x, y) -> bool:
        """x ⊑ y."""
        return self._up[self.index(x)] >> self.index(y) & 1 == 1

    def meet(self, x, y) -> Element:
        return self.elements[self.meet_index(self.index(x), self.index(y))]

    def join(self, x, y) -> Element:
        return self.elements[self.join_index(self.index(x), self.index(y))]

    def meet_set(self, items: Iterable[Element]) -> Element:
        """Greatest lower bound of a finite family; the empty family gives top."""
        return self.elements[self.meet_indices(self.index(x) for x in items)]

    def join_set(self, items: Iterable[Element]) -> Element:
        """Least upper bound of a finite family; the empty family gives bottom."""
        return self.elements[self.join_indices(self.index(x) for x in items)]

    def between(self, lo, hi) -> tuple:
        """{z : lo ⊑ z ⊑ hi} in canonical order (empty when the bounds cross)."""
        mask = self.between_mask(self.index(lo), self.index(hi))
        return tuple(self.elements[b] for b in iter_bits(mask))

    def covers(self) -> tuple[tuple[Element, Element], ...]:
        """The Hasse edges of the order, in canonical order.

        Every Hasse edge is an input cover pair, since a longer path of input
        pairs would pass an element strictly between its ends.  So only the
        input pairs are tested, and those with nothing strictly between are
        kept.  The bits of each pair mask are walked in place, lowest first.
        """
        up, down, e = self._up, self._down, self.elements
        edges = []
        for i, succ in enumerate(self._succ):
            above = up[i]
            while succ:
                bit = succ & -succ
                j = bit.bit_length() - 1
                if above & down[j] == 1 << i | bit:
                    edges.append((e[i], e[j]))
                succ ^= bit
        return tuple(edges)

    # -- index-level access (hot paths in sibling modules) --------------

    def leq_index(self, i: int, j: int) -> bool:
        return self._up[i] >> j & 1 == 1

    def meet_index(self, i: int, j: int) -> int:
        return self._by_down[self._down[i] & self._down[j]]

    def join_index(self, i: int, j: int) -> int:
        return self._by_up[self._up[i] & self._up[j]]

    def meet_indices(self, indices: Iterable[int]) -> int:
        down, mask = self._down, self._all_mask
        for i in indices:
            mask &= down[i]
        return self._by_down[mask]

    def join_indices(self, indices: Iterable[int]) -> int:
        up, mask = self._up, self._all_mask
        for i in indices:
            mask &= up[i]
        return self._by_up[mask]

    @property
    def all_mask(self) -> int:
        return self._all_mask

    def between_mask(self, lo_i: int, hi_i: int) -> int:
        return self._up[lo_i] & self._down[hi_i]

    # -- identity --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __hash__(self) -> int:
        return hash((self.elements, tuple(self._up)))

    def __repr__(self) -> str:
        label = self.name or "lattice"
        return f"<FiniteLattice {label}: {len(self.elements)} elements>"


def _require_same_lattice(a: FiniteLattice, b: FiniteLattice) -> FiniteLattice:
    if a is not b and a != b:
        raise LatticeMismatch(f"operands live over different lattices ({a!r} vs {b!r})")
    return a


def is_distributive(lattice: FiniteLattice):
    """Decide x ⊓ (y ⊔ z) = (x ⊓ y) ⊔ (x ⊓ z) for all x, y, z.

    Returns ``(True, None)`` or ``(False, (x, y, z))`` with the first failing
    triple in canonical element order.  On a finite lattice this binary law
    is equivalent to its complete (arbitrary-family) form.

    The verdict comes from Birkhoff's representation theorem (Davey &
    Priestley, *Introduction to Lattices and Order*, 2002, ch. 5): a finite
    lattice is distributive exactly when each join-irreducible j is
    join-prime, that is, j ⊑ x ⊔ y implies j ⊑ x or j ⊑ y.  (Then x ↦ J(x),
    the join-irreducibles below x, is injective and sends joins to unions
    and meets to intersections.)  Join-prime says that the elements not
    above j are closed under joins; being a down-set, they are then the
    down-set of their join, and only then.  So each j costs one mask
    complement and one lookup, O(n) in all.  Only a "no" searches for the
    witness triple, row by row: O(n²·|J|) for J the join-irreducibles, and
    never on a distributive lattice.  If the search finds no triple after a
    "no", the two routes disagree: ``RouteDisagreement``.
    """
    up, by_down, all_mask = lattice._up, lattice._by_down, lattice._all_mask
    for j, mask in enumerate(lattice._down):
        # j is join-irreducible when ↓j∖{j} is principal; for ⊥ that set is empty
        if mask ^ 1 << j in by_down and all_mask & ~up[j] not in by_down:
            witness = _first_failing_triple(lattice)
            if witness is None:
                raise RouteDisagreement("distributivity", lattice,
                                        {"join-irreducibles": False, "triples": True})
            return False, witness
    return True, None


def _first_failing_triple(lattice: FiniteLattice):
    """The first (x, y, z) in canonical order with x ⊓ (y ⊔ z) ≠ (x ⊓ y) ⊔ (x ⊓ z).

    Each z is the join of the join-irreducibles below it, so row x holds a
    failing triple exactly when y ↦ x ⊓ y breaks some join y ⊔ j with j
    join-irreducible (if it keeps them all, it keeps y ⊔ j₁ ⊔ … ⊔ jₖ by
    induction on k).  The rows are tested on those j alone, O(n²·|J|), and
    only the first failing row is scanned over every y, O(n²), keeping no
    join row beyond those the tests built.
    """
    up, down, by_up, by_down = lattice._up, lattice._down, lattice._by_up, lattice._by_down
    rows: dict = {}  # a -> the join row a ⊔ k for each k, built for the row tests

    def join_row(a):
        return rows.get(a) or [by_up[up[a] & uk] for uk in up]

    # itemgetter(*r)(other) is the tuple of other[k] for k in r
    through_join = [(j, itemgetter(*join_row(j)))
                    for j, dj in enumerate(down) if dj ^ 1 << j in by_down]  # j ∈ J
    for i, di in enumerate(down):
        meet_i = [by_down[di & dk] for dk in down]  # i ⊓ k for each k
        through_meet_i = itemgetter(*meet_i)
        for j, through_join_j in through_join:
            if meet_i[j] not in rows:
                rows[meet_i[j]] = join_row(meet_i[j])
            # i ⊓ (j ⊔ k) against (i ⊓ j) ⊔ (i ⊓ k), for each k
            if through_join_j(meet_i) != through_meet_i(rows[meet_i[j]]):
                break
        else:
            continue
        for y in range(len(down)):  # the first failing row, over every y
            left = itemgetter(*join_row(y))(meet_i)
            right = through_meet_i(join_row(meet_i[y]))
            if left != right:
                e = lattice.elements
                return e[i], e[y], e[list(map(ne, left, right)).index(True)]
        return None  # the row tests and the scan disagree
    return None


# -- standard fixtures ----------------------------------------------------


def chain(n: int) -> FiniteLattice:
    """The n-element total order 0 < 1 < ... < n-1."""
    if n < 1:
        raise ValueError("a chain needs at least one element")
    _check_size(n)
    width = len(str(n - 1))
    labels = [str(i) if n <= 10 else str(i).zfill(width) for i in range(n)]
    return FiniteLattice(labels, list(zip(labels, labels[1:])), name=f"chain{n}")


def boolean_lattice(k: int) -> FiniteLattice:
    """The powerset of k atoms, elements rendered as k-bit strings."""
    if k < 0:
        raise ValueError("the atom count cannot be negative")
    _check_size(_boolean_size(k))
    labels = ["".join(bits) for bits in _cartesian("01", repeat=k)]
    covers = []
    for label in labels:
        for pos, ch in enumerate(label):
            if ch == "0":
                covers.append((label, label[:pos] + "1" + label[pos + 1:]))
    return FiniteLattice(labels, covers, name=f"boolean{k}")


def m3() -> FiniteLattice:
    """The diamond: three incomparable atoms between 0 and 1 (not distributive)."""
    covers = [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")]
    return FiniteLattice(["0", "a", "b", "c", "1"], covers, name="m3")


def n5() -> FiniteLattice:
    """The pentagon: 0 < a < c < 1 and 0 < b < 1, b incomparable to a and c."""
    covers = [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")]
    return FiniteLattice(["0", "a", "b", "c", "1"], covers, name="n5")


def product_lattice(left: FiniteLattice, right: FiniteLattice) -> FiniteLattice:
    """Componentwise-ordered pairs of the two factors."""
    _check_size(len(left.elements) * len(right.elements))
    elems = [(x, y) for x in left.elements for y in right.elements]
    covers = [((lo, y), (hi, y)) for lo, hi in left.covers() for y in right.elements]
    covers += [((x, lo), (x, hi)) for lo, hi in right.covers() for x in left.elements]
    return FiniteLattice(elems, covers, name=f"product({left.name},{right.name})")


def standard_lattice(spec: str) -> FiniteLattice:
    """Build a fixture lattice from a name.

    Accepted forms: ``chain4`` / ``chain(4)``, ``boolean3`` / ``boolean(3)``,
    ``m3``, ``n5``, and ``product(a,b)`` with recursive arguments.  Sizes
    come from the spec, so an oversized one raises ``SizeLimit`` before any
    factor is built, and one nested more than ``MAX_FIXTURE_DEPTH`` levels
    deep raises ``ValueError``.
    """
    return _fixture(spec)[1]()


def _fixture(spec: str):
    """``(element count, builder)`` for a fixture name, building nothing;
    raises as :func:`standard_lattice` does for a spec it refuses."""
    parsed = _parse_fixture(spec.replace(" ", "").lower())
    if parsed is None:
        raise ValueError(f"unknown lattice fixture {spec!r}")
    return parsed


def _parse_fixture(text: str, level: int = 0):
    """``(element count, builder)`` for a fixture spec, or None if unknown.

    Each node's count is checked against the cap as it is parsed, left
    factor first, in the order the builders would check it; a size with
    more digits than the cap is refused before it is converted.
    """
    if level > MAX_FIXTURE_DEPTH:
        raise ValueError(f"lattice fixture nests product(...) more than "
                         f"{MAX_FIXTURE_DEPTH} levels deep")
    if text in ("m3", "n5"):
        return 5, m3 if text == "m3" else n5
    for prefix, factory in (("chain", chain), ("boolean", boolean_lattice)):
        arg = None
        if text.startswith(prefix + "(") and text.endswith(")"):
            arg = text[len(prefix) + 1:-1]
        elif text.startswith(prefix):
            arg = text[len(prefix):]
        if arg is not None and arg.isascii() and arg.isdigit():
            digits = arg.lstrip("0") or "0"
            if len(digits) > len(str(MAX_ELEMENTS)):
                raise SizeLimit(digits if factory is chain else f"2^{digits}", MAX_ELEMENTS)
            k = int(digits)
            count = k if factory is chain else _boolean_size(k)
            _check_size(count)
            return count, lambda: factory(k)
    if text.startswith("product(") and text.endswith(")"):
        inner = text[len("product("):-1]
        depth = 0
        for pos, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                left = _parse_fixture(inner[:pos], level + 1)
                right = _parse_fixture(inner[pos + 1:], level + 1)
                if left is None or right is None:
                    return None
                count = left[0] * right[0]
                _check_size(count)
                return count, lambda: product_lattice(left[1](), right[1]())
    return None
