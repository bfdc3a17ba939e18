"""Seeded document corpus for the ``docs`` workload, built without fuzzint.

Six inline lattices that are not fixtures (their names resolve to no
built-in lattice, so every document carries its own lattice object), each
with 16 fuzzy intervals and 8 fuzzy sets that are not fuzzy intervals.
Grades are multiples of 1/120; a fuzzy interval has 3 to 11 grade levels.
The corpus is fixed: the run seed only chooses which requests are made.

``Order`` is the benchmark's own order relation.  It generates the corpus
and gives the checks that do not go through the code under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

CORPUS_SEED = 20021
INTERVALS_PER_LATTICE = 16
OTHERS_PER_LATTICE = 8
DENOMINATOR = 120


class Order:
    """Reflexive-transitive closure of cover pairs, as bitmask rows."""

    def __init__(self, elements, covers):
        self.elements = list(elements)
        index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        self.upper_covers = [[] for _ in range(n)]
        self.lower_covers = [[] for _ in range(n)]
        for lo, hi in covers:
            self.upper_covers[index[lo]].append(index[hi])
            self.lower_covers[index[hi]].append(index[lo])
        up = [1 << i for i in range(n)]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                mask = up[i]
                for j in self.upper_covers[i]:
                    mask |= up[j]
                if mask != up[i]:
                    up[i], changed = mask, True
        self.up = up
        self.down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]

    def _bound(self, mask, rows):
        """The member of the common bounds that bounds all the others."""
        common = -1
        for i in range(len(self.elements)):
            if mask >> i & 1:
                common &= rows[i]
        for i in range(len(self.elements)):
            if common >> i & 1 and common & ~rows[i] == 0:
                return i
        raise ValueError("no unique bound: not a lattice")

    def meet(self, mask: int) -> int:
        return self._bound(mask, self.down)

    def join(self, mask: int) -> int:
        return self._bound(mask, self.up)

    def is_fuzzy_interval(self, values) -> bool:
        """Every cut at an attained grade is the closed interval between its
        own meet and join."""
        for p in set(values):
            cut = sum(1 << i for i, v in enumerate(values) if v >= p)
            if self.up[self.meet(cut)] & self.down[self.join(cut)] != cut:
                return False
        return True


class CorpusLattice:
    def __init__(self, name, elements, covers, rng):
        self.name = name
        self.covers = covers
        self.order = Order(elements, covers)
        self.elements = self.order.elements
        self.intervals = self._distinct(rng, self._random_interval, INTERVALS_PER_LATTICE)
        self.others = self._distinct(rng, self._random_other, OTHERS_PER_LATTICE)

    def document(self) -> dict:
        return {"name": self.name, "elements": list(self.elements),
                "covers": [list(c) for c in self.covers]}

    def fuzzy_document(self, values) -> dict:
        return {"lattice": self.document(),
                "memberships": {e: str(v) for e, v in zip(self.elements, values)}}

    @staticmethod
    def _distinct(rng, make, count):
        seen, out = set(), []
        while len(out) < count:
            values = tuple(make(rng))
            if values not in seen:
                seen.add(values)
                out.append(values)
        return out

    def _shrinking_chain(self, rng):
        """Strictly decreasing intervals from the whole carrier to a point."""
        o = self.order
        everything = (1 << len(self.elements)) - 1
        lo, hi = o.meet(everything), o.join(everything)
        chain = [(lo, hi)]
        while True:
            moves = ([(c, hi) for c in o.upper_covers[lo] if o.up[c] >> hi & 1]
                     + [(lo, d) for d in o.lower_covers[hi] if o.up[lo] >> d & 1])
            if not moves:
                return chain
            lo, hi = rng.choice(moves)
            chain.append((lo, hi))

    def _random_interval(self, rng):
        levels = rng.randint(3, 11)            # grade levels, counting 0
        chain = self._shrinking_chain(rng)[1:]   # below the whole carrier: 0 occurs
        positive = min(levels - 1, len(chain))
        picked = [chain[k] for k in sorted(rng.sample(range(len(chain)), positive))]
        grades = sorted(rng.sample(range(1, DENOMINATOR + 1), positive))
        o = self.order
        values = [Fraction(0)] * len(self.elements)
        for (lo, hi), g in zip(picked, grades):    # nested: the last write wins
            for i in range(len(self.elements)):
                if o.up[lo] >> i & 1 and o.down[hi] >> i & 1:
                    values[i] = Fraction(g, DENOMINATOR)
        if not o.is_fuzzy_interval(values):
            raise AssertionError(f"generated a non-interval over {self.name}")
        return values

    def _random_other(self, rng):
        while True:
            grades = [0] + rng.sample(range(1, DENOMINATOR + 1), rng.randint(2, 5))
            values = [Fraction(rng.choice(grades), DENOMINATOR) for _ in self.elements]
            if not self.order.is_fuzzy_interval(values):
                return values


def _boolean(name, k):
    labels = [format(i, f"0{k}b") for i in range(2 ** k)]
    covers = [(a, a[:p] + "1" + a[p + 1:]) for a in labels for p in range(k) if a[p] == "0"]
    return name, labels, covers


def _product(name, left, right):
    (l_elems, l_covers), (r_elems, r_covers) = left, right
    elems = [x + y for x in l_elems for y in r_elems]
    covers = ([(lo + y, hi + y) for lo, hi in l_covers for y in r_elems]
              + [(x + lo, x + hi) for lo, hi in r_covers for x in l_elems])
    return name, elems, covers


def _chain(n):
    labels = [f"{i:02d}" for i in range(n)]
    return labels, list(zip(labels, labels[1:]))


_M3 = (["0", "a", "b", "c", "1"],
       [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")])
_N5 = (["0", "a", "b", "c", "1"],
       [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])
_BOOLEAN2 = (["00", "01", "10", "11"],
             [("00", "01"), ("00", "10"), ("01", "11"), ("10", "11")])
_CHAIN4 = (["0", "1", "2", "3"], [("0", "1"), ("1", "2"), ("2", "3")])


def build_corpus() -> list[CorpusLattice]:
    rng = random.Random(CORPUS_SEED)
    specs = [_boolean("doc-boolean4", 4), _boolean("doc-boolean5", 5),
             _product("doc-chain4xchain4", _CHAIN4, _CHAIN4),
             _product("doc-m3xchain4", _M3, _CHAIN4),
             _product("doc-n5xboolean2", _N5, _BOOLEAN2),
             ("doc-chain12", *_chain(12))]
    return [CorpusLattice(name, elems, covers, rng) for name, elems, covers in specs]
