"""A literal reference for the law reports: every law of every suite
computed from its definition, over public objects only.

``reports(suite, lattice, grades, budget, seed)`` gives the JSON that
``[r.as_json() for r in run_suite(suite, lattice, grades, budget=budget,
seed=seed)]`` must give.  The ops under test are the public
``FuzzyInterval.join``/``.meet`` and ``CrispInterval.hull``/``.intersection``,
read when ``reports`` is called, so a monkeypatched fault reaches both
sides.  Everything else comes from its definition:

- a law is a scan of its planned tuples in order, up to the first that
  fails: every tuple, lexicographically, while ``count ** arity`` fits the
  budget, else ``min(budget, SAMPLE_SIZE)`` tuples of per-coordinate
  ``random.Random(seed).randrange`` draws, one draw per (count, arity)
  space;
- op results are interned by ``==`` (a dict lookup), so a result is
  outside the collection when it equals no member;
- the order is pointwise ``<=`` on ``values``, or ``issubset``;
- the join oracle is the meet-fold of the common upper bounds;
- cuts come from ``cut_interval`` and ``fuzzy.cut_mask``;
- the endpoint and cut-family laws fold over each of the 2^k - 1 nonempty
  sets of thresholds, by size and then lexicographically.

The suite parts take their inputs as arguments, so a test can hand them
any collection and ops (:func:`axioms`, :func:`distributivity`), corrupted
crisp ops (:func:`cut_identities`) or items with planted cut ends
(:func:`endpoint_lemmas`).  Nothing here imports a ``_``-prefixed name of
``fuzzint``.
"""

import functools
import itertools
import operator
import random
from fractions import Fraction

from fuzzint import (CrispInterval, FuzzyInterval, LawCheck, LawReport,
                     enumerate_fuzzy_intervals, enumerate_intervals, format_grade,
                     validate_grades)
from fuzzint.laws import DEFAULT_BUDGET, DEFAULT_SEED, SAMPLE_SIZE, SUITES, render_operand


def planner(budget=DEFAULT_BUDGET, seed=DEFAULT_SEED):
    """``plan(count, arity)`` -> (tuples, mode), as the module docstring says."""
    draws = min(budget, SAMPLE_SIZE)

    @functools.cache
    def sample(count, arity):
        rng = random.Random(seed)
        return [tuple(rng.randrange(count) for _ in range(arity)) for _ in range(draws)]

    def plan(count, arity):
        total = count ** arity
        if total <= budget:
            return itertools.product(range(count), repeat=arity), "exhaustive"
        return sample(count, arity), f"sampled({draws} of {total}, seed={seed})"
    return plan


def witness(items, tup, detail=""):
    out = {"indices": list(tup), "operands": [render_operand(items[i]) for i in tup]}
    if detail:
        out["detail"] = detail
    return out


def scan(law, items, arity, probe, plan, asserted=True, note=""):
    """The check of ``law``: ``probe`` returns None for a pass and a detail,
    maybe "", for a fail."""
    tuples, mode = plan(len(items), arity)
    checked = 0
    for checked, tup in enumerate(tuples, 1):
        detail = probe(*tup)
        if detail is not None:
            return LawCheck(law, "fail", checked, witness(items, tup, detail), asserted, note,
                            mode)
    return LawCheck(law, "pass", checked, None, asserted, note, mode)


def ok(holds):
    return None if holds else ""


class Ops:
    """``join(i, j)`` and ``meet(i, j)`` over indices into ``pool``: the
    items, then each result equal to none of them, in order of first
    appearance.  A result gets the index of the pool member it equals."""

    def __init__(self, items, join, meet):
        self.items, self.pool, self.n = items, list(items), len(items)
        self.index = {x: i for i, x in enumerate(items)}
        self.join = functools.cache(lambda i, j: self.intern(join(self.pool[i], self.pool[j])))
        self.meet = functools.cache(lambda i, j: self.intern(meet(self.pool[i], self.pool[j])))

    def intern(self, value):
        k = self.index.get(value)
        if k is None:
            k = self.index[value] = len(self.pool)
            self.pool.append(value)
        return k

    def closure(self, law, op):
        """The first pair, row by row, whose result lies outside the items."""
        n = self.n
        tup = next(((i, j) for i in range(n) for j in range(n) if op(i, j) >= n), None)
        return LawCheck(law, "pass" if tup is None else "fail", n * n,
                        tup and witness(self.items, tup))


def axioms(items, join, meet, leq, plan):
    """The checks of ``check_lattice_axioms`` over ``items``, their ops and
    the order ``leq``."""
    ops = Ops(items, join, meet)
    J, M, n = ops.join, ops.meet, ops.n
    up = [{j for j in range(n) if leq(items[i], items[j])} for i in range(n)]
    down = [{j for j in range(n) if i in up[j]} for i in range(n)]

    def nearest(op, bounds, name, bound, nearer):
        """The result is among the common bounds, and nearer than each."""
        def probe(i, j):
            common, k = bounds[i] & bounds[j], op(i, j)
            if k not in common:
                return f"{name} is not a common {bound}"
            return None if common <= bounds[k] else f"a {nearer} common {bound} exists"
        return probe

    def oracle(i, j):
        common = sorted(up[i] & up[j])
        if not common:
            return "no common upper bound in the collection"
        acc = common[0]
        for c in common[1:]:
            acc = M(acc, c)
            if acc >= n:
                return "meet-fold left the collection"
        return None if acc == J(i, j) else "fold of upper bounds differs from join"

    laws = [
        ("commutativity-join", 2, lambda i, j: ok(J(i, j) == J(j, i))),
        ("commutativity-meet", 2, lambda i, j: ok(M(i, j) == M(j, i))),
        ("idempotence-join", 1, lambda i: ok(J(i, i) == i)),
        ("idempotence-meet", 1, lambda i: ok(M(i, i) == i)),
        ("associativity-join", 3, lambda i, j, k: ok(J(i, J(j, k)) == J(J(i, j), k))),
        ("associativity-meet", 3, lambda i, j, k: ok(M(i, M(j, k)) == M(M(i, j), k))),
        ("absorption-meet-join", 2, lambda i, j: ok(M(i, J(i, j)) == i)),
        ("absorption-join-meet", 2, lambda i, j: ok(J(i, M(i, j)) == i)),
        ("order-consistency", 2,
         lambda i, j: ok((j in up[i]) == (M(i, j) == i) == (J(i, j) == j))),
        ("join-least-upper-bound", 2, nearest(J, up, "join", "upper bound", "smaller")),
        ("meet-greatest-lower-bound", 2, nearest(M, down, "meet", "lower bound", "greater")),
        ("join-definitional-oracle", 2, oracle),
    ]
    return [ops.closure("closure-join", J), ops.closure("closure-meet", M)] + [
        scan(law, items, arity, probe, plan) for law, arity, probe in laws]


def distributivity(items, join, meet, plan, asserted=True):
    """The checks of ``check_distributivity``; with ``asserted`` False, those
    ``run_suite`` records over a carrier that is not distributive."""
    ops = Ops(items, join, meet)
    J, M = ops.join, ops.meet
    note = "" if asserted else ("hypothesis not met (reference lattice not distributive); "
                                "finding only")
    return [scan("meet-over-join", items, 3,
                 lambda i, j, k: ok(M(i, J(j, k)) == J(M(i, j), M(i, k))), plan, asserted, note),
            scan("join-over-meet", items, 3,
                 lambda i, j, k: ok(J(i, M(j, k)) == M(J(i, j), J(i, k))), plan, asserted, note)]


def first_failing_set(family, op):
    """Detail of the first nonempty set P of the grades of ``family``, a
    list of (grade, value) pairs ascending by grade, by size and then
    lexicographically, whose fold by ``op`` differs from the value at max P."""
    for size in range(1, len(family) + 1):
        for subset in itertools.combinations(family, size):
            if functools.reduce(op, [v for _, v in subset]) != subset[-1][1]:
                return "P = {" + ", ".join(format_grade(p) for p, _ in subset) + "}"
    return None


class Cuts:
    """The thresholds and cuts of ``fis`` by position: ``grades`` holds every
    threshold of every item, ascending, and ``position`` the index of each
    there; ``levels[i]`` the positions of item i's own thresholds; and
    ``cuts[i][r]`` the index in ``intervals`` of its ``cut_interval`` at
    ``grades[r]``."""

    def __init__(self, fis):
        self.grades = sorted({p for fi in fis for p in fi.thresholds()})
        self.position = {p: r for r, p in enumerate(self.grades)}
        self.levels = [[self.position[p] for p in fi.thresholds()] for fi in fis]
        index = {}
        self.cuts = [[index.setdefault(fi.cut_interval(p), len(index)) for p in self.grades]
                     for fi in fis]
        self.intervals = list(index)


def cut_identities(lattice, fis, join, meet, hull, intersection, plan):
    """The cut-identity checks: per pair, the cut of ``join``/``meet`` of two
    fuzzy intervals against ``hull``/``intersection`` of their cuts, and
    the family of those crisp results over the pair's thresholds."""
    ops, table = Ops(fis, join, meet), Cuts(fis)
    grades, levels, cuts = table.grades, table.levels, table.cuts

    @functools.cache
    def crisp(op, a, b):
        """The members mask of ``op`` of the cuts at indices a and b."""
        return op(table.intervals[a], table.intervals[b]).members_mask()

    @functools.cache
    def pointwise(k):
        """The thresholds' positions and the ``fuzzy.cut_mask`` at each grade
        of pool member k, the member a result equals."""
        fi = ops.pool[k]
        return ([table.position[p] for p in fi.thresholds()],
                [fi.fuzzy.cut_mask(p) for p in grades])

    def family(op, i, j):
        """(grade, members mask of ``op`` of the cuts) at the pair's thresholds."""
        return [(grades[r], crisp(op, cuts[i][r], cuts[j][r]))
                for r in sorted({*levels[i], *levels[j]})]

    def identity(fi_op, op):
        def probe(i, j):
            result_levels, masks = pointwise(fi_op(i, j))
            for r in sorted({*levels[i], *levels[j], *result_levels}):
                if masks[r] != crisp(op, cuts[i][r], cuts[j][r]):
                    return f"threshold {format_grade(grades[r])}"
            return None
        return probe

    def antitone(op):
        def probe(i, j):
            masks = [mask for _, mask in family(op, i, j)]
            return None if all(not higher & ~lower for lower, higher
                               in itertools.combinations(masks, 2)) \
                else "family grows with the threshold"
        return probe

    checks = [scan("meet-cut-identity", fis, 2, identity(ops.meet, intersection), plan),
              scan("join-cut-identity", fis, 2, identity(ops.join, hull), plan)]
    for name, op in (("meet", intersection), ("join", hull)):
        checks += [
            scan(f"{name}-cut-family-antitone", fis, 2, antitone(op), plan),
            scan(f"{name}-cut-family-at-zero", fis, 2,
                 lambda i, j: ok(crisp(op, cuts[i][0], cuts[j][0]) == lattice.all_mask), plan),
            scan(f"{name}-cut-family-intersection", fis, 2,
                 lambda i, j: first_failing_set(family(op, i, j), operator.and_), plan)]
    return checks


def endpoint_lemmas(lattice, fis, plan, asserted=True):
    """The endpoint checks: per item, and per pair under the carrier's meet
    (lower) or join (upper), the ends at the thresholds fold over every P
    to the end at max P.  The ends are read from ``cut_interval``; an empty
    cut ends at (top, bottom), the meet and the join of no members."""
    note = "" if asserted else ("reference lattice is not distributive: hypothesis not met, "
                                "lemma not asserted")
    table = Cuts(fis)
    grades, levels = table.grades, table.levels
    ends = [[(lattice.top, lattice.bottom) if table.intervals[c].is_empty
             else (table.intervals[c].lo, table.intervals[c].hi) for c in row]
            for row in table.cuts]

    def single(side, op):
        return lambda i: first_failing_set([(grades[r], ends[i][r][side]) for r in levels[i]], op)

    def paired(side, inner, op):
        return lambda i, j: first_failing_set(
            [(grades[r], inner(ends[i][r][side], ends[j][r][side]))
             for r in sorted({*levels[i], *levels[j]})], op)

    laws = [("lower-endpoint-supremum", 1, single(0, lattice.join)),
            ("upper-endpoint-infimum", 1, single(1, lattice.meet)),
            ("paired-lower-meet-supremum", 2, paired(0, lattice.meet, lattice.join)),
            ("paired-upper-join-infimum", 2, paired(1, lattice.join, lattice.meet))]
    return [scan(law, fis, arity, probe, plan, asserted, note) for law, arity, probe in laws]


def structure(fis, plan):
    """The boundary-grade checks: at each threshold p with a nonempty cut,
    the grade g = M(lo) ∧ M(hi) of the cut's ends is the least grade on the
    cut, and the cut at g is the cut at p."""
    def at_every_cut(holds):
        def probe(i):
            fi = fis[i]
            for p in fi.thresholds():
                members = fi.cut(p)
                if members:
                    cut = fi.cut_interval(p)
                    if not holds(fi, p, members, min(fi(cut.lo), fi(cut.hi))):
                        return f"threshold {format_grade(p)}"
            return None
        return probe

    return [scan("cut-boundary-grade-meet", fis, 1, at_every_cut(
                lambda fi, p, members, g: g == min(map(fi, members))), plan),
            scan("cut-recovery-from-boundary-grades", fis, 1, at_every_cut(
                lambda fi, p, members, g: fi.fuzzy.cut_mask(g) == fi.fuzzy.cut_mask(p)), plan)]


def reports(suite, lattice, grades=(0, Fraction(1, 2), 1), budget=DEFAULT_BUDGET,
            seed=DEFAULT_SEED):
    """The JSON of ``run_suite(suite, lattice, grades, budget=budget, seed=seed)``."""
    chain, plan = validate_grades(grades), planner(budget, seed)
    fis, ivs = enumerate_fuzzy_intervals(lattice, chain), enumerate_intervals(lattice)
    join, meet = FuzzyInterval.join, FuzzyInterval.meet
    hull, intersection = CrispInterval.hull, CrispInterval.intersection
    m, j = lattice.meet, lattice.join
    distributive = all(m(x, j(y, z)) == j(m(x, y), m(x, z))
                       for x, y, z in itertools.product(lattice.elements, repeat=3))
    suites = {
        "axioms": lambda: axioms(
            fis, join, meet, lambda a, b: all(map(operator.le, a.values, b.values)), plan),
        "distributivity": lambda: distributivity(fis, join, meet, plan, distributive),
        "cut-identities": lambda: cut_identities(lattice, fis, join, meet, hull, intersection,
                                                 plan),
        "endpoints": lambda: endpoint_lemmas(lattice, fis, plan, distributive),
        "structure": lambda: structure(fis, plan),
        "crisp-axioms": lambda: axioms(ivs, hull, intersection, CrispInterval.issubset, plan),
        "crisp-distributivity": lambda: distributivity(ivs, hull, intersection, plan,
                                                       distributive),
    }
    label = lattice.name or f"<{len(lattice.elements)} elements>"
    return [LawReport(name, label, () if name.startswith("crisp-") else chain,
                      suites[name]()).as_json()
            for name in (SUITES if suite == "all" else (suite,))]
