"""Exhaustive law verification over enumerated interval collections.

Every suite produces a :class:`LawReport`: one entry per law with a
pass/fail status, how many instances were evaluated, and — on failure —
the first witness in enumeration order.  Checks whose hypothesis is not
met (e.g. distributivity suites over a non-distributive carrier) are still
evaluated but recorded as not asserted; they never fail a run.

Loops are exhaustive while the instance count fits the budget (default
10^7).  Beyond that a law reads a sample drawn in one pass from
``random.Random(seed).getrandbits``: the index tuples that per-coordinate
``randrange`` calls would give, in the same order (see :func:`_sample`),
and the check is marked ``sampled(...)``.  Each (count, arity) space is
drawn once per call, its columns (one per coordinate) built beside it, and
read by every law over it.  The budget caps the
probes only: the op tables and the closure checks still cover all n²
pairs.  A budget that is not a positive int (a bool included) is refused
with ``ValueError``.

``run_suite`` is the one entry for the named suites.  ``run_suite("all")``
enumerates each collection once and builds one op table per collection,
shared by its suites: the fuzzy-interval table serves the axiom and
distributivity suites and supplies the meets and joins of the cut-identity
suite; the crisp-interval table serves the crisp suites and supplies the
hulls and intersections of the cuts, the cut-identity suite's reference
side.  The axiom suites read the order as bitmask rows built from the
members' memberships (see :func:`_order_rows`).  No sample draw or op
table over the collection is kept between calls, but the fuzzy-interval
ops fill entries of their lattice's op tables over cut codes
(:class:`~fuzzint.intervals._IntervalCodes`), which stay on the
:class:`~fuzzint.lattice.FiniteLattice`, so a later call on that lattice
object reads them warm.  ``check_lattice_axioms`` and
``check_distributivity`` run the axiom and distributivity bodies over an
arbitrary collection of distinct members and its ops; only
``check_lattice_axioms`` evaluates its ``leq_op`` pairwise.

:func:`_run_law` decides each law by one route: whole rows in exhaustive
mode; in sampled mode, the law's two sides over the draw's columns,
gathered from the op tables at C level with no Python frame per draw; a
verdict reused from another law (``*-cut-family-intersection`` and
``paired-*``; see :func:`_cut_identities` and :func:`_endpoint_lemmas`);
or a scan of the planned instances.  Each gives the status, ``checked``
and witness that the scan would, and the row and column routes probe only
the first failing tuple, for its detail.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import GradeSetInvalid, InvalidGrade, RouteDisagreement
from .formats import memberships_to_json
from .fuzzysets import GRADE_ONE, GRADE_ZERO, FuzzySet, as_grade, format_grade
from .fuzzyintervals import FuzzyInterval
from .intervals import CrispInterval
from .lattice import FiniteLattice, is_distributive, iter_bits
from .suites import DEFAULT_BUDGET, DEFAULT_SEED, SUITES

SAMPLE_SIZE = 50_000  # instances drawn when a loop would exceed the budget


# -- reports ----------------------------------------------------------------


@dataclass
class LawCheck:
    law: str
    status: str                 # "pass" | "fail"
    checked: int
    witness: object = None      # JSON-ready description of the first failure
    asserted: bool = True       # non-asserted checks never fail a report
    note: str = ""
    mode: str = "exhaustive"

    def as_json(self) -> dict:
        out: dict = {"law": self.law, "status": self.status, "checked": self.checked,
                     "asserted": self.asserted}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        if self.mode != "exhaustive":
            out["mode"] = self.mode
        return out


@dataclass
class LawReport:
    suite: str
    lattice: str
    grades: tuple = ()
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks if c.asserted)

    def as_json(self) -> dict:
        return {"suite": self.suite, "lattice": self.lattice,
                "grades": [format_grade(g) for g in self.grades],
                "passed": self.passed,
                "checks": [c.as_json() for c in self.checks]}

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}", f"lattice: {self.lattice}"]
        if self.grades:
            lines.append("grades: " + ", ".join(format_grade(g) for g in self.grades))
        flagged = False
        for c in self.checks:
            tag = ("PASS" if c.status == "pass" else "FAIL") + ("" if c.asserted else "*")
            flagged = flagged or not c.asserted
            line = f"  {tag:<6} {c.law:<34} checked={c.checked}"
            if c.mode != "exhaustive":
                line += f" [{c.mode}]"
            lines.append(line)
            if c.witness is not None:
                lines.append(f"         witness: {json.dumps(c.witness, sort_keys=True)}")
            if c.note:
                lines.append(f"         note: {c.note}")
        if flagged:
            lines.append("  (* = evaluated but not asserted)")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def render_operand(value):
    """JSON-ready rendering of a witness operand."""
    if isinstance(value, CrispInterval):
        return value.render(ascii_only=True)
    if isinstance(value, (FuzzySet, FuzzyInterval)):
        return memberships_to_json(value)
    return str(value)


# -- enumeration ------------------------------------------------------------


def validate_grades(grades) -> tuple[Fraction, ...]:
    """Sorted distinct grades; must contain both 0 and 1.

    A string (or bytes) is refused, not read one character at a time:
    pass its grades as a sequence, e.g. ``["0", "1/2", "1"]``.
    """
    if isinstance(grades, (str, bytes)):
        raise GradeSetInvalid(f"the grade set must be a sequence of grades, not {grades!r}")
    try:
        chain = tuple(sorted({as_grade(g) for g in grades}))
    except (InvalidGrade, TypeError) as exc:  # a bad grade; not an iterable
        raise GradeSetInvalid(str(exc)) from exc
    if not chain or chain[0] != GRADE_ZERO or chain[-1] != GRADE_ONE:
        raise GradeSetInvalid("the grade set must contain 0 and 1")
    return chain


def _interval_ends(lattice: FiniteLattice, mask: int):
    """The ends ``(lo, hi)`` of the nonempty crisp intervals inside the
    interval with member mask ``mask``: each ``lo`` in it and each ``hi`` in
    its up-set within it, both ascending.  The one owner of Int(L)'s order,
    which ``intervals._IntervalCodes`` computes codes from."""
    up = lattice._up
    return ((lo, hi) for lo in iter_bits(mask) for hi in iter_bits(up[lo] & mask))


def enumerate_intervals(lattice: FiniteLattice) -> list[CrispInterval]:
    """Every crisp interval: the empty one first, then the
    :func:`_interval_ends` of the whole carrier, in canonical element order."""
    return [CrispInterval.empty(lattice)] + [
        CrispInterval._from_indices(lattice, i, j)
        for i, j in _interval_ends(lattice, lattice.all_mask)]


def _order_rows(vectors: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """(up, down) rows of the pointwise order: bit j of ``up[i]`` is set when
    ``vectors[i] <= vectors[j]`` everywhere, and ``down`` is the transpose.
    Row i ANDs, per coordinate, the mask of the items at least (at most)
    as large there: O(n·m) big-int ANDs for n vectors of length m."""
    n = len(vectors)
    up, down = [(1 << n) - 1] * n, [(1 << n) - 1] * n
    top = max(map(max, vectors), default=0)
    for column in zip(*vectors):
        exact = [0] * (top + 1)
        for j, v in enumerate(column):
            exact[v] |= 1 << j
        at_most = list(itertools.accumulate(exact, int.__or__))
        at_least = list(itertools.accumulate(reversed(exact), int.__or__))[::-1]
        for i, v in enumerate(column):
            up[i] &= at_least[v]
            down[i] &= at_most[v]
    return up, down


def _interval_space(lattice: FiniteLattice) -> tuple[list, tuple]:
    """Int(L), the crisp intervals with the empty one, as ``(items,
    (supersets, subsets))``: :func:`enumerate_intervals` and the
    :func:`_order_rows` of their 0/1 memberships: bit j of
    ``supersets[i]`` is set when item i lies inside item j.
    :func:`run_suite` derives it at most once per call, for the crisp op
    table and the ``crisp-axioms`` order rows."""
    items = enumerate_intervals(lattice)
    elements = range(len(lattice.elements))
    return items, _order_rows([[iv.members_mask() >> e & 1 for e in elements] for iv in items])


def enumerate_fuzzy_intervals(lattice: FiniteLattice, grades) -> list[FuzzyInterval]:
    """All fuzzy intervals with values in ``grades``.

    Generated as antitone chains of crisp intervals, as member masks: one
    per grade, each containing the next, the one at grade 0 the whole
    carrier; the membership of an element is the largest grade whose
    interval contains it.  The intervals inside an interval mask ``m`` are
    the empty one, then those of :func:`_interval_ends`: the order of
    :func:`enumerate_intervals`, read from the carrier's up-sets, so Int(L)
    is never built.  Cuts of the result at the chosen grades recover
    exactly the chain, so the construction is a bijection onto the
    grade-valued fuzzy intervals, in lexicographic order of the chains.
    Every result stores its grades as ranks into one shared chain, the
    validated ``grades``, so the ops between them compare ints.
    """
    chain = validate_grades(grades)
    between = lattice.between_mask

    @functools.cache
    def inside(m: int) -> list[int]:
        return [0] + [between(lo, hi) for lo, hi in _interval_ends(lattice, m)]

    chains = [(lattice.all_mask,)]  # every chain starts at the whole carrier
    for _ in chain[1:]:  # extending each chain in turn keeps depth-first order
        chains = [c + (m,) for c in chains for m in inside(c[-1])]
    out: list[FuzzyInterval] = []
    for c in chains:
        ranks = [0] * len(lattice.elements)
        for rank in range(1, len(c)):  # ascending: last write wins
            for b in iter_bits(c[rank]):
                ranks[b] = rank
        out.append(FuzzyInterval(FuzzySet._from_ranks(lattice, chain, tuple(ranks))))
    return out


# -- instance planning -------------------------------------------------------


def _require_positive(budget: int) -> None:
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ValueError(f"budget must be a positive int, got {budget!r}")


def _planner(budget: int, seed: int) -> Callable:
    """``plan(count, arity)`` -> (index tuples, mode): all of them while they
    fit the budget, else the :func:`_sample` of the space, drawn once.
    ``plan.columns(count, arity)`` is that sample by position, one tuple of
    indices per coordinate, built once beside the draw."""
    draws = min(budget, SAMPLE_SIZE)

    @functools.cache
    def sample(count: int, arity: int):
        tuples = _sample(count, arity, draws, seed)
        return tuples, list(zip(*tuples))

    def plan(count: int, arity: int):
        total = count ** arity
        if total <= budget:
            return itertools.product(range(count), repeat=arity), "exhaustive"
        return sample(count, arity)[0], f"sampled({draws} of {total}, seed={seed})"
    plan.columns = lambda count, arity: sample(count, arity)[1]
    return plan


def _sample(count: int, arity: int, draws: int, seed: int) -> list[tuple[int, ...]]:
    """``draws`` index tuples from ``random.Random(seed)``: the tuples that
    drawing each coordinate in turn with ``randrange(count)`` gives.

    ``randrange(count)`` takes ``getrandbits(count.bit_length())`` and draws
    again while the value is ``count`` or more, so the values kept from one
    run of such draws are the coordinates in order.  Each round draws as
    many values as are still missing; a value is kept with probability
    above one half.
    """
    getrandbits = random.Random(seed).getrandbits
    k = count.bit_length()
    need = draws * arity
    values: list[int] = []
    while len(values) < need:
        values += [v for _ in range(need - len(values)) if (v := getrandbits(k)) < count]
    return list(zip(*[iter(values)] * arity))


def _record(report: LawReport, items: Sequence, law: str, checked: int, tup, detail, *,
            asserted: bool = True, note: str = "", mode: str = "exhaustive") -> None:
    """Append the check of ``law``: a pass when ``tup`` is None, else a
    fail whose witness renders the items at ``tup``, with ``detail`` when
    it is nonempty."""
    witness = None
    if tup is not None:
        witness = {"indices": list(tup), "operands": [render_operand(items[i]) for i in tup]}
        if detail:
            witness["detail"] = detail
    report.checks.append(LawCheck(law, "pass" if witness is None else "fail", checked, witness,
                                  asserted, note, mode))


def _gather(table, rows, columns) -> list:
    """``[table[i][j] for i, j in zip(rows, columns)]``, read at C level:
    no Python frame per pair.  The rows of ``table`` are lists."""
    return list(map(list.__getitem__, map(table.__getitem__, rows), columns))


def _first_difference(lhs: Sequence, rhs: Sequence) -> int:
    """The first position where two unequal sequences of one length differ."""
    return list(map(operator.ne, lhs, rhs)).index(True)


def _run_law(report: LawReport, items: Sequence, law: str, arity: int,
             probe: Callable, *, plan: Callable, asserted: bool = True, note: str = "",
             verdict: str | tuple | None = None, row: Callable | None = None,
             sides: Callable | None = None) -> str | tuple:
    """Evaluate ``probe`` over index tuples; record the first failure.

    ``probe`` returns None for a pass and a detail (possibly "") for a fail.
    The law is decided by the first of these routes that applies:

    - ``row``, on an exhaustive plan: ``row`` takes all indices but the
      last and gives the two sides of the law as two sequences of one type
      over every last index (``bytes`` where every index fits a byte, as
      :meth:`_OpTables.row_ops` builds them), equal exactly where the law
      holds (a caller passes it only then).  The rows are compared in
      enumeration order; a pass counts every instance, and the first
      differing tuple alone is probed, with its lexicographic position + 1
      as ``checked``.
    - ``sides``, on a sampled plan with no ``verdict`` given: ``sides``
      takes the draw's columns, ``plan.columns(n, arity)``, one per
      coordinate, and gives the two sides of the law as two lists over
      every draw, equal exactly where the law holds, gathered from the op
      tables at C level (see :func:`_gather`).  Equal sides pass with
      every draw counted; otherwise the first differing draw alone is
      probed, with its position in the draw + 1 as ``checked``.
    - ``verdict``, given when another route has decided the law over this
      plan: ``"pass"`` counts the planned instances without probing them,
      and ``(checked, tup)`` names the first failing tuple and the
      instances evaluated up to it, and probes ``tup`` alone.
    - Otherwise ``probe`` is called on the planned tuples in order until
      one fails.

    A probe that passes a tuple decided failing raises
    :class:`RouteDisagreement`.  Returns the verdict recorded, in the same
    form, so a law decided by this one takes it as a value: ``"pass"``, or
    ``(checked, tup)``.
    """
    n = len(items)
    instances, mode = plan(n, arity)
    if mode == "exhaustive":
        if row is not None:
            verdict = "pass"
            for key in itertools.product(range(n), repeat=arity - 1):
                lhs, rhs = row(*key)
                if lhs != rhs:
                    tup = key + (_first_difference(lhs, rhs),)
                    verdict = functools.reduce(lambda acc, i: acc * n + i, tup) + 1, tup
                    break
    elif sides is not None and verdict is None:
        lhs, rhs = sides(*plan.columns(n, arity))
        verdict = "pass"
        if lhs != rhs:
            k = _first_difference(lhs, rhs)
            verdict = k + 1, instances[k]
    tup = detail = None
    if verdict == "pass":
        checked = n ** arity if mode == "exhaustive" else len(instances)
    elif verdict is not None:
        checked, tup = verdict
        detail = probe(*tup)
        if detail is None:
            raise RouteDisagreement(law, tup, {"decided": "fail", "probe": "pass"})
    else:
        checked = 0
        for tup in instances:
            checked += 1
            detail = probe(*tup)
            if detail is not None:
                break
        else:
            tup = None
    _record(report, items, law, checked, tup, detail, asserted=asserted, note=note, mode=mode)
    return "pass" if tup is None else (checked, tup)


# -- op tables ---------------------------------------------------------------


class _OpTables:
    """Materialized join/meet tables over collection indices, one row per
    item: ``join_t[i][j]`` is the index of the join of items i and j.

    Results are interned: one outside the collection gets the next index
    in ``pool``, a growing copy of ``items``, and equal results share an
    index.  The first pair per op whose result lies outside is the closure
    witness.  :meth:`join` and :meth:`meet` read the table for two items
    and evaluate the op on pool members for any other pair.

    The build interns in two steps.  A result of type
    :class:`FuzzyInterval` (a subclass may compare otherwise) on the first
    item's grade chain and lattice, the same objects, is looked up by its
    ``_cuts`` among the items of that type on those objects; on one chain
    and lattice, equal codes at every rank are exactly equal intervals, so
    a hit is the member an equality lookup finds.  A miss, and any other
    result, falls through to :meth:`_intern`'s ``index`` lookup, so a
    member equal on another chain or lattice object, or a result already
    added to the pool, is found.
    The pool, the tables and the closure witnesses are thus those of an
    equality scan, and a result of ``run_suite``'s ops, all on the shared
    chain, calls neither ``FuzzyInterval.__hash__`` nor ``__eq__`` when it
    is in the collection.

    The items must be distinct: the probes compare results by index, so a
    member listed twice would make equal results look different.  A
    duplicate raises ``ValueError`` before any op is evaluated.
    ``index`` maps each pool member to its index.
    """

    def __init__(self, items, join_op, meet_op):
        n = len(items)
        self.index = index = {}
        for i, item in enumerate(items):
            first = index.setdefault(item, i)
            if first != i:
                raise ValueError(f"the collection lists one member twice, "
                                 f"at indices {first} and {i}")
        self.items = items
        self.pool = list(items)  # never grows the caller's list
        self.join_op = join_op
        self.meet_op = meet_op
        self.n = n
        self.join_t = [[0] * n for _ in range(n)]
        self.meet_t = [[0] * n for _ in range(n)]
        lead = items[0] if items else None
        chain, lattice = ((lead._chain, lead.lattice) if type(lead) is FuzzyInterval
                          else (None, None))
        by_chain = {x._cuts: i for i, x in enumerate(items)
                    if type(x) is FuzzyInterval and x._chain is chain and x.lattice is lattice}
        witnesses = [None, None]
        for i, a in enumerate(items):
            slots = ((self.join_t[i], join_op, 0), (self.meet_t[i], meet_op, 1))
            for j, b in enumerate(items):
                for row, op, w in slots:  # each pair's join, then its meet
                    r = op(a, b)
                    key = (r._cuts if type(r) is FuzzyInterval
                           and r._chain is chain and r.lattice is lattice else None)
                    k = by_chain.get(key)
                    if k is None:
                        k = self._intern(r)
                    row[j] = k
                    if k >= n and witnesses[w] is None:
                        witnesses[w] = (i, j)
        self.closure_join, self.closure_meet = witnesses

    def _intern(self, value) -> int:
        """The pool index of ``value``, appended to the pool if new."""
        k = self.index.get(value)
        if k is None:
            k = self.index[value] = len(self.pool)
            self.pool.append(value)
        return k

    def join(self, i: int, j: int) -> int:
        n = self.n
        return (self.join_t[i][j] if i < n and j < n
                else self._intern(self.join_op(self.pool[i], self.pool[j])))

    def meet(self, i: int, j: int) -> int:
        n = self.n
        return (self.meet_t[i][j] if i < n and j < n
                else self._intern(self.meet_op(self.pool[i], self.pool[j])))

    def row_ops(self, table) -> tuple:
        """``(seq, rows, compose)`` over ``table``, one of the two tables:
        ``rows[i]`` is row i as a ``seq``, and ``compose(i, s)`` maps every
        index in ``s`` through row i.  ``seq`` is ``bytes`` where every
        index fits a byte, so ``compose`` is one ``bytes.translate`` through
        row i padded to a 256-byte map, and ``list`` otherwise.  ``compose``
        is exact when ``s`` holds item indices only, as on a closed table.
        """
        if len(self.pool) > 256:
            return list, table, lambda i, s: list(map(table[i].__getitem__, s))
        rows = [bytes(row) for row in table]
        maps = [row.ljust(256, b"\0") for row in rows]
        return bytes, rows, lambda i, s: s.translate(maps[i])

    def op_views(self) -> tuple:
        """The join and the meet, each as ``(op, table, row_ops(table))``."""
        return ((self.join, self.join_t, self.row_ops(self.join_t)),
                (self.meet, self.meet_t, self.row_ops(self.meet_t)))


def check_lattice_axioms(collection, join_op, meet_op, leq_op, *,
                         suite: str = "axioms", lattice_name: str = "",
                         grades: tuple = (), budget: int = DEFAULT_BUDGET,
                         seed: int = DEFAULT_SEED) -> LawReport:
    """Verify the lattice axioms for a collection and its ops.

    Checks closure, commutativity, idempotence, associativity, absorption,
    consistency of the independent order ``leq_op`` with the ops, the
    least-upper- / greatest-lower-bound property against the collection
    itself, and agreement of the join with its definitional oracle — the
    meet-fold over all common upper bounds.  A collection the ops leave
    fails a closure check; the other laws are still evaluated.

    The collection must list each member once (results are compared by
    index); a member listed twice raises ``ValueError`` naming both
    indices, before any op is evaluated.  A budget below 1 raises
    ``ValueError``.
    """
    _require_positive(budget)
    tabs = _OpTables(list(collection), join_op, meet_op)
    items, n = tabs.items, tabs.n
    leq_rows, down_rows = [0] * n, [0] * n  # pairwise upper-bound rows, and their transpose
    for i in range(n):
        for j in range(n):
            if leq_op(items[i], items[j]):
                leq_rows[i] |= 1 << j
                down_rows[j] |= 1 << i
    return _lattice_axioms(LawReport(suite, lattice_name, tuple(grades)), tabs,
                           (leq_rows, down_rows), plan=_planner(budget, seed))


def _lattice_axioms(report: LawReport, tabs: _OpTables, rows: tuple, *,
                    plan: Callable) -> LawReport:
    """Body of :func:`check_lattice_axioms` over a built op table and the
    (upper-bound, lower-bound) bitmask rows of the independent order.

    Commutativity and order consistency compare table entries as their
    probes do, so their rows and sides are exact over any table;
    absorption and associativity read the table at an op result, so they
    get rows and sides only when that op stays in the collection.

    The bound laws and the join oracle get rows and sides over any table
    too.  A bound row takes, per j, the probe's own test: the common row
    ``c`` holds the result k, and no bound of ``c`` lies outside
    ``rows[k]``.  ``c`` has bits below n only, so a result outside the
    collection fails the first test, as the probe fails it, and ``rows[k]``
    is read only inside.  The oracle row holds, per j, the meet-fold of the
    common upper bounds, in the probe's bit order and with its exit when
    the fold leaves the collection, or None for no bound or that exit; it
    equals the join's index exactly where the probe passes, since a fold
    inside the collection never equals an index outside.  Each distinct
    mask is folded once per call, for the rows, the sides and the probes
    alike.  The sides of each law hold, per drawn tuple, what its row holds
    per last index.
    """
    items, n, jt, mt = tabs.items, tabs.n, tabs.join_t, tabs.meet_t
    join, meet = tabs.op_views()
    leq_rows, down_rows = rows

    _record(report, items, "closure-join", n * n, tabs.closure_join, None)
    _record(report, items, "closure-meet", n * n, tabs.closure_meet, None)
    run = lambda law, arity, probe, row=None, sides=None: _run_law(  # noqa: E731
        report, items, law, arity, probe, plan=plan, row=row, sides=sides)

    def commutativity(op):
        """(probe, row, sides); the rows are row i and column i of the table."""
        _, table, (seq, rows, _) = op
        return (lambda i, j: None if table[i][j] == table[j][i] else "",
                lambda i: (rows[i], seq(map(operator.itemgetter(i), table))),
                lambda I, J: (_gather(table, I, J), _gather(table, J, I)))

    run("commutativity-join", 2, *commutativity(join))
    run("commutativity-meet", 2, *commutativity(meet))
    run("idempotence-join", 1, lambda i: None if jt[i][i] == i else "")
    run("idempotence-meet", 1, lambda i: None if mt[i][i] == i else "")

    def assoc(op, closed):
        """(probe, row, sides); the rows are a(b c) and (a b)c over every c."""
        op, table, (_, rows, compose) = op

        def row(i, j):
            return compose(i, rows[j]), rows[rows[i][j]]

        def sides(I, J, K):
            return _gather(table, I, _gather(table, J, K)), _gather(table, _gather(table, I, J), K)
        return (lambda i, j, k: None if op(i, op(j, k)) == op(op(i, j), k) else "",
                *((row, sides) if closed else (None, None)))

    run("associativity-join", 3, *assoc(join, tabs.closure_join is None))
    run("associativity-meet", 3, *assoc(meet, tabs.closure_meet is None))

    def absorption(outer, inner, closed):
        """(probe, row, sides) for outer(a, inner(a, b)) == a; the rows are
        outer(a, inner(a, b)) over every b and a repeated."""
        (outer, outer_t, (seq, _, compose)), (inner, inner_t, (_, inner_rows, _)) = outer, inner

        def row(i):
            return compose(i, inner_rows[i]), seq((i,)) * n

        def sides(I, J):
            return _gather(outer_t, I, _gather(inner_t, I, J)), list(I)
        return (lambda i, j: None if outer(i, inner(i, j)) == i else "",
                *((row, sides) if closed else (None, None)))

    run("absorption-meet-join", 2, *absorption(meet, join, tabs.closure_join is None))
    run("absorption-join-meet", 2, *absorption(join, meet, tabs.closure_meet is None))

    def order_consistency(i, j):
        ordered = leq_rows[i] >> j & 1 == 1
        ok = ordered == (mt[i][j] == i) == (jt[i][j] == j)
        return None if ok else ""

    def order_row(i):
        """Per j, (meet is i, join is j) against (i <= j, i <= j)."""
        ordered = list(map("1".__eq__, reversed(format(leq_rows[i], f"0{n}b"))))
        return (list(zip(map(i.__eq__, mt[i]), map(int.__eq__, jt[i], range(n)))),
                list(zip(ordered, ordered)))

    def order_sides(I, J):
        """Per drawn (i, j), what ``order_row(i)`` holds at j."""
        ordered = list(map((1).__and__, map(int.__rshift__, map(leq_rows.__getitem__, I), J)))
        return (list(zip(map(int.__eq__, _gather(mt, I, J), I),
                         map(int.__eq__, _gather(jt, I, J), J))), list(zip(ordered, ordered)))

    run("order-consistency", 2, order_consistency, order_row, order_sides)

    every = [True] * n

    def nearest_bound(rows, table, op, bound, nearer):
        """(probe, row, sides) that ``table`` gives each pair its nearest
        common ``bound`` (least upper, greatest lower), ``rows[i]`` holding
        the bounds of i; a result outside the collection is in no row."""
        def probe(i, j):
            common = rows[i] & rows[j]
            k = table[i][j]
            if not common >> k & 1:
                return f"{op} is not a common {bound}"
            if common & ~rows[k]:
                return f"a {nearer} common {bound} exists"
            return None

        def row(i):
            """Per j, whether the probe passes (i, j); ``rows[k]`` is read
            only for a k in the common row, so inside the collection."""
            ri = rows[i]
            return ([(c := ri & rj) >> k & 1 and not c & ~rows[k]
                     for rj, k in zip(rows, table[i])], every)

        def sides(I, J):
            """Per drawn (i, j), what ``row(i)`` holds at j."""
            return ([(c := rows[i] & rows[j]) >> k & 1 and not c & ~rows[k]
                     for i, j, k in zip(I, J, _gather(table, I, J))], [True] * len(I))
        return probe, row, sides

    run("join-least-upper-bound", 2,
        *nearest_bound(leq_rows, jt, "join", "upper bound", "smaller"))
    run("meet-greatest-lower-bound", 2,
        *nearest_bound(down_rows, mt, "meet", "lower bound", "greater"))

    folds: dict = {}

    def fold(common):
        """The meet-fold of the items in ``common``, in bit order, or None
        when ``common`` is empty or the fold leaves the collection, stored
        in ``folds``, which its callers read first."""
        bounds = iter_bits(common)
        acc = next(bounds, None)
        for b in bounds:
            acc = mt[acc][b]
            if acc >= n:
                acc = None
                break
        folds[common] = acc
        return acc

    def join_oracle(i, j):
        common = leq_rows[i] & leq_rows[j]
        if not common:
            return "no common upper bound in the collection"
        acc = folds[common] if common in folds else fold(common)
        if acc is None:
            return "meet-fold left the collection"
        return None if acc == jt[i][j] else "fold of upper bounds differs from join"

    def oracle_row(i):
        """Per j, the fold of the common upper bounds against the join."""
        ri = leq_rows[i]
        return [folds[c] if (c := ri & rj) in folds else fold(c) for rj in leq_rows], jt[i]

    def oracle_sides(I, J):
        """Per drawn (i, j), what ``oracle_row(i)`` holds at j."""
        return ([folds[c] if (c := leq_rows[i] & leq_rows[j]) in folds else fold(c)
                 for i, j in zip(I, J)], _gather(jt, I, J))

    run("join-definitional-oracle", 2, join_oracle, oracle_row, oracle_sides)

    return report


def check_distributivity(collection, join_op, meet_op, *,
                         suite: str = "distributivity", lattice_name: str = "",
                         grades: tuple = (), budget: int = DEFAULT_BUDGET,
                         seed: int = DEFAULT_SEED) -> LawReport:
    """Evaluate both distributive laws over all (budgeted) triples.

    The collection must list each member once, as for
    :func:`check_lattice_axioms`; a duplicate raises ``ValueError``, and
    so does a budget below 1.
    """
    _require_positive(budget)
    return _distributivity(LawReport(suite, lattice_name, tuple(grades)),
                           _OpTables(list(collection), join_op, meet_op),
                           asserted=True, plan=_planner(budget, seed))


def _distributivity(report: LawReport, tabs: _OpTables, *, asserted: bool,
                    plan: Callable) -> LawReport:
    """Body of :func:`check_distributivity`; reads only the op tables.

    With ``asserted=False`` failures are recorded as findings only — the
    report still passes; ``run_suite`` sets it when the reference lattice
    itself is not distributive and the laws are not implied.
    """
    note = ("" if asserted else
            "hypothesis not met (reference lattice not distributive); finding only")
    items, closed = tabs.items, tabs.closure_join is None and tabs.closure_meet is None
    join, meet = tabs.op_views()

    def law(outer, inner):
        """(probe, row, sides) for outer(a, inner(b, c)) == inner(outer(a, b),
        outer(a, c)), each op an :meth:`_OpTables.op_views` entry."""
        (outer, ot, (_, outer_rows, outer_of)), (inner, it, (_, inner_rows, inner_of)) = outer, inner

        def row(i, j):
            a_outer = outer_rows[i]
            return outer_of(i, inner_rows[j]), inner_of(a_outer[j], a_outer)

        def sides(I, J, K):
            return (_gather(ot, I, _gather(it, J, K)),
                    _gather(it, _gather(ot, I, J), _gather(ot, I, K)))
        return (lambda i, j, k: None if outer(i, inner(j, k)) == inner(outer(i, j), outer(i, k))
                else "", *((row, sides) if closed else (None, None)))

    for name, (probe, row, sides) in (("meet-over-join", law(meet, join)),
                                      ("join-over-meet", law(join, meet))):
        _run_law(report, items, name, 3, probe, plan=plan, asserted=asserted, note=note, row=row,
                 sides=sides)
    return report


# -- rank-indexed per-item tables ---------------------------------------------


def _threshold_ranks(fis: Sequence[FuzzyInterval]) -> list[int]:
    """Per item, the bitmask of its thresholds' ranks in the grade chain:
    the set bits of ``ranks[i] | ranks[j]`` visit a pair's thresholds in
    grade order."""
    return [sum(1 << r for r in fi._levels) for fi in fis]


def _first_failing_pair(chain: tuple, family, op) -> str | None:
    """Detail of the first threshold set P that a fold identity fails on.

    ``family`` yields ``(rank, x)`` ascending by rank, and ``op`` is a
    lattice join or meet (or ``&`` on masks).  The identity says that
    folding ``op`` over the members at P gives the member at max P.  Such
    a fold equals x_s exactly when ``op(x_r, x_s) == x_s`` for every r in
    P, so a one-element P never fails and every failing P contains a
    failing pair {r, max P}: the first failing P by size, then
    lexicographically, is the first pair r < s in ``combinations`` order
    with ``op(x_r, x_s) != x_s``.
    """
    for (r, x), (s, y) in itertools.combinations(family, 2):
        if op(x, y) != y:
            return f"P = {{{format_grade(chain[r])}, {format_grade(chain[s])}}}"
    return None


# -- cut identities ----------------------------------------------------------


def _cut_identities(report: LawReport, lattice: FiniteLattice, tabs: _OpTables,
                    crisp: _OpTables, *, plan: Callable) -> LawReport:
    """Cutwise characterization of the fuzzy-interval ops.

    For every pair, the cut of the meet is the intersection of the cuts and
    the cut of the join is the hull of the cuts, at every threshold of the
    two operands and of the result; both per-grade families over the
    operands' thresholds are antitone, start at the whole carrier, and
    intersect down to their largest index.

    A pair's meet and join are read from ``tabs``, the op table over the
    fuzzy intervals, and each pool member is cut pointwise once.  So the
    cut is taken from the membership of the enumerated member that equals
    the result, never from one derived from the chain under test; only a
    result outside the collection is cut by its derived membership.  The
    reference side is the crisp route: each cut is looked up in ``crisp``,
    the table over the crisp intervals (hull is its join, intersection its
    meet), and the masks of its pool give the cut of each entry.

    The intersection law reads the same family masks as the antitone law
    and fails on a pair exactly when some mask is not inside every mask
    below it; set inclusion is transitive, so that happens exactly when
    some consecutive mask is not inside the one below, the antitone law's
    failure.  Both read one plan, so the intersection law takes the
    verdict that the antitone law's :func:`_run_law` returns, and probes
    only its failing tuple, for its ``P = {r, s}``.

    The other laws' rows read, per item i and grade rank r, the masks of
    op(cut_i, cut_j) at r over every j, built on first read; their sides
    read the same masks over the drawn pairs, one column per rank, built
    once per draw and crisp table for all six laws.  Every item's
    thresholds include the top rank, and between two of them its cut equals
    the cut at the next one up.  So between two points of a threshold
    union, each cut it covers is constant, and a law over that union holds
    at every rank exactly when it holds at the union's points: rows and
    sides over every rank are exact for the antitone and at-zero laws over
    the operands' thresholds, and, comparing the result's cut too, for the
    identities over the operands' and the result's thresholds.
    """
    chain, fis = report.grades, tabs.items
    n, full = len(fis), lattice.all_mask
    ranks = _threshold_ranks(tabs.pool)  # the items' first, then any result outside
    cuts = [[crisp.index[fi.cut_interval(g)] for g in chain] for fi in fis]  # by grade rank
    crisp_masks = [iv.members_mask() for iv in crisp.pool]
    pointwise = [tuple([fi.fuzzy._rank_cut_mask(r) for r in range(len(chain))])
                 for fi in tabs.pool]

    def family(i, j, table, also=0):
        """(rank, mask of op(cut_i, cut_j)) over the pair's thresholds and
        the ranks in ``also``, ascending."""
        ci, cj = cuts[i], cuts[j]
        for r in iter_bits(ranks[i] | ranks[j] | also):
            yield r, crisp_masks[table[ci[r]][cj[r]]]

    def masks_of(table):
        """``(rows, columns)``, the masks of op(cut_i, cut_j) per grade rank
        r: ``rows(i)`` over every j, and ``columns(I, J)`` over the drawn
        pairs ``zip(I, J)``, each built on first read, so rows only on an
        exhaustive plan and columns once per draw, for every law here."""
        by_rank = list(zip(*cuts))  # by grade rank, every item's cut

        @functools.cache
        def rows(i):
            return [list(map(crisp_masks.__getitem__, map(table[c].__getitem__, column)))
                    for c, column in zip(cuts[i], by_rank)]

        @functools.cache
        def columns(I, J):
            return [list(map(crisp_masks.__getitem__,
                             _gather(table, map(column.__getitem__, I),
                                     map(column.__getitem__, J))))
                    for column in by_rank]
        return rows, columns

    def identity(table, fi_table, rows, columns):
        """(probe, row, sides); the probe reads the result's thresholds too."""
        def probe(i, j):
            k = fi_table[i][j]
            cut_masks = pointwise[k]
            for r, mask in family(i, j, table, ranks[k]):
                if cut_masks[r] != mask:
                    return f"threshold {format_grade(chain[r])}"
            return None

        def compare(results, masks):
            """Each result's cut masks against the op's, per pair."""
            return list(map(pointwise.__getitem__, results)), list(zip(*masks))
        return (probe, lambda i: compare(fi_table[i], rows(i)),
                lambda I, J: compare(_gather(fi_table, I, J), columns(I, J)))

    def family_laws(table, rows, columns):
        """(probe, row, sides) of the antitone and the at-zero law, and the
        intersection probe."""
        def antitone(i, j):
            masks = [mask for _, mask in family(i, j, table)]
            for lower, higher in zip(masks, masks[1:]):
                if higher & ~lower:
                    return "family grows with the threshold"
            return None

        def nested(masks):
            """Per pair, higher & lower against higher over consecutive ranks."""
            kept = [map(int.__and__, higher, lower) for lower, higher in zip(masks, masks[1:])]
            return list(zip(*kept)), list(zip(*masks[1:]))

        def at_zero(i, j):
            return None if crisp_masks[table[cuts[i][0]][cuts[j][0]]] == full else ""

        def closed_under_intersection(i, j):
            """The masks over P intersect to the mask at max P; checked on
            pairs, which is complete (see :func:`_first_failing_pair`)."""
            return _first_failing_pair(chain, family(i, j, table), int.__and__)

        return ((antitone, lambda i: nested(rows(i)), lambda I, J: nested(columns(I, J))),
                (at_zero, lambda i: (rows(i)[0], [full] * n),
                 lambda I, J: (columns(I, J)[0], [full] * len(I))),
                closed_under_intersection)

    run = lambda law, probe, row=None, sides=None, verdict=None: _run_law(  # noqa: E731
        report, fis, law, 2, probe, plan=plan, row=row, sides=sides, verdict=verdict)
    masks = {"meet": masks_of(crisp.meet_t), "join": masks_of(crisp.join_t)}
    run("meet-cut-identity", *identity(crisp.meet_t, tabs.meet_t, *masks["meet"]))
    run("join-cut-identity", *identity(crisp.join_t, tabs.join_t, *masks["join"]))
    for op_name, table in (("meet", crisp.meet_t), ("join", crisp.join_t)):
        antitone, at_zero, closed = family_laws(table, *masks[op_name])
        antitone_verdict = run(f"{op_name}-cut-family-antitone", *antitone)
        run(f"{op_name}-cut-family-at-zero", *at_zero)
        run(f"{op_name}-cut-family-intersection", closed, verdict=antitone_verdict)
    return report


# -- endpoint lemmas ----------------------------------------------------------


def _endpoint_lemmas(report: LawReport, lattice: FiniteLattice, fis: list,
                     distributive: bool, *, plan: Callable) -> LawReport:
    """Finite-supremum identities for cut endpoints.

    For P a nonempty set of thresholds: the join of the lower endpoints
    over P is the lower endpoint at max P, and dually for upper endpoints;
    the same holds for the paired functions lower₁(p) ⊓ lower₂(p) and
    upper₁(p) ⊔ upper₂(p).  A join over P equals its member at max P
    exactly when every member lies below that one (dually for meets), so
    checking the pairs r < s is complete and finds the same first witness
    (see :func:`_first_failing_pair`).

    Each identity is thus the isotonicity of ``lower`` (antitonicity of
    ``upper``), or of the meet (join) of two such functions, and holds on
    every lattice.  The suite is still asserted only on a distributive
    carrier, with a note on any other, as the pinned reports record.

    One fold probe per side serves both its laws: the single-item law is
    the paired law at ``(i, i)``, since ⊓ and ⊔ are idempotent and the
    pair's thresholds are then the item's own.

    A paired law takes a pass from its single-item law when that law's
    :func:`_run_law` returned ``"pass"`` over an exhaustive plan, i.e. over
    every item.  An item's row over all grade ranks is its threshold
    values, each repeated up to the next threshold, and the order is
    transitive, so every item's ``lower`` is then isotone on all ranks; ⊓
    is monotone, so every pair's ``lower₁ ⊓ lower₂`` is isotone on every
    set of ranks, its thresholds included, and no pair is probed; dually
    for ``upper`` under the meet.
    Otherwise every planned pair is scanned as above.
    """
    chain = report.grades
    note = ("" if distributive else
            "reference lattice is not distributive: hypothesis not met, lemma not asserted")
    top_i, bottom_i = lattice.index(lattice.top), lattice.index(lattice.bottom)
    ranks = _threshold_ranks(fis)
    ends = [[fi._rank_endpoints(r) for r in range(len(chain))] for fi in fis]  # by grade rank
    # an empty cut ends at (top, bottom): the meet and the join of no members
    lowers = [[top_i if lo is None else lo for lo, _ in row] for row in ends]
    uppers = [[bottom_i if hi is None else hi for _, hi in row] for row in ends]

    def fold(table, inner, op):
        def probe(i, j):
            ends_i, ends_j = table[i], table[j]
            return _first_failing_pair(chain, ((r, inner(ends_i[r], ends_j[r]))
                                              for r in iter_bits(ranks[i] | ranks[j])), op)
        return probe

    join, meet = lattice.join_index, lattice.meet_index
    run = lambda law, arity, probe, verdict=None: _run_law(  # noqa: E731
        report, fis, law, arity, probe, plan=plan, asserted=distributive, note=note,
        verdict=verdict)
    sides = (("lower-endpoint-supremum", "paired-lower-meet-supremum", fold(lowers, meet, join)),
             ("upper-endpoint-infimum", "paired-upper-join-infimum", fold(uppers, join, meet)))
    by_item = [run(law, 1, lambda i: probe(i, i)) for law, _, probe in sides]
    every_item = plan(len(fis), 1)[1] == "exhaustive"
    for (_, law, probe), verdict in zip(sides, by_item):
        run(law, 2, probe, "pass" if verdict == "pass" and every_item else None)
    return report


# -- structural identities ----------------------------------------------------


def _interval_structure(report: LawReport, fis: list, *, plan: Callable) -> LawReport:
    """Per-cut boundary-grade identities for fuzzy intervals.

    At every threshold with a nonempty cut: the meet of the boundary
    grades M(⊓cut) ∧ M(⊔cut) equals the minimum grade over the cut, and
    cutting again at that minimum recovers the same cut.
    """
    def boundary_cuts(fi: FuzzyInterval):
        """(rank, cut mask, rank of M(⊓cut) ∧ M(⊔cut)) per threshold with a
        nonempty cut.

        The cut is taken pointwise by rank; its endpoints come from the
        endpoint chain.
        """
        fuzzy = fi.fuzzy
        vals = fuzzy.ranks
        for r, (lo, hi) in zip(fi._levels, fi._cut_ends()):
            mask = fuzzy._rank_cut_mask(r)
            if mask:
                yield r, mask, min(vals[lo], vals[hi])

    def boundary_meet(i):
        fuzzy = fis[i].fuzzy
        vals = fuzzy.ranks
        for r, mask, boundary in boundary_cuts(fis[i]):
            if boundary != min(vals[b] for b in iter_bits(mask)):
                return f"threshold {format_grade(fuzzy.chain[r])}"
        return None

    def cut_recovery(i):
        fuzzy = fis[i].fuzzy
        for r, mask, boundary in boundary_cuts(fis[i]):  # the public cut, at the grade
            if fuzzy.cut_mask(fuzzy.chain[boundary]) != mask:
                return f"threshold {format_grade(fuzzy.chain[r])}"
        return None

    _run_law(report, fis, "cut-boundary-grade-meet", 1, boundary_meet, plan=plan)
    _run_law(report, fis, "cut-recovery-from-boundary-grades", 1, cut_recovery, plan=plan)
    return report


# -- suite registry ------------------------------------------------------------


def run_suite(name: str, lattice: FiniteLattice, grades=(0, Fraction(1, 2), 1), *,
              budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED) -> list[LawReport]:
    """Run one named suite (or ``all``) and return its reports.

    The suites of one call share each collection, its op table and the
    carrier's distributivity verdict, each built on first use.  The
    fuzzy-interval table is built by the first of ``axioms``,
    ``distributivity`` or ``cut-identities`` to run, and Int(L) (the
    crisp table's items and ``crisp-axioms``' order rows; see
    :func:`_interval_space`) by the first of ``cut-identities`` and the
    crisp suites, once per call: the enumeration of the fuzzy intervals
    does not derive it.  Each sampled (count, arity) space is drawn once and
    read by every law over it.  Only the axiom suites build order rows,
    from the members' memberships by :func:`_order_rows`.  A budget that
    is not a positive int raises ``ValueError`` before anything is built.
    """
    if name == "all":
        names = SUITES
    elif name in SUITES:
        names = (name,)
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES + ('all',))}")
    _require_positive(budget)
    chain = validate_grades(grades)
    label = lattice.name or f"<{len(lattice.elements)} elements>"
    plan = _planner(budget, seed)
    fis = functools.cache(lambda: enumerate_fuzzy_intervals(lattice, chain))
    fi_table = functools.cache(lambda: _OpTables(fis(), FuzzyInterval.join, FuzzyInterval.meet))
    space = functools.cache(lambda: _interval_space(lattice))
    crisp = functools.cache(lambda: _OpTables(space()[0], CrispInterval.hull,
                                              CrispInterval.intersection))
    distributive = functools.cache(lambda: is_distributive(lattice)[0])
    suites = {
        "axioms": lambda r: _lattice_axioms(
            r, fi_table(), _order_rows([fi.fuzzy.ranks for fi in fis()]), plan=plan),
        "distributivity": lambda r: _distributivity(r, fi_table(), asserted=distributive(),
                                                    plan=plan),
        "cut-identities": lambda r: _cut_identities(r, lattice, fi_table(), crisp(), plan=plan),
        "endpoints": lambda r: _endpoint_lemmas(r, lattice, fis(), distributive(), plan=plan),
        "structure": lambda r: _interval_structure(r, fis(), plan=plan),
        "crisp-axioms": lambda r: _lattice_axioms(r, crisp(), space()[1], plan=plan),
        "crisp-distributivity": lambda r: _distributivity(r, crisp(), asserted=distributive(),
                                                          plan=plan),
    }
    # the crisp suites are graded by no chain
    return [suites[suite](LawReport(suite, label, () if suite.startswith("crisp-") else chain))
            for suite in names]
