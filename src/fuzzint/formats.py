"""Lattice and fuzzy-set JSON documents.

A lattice document is ``{"name", "elements", "covers"}`` and nothing else;
elements are unique strings, covers are ``[lower, upper]`` pairs over them.
A fuzzy-set document is ``{"lattice", "memberships"}`` where ``lattice`` is
either a fixture name (``"m3"``, ``"chain3"``, ``"product(chain2,chain3)"``,
...) or an inline lattice document, and ``memberships`` maps every element
to a grade string — ``"num/den"`` or a decimal literal, both parsed
exactly.  Emission is canonical (sorted keys, lowest-terms grades, Hasse
covers in canonical order), so parse → emit is byte-stable.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from pathlib import Path

from .errors import FormatError, FuzzintError, InvalidGrade, LatticeMismatch, UnknownElement
from .fuzzyintervals import FuzzyInterval
from .fuzzysets import FuzzySet, as_grade, format_grade
from .lattice import FiniteLattice, _fixture, format_element, order_closure


def _require_keys(doc: dict, keys: set[str], what: str) -> None:
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be a JSON object")
    extra = set(doc) - keys
    if extra:
        raise FormatError(f"{what} has unsupported fields: {', '.join(sorted(extra))}")
    missing = keys - set(doc)
    if missing:
        raise FormatError(f"{what} is missing fields: {', '.join(sorted(missing))}")


def _lattice_fields(doc) -> tuple:
    """``(name, elements, pairs)`` of a lattice document, each field checked once."""
    _require_keys(doc, {"name", "elements", "covers"}, "a lattice document")
    name = doc["name"]
    if not isinstance(name, str):
        raise FormatError("lattice name must be a string")
    elements = doc["elements"]
    if (not isinstance(elements, list) or not elements
            or not all(map(isinstance, elements, repeat(str)))):
        raise FormatError("elements must be a nonempty array of strings")
    if len(set(elements)) != len(elements):
        raise FormatError("element ids must be unique")
    covers = doc["covers"]
    if not (isinstance(covers, list) and all(map(isinstance, covers, repeat(list)))
            and set(map(len, covers)) <= {2}
            and all(map(isinstance, chain.from_iterable(covers), repeat(str)))):
        raise FormatError("covers must be an array of [lower, upper] string pairs")
    return name, elements, list(map(tuple, covers))


def _build_lattice(fields, build):
    # ``build`` is FiniteLattice or order_closure; both take the same fields
    name, elements, pairs = fields
    try:
        return build(elements, pairs, name=name)
    except UnknownElement as exc:
        raise FormatError(f"cover refers to an undeclared element: {exc}") from exc


def lattice_from_json(doc) -> FiniteLattice:
    fields = _lattice_fields(doc)
    lattice = _build_lattice(fields, FiniteLattice)
    name, elements, pairs = fields
    # a copy of the validated document, so an inline copy of it resolves
    # to this lattice by one dict comparison (_resolve_lattice)
    lattice._source = {"name": name, "elements": list(elements),
                       "covers": list(map(list, pairs))}
    return lattice


def _element_names(lattice: FiniteLattice):
    """The rendered elements in canonical order; elements that are all
    exact strings render as themselves, so the tuple is returned as is."""
    elements = lattice.elements
    if set(map(type, elements)) == {str}:
        return elements
    return list(map(format_element, elements))  # product elements are tuples


def lattice_to_json(lattice: FiniteLattice) -> dict:
    names = _element_names(lattice)
    if names is lattice.elements:
        covers = list(map(list, lattice.covers()))
    else:
        covers = [[format_element(lo), format_element(hi)] for lo, hi in lattice.covers()]
    return {"name": lattice.name, "elements": list(names), "covers": covers}


def _lattice_reference(lattice: FiniteLattice):
    """Fixture name when it faithfully reproduces the lattice, else inline.
    A fixture of another size is not built."""
    if lattice.name:
        try:
            count, build = _fixture(lattice.name)
        except (ValueError, FuzzintError):
            count = None
        if count == len(lattice) and (fixture := build()) == lattice:
            return fixture.name
    return lattice_to_json(lattice)


def _resolve_lattice(ref, lattice: FiniteLattice | None) -> FiniteLattice:
    if isinstance(ref, str):
        try:
            count, build = _fixture(ref)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        if lattice is None:
            return build()
        if count != len(lattice):  # a fixture of another size is not built
            raise LatticeMismatch("the fuzzy set's lattice does not match the provided lattice")
        resolved = build()
        if resolved == lattice:
            return lattice
        # a product fixture's elements are tuples; a lattice file has their renderings
        ref = lattice_to_json(resolved)
    elif not isinstance(ref, dict):
        raise FormatError("the lattice field must be a name or an inline lattice object")
    elif lattice is None:
        return lattice_from_json(ref)
    elif ref == lattice._source:
        return lattice
    # else match by order alone; a mismatch builds, so NotALattice comes first
    fields = _lattice_fields(ref)
    ordered, _, up, _, _ = _build_lattice(fields, order_closure)
    if ordered == lattice.elements and up == lattice._up:
        return lattice
    _build_lattice(fields, FiniteLattice)
    raise LatticeMismatch("the fuzzy set's lattice does not match the provided lattice")


def fuzzy_set_from_json(doc, lattice: FiniteLattice | None = None) -> FuzzySet:
    """Parse a fuzzy-set document; with ``lattice`` given, the document's
    lattice must match it.

    A document that names each element once with a JSON string or int
    grade is read in bulk: its grades in element order, ``as_grade`` once
    per distinct grade.  Any other, or one with a grade ``as_grade``
    refuses, is scanned in document order, which raises for its first
    fault (:func:`_memberships_by_scan`).
    """
    _require_keys(doc, {"lattice", "memberships"}, "a fuzzy-set document")
    target = _resolve_lattice(doc["lattice"], lattice)
    raw = doc["memberships"]
    if not isinstance(raw, dict):
        raise FormatError("memberships must be an object")
    names = _element_names(target)
    index = target._index if names is target.elements else dict(zip(names, range(len(names))))
    if raw.keys() == index.keys():
        grades = list(map(raw.__getitem__, index))
        if set(map(type, grades)) <= {str, int}:  # no float, no bool
            try:
                parsed = {grade: as_grade(grade) for grade in set(grades)}
            except InvalidGrade:
                pass
            else:
                return FuzzySet.from_values(target, map(parsed.__getitem__, grades))
    return FuzzySet.from_values(target, _memberships_by_scan(raw, index))


def _memberships_by_scan(raw: dict, index: dict) -> list:
    """The grades of ``raw`` in element order, read key by key in document
    order; the first fault met raises, and a missing element after the scan."""
    values = [None] * len(index)
    parsed = {}  # raw grade -> as_grade result; documents repeat grades
    for key, grade in raw.items():
        i = index.get(key)
        if i is None:
            raise FormatError(f"membership for unknown element {key!r}")
        if isinstance(grade, float):
            raise FormatError(
                f"grade for {key!r} is a JSON float; use a string for an exact value")
        if not isinstance(grade, (str, int)) or isinstance(grade, bool):
            raise FormatError(f"grade for {key!r} must be a string")
        if grade not in parsed:
            try:
                parsed[grade] = as_grade(grade)
            except InvalidGrade as exc:
                raise FormatError(f"bad grade for {key!r}: {exc}") from exc
        values[i] = parsed[grade]
    if len(raw) < len(index):  # every key named a distinct element
        missing = [name for name in index if name not in raw]
        raise FormatError("memberships must be total; missing: " + ", ".join(sorted(missing)))
    return values


def memberships_to_json(m) -> dict:
    """Element name → grade string for a fuzzy set or fuzzy interval; each
    attained grade is rendered once and read by its rank."""
    fuzzy = m.fuzzy if isinstance(m, FuzzyInterval) else m
    chain, ranks = fuzzy.chain, fuzzy.ranks
    grades = {r: format_grade(chain[r]) for r in set(ranks)}
    return dict(zip(_element_names(fuzzy.lattice), map(grades.__getitem__, ranks)))


def fuzzy_set_to_json(m: FuzzySet) -> dict:
    return {"lattice": _lattice_reference(m.lattice), "memberships": memberships_to_json(m)}


def dumps_canonical(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _read_json(path) -> object:
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError):
        try:  # Path's error names the path normalized ("./a//b" as "a/b")
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an over-long number; too deep a nesting
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def load_lattice(path) -> FiniteLattice:
    return lattice_from_json(_read_json(path))


def load_fuzzy_set(path, lattice: FiniteLattice | None = None) -> FuzzySet:
    return fuzzy_set_from_json(_read_json(path), lattice)
