"""The benchmark's workloads: inputs, the timed request, and output checks.

Every workload is a closed loop with one client: the next request is sent
only after the previous one returned.  A workload builds its request list
from the seed, ``setup`` imports fuzzint and builds the carrier lattices,
``execute`` is the timed call into the library, and ``check`` compares one
output against the golden outputs captured from the library (and, for
``docs``, against checks computed without the library).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

from docs_corpus import build_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = HERE / "out"


class SetupError(RuntimeError):
    """The benchmark cannot run here (no sources, stale golden outputs)."""


def import_fuzzint(*modules):
    """Import fuzzint afresh from ``src`` and return the named submodules."""
    if not (SRC / "fuzzint" / "__init__.py").is_file():
        raise SetupError(f"no fuzzint sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "fuzzint" or n.startswith("fuzzint.")]:
        del sys.modules[name]
    import importlib
    package = importlib.import_module("fuzzint")
    if Path(package.__file__).resolve().parent != SRC / "fuzzint":
        raise SetupError(f"fuzzint was imported from {package.__file__}, not {SRC}")
    return [importlib.import_module("fuzzint." + m) for m in modules]


def load_golden(name: str) -> dict:
    path = GOLDEN / f"{name}.json"
    if not path.is_file():
        raise SetupError(f"missing golden outputs {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- law verification -------------------------------------------------------


def _grades(text: str) -> tuple:
    return tuple(Fraction(g) for g in text.split(","))


class LawsWorkload:
    """One request is one ``run_suite("all", ...)`` call on one carrier and
    grade chain.  The seed orders the requests and is the sampling seed."""

    def __init__(self, name: str, specs, budget=None):
        self.name = name
        self.specs = specs          # (fixture, comma-separated grades)
        self.budget = budget        # None: the library's default budget
        self.golden = None
        self.lattices = {}

    def setup(self) -> None:
        lattice_mod, laws_mod = import_fuzzint("lattice", "laws")
        self.laws = laws_mod
        self.lattices = {fixture: lattice_mod.standard_lattice(fixture)
                         for fixture, _ in self.specs}

    def requests(self, seed: int) -> list:
        order = list(self.specs)
        random.Random(seed).shuffle(order)
        self.seed = seed
        return [(fixture, grades) for fixture, grades in order]

    def label(self, request) -> str:
        return f"{request[0]} x {{{request[1]}}}"

    def execute(self, request):
        fixture, grades = request
        kwargs = {"seed": self.seed}
        if self.budget is not None:
            kwargs["budget"] = self.budget
        return self.laws.run_suite("all", self.lattices[fixture], _grades(grades), **kwargs)

    def check(self, request, reports) -> bool:
        """Exhaustive checks must match the golden JSON exactly; sampled
        checks must match in law, status and asserted."""
        if self.golden is None:
            self.golden = load_golden(self.name)
        expected = self.golden["|".join(request)]
        got = [r.as_json() for r in reports]
        if len(got) != len(expected):
            return False
        for want, have in zip(expected, got):
            if [want[k] for k in ("suite", "lattice", "grades", "passed")] != \
                    [have[k] for k in ("suite", "lattice", "grades", "passed")]:
                return False
            if len(want["checks"]) != len(have["checks"]):
                return False
            for w, h in zip(want["checks"], have["checks"]):
                if "mode" not in w:
                    if w != h:
                        return False
                elif [w[k] for k in ("law", "status", "asserted")] != \
                        [h.get(k) for k in ("law", "status", "asserted")]:
                    return False
        return True

    def capture(self) -> dict:
        """Golden outputs: every request's report JSON at sampling seed 0."""
        self.setup()
        self.requests(0)
        return {"|".join(req): [r.as_json() for r in self.execute(req)]
                for req in self.specs}


def laws_exhaustive() -> LawsWorkload:
    # The paper's exhaustive verification, as the acceptance suite runs it.
    return LawsWorkload("laws-exhaustive", [
        ("chain2", "0,1/3,2/3,1"), ("chain3", "0,1/2,1"), ("boolean2", "0,1/2,1"),
        ("m3", "0,1/2,1"), ("n5", "0,1/2,1"), ("chain4", "0,1/2,1")])


def laws_sampled() -> LawsWorkload:
    # Collections too large for exhaustive triples: 118 and 86 fuzzy
    # intervals, so the budget of 2000 turns the arity-2 and -3 laws into
    # seeded samples while the op tables are still built in full.
    return LawsWorkload("laws-sampled", [
        ("m3", "0,1/3,2/3,1"), ("chain5", "0,1/2,1")], budget=2000)


# -- documents through the command line ----------------------------------------


# Requests per lattice and pass; six lattices give 1,500.  The mix is fixed
# so that seeds differ only in order and in which documents are drawn.
VALIDATE_PER_LATTICE = 25
CLASSIFY_PER_LATTICE = 100      # half fuzzy intervals, half other fuzzy sets
OP_PER_LATTICE = 125            # alternating meet and join
NON_INTERVAL_OPS_PER_LATTICE = 6


class DocsWorkload:
    """``fuzzint.cli.main(argv)`` in-process over seeded document files:
    10% validate, 40% classify (half fuzzy intervals, half fuzzy sets that
    are not), 50% meet/join (about 5% with a non-interval operand, which
    must exit 1)."""

    name = "docs"

    def __init__(self):
        self.golden = None
        self.work = None
        self.corpus = build_corpus()
        self.by_name = {lat.name: lat for lat in self.corpus}

    def setup(self) -> None:
        """Import fuzzint and build the six carriers; every request still
        parses its own lattice, as the command line does."""
        cli, formats = import_fuzzint("cli", "formats")
        self.cli = cli     # main is looked up per call, so a traced run sees it
        self.lattices = [formats.lattice_from_json(lat.document()) for lat in self.corpus]

    def write_documents(self) -> None:
        """Write the corpus to a fresh work directory; refuse stale goldens."""
        if self.golden is None:
            self.golden = load_golden(self.name)
        if self.golden["corpus"] != corpus_digest(self.corpus):
            raise SetupError("the docs corpus changed since its golden outputs were "
                             "captured; run perfbench/capture.py")
        OUT.mkdir(exist_ok=True)
        self.work = OUT / f"docs-{id(self):x}"
        shutil.rmtree(self.work, ignore_errors=True)
        for lat in self.corpus:
            folder = self.work / lat.name
            folder.mkdir(parents=True)
            (folder / "lattice.json").write_text(json.dumps(lat.document(), indent=2))
            for kind, docs in (("fi", lat.intervals), ("fs", lat.others)):
                for i, values in enumerate(docs):
                    (folder / f"{kind}{i}.json").write_text(
                        json.dumps(lat.fuzzy_document(values), indent=2))

    def cleanup(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)
            self.work = None

    def _path(self, lat, name) -> str:
        return str(self.work / lat / f"{name}.json")

    def requests(self, seed: int) -> list:
        """(key, argv) pairs; the key names the golden output."""
        if self.work is None:
            self.write_documents()
        rng = random.Random(seed)
        slots = []
        for lat in self.corpus:
            slots += [("validate", lat, k % 2) for k in range(VALIDATE_PER_LATTICE)]
            slots += [("classify", lat, k % 2, ("fi", "fs")[k // 2 % 2])
                      for k in range(CLASSIFY_PER_LATTICE)]
            slots += [("op", lat, ("meet", "join")[k % 2], k < NON_INTERVAL_OPS_PER_LATTICE)
                      for k in range(OP_PER_LATTICE)]
        rng.shuffle(slots)
        out = []
        for kind, lat, *rest in slots:
            lattice_path = self._path(lat.name, "lattice")
            if kind == "validate":
                fmt = ("text", "json")[rest[0]]
                key = ("validate", lat.name, fmt)
                argv = ["validate", lattice_path]
            elif kind == "classify":
                fmt, doc_kind = ("text", "json")[rest[0]], rest[1]
                i = rng.randrange(len(lat.intervals if doc_kind == "fi" else lat.others))
                key = ("classify", lat.name, doc_kind, i, fmt)
                argv = ["classify", lattice_path, self._path(lat.name, f"{doc_kind}{i}")]
            else:
                op, non_interval = rest
                fmt = "text"
                operands = [("fi", rng.randrange(len(lat.intervals))) for _ in range(2)]
                if non_interval:
                    operands[rng.randrange(2)] = ("fs", rng.randrange(len(lat.others)))
                key = ("op", lat.name, op, *operands)
                argv = ["op", op, lattice_path] + [
                    self._path(lat.name, f"{doc_kind}{i}") for doc_kind, i in operands]
            out.append((key, argv + (["--format", "json"] if fmt == "json" else [])))
        return out

    def label(self, request) -> str:
        return request[0][0]

    def execute(self, request):
        stdout, stderr = sys.stdout, sys.stderr
        sys.stdout = buf = io.StringIO()
        sys.stderr = io.StringIO()
        try:
            code = self.cli.main(request[1])
        finally:
            sys.stdout, sys.stderr = stdout, stderr
        return code, buf.getvalue()

    def expected(self, key):
        """(exit code, stdout digest) captured for this request."""
        g = self.golden
        if key[0] == "validate":
            return tuple(g["validate"][key[1]][key[2]])
        if key[0] == "classify":
            _, lat, kind, i, fmt = key
            return tuple(g["classify"][lat][kind][fmt][i])
        _, lat, op, left, right = key
        if left[0] == "fs" or right[0] == "fs":
            return 1, digest("")       # refused: an operand is not a fuzzy interval
        count = len(self.by_name[lat].intervals)
        return 0, g["op"][lat][op][left[1] * count + right[1]]

    def check(self, request, output) -> bool:
        key = request[0]
        code, stdout = output
        if (code, digest(stdout)) != self.expected(key):
            return False
        if key[0] == "classify":
            label = (json.loads(stdout)["classification"] if stdout.startswith("{")
                     else stdout.split("\n", 1)[0].removeprefix("classification: "))
            return (label == "fuzzy-interval") == (key[2] == "fi")
        if key[0] == "op" and code == 0:
            return self._check_op(key, stdout)
        return True

    def _check_op(self, key, stdout) -> bool:
        """Meet is the pointwise min; join lies above both operands and is a
        fuzzy interval by this benchmark's own cut test."""
        _, lat, op, (_, i), (_, j) = key
        corpus = self.by_name[lat]
        order = corpus.order
        left, right = corpus.intervals[i], corpus.intervals[j]
        got = json.loads(stdout)["memberships"]
        if set(got) != set(order.elements):
            return False
        values = [Fraction(got[e]) for e in order.elements]
        if op == "meet":
            return values == [min(a, b) for a, b in zip(left, right)]
        return (all(v >= max(a, b) for v, a, b in zip(values, left, right))
                and order.is_fuzzy_interval(values))

    def capture(self) -> dict:
        """Golden outputs for every request the stream can draw."""
        self.golden = {"corpus": corpus_digest(self.corpus)}
        self.setup()
        self.write_documents()
        try:
            def run(argv):
                code, stdout = self.execute((None, argv))
                return [code, digest(stdout)]

            fmts = {"text": [], "json": ["--format", "json"]}
            g = {"corpus": corpus_digest(self.corpus), "validate": {}, "classify": {}, "op": {}}
            for lat in self.corpus:
                lp = self._path(lat.name, "lattice")
                g["validate"][lat.name] = {f: run(["validate", lp] + a)
                                           for f, a in fmts.items()}
                g["classify"][lat.name] = {
                    kind: {f: [run(["classify", lp, self._path(lat.name, f"{kind}{i}")] + a)
                               for i in range(len(docs))] for f, a in fmts.items()}
                    for kind, docs in (("fi", lat.intervals), ("fs", lat.others))}
                n = len(lat.intervals)
                g["op"][lat.name] = {}
                for op in ("meet", "join"):
                    row = []
                    for i in range(n):
                        for j in range(n):
                            code, d = run(["op", op, lp, self._path(lat.name, f"fi{i}"),
                                           self._path(lat.name, f"fi{j}")])
                            if code != 0:
                                raise SetupError(f"op {op} failed on {lat.name} fi{i} fi{j}")
                            row.append(d)
                    g["op"][lat.name][op] = row
            return g
        finally:
            self.cleanup()


def corpus_digest(corpus) -> str:
    h = hashlib.sha256()
    for lat in corpus:
        h.update(json.dumps(lat.document(), sort_keys=True).encode())
        for values in lat.intervals + lat.others:
            h.update(json.dumps(lat.fuzzy_document(values), sort_keys=True).encode())
    return h.hexdigest()


WORKLOADS = {"laws-exhaustive": laws_exhaustive, "laws-sampled": laws_sampled,
             "docs": DocsWorkload}
