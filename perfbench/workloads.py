"""The four benchmark workloads: their input pools, round mixes and instance runners.

Every workload draws its instances from a finite pool of JSON documents.
The reference file (reference.json) holds one frozen digest per pool entry,
so every verdict the benchmark produces is checked exactly.

A run is a closed loop with one client: rounds are drawn from the pool with
a random.Random seeded by the workload seed, and each instance starts only
after the previous one has finished.  A round takes one instance from each
stratum of the workload.  The strata fix the share of every cost class in
every round, so the percentiles sit inside the same class on every seed.
The parity of the seed picks one half of every stratum, so an even and an
odd seed draw disjoint inputs (single-member strata aside):

  finch      30 point orthosets of Sasaki spaces (family sizes 6 to 32),
             each under an element order drawn from the seed; p50 falls in
             a cluster of six near 50 ms, p90 in a cluster of six near
             390 ms (see FINCH_ROUND).
  sasaki     5 x random_orthoset(18, 0.2, s), 20 x p = 0.5, 4 x p = 0.8
             and the p = 0.2, seed 0 tail; p50 falls inside the p = 0.5
             class, p90 inside the p = 0.8 class, below the tail (see
             SASAKI_STRATA).
  survey     21 orthosets (one per n in 6..12 and p in 0.3/0.5/0.7), 6
             lattices (one per size band) and one corpus golden run.
  hermitian  one instance per dimension 2, 3 and 4, each a fuzz_hermitian
             call over Q and one over Qi; p50 falls inside d = 3, p90 inside
             d = 4.

Instance runners receive the program's modules through a Program object
and look every function up on the module at call time, so a traced run
that rebinds the module attributes sees every call.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator


class CrossCheckError(Exception):
    """A built-in cross-check of the program disagreed with itself."""


@dataclass(frozen=True)
class Program:
    """The imported orthokit package and its corpus module."""

    ok: Any
    corpus: Any


@dataclass(frozen=True)
class Instance:
    """One benchmark input: the runner that handles it, its JSON text, and
    the reference entry its digest must match."""

    ref: str
    runner: str
    doc: str


def plain(value: Any) -> Any:
    """JSON-ready form of verdicts, witnesses and reports."""
    if hasattr(value, "holds") and hasattr(value, "witness"):
        return [value.holds, plain(value.witness), value.note]
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(plain(v) for v in value)
    return value


def digest(result: Any) -> str:
    text = json.dumps(plain(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ------------------------------------------------------------------ runners


def run_finch(prog: Program, doc: str) -> Any:
    """`orthokit finch`: the induced-map laws on a Sasaki space.

    The laws hold on every space of the pool, so the result also carries
    each orthoclosed set with its perp, as sorted labels: a value that
    tells the spaces apart and does not depend on the element order.
    """
    ok = prog.ok
    x = ok.Orthoset.from_json(json.loads(doc))
    rep = ok.finch_report(x)
    family = sorted(
        [sorted(x.labels_of(a)), sorted(x.labels_of(x.perp(a)))]
        for a in x.orthoclosed_family()
    )
    return {"ok": rep.ok, "laws": rep.laws, "family": family}


def run_sasaki(prog: Program, doc: str) -> Any:
    """`orthokit sasaki --target` for every orthoclosed target.

    Refutations are accepted when verify_refutation re-checks them, never
    by their bytes; a shortcut clause must give the map the search finds.
    """
    ok = prog.ok
    x = ok.Orthoset.from_json(json.loads(doc))
    out = []
    for a in x.orthoclosed_family():
        shortcut = ok.shortcut_construct(x, a)
        v = ok.find_sasaki_map(x, a)
        if v.exists:
            table = v.witness.to_json(x)["map"]
            if shortcut is not None and shortcut.witness.table != v.witness.table:
                raise CrossCheckError(f"shortcut {shortcut.clause} disagrees with the search")
            out.append([x.labels_of(a), shortcut.clause if shortcut else None, table])
        else:
            if shortcut is not None:
                raise CrossCheckError("shortcut builds a map the search refutes")
            if not ok.verify_refutation(x, v.refutation):
                raise CrossCheckError("refutation trace fails verification")
            out.append([x.labels_of(a), None, None])
    return out


def run_orthoset_survey(prog: Program, doc: str) -> Any:
    """`orthokit check` and `orthokit lattice` on one orthoset document."""
    ok = prog.ok
    x = ok.Orthoset.from_json(json.loads(doc))
    rep = ok.property_report(x)
    if rep.sasaki_naive.holds != rep.sasaki_reduced.holds:
        raise CrossCheckError("naive and reduced Sasaki modes disagree")
    out: dict[str, Any] = {
        "n": rep.n,
        "rank": rep.rank,
        "point_closed": rep.point_closed,
        "irreducible": rep.irreducible,
        "dacey": rep.dacey,
        "sasaki_naive": rep.sasaki_naive,
        "sasaki_reduced": rep.sasaki_reduced,
        "transitive": rep.transitive,
    }
    try:
        via_lattice = ok.is_dacey(x, "lattice")
    except ok.BudgetExceededError:
        out["lattice"] = "cap"
        return out
    if via_lattice.holds != rep.dacey.holds:
        raise CrossCheckError("criterion and lattice routes to Dacey disagree")
    lat = ok.orthoclosed_lattice(x)
    cov = ok.atoms_and_covering(lat)
    out["lattice"] = {
        "size": lat.n,
        "orthomodular": ok.is_orthomodular(lat),
        "atoms": [lat.labels[i] for i in lat.atoms],
        "atomistic": cov.atomistic,
        "covering": cov.covering,
    }
    return out


def run_lattice_survey(prog: Program, doc: str) -> Any:
    """`orthokit oml` plus `oml --induced` on every principal target."""
    ok = prog.ok
    lat = ok.build_lattice(json.loads(doc))
    om = ok.is_orthomodular(lat)
    if not om.holds:
        raise CrossCheckError("survey lattices are orthomodular by construction")
    facts = ok.projection_facts(lat)
    wilce = ok.wilce_check(lat)
    if not wilce.agree:
        raise CrossCheckError("covering and basic-to-basic sides disagree")
    x = ok.oml_to_orthoset(lat)
    to_lat = [lat.index(label) for label in x.labels]
    induced = []
    for p in range(lat.n):
        a = frozenset(e for e in range(x.n) if lat.leq(to_lat[e], p))
        induced.append(ok.sasaki_from_oml(lat, a, x).to_json(x))
    return {
        "size": lat.n,
        "facts": facts,
        "covering": wilce.covering,
        "basic_to_basic": wilce.basic_to_basic,
        "induced": induced,
    }


def run_golden(prog: Program, doc: str) -> Any:
    """`orthokit corpus run-golden`."""
    outcomes = prog.corpus.run_golden(json.loads(doc)["only"])
    if not all(o.ok for o in outcomes):
        raise CrossCheckError("golden corpus mismatch")
    return [o.to_json() for o in outcomes]


def run_hermitian(prog: Program, doc: str) -> Any:
    """`orthokit hermitian fuzz --count 1` over Q and over Qi."""
    params = json.loads(doc)
    out = {}
    for field in ("Q", "Qi"):
        rep = prog.ok.fuzz_hermitian(field, 1, seed=params["seed"], dims=tuple(params["dims"]))
        if rep.failures:
            raise CrossCheckError(f"fuzz over {field} failed: {rep.failures}")
        out[field] = {"checks": rep.checks, "failures": rep.failures}
    return out


RUNNERS: dict[str, Callable[[Program, str], Any]] = {
    "finch": run_finch,
    "sasaki": run_sasaki,
    "orthoset": run_orthoset_survey,
    "lattice": run_lattice_survey,
    "golden": run_golden,
    "hermitian": run_hermitian,
}


def run_instance(prog: Program, inst: Instance) -> Any:
    return RUNNERS[inst.runner](prog, inst.doc)


# ---------------------------------------------------------------- workloads


def _dump(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True)


def _shuffled(doc: dict[str, Any], rng: random.Random) -> dict[str, Any]:
    """The same orthoset under another element order."""
    elements = list(doc["elements"])
    pairs = [list(p) for p in doc["orthogonal"]]
    rng.shuffle(elements)
    rng.shuffle(pairs)
    return {"name": doc["name"], "elements": elements, "orthogonal": pairs}


# One round, in cost order on the reference machine: 12 instances below
# the p50 cluster, the p50 cluster (6 near 50 ms), 6 between, and the p90
# cluster (6 near 390 ms).  The percentiles fall at the centres of their
# clusters, away from the gaps between objects of different cost.
FINCH_ROUND = (
    "hs22", "k3", "mo3", "b3", "hs13", "mo4", "hs23", "mo5", "mo6", "hs33", "k4", "mo7",
    "hs14", "b4", "mo8", "hs14", "b4", "mo8",
    "hs24", "mo9", "mo11", "mo13", "k5", "mo14",
    "mo15", "hs44", "mo15", "hs44", "mo15", "hs44",
)
FINCH_WARMUP = ("k2", "hs12", "mo2")
FINCH_VARIANTS = 8


def _finch_space(prog: Program, name: str) -> Any:
    """Kn is the complete graph; bn, mon and hsmn are the points of the
    Boolean lattice, of MO_n and of the horizontal sum of B_m and B_n."""
    c = prog.corpus
    if name.startswith("k"):
        return c.generate("complete_graph", {"n": int(name[1:])})
    if name.startswith("b"):
        lat = c.boolean_lattice(int(name[1:]))
    elif name.startswith("mo"):
        lat = c.mo_lattice(int(name[2:]))
    else:
        lat = c.horizontal_sum(c.boolean_lattice(int(name[2])), c.boolean_lattice(int(name[3])))
    return prog.ok.oml_to_orthoset(lat)


class Workload:
    """Pool, strata, warm-up list and round schedule of one workload."""

    name = ""
    # rounds of the traced run per 10 s of --seconds: about 10 s untraced
    # on the machine the benchmark was defined on
    trace_rounds = 0
    warmup: tuple[str, ...] = ()

    def pool(self, prog: Program, seed: int) -> dict[str, Instance]:
        raise NotImplementedError

    def strata(self, pool: dict[str, Instance], costs: dict[str, float]) -> list[list[str]]:
        """Pool ids grouped so that a round takes one from each group."""
        raise NotImplementedError

    def rounds(self, seed: int, strata: list[list[str]]) -> Iterator[list[str]]:
        """Each stratum is cut to every other member, starting at the
        seed's parity (strata are sorted by cost where cost varies, so both
        halves cost about the same), then dealt in a seeded random order
        without replacement, reshuffled when used up, so that a run sees
        every member of its half before it sees any member twice."""
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        halves = [group[seed % 2::2] or group for group in strata]
        decks: list[list[str]] = [[] for _ in halves]
        while True:
            picks = []
            for group, deck in zip(halves, decks):
                if not deck:
                    deck.extend(group)
                    rng.shuffle(deck)
                picks.append(deck.pop())
            rng.shuffle(picks)
            yield picks


class Finch(Workload):
    name = "finch"
    trace_rounds = 2
    warmup = tuple(f"{n}#0" for n in FINCH_WARMUP)

    def pool(self, prog: Program, seed: int) -> dict[str, Instance]:
        out = {}
        for name in sorted(set(FINCH_ROUND + FINCH_WARMUP)):
            doc = _finch_space(prog, name).to_json(name)
            for v in range(FINCH_VARIANTS):
                rng = random.Random(f"finch:{seed}:{name}:{v}")
                out[f"{name}#{v}"] = Instance(name, "finch", _dump(_shuffled(doc, rng)))
        return out

    def strata(self, pool: dict[str, Instance], costs: dict[str, float]) -> list[list[str]]:
        return [
            [f"{name}#{v}" for v in range(FINCH_VARIANTS)]
            for name in FINCH_ROUND
        ]


SASAKI_POOL = {0.2: range(0, 121), 0.5: range(0, 122), 0.8: range(0, 60)}
# Cost bands per p-class in one round, with the tail: 30 instances.  p50
# falls at the 15th, inside the p = 0.5 bands; p90 at the 27th, where the
# upper two p = 0.8 bands and the tail are above it, so it sits near 120 ms
# in the middle of the p = 0.8 class, and the tail (195 ms) lies about two
# instances per round above it.  A tail anywhere from 150 ms up leaves p90
# where it is.
SASAKI_STRATA = {0.2: 5, 0.5: 20, 0.8: 4}
SASAKI_TAIL = "p0.2/s0"


class Sasaki(Workload):
    name = "sasaki"
    trace_rounds = 11
    warmup = ("p0.5/s120", "p0.5/s121")

    def pool(self, prog: Program, seed: int) -> dict[str, Instance]:
        out = {}
        for p, seeds in SASAKI_POOL.items():
            for s in seeds:
                key = f"p{p}/s{s}"
                doc = prog.corpus.random_orthoset(18, p, s).to_json(key)
                out[key] = Instance(key, "sasaki", _dump(doc))
        return out

    def strata(self, pool: dict[str, Instance], costs: dict[str, float]) -> list[list[str]]:
        """Each p-class is cut into equal cost bands by the frozen costs; the
        tail instance is its own band, so every round carries it."""
        groups = [[SASAKI_TAIL]]
        for p, k in SASAKI_STRATA.items():
            keys = [f"p{p}/s{s}" for s in SASAKI_POOL[p]]
            keys = [key for key in keys if key != SASAKI_TAIL and key not in self.warmup]
            keys.sort(key=lambda key: (costs[key], key))
            size = len(keys) // k
            groups += [keys[i * size:(i + 1) * size] for i in range(k)]
        return groups


SURVEY_SIZES = range(6, 13)
SURVEY_PROBS = (0.3, 0.5, 0.7)
SURVEY_SEEDS = range(0, 20)
SURVEY_BANDS = ((2, 8), (10, 16), (18, 30), (32, 40), (42, 52), (54, 64))


def _survey_lattices(prog: Program) -> dict[str, Any]:
    c = prog.corpus
    lats = {f"B{n}": c.boolean_lattice(n) for n in range(1, 7)}
    lats.update({f"MO{n}": c.mo_lattice(n) for n in range(1, 31)})
    for m in range(1, 6):
        for n in range(m, 6):
            if 2 ** m + 2 ** n - 2 <= 64:
                lats[f"hs{m}{n}"] = c.horizontal_sum(c.boolean_lattice(m), c.boolean_lattice(n))
    return lats


def _orthoset_instance(prog: Program, n: int, p: float, s: int) -> Instance:
    key = f"oset/n{n}/p{p}/s{s}"
    return Instance(key, "orthoset", _dump(prog.corpus.random_orthoset(n, p, s).to_json(key)))


class Survey(Workload):
    name = "survey"
    trace_rounds = 40
    warmup = ("oset/n6/p0.5/s20", "oml/MO1", "golden")

    def pool(self, prog: Program, seed: int) -> dict[str, Instance]:
        out = {}
        for n in SURVEY_SIZES:
            for p in SURVEY_PROBS:
                for s in SURVEY_SEEDS:
                    inst = _orthoset_instance(prog, n, p, s)
                    out[inst.ref] = inst
        warm = _orthoset_instance(prog, 6, 0.5, 20)
        out[warm.ref] = warm
        for name, lat in _survey_lattices(prog).items():
            key = f"oml/{name}"
            out[key] = Instance(key, "lattice", _dump(lat.to_json(name)))
        out["golden"] = Instance("golden", "golden", _dump({"only": None}))
        return out

    def strata(self, pool: dict[str, Instance], costs: dict[str, float]) -> list[list[str]]:
        groups = [
            [f"oset/n{n}/p{p}/s{s}" for s in SURVEY_SEEDS]
            for n in SURVEY_SIZES
            for p in SURVEY_PROBS
        ]
        sizes = {
            key: len(json.loads(inst.doc)["elements"])
            for key, inst in pool.items()
            if inst.runner == "lattice"
        }
        for lo, hi in SURVEY_BANDS:
            band = sorted((size, key) for key, size in sizes.items() if lo <= size <= hi)
            groups.append([key for _, key in band])
        groups.append(["golden"])
        return groups


HERMITIAN_DIMS = (2, 3, 4)
HERMITIAN_SEEDS = range(0, 100)


class Hermitian(Workload):
    name = "hermitian"
    trace_rounds = 200
    warmup = ("d2/s100", "d3/s100", "d4/s100")

    def pool(self, prog: Program, seed: int) -> dict[str, Instance]:
        out = {}
        for d in HERMITIAN_DIMS:
            for s in list(HERMITIAN_SEEDS) + [100]:
                key = f"d{d}/s{s}"
                out[key] = Instance(key, "hermitian", _dump({"seed": s, "dims": [d]}))
        return out

    def strata(self, pool: dict[str, Instance], costs: dict[str, float]) -> list[list[str]]:
        return [[f"d{d}/s{s}" for s in HERMITIAN_SEEDS] for d in HERMITIAN_DIMS]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Finch(), Sasaki(), Survey(), Hermitian())
}
