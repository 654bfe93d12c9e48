"""Bundled example corpus plus deterministic generators.

Each fixture file carries a payload (the object itself) and an expected
block of frozen property values.  run_golden re-derives every expected
value from the payload and reports exact comparisons; nothing in the
expected blocks is ever consulted by the library code itself.
"""
from __future__ import annotations

import json
import random
from contextlib import suppress
from dataclasses import dataclass, field
from importlib import resources
from typing import Any, Callable, Mapping

from ..config import resolve
from ..errors import BudgetExceededError, FixtureError, InputError
from ..lattice import (OrthoLattice, _check_cap, atoms_and_covering, build_lattice, is_dacey,
                       is_orthomodular)
from ..orthoset import Orthoset, _up_sets
from ..sasaki import is_sasaki_space

_PACKAGE = __name__

FIXTURE_NAMES = (
    "benzene",
    "boolean2",
    "boolean3",
    "complete3",
    "complete4",
    "cycle4",
    "horizontal_sum_atoms",
    "horizontal_sum_lattice",
    "mo2",
    "path4",
    "two_edges",
)


@dataclass(frozen=True)
class NamedFixture:
    name: str
    kind: str
    doc: str
    payload: dict[str, Any]
    expected: dict[str, Any]

    def build(self) -> Orthoset | OrthoLattice:
        if self.kind == "orthoset":
            return Orthoset.from_json(self.payload)
        if self.kind == "lattice":
            return build_lattice(self.payload)
        raise FixtureError(f"fixture {self.name!r} has unknown kind {self.kind!r}")


def list_names() -> list[str]:
    return list(FIXTURE_NAMES)


def load(name: str) -> dict[str, Any]:
    if name not in FIXTURE_NAMES:
        raise FixtureError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    text = resources.files(_PACKAGE).joinpath(f"{name}.json").read_text("utf-8")
    return json.loads(text)


def get(name: str) -> NamedFixture:
    doc = load(name)
    for key in ("kind", "name", "payload", "expected"):
        if key not in doc:
            raise FixtureError(f"fixture {name!r} is missing the {key!r} field")
    return NamedFixture(
        name=doc["name"],
        kind=doc["kind"],
        doc=doc.get("doc", ""),
        payload=doc["payload"],
        expected=doc["expected"],
    )


# ------------------------------------------------------------- generators


def _boolean_labels(n: int) -> tuple[list[str], list[str]]:
    if n <= 4:
        atoms = list("abcd"[:n])
    else:
        atoms = [f"a{i + 1}" for i in range(n)]
    labels = []
    for mask in range(1 << n):
        if mask == 0:
            labels.append("0")
        elif mask == (1 << n) - 1:
            labels.append("1")
        else:
            labels.append("".join(atoms[i] for i in range(n) if mask >> i & 1))
    return labels, atoms


def boolean_lattice(n: int) -> OrthoLattice:
    """The powerset of n atoms as an ortholattice (complement as ortho)."""
    if n < 0:
        raise InputError("boolean lattice needs n >= 0")
    # 2^n > cap iff n >= cap.bit_length(); 2^n itself may be too big to form
    cap = resolve("lattice_cap")
    if n >= cap.bit_length():
        raise BudgetExceededError(f"lattice size 2^{n} exceeds cap of {cap}")
    labels, _ = _boolean_labels(n)
    size = 1 << n
    full = size - 1
    up = _up_sets(range(size), n)
    ortho = [full ^ mask for mask in range(size)]
    return OrthoLattice(labels, up, ortho)


def mo_lattice(n: int) -> OrthoLattice:
    """MO_n: n complemented atom pairs with no other comparabilities."""
    if n < 1:
        raise InputError("mo_n needs n >= 1")
    _check_cap(2 * n + 2)  # before building the up-sets
    labels = ["0"]
    for i in range(n):
        stem = "abcdefgh"[i] if n <= 8 else f"x{i + 1}"
        labels += [stem, stem + "'"]
    labels.append("1")
    size = len(labels)
    top = size - 1
    up = []
    for i in range(size):
        if i == 0:
            up.append((1 << size) - 1)
        elif i == top:
            up.append(1 << top)
        else:
            up.append(1 << i | 1 << top)
    ortho = [top]
    for i in range(n):
        ortho += [2 + 2 * i, 1 + 2 * i]
    ortho.append(0)
    return OrthoLattice(labels, up, ortho)


def horizontal_sum(left: OrthoLattice, right: OrthoLattice) -> OrthoLattice:
    """Glue two ortholattices at their bounds; no other comparabilities.

    Proper elements keep their labels behind 'l.' and 'r.' prefixes.
    """
    _check_cap(2 + sum(lat.n - len({lat.bottom, lat.top}) for lat in (left, right)))
    out_labels = ["0"]
    blocks: list[tuple[str, OrthoLattice]] = [("l", left), ("r", right)]
    position: dict[tuple[str, int], int] = {}
    for prefix, lat in blocks:
        for i in range(lat.n):
            if i in (lat.bottom, lat.top):
                continue
            position[(prefix, i)] = len(out_labels)
            out_labels.append(f"{prefix}.{lat.labels[i]}")
    top = len(out_labels)
    out_labels.append("1")
    size = len(out_labels)
    up = [0] * size
    up[0] = (1 << size) - 1
    up[top] = 1 << top
    ortho = [0] * size
    ortho[0] = top
    ortho[top] = 0
    for prefix, lat in blocks:
        for i in range(lat.n):
            if i in (lat.bottom, lat.top):
                continue
            me = position[(prefix, i)]
            bits = 1 << me | 1 << top
            for j in range(lat.n):
                if j in (lat.bottom, lat.top) or j == i:
                    continue
                if lat.leq(i, j):
                    bits |= 1 << position[(prefix, j)]
            up[me] = bits
            o = lat.ortho[i]
            if o in (lat.bottom, lat.top):
                raise InputError(
                    "horizontal sum needs proper elements with proper orthocomplements"
                )
            ortho[me] = position[(prefix, o)]
    return OrthoLattice(out_labels, up, ortho)


def random_orthoset(n: int, p: float, seed: int) -> Orthoset:
    """Edge-probability random orthoset; fully determined by (n, p, seed).

    n and seed must be ints and p an int or a float, never a bool, with the
    texts of generate's parameter checks; p is used as given, not converted,
    so the rng seed string of every accepted call is its own.
    """
    for kind, key, raw in ((int, "n", n), (float, "p", p), (int, "seed", seed)):
        _number(kind, key, raw)
    if n < 0:
        raise InputError("random orthoset needs n >= 0")
    if not 0 <= p <= 1:
        raise InputError("edge probability must lie in [0, 1]")
    rng = random.Random(f"orthoset:{n}:{p}:{seed}")
    labels = [f"x{i + 1}" for i in range(n)]
    pairs = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Orthoset.build(labels, pairs)


def _number(kind: type, key: str, raw: Any) -> Any:
    """Generator parameter `key` as `kind` (int or float), checked, not
    coerced: an int, or for float an int or a float; never a bool."""
    if not isinstance(raw, bool) and isinstance(raw, (int, float) if kind is float else int):
        with suppress(OverflowError):  # an int too large for a float
            return kind(raw)
    expected = "a number" if kind is float else "an integer"
    raise InputError(f"generator parameter {key!r} must be {expected}, got {raw!r}")


def generate(kind: str, params: Mapping[str, Any], seed: int = 0) -> Orthoset | OrthoLattice:
    """Build a corpus object from a generator name and parameter mapping;
    the run's lattice cap bounds the size of a generated lattice, as in
    OrthoLattice."""
    params = dict(params)
    try:
        if kind == "complete_graph":
            n = _number(int, "n", params.pop("n"))
            if n < 0:
                raise InputError(f"generator parameter 'n' must be non-negative, got {n}")
            labels = [f"x{i + 1}" for i in range(n)]
            pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
            out: Orthoset | OrthoLattice = Orthoset.build(labels, pairs)
        elif kind == "boolean":
            out = boolean_lattice(_number(int, "n", params.pop("n")))
        elif kind == "mo_n":
            out = mo_lattice(_number(int, "n", params.pop("n")))
        elif kind == "random_orthoset":
            n = _number(int, "n", params.pop("n"))
            out = random_orthoset(n, _number(float, "p", params.pop("p", 0.4)), seed)
        elif kind == "horizontal_sum":
            ranks = params.pop("ranks")
            if not isinstance(ranks, (list, tuple)) or len(ranks) != 2:
                raise InputError("horizontal_sum needs 'ranks': [m, n]")
            m, n = (_number(int, "ranks", r) for r in ranks)
            out = horizontal_sum(boolean_lattice(m), boolean_lattice(n))
        else:
            raise InputError(
                f"unknown generator {kind!r}; known: complete_graph, boolean, "
                "mo_n, random_orthoset, horizontal_sum"
            )
    except KeyError as exc:
        raise InputError(f"generator {kind!r} is missing parameter {exc.args[0]!r}") from None
    if params:
        raise InputError(f"generator {kind!r} got unknown parameters {sorted(params)}")
    return out


# ------------------------------------------------------------- evaluation


def _family_labels(x: Orthoset) -> list[list[str]]:
    return [list(x.labels_of(s)) for s in x.orthoclosed_family()]


def _first_failure_labels(x: Orthoset) -> list[str] | None:
    verdict = is_sasaki_space(x)
    if verdict.first_failure is None:
        return None
    return list(x.labels_of(verdict.first_failure))


ORTHOSET_CHECKS: dict[str, Callable[[Orthoset], Any]] = {
    "orthoclosed_family": _family_labels,
    "rank": lambda x: x.rank(),
    "point_closed": lambda x: x.is_point_closed().holds,
    "irreducible": lambda x: x.is_irreducible().holds,
    "dacey": lambda x: is_dacey(x).holds,
    "sasaki": lambda x: is_sasaki_space(x).is_sasaki,
    "sasaki_first_failure": _first_failure_labels,
    "transitive": lambda x: x.is_transitive().holds,
}

LATTICE_CHECKS: dict[str, Callable[[OrthoLattice], Any]] = {
    "size": lambda lat: lat.n,
    "orthomodular": lambda lat: is_orthomodular(lat).holds,
    "atomistic": lambda lat: atoms_and_covering(lat).atomistic.holds,
    "covering": lambda lat: atoms_and_covering(lat).covering.holds,
    "atoms": lambda lat: [lat.labels[a] for a in lat.atoms],
}


@dataclass(frozen=True)
class CheckResult:
    expected: Any
    actual: Any

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class FixtureOutcome:
    name: str
    kind: str
    checks: dict[str, CheckResult] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "ok": self.ok,
            "checks": {
                key: {"expected": c.expected, "actual": c.actual, "ok": c.ok}
                for key, c in self.checks.items()
            },
        }


def evaluate_fixture(fix: NamedFixture) -> FixtureOutcome:
    """Re-derive every expected value of one fixture; exact comparison."""
    obj = fix.build()
    registry = ORTHOSET_CHECKS if fix.kind == "orthoset" else LATTICE_CHECKS
    checks: dict[str, CheckResult] = {}
    for key, expected in fix.expected.items():
        if key not in registry:
            raise FixtureError(f"fixture {fix.name!r} expects unknown check {key!r}")
        checks[key] = CheckResult(expected=expected, actual=registry[key](obj))
    return FixtureOutcome(name=fix.name, kind=fix.kind, checks=checks)


def run_golden(names: list[str] | None = None) -> list[FixtureOutcome]:
    """Evaluate every bundled fixture (or a chosen subset) against its frozen values."""
    return [evaluate_fixture(get(name)) for name in (names or FIXTURE_NAMES)]
