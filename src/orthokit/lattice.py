"""Finite ortholattices.

The order relation is stored as per-element bitmasks (up-sets and
down-sets), which keeps meet/join table construction and the orthomodular
scan cheap.  Construction always validates the full axiom set: poset laws,
totality of meets and joins, and that the orthocomplement is an
order-reversing involution satisfying the complement laws.

Also here: the two bridges between orthosets and ortholattices (elements
or atoms with x orthogonal to y iff x <= ortho(y), and the lattice of
orthoclosed sets), the Dacey criterion, round-trip isomorphism checks, the
covering/basic-elements biconditional, and Hasse-diagram DOT export.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from typing import Any, Callable, Iterable, Sequence

from .config import clique_budget, lattice_cap
from .errors import (
    BudgetExceededError,
    InputError,
    LatticeLawError,
    NotOrthomodularError,
)
from .orthoset import ClosureTable, Orthoset, Subset, Verdict, _bits, first_counterexample


class OrthoLattice:
    """Validated finite ortholattice with meet/join tables; its heights and
    its orthomodular and covering verdicts are computed once, on first use."""

    def __init__(self, labels: Iterable[str], up: Iterable[int], ortho: Iterable[int],
                 cap: int | None = None):
        self.labels: tuple[str, ...] = tuple(labels)
        n = len(self.labels)
        if n == 0:
            raise LatticeLawError("empty", None)
        if n > lattice_cap(cap):
            raise BudgetExceededError(f"lattice size {n} exceeds cap of {lattice_cap(cap)}")
        if len(set(self.labels)) != n:
            raise InputError("duplicate lattice element label")
        self._index = {lab: i for i, lab in enumerate(self.labels)}

        up_l = list(up)
        if len(up_l) != n:
            raise InputError("up-set list length does not match element count")
        full = (1 << n) - 1
        for i in range(n):
            up_l[i] |= 1 << i  # reflexive closure
            if up_l[i] & ~full:
                raise InputError("up-set mask refers to indices out of range")
        # transitive closure (Warshall: after step k, up_l[i] holds all that
        # i reaches through elements 0..k), the transpose, then antisymmetry
        for k in range(n):
            bit, above = 1 << k, up_l[k]
            for i in range(n):
                if up_l[i] & bit:
                    up_l[i] |= above
        down_l = [0] * n
        for i in range(n):
            for j in _bits(up_l[i]):
                down_l[j] |= 1 << i
        for i in range(n):
            both = up_l[i] & down_l[i] & ~(1 << i)
            if both:
                j = (both & -both).bit_length() - 1
                raise LatticeLawError("not-a-poset", (self.labels[i], self.labels[j]))
        self.up: tuple[int, ...] = tuple(up_l)
        self.down: tuple[int, ...] = tuple(down_l)

        self.n = n
        # down-sets (and up-sets) are distinct once antisymmetry holds, so
        # each names its element; a meet or join is one lookup
        by_down = {d: k for k, d in enumerate(self.down)}
        by_up = {u: k for k, u in enumerate(self.up)}
        meet_rows: list[tuple[int, ...]] = []
        join_rows: list[tuple[int, ...]] = []
        for i in range(n):
            mrow = tuple(by_down.get(self.down[i] & d, -1) for d in self.down)
            jrow = tuple(by_up.get(self.up[i] & u, -1) for u in self.up)
            if -1 in mrow or -1 in jrow:
                j = next(j for j in range(n) if mrow[j] < 0 or jrow[j] < 0)
                law = "no-meet" if mrow[j] < 0 else "no-join"
                raise LatticeLawError(law, (self.labels[i], self.labels[j]))
            meet_rows.append(mrow)
            join_rows.append(jrow)
        self.meet_t = tuple(meet_rows)
        self.join_t = tuple(join_rows)
        self.bottom = by_up[full]
        self.top = by_down[full]

        ortho_l = tuple(ortho)
        if len(ortho_l) != n or any(not 0 <= o < n for o in ortho_l):
            raise InputError("orthocomplement map must be total over the elements")
        self.ortho: tuple[int, ...] = ortho_l
        for i in range(n):
            if self.ortho[self.ortho[i]] != i:
                raise LatticeLawError("ortho-not-involution", self.labels[i])
        for i in range(n):
            for j in _bits(self.up[i]):
                if not self.leq(self.ortho[j], self.ortho[i]):
                    raise LatticeLawError("ortho-not-antitone", (self.labels[i], self.labels[j]))
        for i in range(n):
            if self.meet(i, self.ortho[i]) != self.bottom:
                raise LatticeLawError("x-meet-ortho-not-zero", self.labels[i])
            if self.join(i, self.ortho[i]) != self.top:
                raise LatticeLawError("x-join-ortho-not-one", self.labels[i])

        self.atoms: tuple[int, ...] = tuple(
            i for i in range(n)
            if i != self.bottom and self.down[i] == (1 << self.bottom) | (1 << i)
        )

    # -------------------------------------------------------------- queries

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"unknown lattice element {label!r}") from None

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def meet(self, i: int, j: int) -> int:
        return self.meet_t[i][j]

    def join(self, i: int, j: int) -> int:
        return self.join_t[i][j]

    def covers(self, i: int, j: int) -> bool:
        """j covers i: i < j with nothing strictly between."""
        if i == j or not self.leq(i, j):
            return False
        between = self.up[i] & self.down[j] & ~(1 << i) & ~(1 << j)
        return between == 0

    def cover_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(self.n) if self.covers(i, j)]

    def height(self, i: int) -> int:
        """Length of a longest chain from bottom to i."""
        return self.heights[i]

    @cached_property
    def heights(self) -> tuple[int, ...]:
        h = [0] * self.n
        # each element comes after every element strictly below it
        for k in sorted(range(self.n), key=lambda k: bin(self.down[k]).count("1")):
            if k != self.bottom:
                h[k] = 1 + max(h[p] for p in _bits(self.down[k]) if p != k)
        return tuple(h)

    @cached_property
    def orthomodular(self) -> Verdict:
        """is_orthomodular(self), computed once."""
        return is_orthomodular(self)

    @cached_property
    def covering_report(self) -> CoveringReport:
        """atoms_and_covering(self), computed once."""
        return atoms_and_covering(self)

    def to_json(self, name: str = "lattice") -> dict[str, Any]:
        pairs = sorted([self.labels[i], self.labels[j]] for i, j in self.cover_pairs())
        ortho = {self.labels[i]: self.labels[self.ortho[i]] for i in range(self.n)}
        return {
            "name": name,
            "elements": list(self.labels),
            "leq": pairs,
            "ortho": {k: ortho[k] for k in sorted(ortho)},
        }


def build_lattice(doc: Any, cap: int | None = None) -> OrthoLattice:
    """Parse and validate the lattice document format.

    `leq` pairs may be covers or any generating relation; the reflexive
    transitive closure is taken.  `ortho` must map every element.
    """
    if isinstance(doc, dict) and "payload" in doc:
        if doc.get("kind") not in (None, "lattice"):
            raise InputError(f"fixture kind {doc.get('kind')!r} is not a lattice")
        doc = doc["payload"]
    if not isinstance(doc, dict):
        raise InputError("lattice document must be a JSON object")
    elements = doc.get("elements")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise InputError("'elements' must be a list of strings")
    index = {lab: i for i, lab in enumerate(elements)}
    if len(index) != len(elements):
        raise InputError("duplicate lattice element label")
    pairs = doc.get("leq")
    if not isinstance(pairs, list):
        raise InputError("'leq' must be a list of pairs")
    up = [0] * len(elements)
    for p in pairs:
        if not isinstance(p, list) or len(p) != 2 or not all(isinstance(x, str) for x in p):
            raise InputError(f"leq pair {p!r} must be a two-element list of labels")
        a, b = p
        if a not in index or b not in index:
            raise InputError(f"leq pair {p!r} mentions an unknown element")
        up[index[a]] |= 1 << index[b]
    ortho_doc = doc.get("ortho")
    if not isinstance(ortho_doc, dict):
        raise InputError("'ortho' must be an object mapping labels to labels")
    ortho = []
    for lab in elements:
        if lab not in ortho_doc:
            raise InputError(f"orthocomplement missing for element {lab!r}")
        target = ortho_doc[lab]
        if target not in index:
            raise InputError(f"orthocomplement of {lab!r} is unknown element {target!r}")
        ortho.append(index[target])
    return OrthoLattice(elements, up, ortho, cap=cap)


# --------------------------------------------------------------- predicates


def is_orthomodular(lat: OrthoLattice) -> Verdict:
    """x <= y implies y = x v (y ^ ortho(x)); counterexample pair on failure."""
    for x in range(lat.n):
        ox = lat.ortho[x]
        for y in _bits(lat.up[x]):
            if lat.join(x, lat.meet(y, ox)) != y:
                return Verdict(False, witness=(lat.labels[x], lat.labels[y]))
    return Verdict(True)


def _require_orthomodular(lat: OrthoLattice, message: str) -> None:
    """Raise NotOrthomodularError, with the failing pair, unless lat is
    orthomodular."""
    om = lat.orthomodular
    if not om.holds:
        raise NotOrthomodularError(f"{message}; witness {om.witness!r}")


def _labelled(lat: OrthoLattice) -> Callable[[tuple[int, ...]], tuple[str, ...]]:
    """Witness render for first_counterexample: elements to their labels."""
    return lambda w: tuple(lat.labels[i] for i in w)


@dataclass
class CoveringReport:
    atoms: tuple[str, ...]
    atomistic: Verdict
    covering: Verdict


def atoms_and_covering(lat: OrthoLattice) -> CoveringReport:
    """Atoms, atomisticity, and the covering property with witnesses."""
    atom_set = lat.atoms
    atomistic = first_counterexample(
        ((x,) for x in range(lat.n)
         if reduce(lat.join, (a for a in atom_set if lat.leq(a, x)), lat.bottom) != x),
        lambda w: lat.labels[w[0]],
    )

    def with_blocker(w: tuple[int, ...]) -> tuple[str, ...]:
        x, a = w
        z = lat.join(x, a)
        blocker = next(v for v in _bits(lat.up[x] & lat.down[z]) if v != x and v != z)
        return (lat.labels[x], lat.labels[a], lat.labels[blocker])

    covering = first_counterexample(
        ((x, a) for x in range(lat.n) for a in atom_set
         if lat.meet(a, x) == lat.bottom and not lat.covers(x, lat.join(x, a))),
        with_blocker,
    )
    return CoveringReport(
        atoms=tuple(lat.labels[a] for a in atom_set),
        atomistic=atomistic,
        covering=covering,
    )


def sasaki_projection(lat: OrthoLattice, x: int, y: int) -> int:
    """x ^ (ortho(x) v y)."""
    return lat.meet(x, lat.join(lat.ortho[x], y))


def is_basic(lat: OrthoLattice, x: int) -> bool:
    """Basic element: an atom or the bottom."""
    return x == lat.bottom or x in lat.atoms


def projection_facts(lat: OrthoLattice) -> dict[str, Verdict]:
    """Exhaustive check of the Sasaki projection laws on an orthomodular
    lattice, every pair and triple of elements:

      (a) y <= x iff pi_x(y) = y
      (b) pi_x(ortho(pi_x(ortho(y)))) <= y
      (c) pi_x(y) = 0 iff y <= ortho(x)
      (d) pi_x(y) orthogonal to z iff y orthogonal to pi_x(z)

    The input must be orthomodular; (a) alone is equivalent to the
    orthomodular law, so running this on anything else only rediscovers
    the failure.
    """
    _require_orthomodular(lat, "projection facts assume an orthomodular lattice")
    r = range(lat.n)
    up, ortho = lat.up, lat.ortho
    pi = [[sasaki_projection(lat, x, y) for y in r] for x in r]
    render = _labelled(lat)
    # u is orthogonal to v iff up[u] >> ortho[v] & 1
    return {
        "a_fixed_points": first_counterexample(
            ((x, y) for x in r for y in r if (up[y] >> x & 1) != (pi[x][y] == y)),
            render,
        ),
        "b_adjoint_bound": first_counterexample(
            ((x, y) for x in r for y in r
             if not up[pi[x][ortho[pi[x][ortho[y]]]]] >> y & 1),
            render,
        ),
        "c_kernel": first_counterexample(
            ((x, y) for x in r for y in r
             if (pi[x][y] == lat.bottom) != (up[y] >> ortho[x] & 1)),
            render,
        ),
        "d_self_adjoint": first_counterexample(
            ((x, y, z) for x in r for y in r for z in r
             if (up[pi[x][y]] >> ortho[z] & 1) != (up[y] >> ortho[pi[x][z]] & 1)),
            render,
        ),
    }


# ------------------------------------------------------------------ bridges


def oml_to_orthoset(lat: OrthoLattice) -> Orthoset:
    """Orthoset on the nonzero elements, x orthogonal to y iff x <= ortho(y)."""
    return _orthoset_on(lat, [i for i in range(lat.n) if i != lat.bottom])


def atoms_to_orthoset(lat: OrthoLattice) -> Orthoset:
    """Same relation restricted to the atoms."""
    return _orthoset_on(lat, lat.atoms)


def _orthoset_on(lat: OrthoLattice, keep: Sequence[int]) -> Orthoset:
    """The elements `keep`, in order, with x orthogonal to y iff x <= ortho(y)."""
    pairs = [
        (lat.labels[i], lat.labels[j])
        for i, j in combinations(keep, 2)
        if lat.leq(i, lat.ortho[j])
    ]
    return Orthoset.build([lat.labels[i] for i in keep], pairs)


def set_label(x: Orthoset, s: Subset) -> str:
    """Braced, comma-separated labels in index order.  A backslash or a
    comma inside a label is escaped with a backslash, so that distinct
    sets never share a rendering."""
    return "{" + ",".join(
        x.labels[i].replace("\\", "\\\\").replace(",", "\\,") for i in sorted(s)
    ) + "}"


def orthoclosed_lattice(x: Orthoset, budget: int | None = None,
                        cap: int | None = None) -> OrthoLattice:
    """The complete ortholattice of orthoclosed sets, ordered by inclusion.

    Element i of the result is the i-th member of x.orthoclosed_family()
    in canonical order; labels render the member sets.
    """
    return _table_lattice(x, ClosureTable(x, budget), cap)


def _table_lattice(x: Orthoset, table: ClosureTable, cap: int | None) -> OrthoLattice:
    labels = [set_label(x, s) for s in table.sets]
    return OrthoLattice(labels, table.up, table.perp, cap=cap)


def dacey_criterion(x: Orthoset, family_budget_: int | None = None,
                    clique_budget_: int | None = None) -> Verdict:
    """For every orthoclosed A and maximal perp-set D inside A: A = closure(D)."""
    family = x._closed_masks(family_budget_)
    limit = clique_budget(clique_budget_)
    for a in family:
        for d in x._maximal_perp_masks(a, limit):
            if x._perp(x._perp(d)) != a:
                return Verdict(False, witness=(x._labels(a), x._labels(d)))
    return Verdict(True)


def is_dacey(x: Orthoset, via: str = "criterion", budget: int | None = None) -> Verdict:
    """Dacey space check, through the maximal-perp-set criterion or through
    orthomodularity of the orthoclosed-set lattice.  Both routes agree."""
    if via == "criterion":
        return dacey_criterion(x, family_budget_=budget)
    if via == "lattice":
        return is_orthomodular(orthoclosed_lattice(x, budget=budget))
    raise ValueError(f"unknown dacey route {via!r}")


# ------------------------------------------------------------- isomorphisms


@dataclass
class LatticeIso:
    """Element-wise isomorphism table between two ortholattices."""

    table: tuple[int, ...]
    source_labels: tuple[str, ...]
    target_labels: tuple[str, ...]

    def as_dict(self) -> dict[str, str]:
        return {
            self.source_labels[i]: self.target_labels[self.table[i]]
            for i in range(len(self.table))
        }


def check_lattice_iso(a: OrthoLattice, b: OrthoLattice, table: tuple[int, ...]) -> Verdict:
    """Certify: bijection, order-preserving both ways, commutes with ortho."""
    if a.n != b.n or sorted(table) != list(range(a.n)):
        return Verdict(False, witness="not-a-bijection")
    for i in range(a.n):
        if table[a.ortho[i]] != b.ortho[table[i]]:
            return Verdict(False, witness=("ortho", a.labels[i]))
        for j in range(a.n):
            if a.leq(i, j) != b.leq(table[i], table[j]):
                return Verdict(False, witness=("order", a.labels[i], a.labels[j]))
    return Verdict(True)


def find_lattice_iso(a: OrthoLattice, b: OrthoLattice) -> LatticeIso | None:
    """Backtracking search for an ortholattice isomorphism (small lattices)."""
    if a.n != b.n:
        return None

    def profile(lat: OrthoLattice, i: int) -> tuple[int, int]:
        return (bin(lat.down[i]).count("1"), bin(lat.up[i]).count("1"))

    bp = [profile(b, j) for j in range(b.n)]
    order = sorted(range(a.n), key=lambda i: (profile(a, i), i))
    img = [-1] * a.n
    used = [False] * b.n

    def ok(i: int, j: int) -> bool:
        if bp[j] != profile(a, i):
            return False
        oi = a.ortho[i]
        if img[oi] >= 0 and img[oi] != b.ortho[j]:
            return False
        for k in range(a.n):
            if img[k] >= 0 and (a.leq(i, k) != b.leq(j, img[k]) or a.leq(k, i) != b.leq(img[k], j)):
                return False
        return True

    def search(pos: int) -> bool:
        if pos == len(order):
            return True
        i = order[pos]
        for j in range(b.n):
            if not used[j] and ok(i, j):
                img[i] = j
                used[j] = True
                if search(pos + 1):
                    return True
                img[i] = -1
                used[j] = False
        return False

    if not search(0):
        return None
    iso = LatticeIso(tuple(img), a.labels, b.labels)
    assert check_lattice_iso(a, b, iso.table).holds
    return iso


# ---------------------------------------------------------------- roundtrip


@dataclass
class RoundtripResult:
    """Outcome of the orthoset/ortholattice round trip.

    `hypothesis_failure` names the violated precondition (point-closed for
    orthosets, atomistic for lattices) with its witness; `mapping` is the
    certified isomorphism when ok.
    """

    ok: bool
    direction: str
    mapping: dict[str, str] | None = None
    hypothesis_failure: tuple[str, Any] | None = None
    detail: str | None = None


def roundtrip_check(obj: Orthoset | OrthoLattice, budget: int | None = None,
                    cap: int | None = None) -> RoundtripResult:
    """`budget` bounds the orthoclosed family and `cap` the lattice built
    from it, as in orthoclosed_lattice."""
    if isinstance(obj, Orthoset):
        return _roundtrip_orthoset(obj, budget, cap)
    if isinstance(obj, OrthoLattice):
        return _roundtrip_lattice(obj, budget, cap)
    raise InputError("roundtrip_check expects an Orthoset or an OrthoLattice")


def _roundtrip_orthoset(x: Orthoset, budget: int | None, cap: int | None) -> RoundtripResult:
    pc = x.is_point_closed()
    if not pc.holds:
        return RoundtripResult(False, "orthoset", hypothesis_failure=("point-closed", pc.witness))
    closed = ClosureTable(x, budget)
    lat = _table_lattice(x, closed, cap)
    table = [closed.index[1 << e] for e in range(x.n)]
    if sorted(table) != sorted(lat.atoms):
        return RoundtripResult(False, "orthoset", detail="singletons do not exhaust the atoms")
    for e in range(x.n):
        for f in range(x.n):
            lhs = f in x.adj[e]
            rhs = lat.leq(table[e], lat.ortho[table[f]])
            if lhs != rhs:
                return RoundtripResult(
                    False, "orthoset",
                    detail=f"orthogonality mismatch at ({x.labels[e]}, {x.labels[f]})",
                )
    mapping = {x.labels[e]: lat.labels[table[e]] for e in range(x.n)}
    return RoundtripResult(True, "orthoset", mapping=mapping)


def _roundtrip_lattice(lat: OrthoLattice, budget: int | None, cap: int | None) -> RoundtripResult:
    rep = lat.covering_report
    if not rep.atomistic.holds:
        return RoundtripResult(
            False, "lattice", hypothesis_failure=("atomistic", rep.atomistic.witness)
        )
    x = atoms_to_orthoset(lat)
    closed = ClosureTable(x, budget)
    produced = _table_lattice(x, closed, cap)
    table: list[int] = []
    for p in range(lat.n):
        below = sum(1 << k for k, a in enumerate(lat.atoms) if lat.leq(a, p))
        if below not in closed.index:
            return RoundtripResult(
                False, "lattice",
                detail=f"atom set of {lat.labels[p]!r} is not orthoclosed",
            )
        table.append(closed.index[below])
    verdict = check_lattice_iso(lat, produced, tuple(table))
    if not verdict.holds:
        return RoundtripResult(False, "lattice", detail=f"not an isomorphism: {verdict.witness!r}")
    mapping = {lat.labels[p]: produced.labels[table[p]] for p in range(lat.n)}
    return RoundtripResult(True, "lattice", mapping=mapping)


# -------------------------------------------------------------------- wilce


@dataclass
class WilceReport:
    covering: Verdict
    basic_to_basic: Verdict

    @property
    def agree(self) -> bool:
        return self.covering.holds == self.basic_to_basic.holds


def wilce_check(lat: OrthoLattice) -> WilceReport:
    """Covering property vs. Sasaki projections preserving basic elements.

    Input must be orthomodular; the two sides are computed independently
    and reported together with witnesses.
    """
    _require_orthomodular(lat, "wilce_check requires an orthomodular lattice")
    covering = lat.covering_report.covering
    basic = first_counterexample(
        ((x, a, p) for x in range(lat.n) for a in lat.atoms
         for p in (sasaki_projection(lat, x, a),) if not is_basic(lat, p)),
        _labelled(lat),
    )
    return WilceReport(covering=covering, basic_to_basic=basic)


# ---------------------------------------------------------------------- dot


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def lattice_to_dot(lat: OrthoLattice, name: str = "lattice") -> str:
    """Hasse diagram in DOT: cover edges only, rank groups by height,
    atoms emphasised, orthocomplement pairs annotated with dashed edges."""
    lines = [f"digraph {_dot_quote(name)} {{", "  rankdir=BT;", "  node [shape=box];"]
    heights = lat.heights
    for i in range(lat.n):
        attrs = []
        if i in lat.atoms:
            attrs.append("penwidth=2")
            attrs.append('fillcolor="lightblue"')
            attrs.append('style="filled"')
        attrs.append(f"tooltip={_dot_quote('ortho: ' + lat.labels[lat.ortho[i]])}")
        lines.append(f"  {_dot_quote(lat.labels[i])} [{', '.join(attrs)}];")
    for h in range(max(heights) + 1):
        group = [i for i in range(lat.n) if heights[i] == h]
        members = "; ".join(_dot_quote(lat.labels[i]) for i in group)
        lines.append(f"  {{ rank=same; {members}; }}")
    for i, j in lat.cover_pairs():
        lines.append(f"  {_dot_quote(lat.labels[i])} -> {_dot_quote(lat.labels[j])};")
    seen = set()
    for i in range(lat.n):
        pair = frozenset((i, lat.ortho[i]))
        if i != lat.ortho[i] and pair not in seen:
            seen.add(pair)
            lines.append(
                f"  {_dot_quote(lat.labels[i])} -> {_dot_quote(lat.labels[lat.ortho[i]])}"
                " [style=dashed, dir=none, constraint=false, color=gray];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
