"""Finite ortholattices.

The order relation is stored as per-element bitmasks (up-sets and their
transpose, the down-sets); the meet and join tables are their bound rows.
Construction always validates the full axiom set: poset laws, totality of
meets and joins, and that the orthocomplement is an order-reversing
involution satisfying the complement laws.  Each row of Sasaki
projections, the placement of each orthoset's labels, and each of the
verdicts is_orthomodular and atoms_and_covering, is computed on its first
read and kept on the lattice.

Also here: the two bridges between orthosets and ortholattices (elements
or atoms with x orthogonal to y iff x <= ortho(y), and the lattice of
orthoclosed sets, kept on the closure table), the Dacey criterion,
round-trip isomorphism checks, the covering/basic-elements biconditional,
and Hasse-diagram DOT export.  The isomorphism search runs on the orthoset
module's bijection helper, a loop with no depth limit; check_lattice_iso
certifies what it finds without sharing its code.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from typing import Any, Callable, Iterable, Iterator, Sequence

from .config import resolve
from .errors import (
    BudgetExceededError,
    CrossCheckError,
    InputError,
    LatticeLawError,
    NotOrthomodularError,
)
from .orthoset import (Orthoset, Subset, Verdict, _bits, _bound_rows, _elements, _expect, _first_bijection,
                       _label_pairs, _transpose, _unwrap, first_counterexample)


def _check_cap(size: int) -> None:
    """Refuse a lattice of `size` elements over the run's lattice cap."""
    cap = resolve("lattice_cap")
    if size > cap:
        raise BudgetExceededError(f"lattice size {size} exceeds cap of {cap}")


class OrthoLattice:
    """Validated finite ortholattice with meet/join tables; its heights,
    each row of its Sasaki projections and the placement of each orthoset's
    labels are computed once, on first use, and it keeps the verdicts of
    is_orthomodular and atoms_and_covering."""

    def __init__(self, labels: Iterable[str], up: Iterable[int], ortho: Iterable[int]):
        self.labels: tuple[str, ...] = tuple(labels)
        n = len(self.labels)
        if n == 0:
            raise LatticeLawError("empty", None)
        _check_cap(n)
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
        self.up: tuple[int, ...] = tuple(up_l)
        self.down: tuple[int, ...] = tuple(_transpose(up_l, n))
        for i in range(n):
            both = self.up[i] & self.down[i] & ~(1 << i)
            if both:
                j = (both & -both).bit_length() - 1
                raise LatticeLawError("not-a-poset", (self.labels[i], self.labels[j]))

        self.n = n
        # down-sets (and up-sets) are distinct once antisymmetry holds, so
        # each names its element; a meet or join is one lookup
        self.meet_t, self.join_t = _bound_rows(self.down), _bound_rows(self.up)
        for i, (mrow, jrow) in enumerate(zip(self.meet_t, self.join_t)):
            if -1 in mrow or -1 in jrow:
                j = next(j for j in range(n) if mrow[j] < 0 or jrow[j] < 0)
                law = "no-meet" if mrow[j] < 0 else "no-join"
                raise LatticeLawError(law, (self.labels[i], self.labels[j]))
        self.bottom = self.up.index(full)
        self.top = self.down.index(full)

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
        self._projections: dict[int, list[int]] = {}
        self._placements: dict[tuple[str, ...], tuple[list[int], dict[int, int]]] = {}
        self._orthomodular: Verdict | None = None
        self._covering: CoveringReport | None = None

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

    def projection_row(self, x: int) -> list[int]:
        """pi_x(y) for every y: row x of the Sasaki projections, built on
        its first read and kept; callers must not modify it."""
        row = self._projections.get(x)
        if row is None:
            row = self._projections[x] = [sasaki_projection(self, x, y) for y in range(self.n)]
        return row

    def placement(self, labels: tuple[str, ...]) -> tuple[list[int], dict[int, int]]:
        """The position of each of `labels` here, and the inverse map from
        such a position to its place in `labels`: built on the first read
        for a tuple of labels and kept; callers must not modify them."""
        found = self._placements.get(labels)
        if found is None:
            to_lat = [self.index(label) for label in labels]
            found = self._placements[labels] = (to_lat, {p: e for e, p in enumerate(to_lat)})
        return found

    def covers(self, i: int, j: int) -> bool:
        """j covers i: i < j with nothing strictly between, that is, the
        interval [i, j] is exactly {i, j} (it is empty unless i <= j)."""
        return i != j and self.up[i] & self.down[j] == 1 << i | 1 << j

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Every (i, j) where j covers i, testing only the j above i."""
        up, down = self.up, self.down
        return [(i, j) for i in range(self.n) for j in _bits(up[i])
                if j != i and up[i] & down[j] == 1 << i | 1 << j]

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

    def to_json(self, name: str = "lattice") -> dict[str, Any]:
        pairs = sorted([self.labels[i], self.labels[j]] for i, j in self.cover_pairs())
        ortho = {self.labels[i]: self.labels[self.ortho[i]] for i in range(self.n)}
        return {
            "name": name,
            "elements": list(self.labels),
            "leq": pairs,
            "ortho": {k: ortho[k] for k in sorted(ortho)},
        }


def build_lattice(doc: Any) -> OrthoLattice:
    """Parse and validate the lattice document format.

    `leq` pairs may be covers or any generating relation; the reflexive
    transitive closure is taken.  `ortho` must map every element.
    """
    doc = _unwrap(doc, "lattice")
    elements = _elements(doc)
    index = {lab: i for i, lab in enumerate(elements)}
    if len(index) != len(elements):
        raise InputError("duplicate lattice element label")
    up = [0] * len(elements)
    for a, b in _label_pairs(doc, "leq"):
        if a not in index or b not in index:
            raise InputError(f"leq pair {[a, b]!r} mentions an unknown element")
        up[index[a]] |= 1 << index[b]
    ortho_doc = _expect(doc.get("ortho"), dict, "'ortho' must be an object mapping labels to labels")
    ortho = []
    for lab in elements:
        if lab not in ortho_doc:
            raise InputError(f"orthocomplement missing for element {lab!r}")
        target = ortho_doc[lab]
        if not isinstance(target, str) or target not in index:
            raise InputError(f"orthocomplement of {lab!r} is unknown element {target!r}")
        ortho.append(index[target])
    return OrthoLattice(elements, up, ortho)


# --------------------------------------------------------------- predicates


def is_orthomodular(lat: OrthoLattice) -> Verdict:
    """x <= y implies y = x v (y ^ ortho(x)); counterexample pair on failure.
    Scanned on the first call for lat and kept on it."""
    if lat._orthomodular is None:
        lat._orthomodular = _orthomodular_scan(lat)
    return lat._orthomodular


def _orthomodular_scan(lat: OrthoLattice) -> Verdict:
    for x in range(lat.n):
        ox = lat.ortho[x]
        for y in _bits(lat.up[x]):
            if lat.join(x, lat.meet(y, ox)) != y:
                return Verdict(False, witness=(lat.labels[x], lat.labels[y]))
    return Verdict(True)


def _require_orthomodular(lat: OrthoLattice, message: str) -> None:
    """Raise NotOrthomodularError, with the failing pair, unless lat is
    orthomodular."""
    om = is_orthomodular(lat)
    if not om.holds:
        raise NotOrthomodularError(f"{message}; witness {om.witness!r}")


def _labelled(lat: OrthoLattice) -> Callable[[tuple[int, ...]], tuple[str, ...]]:
    """Witness render for first_counterexample: elements to their labels."""
    return lambda w: tuple(lat.labels[i] for i in w)


@dataclass(frozen=True)
class CoveringReport:
    atoms: tuple[str, ...]
    atomistic: Verdict
    covering: Verdict


def atoms_and_covering(lat: OrthoLattice) -> CoveringReport:
    """Atoms, atomisticity, and the covering property with witnesses.
    Scanned on the first call for lat and kept on it."""
    if lat._covering is None:
        lat._covering = _covering_scan(lat)
    return lat._covering


def _covering_scan(lat: OrthoLattice) -> CoveringReport:
    atom_set = lat.atoms
    atom_mask = sum(1 << a for a in atom_set)
    up, down, join = lat.up, lat.down, lat.join_t
    # the atoms below x, and those not below it, lowest index first
    atomistic = first_counterexample(
        ((x,) for x in range(lat.n)
         if reduce(lat.join, _bits(down[x] & atom_mask), lat.bottom) != x),
        lambda w: lat.labels[w[0]],
    )

    def with_blocker(w: tuple[int, ...]) -> tuple[str, ...]:
        x, a = w
        z = lat.join(x, a)
        blocker = next(v for v in _bits(lat.up[x] & lat.down[z]) if v != x and v != z)
        return (lat.labels[x], lat.labels[a], lat.labels[blocker])

    covering = first_counterexample(
        # x v a covers x iff up[x] & down[x v a] holds only x and x v a
        ((x, a) for x in range(lat.n) for a in _bits(atom_mask & ~down[x])
         if up[x] & down[(z := join[x][a])] != 1 << x | 1 << z),
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
    """Basic element: an atom or the bottom, that is, an element with at
    most one element strictly below it, read off the bit count of its
    down-set."""
    return lat.down[x].bit_count() <= 2


def projection_facts(lat: OrthoLattice) -> dict[str, Verdict]:
    """Exhaustive check of the Sasaki projection laws on an orthomodular
    lattice, every pair and triple of elements:

      (a) y <= x iff pi_x(y) = y
      (b) pi_x(ortho(pi_x(ortho(y)))) <= y
      (c) pi_x(y) = 0 iff y <= ortho(x)
      (d) pi_x(y) orthogonal to z iff y orthogonal to pi_x(z)

    All four read the lattice's rows of projections, n^2 of them.  Law (d)
    is n^2 mask comparisons (one per pair x, y) rather than a scan of the
    triples; the triple scan is kept in the test oracles, and both report
    the same first (x, y, z).

    The input must be orthomodular; (a) alone is equivalent to the
    orthomodular law, so running this on anything else only rediscovers
    the failure.
    """
    _require_orthomodular(lat, "projection facts assume an orthomodular lattice")
    r = range(lat.n)
    up, ortho = lat.up, lat.ortho
    pi = [lat.projection_row(x) for x in r]
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
        "d_self_adjoint": first_counterexample(_self_adjoint_failures(up, lat.down, ortho, pi), render),
    }


def _spread(row: Sequence[int], rows: Sequence[int]) -> list[int]:
    """out[s] is the mask of the c with bit s in rows[row[c]]: the c are
    grouped by their value w = row[c], and each group is ORed into every
    bit of rows[w]."""
    groups: dict[int, int] = {}
    for c, w in enumerate(row):
        groups[w] = groups.get(w, 0) | 1 << c
    out = [0] * len(rows)
    for w, cs in groups.items():
        for s in _bits(rows[w]):
            out[s] |= cs
    return out


def _self_adjoint_failures(up: Sequence[int], down: Sequence[int], ortho: Sequence[int],
                           table: Sequence[Sequence[int]],
                           spreads: Sequence[Sequence[int]] | None = None) -> Iterator[tuple[int, int, int]]:
    """Every (x, y, z) where t_x(y) orthogonal to z differs from y orthogonal
    to t_x(z), t_x(y) = table[x][y], scanning x, then y, then z: law (d) of
    the Sasaki projections, and finch's self-adjointness of induced maps.

    up[u] (down[u]) has bit v set iff u <= v (v <= u).  u is orthogonal to
    v iff u <= ortho(v), so with below = _spread(table[x], up) the z that
    break the law for y are the bits of down[ortho[t_x(y)]] ^ below[ortho[y]].
    spreads[x], when given, is that row, from a caller that reads it too."""
    for x, row in enumerate(table):
        below = _spread(row, up) if spreads is None else spreads[x]
        for y, v in enumerate(row):
            if diff := down[ortho[v]] ^ below[ortho[y]]:
                yield from ((x, y, z) for z in _bits(diff))


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


def orthoclosed_lattice(x: Orthoset) -> OrthoLattice:
    """The complete ortholattice of orthoclosed sets, ordered by inclusion.

    Element i of the result is the i-th member of x.orthoclosed_family()
    in canonical order; labels render the member sets.  Built on the first
    call and kept on x's closure table; each call checks the run's family
    budget and lattice cap as a fresh build does.
    """
    t = x.closure_table()
    if t.lattice is None:
        t.lattice = OrthoLattice([set_label(x, s) for s in t.sets], t.up, t.perp)
    else:
        _check_cap(t.lattice.n)
    return t.lattice


def dacey_criterion(x: Orthoset) -> Verdict:
    """For every orthoclosed A and maximal perp-set D inside A: A = closure(D)."""
    family = x.closure_table().masks
    limit = resolve("clique")
    for a in family:
        for d in x._maximal_perp_masks(a, limit):
            if x._perp(x._perp(d)) != a:
                return Verdict(False, witness=(x._labels(a), x._labels(d)))
    return Verdict(True)


def is_dacey(x: Orthoset, via: str = "criterion") -> Verdict:
    """Dacey space check, through the maximal-perp-set criterion or through
    orthomodularity of the orthoclosed-set lattice.  Both routes agree."""
    if via == "criterion":
        return dacey_criterion(x)
    if via == "lattice":
        return is_orthomodular(orthoclosed_lattice(x))
    raise ValueError(f"unknown dacey route {via!r}")


# ------------------------------------------------------------- isomorphisms


@dataclass
class LatticeIso:
    """Element-wise isomorphism table between two ortholattices."""

    table: tuple[int, ...]
    source_labels: tuple[str, ...]
    target_labels: tuple[str, ...]


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
    """Backtracking search for an ortholattice isomorphism: the elements of
    a by (down-set size, up-set size, index), each trying the elements of b
    by index, the first table found."""
    if a.n != b.n:
        return None

    def profile(lat: OrthoLattice, i: int) -> tuple[int, int]:
        return (lat.down[i].bit_count(), lat.up[i].bit_count())

    bp = [profile(b, j) for j in range(b.n)]
    order = sorted(range(a.n), key=lambda i: (profile(a, i), i))

    def fits(img: list[int], i: int, j: int) -> bool:
        return bp[j] == profile(a, i) and img[a.ortho[i]] in (-1, b.ortho[j]) and all(
            img[k] < 0 or (a.leq(i, k) == b.leq(j, img[k]) and a.leq(k, i) == b.leq(img[k], j))
            for k in range(a.n)
        )

    table = _first_bijection(a.n, [(i, range(b.n)) for i in order], fits)
    if table is None:
        return None
    iso = LatticeIso(tuple(table), a.labels, b.labels)
    check = check_lattice_iso(a, b, iso.table)
    if not check.holds:
        raise CrossCheckError(f"isomorphism table failed certification: {check.witness!r}")
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


def roundtrip_check(obj: Orthoset | OrthoLattice) -> RoundtripResult:
    """The run's family budget bounds the orthoclosed family and its lattice
    cap the lattice built from it, as in orthoclosed_lattice."""
    if isinstance(obj, Orthoset):
        return _roundtrip_orthoset(obj)
    if isinstance(obj, OrthoLattice):
        return _roundtrip_lattice(obj)
    raise InputError("roundtrip_check expects an Orthoset or an OrthoLattice")


def _roundtrip_orthoset(x: Orthoset) -> RoundtripResult:
    pc = x.is_point_closed()
    if not pc.holds:
        return RoundtripResult(False, "orthoset", hypothesis_failure=("point-closed", pc.witness))
    lat = orthoclosed_lattice(x)
    closed = x.closure_table()
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


def _roundtrip_lattice(lat: OrthoLattice) -> RoundtripResult:
    rep = atoms_and_covering(lat)
    if not rep.atomistic.holds:
        return RoundtripResult(
            False, "lattice", hypothesis_failure=("atomistic", rep.atomistic.witness)
        )
    x = atoms_to_orthoset(lat)
    produced = orthoclosed_lattice(x)
    closed = x.closure_table()
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
    covering = atoms_and_covering(lat).covering
    basic = first_counterexample(
        ((x, a, row[a]) for x, row in enumerate(map(lat.projection_row, range(lat.n)))
         for a in lat.atoms if not is_basic(lat, row[a])),
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
