"""Sasaki maps on orthosets.

A Sasaki map to an orthoclosed set A is a map from the complement of
A-perp into A that fixes A pointwise and satisfies the adjointness
condition: phi(e) orthogonal to f iff e orthogonal to phi(f), quantified
over all ordered pairs of the domain, the diagonal included.

The witness search is a deterministic backtracking over free domain
elements in index order with values tried in index order, so the first
witness found is the lexicographically least; it is one loop on an
explicit stack, so no recursion limit bounds it.  Before it runs, each free
element's agreement with the fixed points is looked up once: when some
free element matches no value of the target (a root wipe-out), no map
exists and the search is skipped.  Nonexistence is certified by a
replayable refutation trace: an order of the free elements and the pruned
branches with their violated pairs, one per value of the target on a
wipe-out.  verify_refutation re-checks it from x.adj alone, in whatever
order it was recorded.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from operator import or_
from typing import Any, Iterator, Mapping, Sequence

from .config import resolve
from .errors import (
    BudgetExceededError,
    CrossCheckError,
    InputError,
    MapDomainError,
    NotOrthoclosedError,
    NotPrincipalError,
    NotSasakiSpaceError,
    HypothesisViolation,
)
from .lattice import (OrthoLattice, _require_orthomodular, _self_adjoint_failures, _spread, dacey_criterion,
                      oml_to_orthoset)
from .orthoset import (ClosureTable, Orthoset, PropertyReport, Subset, Verdict, _bits, _bound_rows, _mask_key,
                       _transpose, first_counterexample)


@dataclass
class SasakiMapWitness:
    """A concrete Sasaki map: target set plus the full value table."""

    target: Subset
    table: dict[int, int]

    def to_json(self, x: Orthoset) -> dict[str, Any]:
        return {
            "target": list(x.labels_of(self.target)),
            "map": {x.labels[e]: x.labels[v] for e, v in sorted(self.table.items())},
        }


@dataclass
class RefutationTrace:
    """Certificate that no Sasaki map to `target` exists.

    `free_order` is a permutation of the non-fixed domain elements: index
    order for a refuting search, the wiped element first on a root
    wipe-out.  Each entry is (prefix of values assigned to free_order,
    violated pair).  Every branch of the value tree ends in a recorded
    genuine violation.
    """

    target: Subset
    free_order: tuple[int, ...]
    entries: tuple[tuple[tuple[int, ...], tuple[int, int]], ...]

    def to_json(self, x: Orthoset) -> dict[str, Any]:
        return {
            "target": list(x.labels_of(self.target)),
            "order": [x.labels[e] for e in self.free_order],
            "trace": [
                {
                    "prefix": [x.labels[v] for v in prefix],
                    "conflict": [x.labels[e] for e in pair],
                }
                for prefix, pair in self.entries
            ],
        }


@dataclass
class SasakiVerdict:
    exists: bool
    witness: SasakiMapWitness | None
    refutation: RefutationTrace | None
    nodes: int


def _require_orthoclosed(x: Orthoset, a: Subset) -> tuple[int, int]:
    """The masks of a and of its perp, unless a is not orthoclosed.

    Once x keeps its closure table, a is looked up there and its perp read
    from it; without one, the two perps are computed.  The table is never
    built here: enumerating the family for one target could exceed the
    family budget on a valid input."""
    m = x._mask(a)
    t = x._closure_table
    if t is not None:
        i = t.index.get(m)
        if i is not None:
            return m, t.masks[t.perp[i]]
    else:
        perp = x._perp(m)
        if x._perp(perp) == m:
            return m, perp
    raise NotOrthoclosedError(f"target {x._labels(m)!r} is not orthoclosed")


def is_sasaki_map(x: Orthoset, a: Subset, table: Mapping[int, int]) -> Verdict:
    """Check a candidate table against the Sasaki map conditions.

    Domain and range problems are input errors; condition failures are
    verdicts carrying the first violated element or ordered pair.  The
    adjointness pairs (e, f) are read in index order one row at a time:
    the f with phi(e) orth f form the mask adj[phi(e)], the f with
    e orth phi(f) the union of the preimages of the values orthogonal to
    e, and the first f where the two masks differ is the witness.
    """
    am, aperp = _require_orthoclosed(x, a)
    dom = x._full & ~aperp
    domain = frozenset(_bits(dom))
    if frozenset(table) != domain:
        raise MapDomainError(
            f"domain must be exactly the complement of the perp of the target; "
            f"expected {tuple(x.labels_of(domain))!r}"
        )
    for e, v in table.items():
        if v not in a:
            raise MapDomainError(
                f"value {x.labels[v]!r} of {x.labels[e]!r} escapes the target"
            )
    for e in sorted(a):
        if table[e] != e:
            return Verdict(False, witness=("fixes-target", x.labels[e]))
    adj = x._adj
    pre = [0] * x.n
    for e, v in table.items():
        pre[v] |= 1 << e
    for e in _bits(dom):
        sent_orth = 0
        for v in _bits(adj[e] & am):
            sent_orth |= pre[v]
        diff = (adj[table[e]] & dom) ^ sent_orth
        if diff:
            f = (diff & -diff).bit_length() - 1
            return Verdict(False, witness=("adjointness", (x.labels[e], x.labels[f])))
    return Verdict(True)


class _MapSearch:
    """Every Sasaki map to the target mask a, in lexicographic order: the
    free domain elements (outside a and its perp) take the elements of a in
    index order, one node per try, up to the run's node budget.  Value v
    for e clashes with an assigned g when v orth g differs from e orth
    phi(g); the first such g in a, else the first free one, is recorded
    with the pruned branch in `trace`.

    A root wipe-out needs no search: a free e whose signature adj[e] & a is
    the signature of no value v in a clashes with every v at the fixed
    points, so it is moved to the front of `free`, and its |A| tries are
    recorded, as the loop would record them, without entering the loop."""

    def __init__(self, x: Orthoset, a: int, aperp: int):
        adj = self.adj = x._adj
        self.a, self.budget = a, resolve("nodes")
        self.fixed = list(_bits(a))
        self.free = list(_bits(x._full & ~aperp & ~a))
        self.trace: list[tuple[tuple[int, ...], tuple[int, int]]] = []
        self.nodes = 0
        self.wiped: int | None = None
        signatures = {adj[v] & a for v in self.fixed}
        for e in self.free:
            if adj[e] & a not in signatures:
                self.free = [e] + [f for f in self.free if f != e]
                self.wiped = e
                break

    def __iter__(self) -> Iterator[dict[int, int]]:
        adj, a, fixed, free, trace = self.adj, self.a, self.fixed, self.free, self.trace
        if (e := self.wiped) is not None:
            if len(fixed) > self.budget:
                raise BudgetExceededError(f"sasaki search exceeded {self.budget} nodes")
            self.nodes = len(fixed)
            for v in fixed:
                # v clashes with e at the fixed points where their signatures differ
                clash = (adj[v] ^ adj[e]) & a
                trace.append(((v,), (e, (clash & -clash).bit_length() - 1)))
            return
        # owned[k]: the elements assigned while free[k] is tried
        owned = list(accumulate((1 << f for f in free), or_, initial=a))
        prefix: list[int] = []  # the values of free[0..k-1]
        tried: list[int] = []  # tried[k]: how many values free[k] has tried
        agree: list[int] = []  # agree[k]: the assigned g with phi(g) orth free[k]
        while True:
            k = len(prefix)
            if k == len(free):
                yield {**{t: t for t in fixed}, **dict(zip(free, prefix))}
            else:
                e = free[k]
                if len(tried) == k:
                    tried.append(0)
                    agree.append(adj[e] & a | sum(1 << g for g, w in zip(free, prefix) if adj[e] >> w & 1))
                if tried[k] < len(fixed):
                    v = fixed[tried[k]]
                    tried[k] += 1
                    self.nodes += 1
                    if self.nodes > self.budget:
                        raise BudgetExceededError(f"sasaki search exceeded {self.budget} nodes")
                    clash = (adj[v] & owned[k]) ^ agree[k]
                    if not clash:
                        prefix.append(v)
                    else:
                        first = clash & a or clash
                        trace.append((tuple(prefix) + (v,), (e, (first & -first).bit_length() - 1)))
                    continue
                tried.pop()
                agree.pop()
            # past a leaf, or past the last value of free[k]: back up
            if not prefix:
                return
            prefix.pop()


def find_sasaki_map(x: Orthoset, a: Subset) -> SasakiVerdict:
    """Lexicographically least Sasaki map to a, or a refutation trace."""
    search = _MapSearch(x, *_require_orthoclosed(x, a))
    table = next(iter(search), None)
    if table is not None:
        return SasakiVerdict(True, SasakiMapWitness(a, table), None, search.nodes)
    ref = RefutationTrace(a, tuple(search.free), tuple(search.trace))
    return SasakiVerdict(False, None, ref, search.nodes)


def count_sasaki_maps(x: Orthoset, a: Subset, limit: int = 2) -> list[SasakiMapWitness]:
    """Up to `limit` Sasaki maps in lexicographic order (uniqueness checks)."""
    if limit < 1:
        raise InputError(f"map count limit must be at least 1, got {limit}")
    search = _MapSearch(x, *_require_orthoclosed(x, a))
    return [SasakiMapWitness(a, t) for t in islice(search, limit)]


def verify_refutation(x: Orthoset, ref: RefutationTrace) -> bool:
    """Re-check a refutation trace independently of the search.

    Confirms that the target is orthoclosed, that `free_order` is a
    permutation of the free domain elements (no repeats, none missing, none
    extra), that every recorded conflict is a genuine adjointness violation
    between elements its prefix assigns, re-read from x.adj, and that the
    recorded prefixes cover the whole value tree under that order: every
    internal node, the root included, has all |A| children, each a leaf or
    internal, and no full assignment is internal.

    Why any order will do: a total assignment is a path from the root that
    picks one value of A for each free element in `free_order`.  Coverage
    means that path meets a leaf before it runs out of elements, and that
    leaf's conflict is a pair whose values the path already fixes, so the
    assignment breaks adjointness.  Every total assignment, read in any
    order, is such a path, so no Sasaki map exists, whichever order the
    trace was recorded in.
    """
    am = x._mask(ref.target)
    aperp = x._perp(am)
    if x._perp(aperp) != am:
        return False
    a = ref.target
    fixed = sorted(a)
    order = ref.free_order
    position = {e: i for i, e in enumerate(order)}
    free = set(_bits(x._full & ~aperp & ~am))
    if len(position) != len(order) or position.keys() != free:
        return False
    adj = x.adj
    leaves: set[tuple[int, ...]] = set()
    internal: set[tuple[int, ...]] = {()}
    for prefix, (e, f) in ref.entries:
        k = len(prefix)
        if k > len(order) or prefix in leaves or not a.issuperset(prefix):
            return False
        leaves.add(prefix)
        # phi(e) under the prefix: e itself on A, the prefix's value at e's
        # position when that lies inside the prefix, else unassigned (None)
        i, j = position.get(e, k), position.get(f, k)
        ve = e if e in a else prefix[i] if i < k else None
        vf = f if f in a else prefix[j] if j < k else None
        if ve is None or vf is None:
            return False
        if ((ve in adj[f]) == (e in adj[vf])) and ((vf in adj[e]) == (f in adj[ve])):
            return False  # claimed conflict is not real
        # the proper prefixes, longest first; a known one has its own known
        for cut in range(k - 1, -1, -1):
            node = prefix[:cut]
            if node in internal:
                break
            internal.add(node)
    # coverage: every internal node must have all |A| children accounted for
    for node in internal:
        if len(node) >= len(order):
            return False  # a full assignment cannot be internal
        for v in fixed:
            child = node + (v,)
            if child not in leaves and child not in internal:
                return False
    return True


# ------------------------------------------------------------- shortcuts


@dataclass
class ShortcutResult:
    clause: str  # "a": perp(A) is the complement of A; "c": A is a singleton.
    # No clause "b" (the complement of perp(A) a perp-set): it implies (a).
    witness: SasakiMapWitness


def shortcut_construct(x: Orthoset, a: Subset) -> ShortcutResult | None:
    """Closed-form Sasaki maps for the two easy target shapes, kept as a
    cross-check on the search.

    (a) perp(A) = complement of A: the identity on A.
    (c) A a singleton: the constant map.
    Returns None when neither applies.

    A third shape, the domain D = complement of perp(A) being a perp-set,
    needs no clause of its own.  D contains A (no element is orthogonal to
    itself), so an e in D outside A would be orthogonal to all of A, hence
    in perp(A) and not in D.  So D = A, and (a) applies.
    """
    am, aperp = _require_orthoclosed(x, a)
    if aperp == x._full & ~am:
        # the domain, the complement of perp(A), is A itself
        return ShortcutResult("a", SasakiMapWitness(a, {e: e for e in _bits(am)}))
    if am.bit_count() == 1:
        domain = _bits(x._full & ~aperp)
        return ShortcutResult("c", SasakiMapWitness(a, dict.fromkeys(domain, am.bit_length() - 1)))
    return None


# ------------------------------------------------------------ space checks


@dataclass
class SasakiSpaceVerdict:
    is_sasaki: bool
    mode: str
    targets: tuple[Subset, ...]
    witnesses: dict[Subset, SasakiMapWitness]
    first_failure: Subset | None = None
    failure: SasakiVerdict | None = None

    def as_verdict(self, x: Orthoset) -> Verdict:
        if self.is_sasaki:
            return Verdict(True)
        assert self.first_failure is not None
        return Verdict(False, witness=x.labels_of(self.first_failure))


def is_sasaki_space(x: Orthoset, mode: str = "naive") -> SasakiSpaceVerdict:
    """Does every orthoclosed set admit a Sasaki map?

    naive mode searches every orthoclosed target; reduced mode only the
    perps of perp-sets, which is equivalent.  Targets are visited in
    canonical order and the first failure is reported.
    """
    if mode == "naive":
        targets = x.orthoclosed_family()
    elif mode == "reduced":
        perps = {x._perp(d) for d in x._perp_set_masks(x._full, resolve("clique"))}
        targets = [frozenset(_bits(m)) for m in sorted(perps, key=_mask_key)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    witnesses: dict[Subset, SasakiMapWitness] = {}
    for a in targets:
        v = find_sasaki_map(x, a)
        if not v.exists:
            return SasakiSpaceVerdict(
                False, mode, tuple(targets), witnesses, first_failure=a, failure=v
            )
        assert v.witness is not None
        witnesses[a] = v.witness
    return SasakiSpaceVerdict(True, mode, tuple(targets), witnesses)


# ----------------------------------------------------- lattice restriction


def sasaki_from_oml(lat: OrthoLattice, a: Subset, x: Orthoset | None = None) -> SasakiMapWitness:
    """Sasaki map witness on the orthoset of nonzero lattice elements.

    The target must be the trace of a principal down-set; the table is the
    lattice's row of Sasaki projections to its generator, restricted and
    corestricted.  The produced witness is certified before being returned.
    """
    _require_orthomodular(lat, "sasaki_from_oml requires an orthomodular lattice")
    if x is None:
        x = oml_to_orthoset(lat)
    am = x._mask(a)
    to_lat = [lat.index(label) for label in x.labels]
    gen = lat.bottom
    for e in a:
        gen = lat.join(gen, to_lat[e])
    principal = frozenset(e for e in range(x.n) if lat.down[gen] >> to_lat[e] & 1)
    if principal != a:
        raise NotPrincipalError(
            f"target {tuple(x.labels_of(a))!r} is not the trace of a principal down-set"
        )
    table: dict[int, int] = {}
    lat_index_of = {to_lat[e]: e for e in range(x.n)}
    row = lat.projection_row(gen)
    for e in _bits(x._full & ~x._perp(am)):
        p = row[to_lat[e]]
        if p == lat.bottom:
            raise MapDomainError(
                f"projection of {x.labels[e]!r} collapsed to zero unexpectedly"
            )
        table[e] = lat_index_of[p]
    witness = SasakiMapWitness(a, table)
    check = is_sasaki_map(x, a, table)
    if not check.holds:
        raise CrossCheckError(f"projection table failed certification: {check.witness!r}")
    return witness


# ------------------------------------------------------------ induced maps


def bar_phi(x: Orthoset, witness: SasakiMapWitness, b: Subset) -> Subset:
    """Induced map on orthoclosed sets: the closure of the image of the
    part of b that meets the domain of the Sasaki map."""
    if not x.is_orthoclosed(b):
        raise NotOrthoclosedError(f"argument {tuple(x.labels_of(b))!r} is not orthoclosed")
    aperp = x.perp(witness.target)
    gens = frozenset(witness.table[e] for e in b if e not in aperp)
    return x.closure(gens)[0]


@dataclass
class FinchReport:
    """Verdicts for the induced-map laws over one witness family."""

    laws: dict[str, Verdict]

    @property
    def ok(self) -> bool:
        return all(v.holds for v in self.laws.values())


def finch_report(x: Orthoset) -> FinchReport:
    """Exhaustive check of the induced-map laws on a Sasaki space.

    Laws: monotonicity, the composition law (total image contained in the
    other total image forces composition to collapse), the adjoint bound,
    self-adjointness, and preservation of finite joins.  Uses the
    lexicographically-least witness for each target.
    """
    space = is_sasaki_space(x, "naive")
    if not space.is_sasaki:
        assert space.first_failure is not None
        raise NotSasakiSpaceError(
            f"not a Sasaki space; first failing target {tuple(x.labels_of(space.first_failure))!r}",
            failure=space.failure,
        )
    return FinchReport(laws=_finch_laws(x, x.closure_table(), space.witnesses))


def _finch_laws(
    x: Orthoset,
    t: ClosureTable,
    witnesses: Mapping[Subset, SasakiMapWitness],
) -> dict[str, Verdict]:
    """The five law verdicts, first counterexample in lexicographic order of
    family positions.

    `t` is x's closure table.  Each induced value bar[a][b] is one mask
    closure; the law loops then read rows of bar, of the table and of the
    transpose and bound rows of its up-sets, since every set they name is a
    member.
    """
    r = range(len(t.sets))
    perp = t.perp
    bar: list[list[int]] = []
    for a in r:
        table = witnesses[t.sets[a]].table
        outside = ~t.masks[perp[a]]
        # the set of image bits, summed, is the mask of the image
        bar.append([
            perp[t.index[x._perp(sum({1 << table[e] for e in _bits(t.masks[b] & outside)}))]]
            for b in r
        ])

    def render(w: tuple[int, ...]) -> tuple[tuple[str, ...], ...]:
        return tuple(x.labels_of(t.sets[i]) for i in w)

    failures = _finch_law_failures(
        t.up, _transpose(t.up, len(r)), perp, _bound_rows(t.up), bar, t.index[x._full])
    return {law: first_counterexample(found, render) for law, found in failures.items()}


def _finch_law_failures(
    up: Sequence[int],
    down: Sequence[int],
    perp: Sequence[int],
    join: Sequence[Sequence[int]],
    bar: Sequence[Sequence[int]],
    top: int,
) -> dict[str, Iterator[tuple[int, ...]]]:
    """Every counterexample of each law, as family positions, in the order
    of a scan over a, then b, then c.

    bar[a][b] is the induced value of target a on b, join[b][c] the join of
    b and c, perp[b] the perp of b, and top the whole space, all as
    positions; up[b] (down[b]) has bit c set iff b is contained in c (c in
    b).  Monotone and self_adjoint (lattice's law (d) scan) compare one pair
    of masks per (a, b), and composition and join_preserving one pair of
    rows per (a, b).
    """
    r = range(len(bar))

    def differ(a: int, b: int, lhs: list[int], rhs: Sequence[int]) -> Iterator[tuple[int, ...]]:
        if lhs != rhs:
            yield from ((a, b, c) for c in r if lhs[c] != rhs[c])

    def monotone() -> Iterator[tuple[int, ...]]:
        # b within c, but bar[a][b] not within bar[a][c]
        for a, row in enumerate(bar):
            above = _spread(row, down)  # above[s]: the c with s within row[c]
            for b, v in enumerate(row):
                if fail := up[b] & ~above[v]:
                    yield from ((a, b, c) for c in _bits(fail))

    def composition() -> Iterator[tuple[int, ...]]:
        # the total image of a within that of b, but bar[a][bar[b][c]] != bar[a][c]
        for a, row in enumerate(bar):
            for b in r:
                if up[row[top]] >> bar[b][top] & 1:
                    yield from differ(a, b, list(map(row.__getitem__, bar[b])), row)

    def join_preserving() -> Iterator[tuple[int, ...]]:
        # bar[a][join[b][c]] != join[bar[a][b]][bar[a][c]]
        for a, row in enumerate(bar):
            for b, v in enumerate(row):
                lhs = list(map(row.__getitem__, join[b]))
                yield from differ(a, b, lhs, list(map(join[v].__getitem__, row)))

    return {
        "monotone": monotone(),
        "composition": composition(),
        "adjoint_bound": (
            (a, b) for a in r for b in r
            if not up[bar[a][perp[bar[a][b]]]] >> perp[b] & 1
        ),
        # c within perp(bar[a][b]) differs from bar[a][c] within perp(b)
        "self_adjoint": _self_adjoint_failures(up, down, perp, bar),
        "join_preserving": join_preserving(),
    }


# --------------------------------------------------------------- formula


def sasaki_formula_check(x: Orthoset) -> Verdict:
    """Point-closed Sasaki spaces determine their maps uniquely:
    phi(e) is the single element of (closure of {e} joined with perp(A))
    intersected with A, and no second Sasaki map to A exists."""
    pc = x.is_point_closed()
    if not pc.holds:
        raise HypothesisViolation("point-closed", pc.witness)
    space = is_sasaki_space(x, "naive")
    if not space.is_sasaki:
        assert space.first_failure is not None
        raise HypothesisViolation("sasaki-space", x.labels_of(space.first_failure))
    for a in space.targets:
        am = x._mask(a)
        table = space.witnesses[a].table
        aperp = x._perp(am)
        for e in _bits(x._full & ~aperp):
            predicted = x._perp(x._perp(1 << e | aperp)) & am
            if predicted != 1 << table[e]:
                return Verdict(False, witness=(x._labels(am), x.labels[e], x._labels(predicted)))
        maps = count_sasaki_maps(x, a, limit=2)
        if len(maps) != 1:
            return Verdict(False, witness=(x._labels(am), "non-unique"))
    return Verdict(True)


# ----------------------------------------------------------------- report


def property_report(x: Orthoset, name: str = "orthoset") -> PropertyReport:
    """Assemble the standard per-orthoset report used by the CLI."""
    naive = is_sasaki_space(x, "naive")
    reduced = is_sasaki_space(x, "reduced")
    try:
        transitive: Verdict | None = x.is_transitive()
        if transitive is not None and transitive.holds:
            transitive = Verdict(True)  # drop the bulky certificate table
    except BudgetExceededError:
        transitive = None
    return PropertyReport(
        name=name,
        n=x.n,
        rank=x.rank(),
        point_closed=x.is_point_closed(),
        irreducible=x.is_irreducible(),
        dacey=dacey_criterion(x),
        sasaki_naive=naive.as_verdict(x),
        sasaki_reduced=reduced.as_verdict(x),
        transitive=transitive,
    )
