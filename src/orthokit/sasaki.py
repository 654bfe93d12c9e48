"""Sasaki maps on orthosets.

A Sasaki map to an orthoclosed set A is a map from the complement of
A-perp into A that fixes A pointwise and satisfies the adjointness
condition: phi(e) orthogonal to f iff e orthogonal to phi(f), quantified
over all ordered pairs of the domain, the diagonal included.

The witness search is a deterministic backtracking over free domain
elements in index order with values tried in index order, so the first
witness found is the lexicographically least; it is one loop on an
explicit stack, so no recursion limit bounds it.  Nonexistence is
certified by a replayable refutation trace: the pruned branches with their
violated pairs, which verify_refutation re-checks from x.adj alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from operator import or_
from typing import Any, Iterator, Mapping

from .config import clique_budget as clique_budget_cfg, node_budget as node_budget_cfg
from .errors import (
    BudgetExceededError,
    InputError,
    MapDomainError,
    NotOrthoclosedError,
    NotPrincipalError,
    NotSasakiSpaceError,
    HypothesisViolation,
)
from .lattice import OrthoLattice, _require_orthomodular, dacey_criterion, oml_to_orthoset, sasaki_projection
from .orthoset import ClosureTable, Orthoset, PropertyReport, Subset, Verdict, _bits, _mask_key, first_counterexample


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

    `free_order` lists the non-fixed domain elements in search order;
    each entry is (prefix of values assigned to free_order, violated pair).
    Every branch of the value tree ends in a recorded genuine violation.
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
    """The masks of a and of its perp, unless a is not orthoclosed."""
    m = x._mask(a)
    perp = x._perp(m)
    if x._perp(perp) != m:
        raise NotOrthoclosedError(f"target {x._labels(m)!r} is not orthoclosed")
    return m, perp


def is_sasaki_map(x: Orthoset, a: Subset, table: Mapping[int, int]) -> Verdict:
    """Check a candidate table against the Sasaki map conditions.

    Domain and range problems are input errors; condition failures are
    verdicts carrying the first violated element or ordered pair.
    """
    _, aperp = _require_orthoclosed(x, a)
    domain = frozenset(_bits(x._full & ~aperp))
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
    for e in a:
        if table[e] != e:
            return Verdict(False, witness=("fixes-target", x.labels[e]))
    dom = sorted(domain)
    for e in dom:
        for f in dom:
            if (table[e] in x.adj[f]) != (e in x.adj[table[f]]):
                return Verdict(False, witness=("adjointness", (x.labels[e], x.labels[f])))
    return Verdict(True)


class _MapSearch:
    """Every Sasaki map to the target mask a, in lexicographic order: the
    free domain elements (outside a and its perp) take the elements of a in
    index order, one node per try.  Value v for e clashes with an assigned
    g when v orth g differs from e orth phi(g); the first such g in a, else
    the first free one, is recorded with the pruned branch in `trace`."""

    def __init__(self, x: Orthoset, a: int, aperp: int, budget: int):
        self.adj, self.a, self.budget = x._adj, a, budget
        self.fixed = list(_bits(a))
        self.free = list(_bits(x._full & ~aperp & ~a))
        self.trace: list[tuple[tuple[int, ...], tuple[int, int]]] = []
        self.nodes = 0

    def __iter__(self) -> Iterator[dict[int, int]]:
        adj, a, fixed, free, trace = self.adj, self.a, self.fixed, self.free, self.trace
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


def find_sasaki_map(x: Orthoset, a: Subset, budget: int | None = None) -> SasakiVerdict:
    """Lexicographically least Sasaki map to a, or a refutation trace."""
    search = _MapSearch(x, *_require_orthoclosed(x, a), node_budget_cfg(budget))
    table = next(iter(search), None)
    if table is not None:
        return SasakiVerdict(True, SasakiMapWitness(a, table), None, search.nodes)
    ref = RefutationTrace(a, tuple(search.free), tuple(search.trace))
    return SasakiVerdict(False, None, ref, search.nodes)


def count_sasaki_maps(x: Orthoset, a: Subset, limit: int = 2,
                      budget: int | None = None) -> list[SasakiMapWitness]:
    """Up to `limit` Sasaki maps in lexicographic order (uniqueness checks)."""
    if limit < 1:
        raise InputError(f"map count limit must be at least 1, got {limit}")
    search = _MapSearch(x, *_require_orthoclosed(x, a), node_budget_cfg(budget))
    return [SasakiMapWitness(a, t) for t in islice(search, limit)]


def verify_refutation(x: Orthoset, ref: RefutationTrace) -> bool:
    """Re-check a refutation trace independently of the search.

    Confirms (1) every recorded conflict is a genuine adjointness violation
    under its partial assignment, and (2) the pruned branches cover the
    whole value tree, so no assignment escapes.
    """
    if not x.is_orthoclosed(ref.target):
        return False
    a = ref.target
    fixed = sorted(a)
    free_expected = [e for e in sorted(x.universe - x.perp(a)) if e not in a]
    if list(ref.free_order) != free_expected:
        return False
    adj = x.adj
    leaves: dict[tuple[int, ...], tuple[int, int]] = {}
    internal: set[tuple[int, ...]] = {()}
    for prefix, pair in ref.entries:
        if len(prefix) > len(ref.free_order) or prefix in leaves:
            return False
        leaves[prefix] = pair
        for cut in range(len(prefix)):
            internal.add(prefix[:cut])
    for prefix, pair in leaves.items():
        assign = {e: e for e in fixed}
        for i, v in enumerate(prefix):
            if v not in a:
                return False
            assign[ref.free_order[i]] = v
        e, f = pair
        if e not in assign or f not in assign:
            return False
        ve, vf = assign[e], assign[f]
        if ((ve in adj[f]) == (e in adj[vf])) and ((vf in adj[e]) == (f in adj[ve])):
            return False  # claimed conflict is not real
    # coverage: every internal node must have all |A| children accounted for
    for node in internal:
        if len(node) >= len(ref.free_order):
            return False  # a full assignment cannot be internal
        for v in fixed:
            child = node + (v,)
            if child not in leaves and child not in internal:
                return False
    return True


# ------------------------------------------------------------- shortcuts


@dataclass
class ShortcutResult:
    clause: str  # "a": perp(A) is the complement; "b": complement of perp(A)
    # is a perp-set; "c": A is a singleton
    witness: SasakiMapWitness


def shortcut_construct(x: Orthoset, a: Subset) -> ShortcutResult | None:
    """Closed-form Sasaki maps for the three easy target shapes.

    (a) perp(A) = complement of A: the identity on A.
    (b) the complement of perp(A) is a perp-set: reduces to (a).
    (c) A a singleton: the constant map.
    Returns None when no clause applies.
    """
    am, aperp = _require_orthoclosed(x, a)
    dom = x._full & ~aperp
    domain = list(_bits(dom))
    if aperp == x._full & ~am:
        return ShortcutResult("a", SasakiMapWitness(a, {e: e for e in domain}))
    if all(dom & ~x._adj[e] == 1 << e for e in domain):
        # a perp-set complement forces perp(A) to be the complement of A
        return ShortcutResult("b", SasakiMapWitness(a, {e: e for e in domain}))
    if am.bit_count() == 1:
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


def is_sasaki_space(
    x: Orthoset,
    mode: str = "naive",
    node_budget: int | None = None,
    family_budget: int | None = None,
    clique_budget: int | None = None,
) -> SasakiSpaceVerdict:
    """Does every orthoclosed set admit a Sasaki map?

    naive mode searches every orthoclosed target; reduced mode only the
    perps of perp-sets, which is equivalent.  Targets are visited in
    canonical order and the first failure is reported.
    """
    if mode == "naive":
        targets = x.orthoclosed_family(family_budget)
    elif mode == "reduced":
        perps = {x._perp(d) for d in x._perp_set_masks(x._full, clique_budget_cfg(clique_budget))}
        targets = [frozenset(_bits(m)) for m in sorted(perps, key=_mask_key)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    witnesses: dict[Subset, SasakiMapWitness] = {}
    for a in targets:
        v = find_sasaki_map(x, a, node_budget)
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
    Sasaki projection to its generator, restricted and corestricted.  The
    produced witness is certified before being returned.
    """
    _require_orthomodular(lat, "sasaki_from_oml requires an orthomodular lattice")
    if x is None:
        x = oml_to_orthoset(lat)
    am = x._mask(a)
    to_lat = [lat.index(label) for label in x.labels]
    gen = lat.bottom
    for e in a:
        gen = lat.join(gen, to_lat[e])
    principal = frozenset(e for e in range(x.n) if lat.leq(to_lat[e], gen))
    if principal != a:
        raise NotPrincipalError(
            f"target {tuple(x.labels_of(a))!r} is not the trace of a principal down-set"
        )
    table: dict[int, int] = {}
    lat_index_of = {to_lat[e]: e for e in range(x.n)}
    for e in _bits(x._full & ~x._perp(am)):
        p = sasaki_projection(lat, gen, to_lat[e])
        if p == lat.bottom:
            raise MapDomainError(
                f"projection of {x.labels[e]!r} collapsed to zero unexpectedly"
            )
        table[e] = lat_index_of[p]
    witness = SasakiMapWitness(a, table)
    check = is_sasaki_map(x, a, table)
    assert check.holds, f"projection table failed certification: {check.witness!r}"
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


def finch_report(
    x: Orthoset,
    node_budget: int | None = None,
    family_budget: int | None = None,
) -> FinchReport:
    """Exhaustive check of the induced-map laws on a Sasaki space.

    Laws: monotonicity, the composition law (total image contained in the
    other total image forces composition to collapse), the adjoint bound,
    self-adjointness, and preservation of finite joins.  Uses the
    lexicographically-least witness for each target.
    """
    space = is_sasaki_space(x, "naive", node_budget, family_budget)
    if not space.is_sasaki:
        assert space.first_failure is not None
        raise NotSasakiSpaceError(
            f"not a Sasaki space; first failing target {tuple(x.labels_of(space.first_failure))!r}",
            failure=space.failure,
        )
    return FinchReport(laws=_finch_laws(x, ClosureTable(x, family_budget), space.witnesses))


def _finch_laws(
    x: Orthoset,
    t: ClosureTable,
    witnesses: Mapping[Subset, SasakiMapWitness],
) -> dict[str, Verdict]:
    """The five law verdicts, first counterexample in lexicographic order of
    family positions.

    `t` is x's closure table.  Each induced value bar[a][b] is one mask
    closure; the law loops are then lookups in the table, since every set
    they name is a member.
    """
    r = range(len(t.sets))
    up, perp, top = t.up, t.perp, t.index[x._full]
    bar: list[list[int]] = []
    for a in r:
        table = witnesses[t.sets[a]].table
        outside = ~t.masks[perp[a]]
        # the set of image bits, summed, is the mask of the image
        bar.append([
            t.close(sum({1 << table[e] for e in _bits(t.masks[b] & outside)}))
            for b in r
        ])
    join = [[t.join(b, c) for c in r] for b in r]

    def render(w: tuple[int, ...]) -> tuple[tuple[str, ...], ...]:
        return tuple(x.labels_of(t.sets[i]) for i in w)

    return {
        "monotone": first_counterexample(
            ((a, b, c) for a in r for b in r for c in r
             if up[b] >> c & 1 and not up[bar[a][b]] >> bar[a][c] & 1),
            render,
        ),
        "composition": first_counterexample(
            ((a, b, c) for a in r for b in r
             if up[bar[a][top]] >> bar[b][top] & 1
             for c in r if bar[a][bar[b][c]] != bar[a][c]),
            render,
        ),
        "adjoint_bound": first_counterexample(
            ((a, b) for a in r for b in r
             if not up[bar[a][perp[bar[a][b]]]] >> perp[b] & 1),
            render,
        ),
        "self_adjoint": first_counterexample(
            ((a, b, c) for a in r for b in r for c in r
             if (up[c] >> perp[bar[a][b]] & 1) != (up[bar[a][c]] >> perp[b] & 1)),
            render,
        ),
        "join_preserving": first_counterexample(
            ((a, b, c) for a in r for b in r for c in r
             if bar[a][join[b][c]] != join[bar[a][b]][bar[a][c]]),
            render,
        ),
    }


# --------------------------------------------------------------- formula


def sasaki_formula_check(
    x: Orthoset,
    node_budget: int | None = None,
    family_budget: int | None = None,
) -> Verdict:
    """Point-closed Sasaki spaces determine their maps uniquely:
    phi(e) is the single element of (closure of {e} joined with perp(A))
    intersected with A, and no second Sasaki map to A exists."""
    pc = x.is_point_closed()
    if not pc.holds:
        raise HypothesisViolation("point-closed", pc.witness)
    space = is_sasaki_space(x, "naive", node_budget, family_budget)
    if not space.is_sasaki:
        assert space.first_failure is not None
        raise HypothesisViolation("sasaki-space", x.labels_of(space.first_failure))
    for am in x._closed_masks(family_budget):
        a = frozenset(_bits(am))
        table = space.witnesses[a].table
        aperp = x._perp(am)
        for e in _bits(x._full & ~aperp):
            predicted = x._perp(x._perp(1 << e | aperp)) & am
            if predicted != 1 << table[e]:
                return Verdict(False, witness=(x._labels(am), x.labels[e], x._labels(predicted)))
        maps = count_sasaki_maps(x, a, limit=2, budget=node_budget)
        if len(maps) != 1:
            return Verdict(False, witness=(x._labels(am), "non-unique"))
    return Verdict(True)


# ----------------------------------------------------------------- report


def property_report(
    x: Orthoset,
    name: str = "orthoset",
    transitive_bound: int | None = None,
    node_budget: int | None = None,
    family_budget: int | None = None,
    clique_budget: int | None = None,
) -> PropertyReport:
    """Assemble the standard per-orthoset report used by the CLI."""
    naive = is_sasaki_space(x, "naive", node_budget, family_budget)
    reduced = is_sasaki_space(x, "reduced", node_budget, family_budget, clique_budget)
    try:
        transitive: Verdict | None = x.is_transitive(transitive_bound)
        if transitive is not None and transitive.holds:
            transitive = Verdict(True)  # drop the bulky certificate table
    except BudgetExceededError:
        transitive = None
    return PropertyReport(
        name=name,
        n=x.n,
        rank=x.rank(clique_budget),
        point_closed=x.is_point_closed(),
        irreducible=x.is_irreducible(),
        dacey=dacey_criterion(x, family_budget_=family_budget, clique_budget_=clique_budget),
        sasaki_naive=naive.as_verdict(x),
        sasaki_reduced=reduced.as_verdict(x),
        transitive=transitive,
    )
