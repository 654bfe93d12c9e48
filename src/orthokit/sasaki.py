"""Sasaki maps on orthosets.

A Sasaki map to an orthoclosed set A is a map from the complement of
A-perp into A that fixes A pointwise and satisfies the adjointness
condition: phi(e) orthogonal to f iff e orthogonal to phi(f), quantified
over all ordered pairs of the domain, the diagonal included.

The witness search is a deterministic backtracking over free domain
elements in index order with values tried in index order, so the first
witness found is the lexicographically least.  Nonexistence is certified
by a replayable refutation trace: the pruned branches with their violated
pairs, which verify_refutation re-checks independently of the search.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from .config import node_budget as node_budget_cfg
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
from .orthoset import ClosureTable, Orthoset, PropertyReport, Subset, Verdict, first_counterexample, subset_key


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


def _require_orthoclosed(x: Orthoset, a: Subset) -> None:
    if not x.is_orthoclosed(a):
        raise NotOrthoclosedError(
            f"target {tuple(x.labels_of(a))!r} is not orthoclosed"
        )


def is_sasaki_map(x: Orthoset, a: Subset, table: Mapping[int, int]) -> Verdict:
    """Check a candidate table against the Sasaki map conditions.

    Domain and range problems are input errors; condition failures are
    verdicts carrying the first violated element or ordered pair.
    """
    _require_orthoclosed(x, a)
    domain = x.universe - x.perp(a)
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


def _enumerate_maps(
    x: Orthoset,
    a: Subset,
    budget: int,
    limit: int,
    want_trace: bool,
) -> tuple[list[dict[int, int]], list[tuple[tuple[int, ...], tuple[int, int]]], list[int], int]:
    """Backtracking core; returns (found tables, trace, free order, nodes)."""
    aperp = x.perp(a)
    fixed = sorted(a)
    free = [e for e in sorted(x.universe - aperp) if e not in a]
    adj = x.adj
    assign: dict[int, int] = {e: e for e in fixed}
    prefix: list[int] = []
    found: list[dict[int, int]] = []
    trace: list[tuple[tuple[int, ...], tuple[int, int]]] = []
    nodes = 0

    def first_conflict(e: int, v: int, k: int) -> tuple[int, int] | None:
        # against the fixed part: phi(e) orth a  iff  e orth a
        for t in fixed:
            if (t in adj[v]) != (t in adj[e]):
                return (e, t)
        # against earlier free assignments, both orientations
        for j in range(k):
            f = free[j]
            w = assign[f]
            if (f in adj[v]) != (w in adj[e]) or (e in adj[w]) != (v in adj[f]):
                return (e, f)
        return None

    def extend(k: int) -> bool:
        nonlocal nodes
        if k == len(free):
            found.append(dict(assign))
            return len(found) >= limit
        e = free[k]
        for v in fixed:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"sasaki search exceeded {budget} nodes")
            conflict = first_conflict(e, v, k)
            if conflict is not None:
                if want_trace:
                    trace.append((tuple(prefix) + (v,), conflict))
                continue
            assign[e] = v
            prefix.append(v)
            done = extend(k + 1)
            prefix.pop()
            del assign[e]
            if done:
                return True
        return False

    extend(0)
    return found, trace, free, nodes


def find_sasaki_map(x: Orthoset, a: Subset, budget: int | None = None) -> SasakiVerdict:
    """Lexicographically least Sasaki map to a, or a refutation trace."""
    _require_orthoclosed(x, a)
    found, trace, free, nodes = _enumerate_maps(
        x, a, node_budget_cfg(budget), limit=1, want_trace=True
    )
    if found:
        return SasakiVerdict(True, SasakiMapWitness(a, found[0]), None, nodes)
    return SasakiVerdict(
        False, None, RefutationTrace(a, tuple(free), tuple(trace)), nodes
    )


def count_sasaki_maps(x: Orthoset, a: Subset, limit: int = 2,
                      budget: int | None = None) -> list[SasakiMapWitness]:
    """Up to `limit` Sasaki maps in lexicographic order (uniqueness checks)."""
    if limit < 1:
        raise InputError(f"map count limit must be at least 1, got {limit}")
    _require_orthoclosed(x, a)
    found, _, _, _ = _enumerate_maps(
        x, a, node_budget_cfg(budget), limit=limit, want_trace=False
    )
    return [SasakiMapWitness(a, t) for t in found]


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
    _require_orthoclosed(x, a)
    aperp = x.perp(a)
    domain = x.universe - aperp
    if aperp == x.universe - a:
        return ShortcutResult("a", SasakiMapWitness(a, {e: e for e in domain}))
    if all(f in x.adj[e] for e in domain for f in domain if e < f):
        # a perp-set complement forces perp(A) to be the complement of A
        return ShortcutResult("b", SasakiMapWitness(a, {e: e for e in domain}))
    if len(a) == 1:
        target = next(iter(a))
        return ShortcutResult("c", SasakiMapWitness(a, {e: target for e in domain}))
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
        targets = sorted(
            {x.perp(d) for d in x.perp_sets(budget=clique_budget)}, key=subset_key
        )
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
    x._check(a)
    to_lat = [lat.index(label) for label in x.labels]
    if a:
        gen = lat.bottom
        for e in a:
            gen = lat.join(gen, to_lat[e])
    else:
        gen = lat.bottom
    principal = frozenset(e for e in range(x.n) if lat.leq(to_lat[e], gen))
    if principal != a:
        raise NotPrincipalError(
            f"target {tuple(x.labels_of(a))!r} is not the trace of a principal down-set"
        )
    domain = x.universe - x.perp(a)
    table: dict[int, int] = {}
    lat_index_of = {to_lat[e]: e for e in range(x.n)}
    for e in domain:
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
    return FinchReport(laws=_finch_laws(x, list(space.targets), space.witnesses))


def _finch_laws(
    x: Orthoset,
    family: list[Subset],
    witnesses: Mapping[Subset, SasakiMapWitness],
) -> dict[str, Verdict]:
    """The five law verdicts, first counterexample in lexicographic order of
    family positions.

    `family` is x's orthoclosed family in canonical order.  Each induced
    value bar[a][b] is one mask closure; the law loops are then lookups in
    the closure table, since every set they name is a member.
    """
    t = ClosureTable(x, family)
    r = range(len(t.sets))
    up, perp, top = t.up, t.perp, t.index[t.full]
    bar: list[list[int]] = []
    for a in r:
        table = witnesses[t.sets[a]].table
        aperp = t.sets[perp[a]]
        # the set of image bits, summed, is the mask of the image
        bar.append([
            t.close(sum({1 << table[e] for e in t.sets[b] if e not in aperp}))
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
    for a in space.targets:
        witness = space.witnesses[a]
        aperp = x.perp(a)
        for e in sorted(x.universe - aperp):
            predicted = x.closure(frozenset((e,)) | aperp)[0] & a
            if predicted != frozenset((witness.table[e],)):
                return Verdict(
                    False,
                    witness=(x.labels_of(a), x.labels[e], x.labels_of(predicted)),
                )
        maps = count_sasaki_maps(x, a, limit=2, budget=node_budget)
        if len(maps) != 1:
            return Verdict(False, witness=(x.labels_of(a), "non-unique"))
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
