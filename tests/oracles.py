"""Independent slow oracles used to cross-check the library.

Everything here recomputes from raw adjacency by full enumeration over
subset bitmasks; none of it shares code with the package's budgeted or
pruned implementations.
"""
from __future__ import annotations

from itertools import combinations

from orthokit import Orthoset, Subset, subset_key


def perp_by_scan(x: Orthoset, s: Subset) -> Subset:
    return frozenset(
        i for i in range(x.n) if all(i in x.adj[j] for j in s)
    )


def family_by_scan(x: Orthoset) -> list[Subset]:
    """All subsets fixed by the double-perp, by scanning the whole powerset."""
    out = []
    for mask in range(1 << x.n):
        s = frozenset(i for i in range(x.n) if mask >> i & 1)
        if perp_by_scan(x, perp_by_scan(x, s)) == s:
            out.append(s)
    return sorted(out, key=subset_key)


def is_clique(x: Orthoset, s: Subset) -> bool:
    return all(j in x.adj[i] for i, j in combinations(sorted(s), 2))


def rank_by_scan(x: Orthoset) -> int:
    best = 0
    for mask in range(1 << x.n):
        s = frozenset(i for i in range(x.n) if mask >> i & 1)
        if is_clique(x, s):
            best = max(best, len(s))
    return best


def maximal_cliques_by_scan(x: Orthoset, within: Subset) -> list[Subset]:
    cliques = []
    members = sorted(within)
    for mask in range(1 << len(members)):
        s = frozenset(members[i] for i in range(len(members)) if mask >> i & 1)
        if is_clique(x, s):
            cliques.append(s)
    maximal = [s for s in cliques if not any(s < t for t in cliques)]
    return sorted(maximal, key=subset_key)


def finch_laws_by_scan(x: Orthoset, family: list[Subset], witnesses) -> dict:
    """The five induced-map laws of finch_report, straight from their
    definitions: every perp is perp_by_scan, every closure its double, and
    the induced value of target a on b is the closure of the image of the
    part of b outside perp(a).  Each law maps to (holds, first
    counterexample as label tuples), loops in family order."""
    def perp(s):
        return perp_by_scan(x, s)

    def close(s):
        return perp(perp(s))

    cache: dict = {}

    def bar(a, b):
        if (a, b) not in cache:
            outside = b - perp(a)
            cache[(a, b)] = close(frozenset(witnesses[a].table[e] for e in outside))
        return cache[(a, b)]

    def first(failures):
        sets = next(failures, None)
        if sets is None:
            return (True, None)
        return (False, tuple(tuple(x.labels[i] for i in sorted(s)) for s in sets))

    fam = list(family)
    top = frozenset(range(x.n))
    return {
        "monotone": first(
            (a, b, c) for a in fam for b in fam for c in fam
            if b <= c and not bar(a, b) <= bar(a, c)
        ),
        "composition": first(
            (a, b, c) for a in fam for b in fam if bar(a, top) <= bar(b, top)
            for c in fam if bar(a, bar(b, c)) != bar(a, c)
        ),
        "adjoint_bound": first(
            (a, b) for a in fam for b in fam
            if not bar(a, perp(bar(a, b))) <= perp(b)
        ),
        "self_adjoint": first(
            (a, b, c) for a in fam for b in fam for c in fam
            if (c <= perp(bar(a, b))) != (bar(a, c) <= perp(b))
        ),
        "join_preserving": first(
            (a, b, c) for a in fam for b in fam for c in fam
            if bar(a, close(b | c)) != close(bar(a, b) | bar(a, c))
        ),
    }
